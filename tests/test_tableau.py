import pytest

from kroncalc.partition import Partition, contains, is_horizontal_strip, partitions_list
from kroncalc.tableau import (
    SkewSSYT,
    dimension,
    is_yamanouchi,
    lr_coefficient,
    lr_outer_support,
    lr_tableaux,
    lr_two_row,
    lr_via_strip_difference,
    lr_weight_support,
    schur_expand_product,
    strip_chain_count,
)

# the two fillings of shape 5421/42 and weight 411
FIRST_LR = SkewSSYT(
    Partition((5, 4, 2, 1)),
    Partition((4, 2)),
    ((1,), (1, 1), (1, 2), (3,)),
)
SECOND_LR = SkewSSYT(
    Partition((5, 4, 2, 1)),
    Partition((4, 2)),
    ((1,), (1, 2), (1, 1), (3,)),
)


def test_skew_validation():
    with pytest.raises(ValueError):
        SkewSSYT(Partition((2, 2)), Partition(()), ((1, 1), (1, 1)))  # column tie
    with pytest.raises(ValueError):
        SkewSSYT(Partition((2,)), Partition(()), ((2, 1),))  # row decreasing
    with pytest.raises(ValueError):
        SkewSSYT(Partition((2,)), Partition(()), ((1,),))  # wrong row length
    assert FIRST_LR.outer == (5, 4, 2, 1) and type(FIRST_LR.inner) is Partition
    with pytest.raises(AttributeError):
        FIRST_LR.rows = ()


def test_reading_word():
    assert FIRST_LR.reading_word() == (1, 1, 1, 2, 1, 3)
    assert FIRST_LR.weight() == (4, 1, 1)
    one_row = SkewSSYT(Partition((3,)), Partition(()), ((1, 1, 2),))
    assert one_row.reading_word() == (2, 1, 1)
    empty = SkewSSYT(Partition(()), Partition(()), ())
    assert empty.reading_word() == ()


def test_yamanouchi():
    assert is_yamanouchi((1, 1, 1, 2, 1, 3))
    assert not is_yamanouchi((2,))
    assert is_yamanouchi(())
    assert not is_yamanouchi((1, 1, 1, 3, 1, 2))


def test_lr_coefficient_values():
    assert lr_coefficient((4, 3, 1, 1), (3, 2, 1), (2, 1)) == 2
    assert lr_coefficient((5, 4, 2, 1), (4, 2), (4, 1, 1)) == 2
    assert lr_coefficient((6, 5), (5, 2), (3, 1)) == 1
    assert lr_coefficient((5, 3, 2, 1), (4, 3), (3, 1)) == 1
    assert lr_coefficient((5, 3, 2, 1), (4, 2, 1), (3, 1)) == 3
    # degenerate inputs return 0
    assert lr_coefficient((3, 1), (2, 2), (1,)) == 0
    assert lr_coefficient((3, 1), (2,), (1,)) == 0


def test_lr_tableaux_for_5421():
    tabs = lr_tableaux((5, 4, 2, 1), (4, 2), (4, 1, 1))
    assert len(tabs) == 2
    assert set(t.rows for t in tabs) == {FIRST_LR.rows, SECOND_LR.rows}
    for t in tabs:
        assert is_yamanouchi(t.reading_word())


def test_lr_ascii_and_ytableau():
    text = FIRST_LR.to_ascii().splitlines()
    assert text[0] == ". . . . 1"
    assert text[3] == "3"
    assert FIRST_LR.to_ytableau().startswith("\\begin{ytableau}")


def test_lr_two_row_examples():
    assert lr_two_row(5, 2, 3, 1, 6, 5) == 1
    assert lr_two_row(2, 0, 2, 0, 4, 0) == 1
    with pytest.raises(ValueError):
        lr_two_row(1, 2, 0, 0, 3, 0)
    with pytest.raises(ValueError):
        lr_two_row(2, 1, 1, 0, 3, 2)


def test_lr_two_row_matches_enumeration():
    for total in range(9):
        for x in range(total + 1):
            for y in range(min(x, total - x) + 1):
                for u in range(total - x - y + 1):
                    v = total - x - y - u
                    if v > u:
                        continue
                    for d in range((total + 1) // 2, total + 1):
                        e = total - d
                        assert lr_two_row(x, y, u, v, d, e) == lr_coefficient(
                            (d, e), (x, y), (u, v)
                        ), (x, y, u, v, d, e)


def test_lr_symmetry_small():
    for n in range(7):
        for lam in partitions_list(n):
            for k in range(n + 1):
                for mu in partitions_list(k):
                    for nu in partitions_list(n - k):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            lam, nu, mu
                        )


def test_pieri_specialization():
    for n in range(6):
        for mu in partitions_list(n):
            for k in range(4):
                for lam in partitions_list(n + k):
                    coeff = lr_coefficient(lam, mu, (k,))
                    assert coeff in (0, 1)
                    expected = int(
                        contains(mu, lam) and is_horizontal_strip(mu, lam)
                    )
                    assert coeff == expected


def test_strip_chain_counts():
    assert strip_chain_count((5, 3, 2, 1), (4, 3), 1, 3) == 1
    assert strip_chain_count((5, 3, 2, 1), (4, 3), 0, 4) == 0
    assert strip_chain_count((5, 3, 2, 1), (4, 2, 1), 1, 3) == 4
    assert strip_chain_count((5, 3, 2, 1), (4, 2, 1), 0, 4) == 1
    assert strip_chain_count((4, 2, 1, 1), (2, 2, 1), 1, 2) == 2
    assert strip_chain_count((4, 2, 1, 1), (2, 2, 1), 0, 3) == 1
    # negative sizes count zero by convention
    assert strip_chain_count((3, 1), (3, 1), -1, 4) == 0
    assert strip_chain_count((3, 1), (2, 1), 0, 1) == 1


def test_lr_via_strip_difference():
    assert lr_via_strip_difference((5, 3, 2, 1), (4, 3), 5, 1) == 1
    assert lr_via_strip_difference((5, 3, 2, 1), (4, 2, 1), 5, 1) == 3
    # j = 0 leaves only the first count
    assert lr_via_strip_difference((5, 3, 2, 1), (4, 3), 5, 0) == strip_chain_count(
        (5, 3, 2, 1), (4, 3), 0, 4
    )


def test_strip_difference_matches_lr():
    for n in range(7):
        for nu in partitions_list(n):
            for b in range(1, n + 2):
                big_n = n - b + 1
                if big_n < 0:
                    continue
                for eta in partitions_list(big_n):
                    for j in range((b - 1) // 2 + 1):
                        assert lr_via_strip_difference(nu, eta, b, j) == lr_coefficient(
                            nu, eta, Partition((b - 1 - j, j))
                        )


def test_dimension():
    assert dimension(()) == 1
    assert dimension((3, 2)) == 5
    assert dimension((2, 1)) == 2
    assert dimension((4, 2, 1, 1)) == 90  # 8! / (7*4*2*1*4*1*2*1)


def _scan(size, coefficient):
    """(p, coefficient(p)) over every partition p of size, zeros dropped."""
    return tuple((p, coefficient(p)) for p in partitions_list(size) if coefficient(p))


def test_support_tables_match_full_scans():
    keys = 0
    shapes = [lam for n in range(9) for lam in partitions_list(n)]
    for lam in shapes:
        for fixed in shapes:
            if fixed.size > lam.size:
                continue
            rest = lam.size - fixed.size
            keys += 2
            # c^lam_{inner, fixed} = c^lam_{fixed, inner}: one table lists both
            assert lr_weight_support(lam, fixed) == _scan(
                rest, lambda inner: lr_coefficient(lam, inner, fixed)
            )
            assert lr_weight_support(lam, fixed) == _scan(
                rest, lambda weight: lr_coefficient(lam, fixed, weight)
            )
    for inner in shapes:
        for weight in shapes:
            if inner.size + weight.size > 8:
                continue
            keys += 1
            assert lr_outer_support(inner, weight) == _scan(
                inner.size + weight.size, lambda lam: lr_coefficient(lam, inner, weight)
            )
    assert keys == 5842


def test_support_tables_are_immutable():
    lam, fixed = Partition((5, 4, 2, 1)), Partition((4, 1, 1))
    for table in (
        lr_weight_support(lam, fixed),
        lr_outer_support(fixed, Partition((3, 2, 1))),
    ):
        assert table and type(table) is tuple
        assert all(type(entry) is tuple and type(entry[0]) is Partition for entry in table)
    assert lr_weight_support(lam, Partition((6, 1, 1, 1, 1, 1, 1))) == ()


def test_schur_expand_product_returns_a_fresh_dict():
    first = schur_expand_product((2, 1), (2, 1))
    assert first[Partition((3, 2, 1))] == 2
    first[Partition((3, 2, 1))] = 99
    first[Partition((9,))] = 1
    del first[Partition((4, 2))]
    again = schur_expand_product((2, 1), (2, 1))
    assert again[Partition((3, 2, 1))] == 2
    assert Partition((9,)) not in again and again[Partition((4, 2))] == 1
    assert again is not first
