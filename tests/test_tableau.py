import hashlib
import random
from functools import cache

import pytest

from kroncalc.partition import Partition, contains, is_horizontal_strip, partitions_list
from kroncalc.tableau import (
    SkewSSYT,
    _lr_table,
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
    two_row_interval,
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
    with pytest.raises(ValueError, match="^one label row per outer row required$"):
        SkewSSYT((2, 1), (), [(1, 1)])
    with pytest.raises(ValueError, match="^labels must be positive integers$"):
        SkewSSYT((1,), (), [(0,)])
    with pytest.raises(ValueError, match=r"^Partition\(\(3,\)\) not contained in Partition\(\(2,\)\)$"):
        SkewSSYT((2,), (3,), [()])
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


def test_two_row_interval_and_lr_two_row_match_lr_coefficient():
    cases = 0
    for total in range(15):
        for x in range(total + 1):
            for y in range(min(x, total - x) + 1):
                for u in range(total - x - y + 1):
                    v = total - x - y - u
                    if v > u:
                        continue
                    lo, hi = two_row_interval(x, y, u, v)
                    for d in range((total + 1) // 2, total + 1):
                        e = total - d
                        expected = lr_coefficient((d, e), (x, y), (u, v))
                        assert (lo <= d <= hi) == expected, (x, y, u, v, d)
                        assert lr_two_row(x, y, u, v, d, e) == expected, (x, y, u, v, d)
                        cases += 1
    assert cases == 6042


def test_lr_symmetry_small():
    for n in range(7):
        for lam in partitions_list(n):
            for k in range(n + 1):
                for mu in partitions_list(k):
                    for nu in partitions_list(n - k):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            lam, nu, mu
                        )


def _random_skew(rng, n: int, cells: int) -> tuple[Partition, Partition]:
    """outer of size n with 6-10 rows, and inner left by removing cells random corners."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(6, 10) - 1))
    outer = Partition(sorted((y - x for x, y in zip([0] + cuts, cuts + [n])), reverse=True))
    rows = list(outer)
    for _ in range(cells):
        corners = [r for r, part in enumerate(rows) if part and (r + 1 == len(rows) or rows[r + 1] < part)]
        rows[rng.choice(corners)] -= 1
    return outer, Partition(rows)


def test_lr_symmetries_at_n_27_to_40():
    # the oracle computes no LR coefficient, so at these sizes identities such
    # as these are the LR walk's only check; c^nu_{lam mu} = c^nu_{mu lam} reads
    # the table of a second skew shape, c^nu_{lam mu} = c^nu'_{lam' mu'} a
    # conjugate walk
    rng = random.Random(2026)
    entries = 0
    for _ in range(30):
        nu, lam = _random_skew(rng, rng.randint(27, 40), rng.randint(5, 9))
        for mu, coeff in lr_weight_support(nu, lam):
            assert lr_coefficient(nu, mu, lam) == coeff, (nu, lam, mu)
            assert lr_coefficient(nu.transpose(), lam.transpose(), mu.transpose()) == coeff, (
                nu, lam, mu
            )
            entries += 1
    assert entries == 356


@cache
def _skew_standard_count(outer: tuple, inner: tuple) -> int:
    """f^{outer/inner}: standard fillings, counted by removing the cell of the largest label."""
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for r, part in enumerate(outer):
        below = outer[r + 1] if r + 1 < len(outer) else 0
        if part > max(below, inner[r] if r < len(inner) else 0):
            total += _skew_standard_count(outer[:r] + (part - 1,) + outer[r + 1 :], inner)
    return total


def test_lr_skew_dimension_identity_at_n_27_to_40():
    # sum_mu c^nu_{lam mu} f^mu = f^{nu/lam}: the left side reads the LR walk,
    # the right side counts standard fillings of nu/lam with no LR code
    rng = random.Random(47)
    entries = 0
    for _ in range(30):
        nu, lam = _random_skew(rng, rng.randint(27, 40), rng.randint(5, 9))
        support = lr_weight_support(nu, lam)
        total = sum(coeff * dimension(mu) for mu, coeff in support)
        assert total == _skew_standard_count(tuple(nu), tuple(lam)), (nu, lam)
        entries += len(support)
    assert entries == 340


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


def test_strip_chain_count_matches_brute_force():
    cases = 0
    for n in range(10):
        for nu in partitions_list(n):
            for m in range(n + 1):
                for eta in partitions_list(m):
                    if not contains(eta, nu):
                        continue
                    for size1 in range(n - m + 1):
                        expected = sum(
                            contains(eta, kappa)
                            and contains(kappa, nu)
                            and is_horizontal_strip(eta, kappa)
                            and is_horizontal_strip(kappa, nu)
                            for kappa in partitions_list(m + size1)
                        )
                        got = strip_chain_count(nu, eta, size1, n - m - size1)
                        assert got == expected, (nu, eta, size1)
                        cases += 1
    assert cases == 7367


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


def _lr_reference(outer: Partition, inner: Partition, weight) -> int:
    """c^outer_{inner, weight} by a walk over the fillings of that one weight.

    Cells are filled in reading order; a label v is admissible when it keeps
    the row weakly increasing, the column strictly increasing, the weight
    within budget, and the Yamanouchi prefix inequality counts[v] < counts[v-1].
    """
    if inner.size + sum(weight) != outer.size or not contains(inner, outer):
        return 0
    cells = []
    for r in range(len(outer)):
        lo = inner.part(r + 1)
        for c in range(outer[r] - 1, lo - 1, -1):
            cells.append((r, c))
    grid = [[0] * outer[r] for r in range(len(outer))]
    return _reference_fill(0, cells, grid, [0] * (len(weight) + 1), weight, outer)


def _reference_fill(k, cells, grid, counts, weight, outer) -> int:
    """Fillings that complete grid from cell k on, with counts[v] labels v placed."""
    if k == len(cells):
        return 1
    r, c = cells[k]
    row = grid[r]
    hi = row[c + 1] if c + 1 < outer[r] else len(weight)
    lo = grid[r - 1][c] if r > 0 and c < outer[r - 1] else 0
    total = 0
    for v in range(lo + 1, hi + 1):
        if counts[v] >= weight[v - 1]:
            continue
        if v > 1 and counts[v] >= counts[v - 1]:
            continue
        row[c] = v
        counts[v] += 1
        total += _reference_fill(k + 1, cells, grid, counts, weight, outer)
        counts[v] -= 1
    return total


def test_lr_tables_match_the_weight_budgeted_walk():
    shapes = [lam for n in range(10) for lam in partitions_list(n)]
    pairs = fillings = 0
    for lam in shapes:
        for mu in shapes:
            if mu.size > lam.size:
                continue
            expected = {}
            for weight in partitions_list(lam.size - mu.size):
                if count := _lr_reference(lam, mu, weight):
                    expected[weight] = count
            assert _lr_table(lam, mu) == expected, (lam, mu)
            pairs += 1
            fillings += sum(expected.values())
    assert (pairs, fillings) == (5614, 2793)


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
                rest, lambda weight: _lr_reference(lam, fixed, weight)
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


# sha256 over repr([t.rows for t in lr_tableaux(lam, mu, nu)]) for every
# (lam, mu, nu) with |lam| <= 7 and |mu| + |nu| = |lam|, with |lam|, lam, |mu|,
# mu and nu each running in partitions_list order (2,760 triples, 637
# tableaux).  Computed with the generator walker, before the fillings were
# counted; it pins the order in which lr_tableaux lists them.
LR_TABLEAUX_DIGEST_N7 = "d460e7519b08af24684096a8daecff6e3bd29acb24ba7ad56393bf449ee016dd"


def test_lr_tableaux_agree_with_the_count_in_pinned_order():
    h = hashlib.sha256()
    for n in range(8):
        for lam in partitions_list(n):
            for k in range(n + 1):
                for mu in partitions_list(k):
                    for nu in partitions_list(n - k):
                        tableaux = lr_tableaux(lam, mu, nu)
                        assert len(tableaux) == lr_coefficient(lam, mu, nu), (lam, mu, nu)
                        h.update(repr([t.rows for t in tableaux]).encode())
    assert h.hexdigest() == LR_TABLEAUX_DIGEST_N7
