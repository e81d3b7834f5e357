import copy
import pickle

import pytest

from kroncalc.partition import (
    FrobeniusCoords,
    Partition,
    _conjugate,
    as_hook,
    as_partition,
    as_near_hook,
    as_two_row,
    contains,
    format_partition,
    from_frobenius,
    hook_partition,
    is_double_hook,
    is_horizontal_strip,
    parse_partition,
    partition_count,
    partitions_inside,
    partitions_list,
    partitions_of,
    tail,
    tail_ones,
    tail_twos,
)
from kroncalc.nearhook import index_set_minus, index_set_plus, near_hook_expansion
from kroncalc.rosas import rosas_report, xi_report
from kroncalc.symfun import SchurVector, kronecker_coefficient, kronecker_row
from kroncalc.tableau import lr_coefficient, schur_expand_product, strip_chain_count


def test_construction_normalizes_trailing_zeros():
    assert Partition((5, 2, 0, 0)) == Partition((5, 2))
    assert Partition(()) == ()
    assert Partition((3,)).size == 3
    assert Partition(()).size == 0 and Partition((4, 2, 1, 1)).size == 8


def test_size_is_read_only():
    p = Partition((3, 1))
    with pytest.raises(AttributeError):
        p.size = 5
    with pytest.raises(AttributeError):
        del p.size
    assert p.size == 4 and Partition.size.__doc__


def test_pickle_and_copy_round_trip():
    for p in (Partition(()), Partition((1,)), Partition((5, 2, 2, 1))):
        copies = [pickle.loads(pickle.dumps(p, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for q in copies + [copy.copy(p), copy.deepcopy(p)]:
            assert type(q) is Partition
            assert q == p


def test_construction_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_transpose_examples():
    assert Partition(()).transpose() == Partition(())
    assert Partition((5, 2, 1)).transpose() == Partition((3, 2, 1, 1, 1))
    # (M-S, S) with M = c+2 transposes to (2^S, 1^(M-2S)); c = 4, S = 2
    assert Partition((4, 2)).transpose() == Partition((2, 2, 1, 1))


def test_transpose_involution_small():
    for n in range(9):
        for lam in partitions_list(n):
            assert lam.transpose().transpose() == lam


def test_transpose_matches_column_count():
    for n in range(13):
        for lam in partitions_list(n):
            columns = tuple(
                sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)
            )
            first = lam.transpose()
            assert type(first) is Partition and first == columns
            # the memoized result is an immutable Partition, returned again unchanged
            assert lam.transpose() is first and first == columns


def test_frobenius_examples():
    # (a, b, 1^c) with a >= b >= 2 has arms (a-1, b-2) and legs (c+1, 0)
    lam = Partition((4, 3, 1, 1))
    assert lam.frobenius() == FrobeniusCoords((3, 1), (3, 0))
    assert Partition((1,)).frobenius() == FrobeniusCoords((0,), (0,))
    # direct arm/leg count on the diagram
    assert Partition((4, 3, 1)).frobenius() == FrobeniusCoords((3, 1), (2, 0))
    assert Partition(()).frobenius() == FrobeniusCoords((), ())


def test_frobenius_round_trip():
    for n in range(13):
        for lam in partitions_list(n):
            coords = lam.frobenius()
            assert sum(coords.arms) + sum(coords.legs) + coords.diagonal == n
            assert from_frobenius(coords) == lam


def _cell_count_transpose(lam):
    """The retired ``Partition.transpose`` body: one count per cell."""
    if not lam:
        return Partition(())
    cols = [0] * lam[0]
    for p in lam:
        for j in range(p):
            cols[j] += 1
    return Partition(cols)


def _row_loop_from_frobenius(coords):
    """The retired ``from_frobenius`` body: recount each row below the diagonal."""
    arms, legs = coords.arms, coords.legs
    d = len(arms)
    rows = [arms[i] + i + 1 for i in range(d)]
    depth = max((legs[j] + j + 1 for j in range(d)), default=0)
    for i in range(d, depth):
        rows.append(sum(1 for j in range(d) if legs[j] + j + 1 >= i + 1))
    return Partition(rows)


def test_one_conjugation_matches_the_retired_references():
    # past the n <= 12 of the partitions suite
    for n in range(15):
        for lam in partitions_list(n):
            reference = _cell_count_transpose(lam)
            # the hook graph passes plain tuples, transpose a Partition
            assert _conjugate(lam) == _conjugate(tuple(lam)) == tuple(reference), lam
            assert type(_conjugate(lam)) is tuple
            assert lam.transpose() == reference, lam
            coords = lam.frobenius()
            assert from_frobenius(coords) == _row_loop_from_frobenius(coords) == lam, lam


@pytest.mark.parametrize(
    "coords,message",
    [
        (FrobeniusCoords((2, 0), (0, 0)), r"\(0, 0\) is not a strictly decreasing sequence"),
        (FrobeniusCoords((-1,), (0,)), r"\(-1,\) is not a strictly decreasing sequence"),
        (FrobeniusCoords((1,), ()), "arm and leg sequences must have equal length"),
    ],
    ids=["legs-not-decreasing", "negative-arm", "unequal-lengths"],
)
def test_from_frobenius_rejects_invalid_coordinates(coords, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        from_frobenius(coords)


def test_contains():
    assert contains((), (3, 1))
    assert contains((4, 3), (5, 3, 2))
    assert not contains((2, 2), (3, 1))


def test_horizontal_strip():
    assert is_horizontal_strip((3, 2), (3, 2))
    assert is_horizontal_strip((4, 3), (5, 4))
    # one cell in column 4 row 2 and one in column 1 row 3: still single cells
    # per column, so this is a horizontal strip
    assert is_horizontal_strip((4, 3), (4, 4, 1))
    assert not is_horizontal_strip((2,), (3, 3))
    with pytest.raises(ValueError):
        is_horizontal_strip((3, 3), (4, 2))


def test_tail_counts():
    assert tail((3, 2, 1, 1, 1)) == (1, 1, 1)
    assert tail_twos((3, 2, 1, 1, 1)) == 0
    assert tail_ones((3, 2, 1, 1, 1)) == 3
    assert tail((5, 3)) == ()
    assert tail_twos((3, 2, 2, 2, 1)) == 2
    assert tail_ones((3, 2, 2, 2, 1)) == 1


def test_double_hook():
    assert is_double_hook((3, 2, 1, 1, 1), 8)
    assert not is_double_hook((3, 3, 3), 9)
    assert is_double_hook((9,), 9)
    assert not is_double_hook((3, 2), 6)  # wrong size


def test_partitions_of_a_negative_size_raises():
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        next(partitions_of(-1))


def test_partitions_of_order_and_counts():
    assert list(partitions_of(0)) == [Partition(())]
    assert [tuple(p) for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(partitions_list(8)) == 22
    for n in range(31):
        assert len(partitions_list(n)) == partition_count(n)


def _partitions_recursive(n):
    """Reference: the partitions of n, largest first part first, by recursion."""

    def rec(remaining, biggest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, biggest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return [Partition(t) for t in rec(n, n)]


def test_partitions_of_matches_recursive_reference():
    for n in range(31):  # verify partitions counts up to 30
        got = list(partitions_of(n))
        assert got == _partitions_recursive(n), n
        assert all(type(p) is Partition for p in got)


def test_partitions_of_yields_validated_partitions_in_order():
    # the parts are wrapped without the constructor; each must still be one
    for n in range(31):
        got = list(partitions_of(n))
        assert len(got) == partition_count(n)
        for p in got:
            assert type(p) is Partition
            assert p == Partition(tuple(p))
        # reverse-lexicographic order is strictly decreasing tuple order
        assert all(a > b for a, b in zip(got, got[1:])), n


def test_partitions_inside_match_a_filtered_scan():
    # every outer with |outer| <= 12 and every size up to one past |outer|
    cases = 0
    for m in range(13):
        for outer in partitions_list(m):
            for size in range(m + 2):
                got = list(partitions_inside(outer, size))
                assert got == [p for p in partitions_list(size) if contains(p, outer)], (outer, size)
                assert all(type(p) is Partition for p in got)
                cases += 1
    assert cases == 3190
    assert list(partitions_inside((), 0)) == [Partition(())]
    with pytest.raises(ValueError, match="size must be nonnegative"):
        next(partitions_inside((3, 1), -1))


def test_parse_and_format():
    assert parse_partition("6,2,1^6") == Partition((6, 2, 1, 1, 1, 1, 1, 1))
    assert parse_partition("4,1^4") == Partition((4, 1, 1, 1, 1))
    assert parse_partition("()") == Partition(())
    assert format_partition(Partition((5, 2, 1))) == "5,2,1"
    assert format_partition(Partition(())) == "()"
    for n in range(7):
        for lam in partitions_list(n):
            assert parse_partition(format_partition(lam)) == lam


def test_shape_classifiers():
    assert as_hook((4, 1, 1)) == (4, 2)
    assert as_hook((3, 2)) is None
    assert as_hook((5,)) == (5, 0)
    assert as_two_row((4, 2)) == (4, 2)
    assert as_two_row((4,)) == (4, 0)
    assert as_two_row((2, 1, 1)) is None
    assert as_near_hook((4, 3, 1, 1)) == (4, 3, 2)
    assert as_near_hook((4, 1, 1)) is None
    assert as_near_hook((3, 2)) == (3, 2, 0)
    assert hook_partition(3, 2) == Partition((3, 1, 1))


def test_hook_partition_builds_every_hook_and_rejects_bad_parameters():
    for arm in range(1, 6):
        for legs in range(5):
            hook = hook_partition(arm, legs)
            assert type(hook) is Partition and hook == Partition((arm,) + (1,) * legs)
            assert as_hook(hook) == (arm, legs)
    for arm, legs in [(0, 2), (-1, 0), (3, -1)]:
        with pytest.raises(ValueError):
            hook_partition(arm, legs)
    for arm, legs in [(2.5, 1), (2, 1.5)]:
        with pytest.raises(TypeError):
            hook_partition(arm, legs)


def test_existing_partition_is_returned_unchanged():
    lam = Partition((4, 2, 1))
    assert Partition(lam) is lam
    assert Partition([4, 2, 1, 0]) == lam
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_public_entry_points_still_reject_bad_partitions():
    from kroncalc.rosas import rosas_kronecker
    from kroncalc.symfun import kronecker_coefficient
    from kroncalc.tableau import lr_coefficient

    bad = (1, 2)
    for call in (
        lambda: contains(bad, (3,)),
        lambda: contains((), bad),
        lambda: tail(bad),
        lambda: is_double_hook(bad, 3),
        lambda: as_hook(bad),
        lambda: lr_coefficient((2, 1), (1,), bad),
        lambda: kronecker_coefficient((2, 1), (3,), bad),
        lambda: rosas_kronecker(3, 1, 1, 1, bad),
    ):
        with pytest.raises(ValueError):
            call()


def test_construction_rejects_non_integer_parts():
    with pytest.raises(ValueError):
        Partition((2.5, 1))
    with pytest.raises(ValueError):
        Partition((2.0, 1))
    with pytest.raises(ValueError):
        Partition(("2", "1"))


def test_parse_rejects_negative_exponent():
    with pytest.raises(ValueError):
        parse_partition("1^-3,3")
    with pytest.raises(ValueError):
        parse_partition("2^-1")
    assert parse_partition("3,1^0") == Partition((3,))


def test_as_partition_returns_partitions_unchanged():
    p = Partition((3, 1))
    assert as_partition(p) is p
    assert type(as_partition((3, 1, 0))) is Partition and as_partition([3, 1]) == p
    with pytest.raises(ValueError):
        as_partition((1, 2))


# (function, arguments, positions of the partition arguments), all given as tuples
COERCING_CALLS = [
    (kronecker_coefficient, ((3, 1), (2, 2), (2, 1, 1)), (0, 1, 2)),
    (kronecker_row, ((3, 1), (2, 2)), (0, 1)),
    (lr_coefficient, ((3, 2, 1), (2, 1), (2, 1)), (0, 1, 2)),
    (strip_chain_count, ((4, 2, 1), (2, 1), 2, 2), (0, 1)),
    (contains, ((2, 1), (3, 1)), (0, 1)),
    (is_double_hook, ((3, 2, 2, 1), 8), (0,)),
    (xi_report, ((3, 2, 1), 3, 1, 2), (0,)),
    (rosas_report, (6, 2, 3, 2, (3, 2, 1)), (4,)),
    (lambda lam, mu: SchurVector({lam: 2, mu: -1}), ((2, 1), (3,)), (0, 1)),
    (lambda lam: SchurVector({(2, 1): 3})[lam], ((2, 1),), (0,)),
    (near_hook_expansion, ((3, 2, 1), (2, 2, 1, 1), 2, 2, 2), (0, 1)),
    (schur_expand_product, ((2, 1), (2,)), (0, 1)),
    (index_set_plus, ((2, 2, 1), 2, 2, 1), (0,)),
    (index_set_minus, ((2, 2, 1), 2, 2, 1), (0,)),
]

# entry points whose partition arguments may also be lists
LIST_CALLS = (kronecker_row, strip_chain_count, index_set_plus, index_set_minus)


COERCING_NAMES = [
    "kronecker_coefficient", "kronecker_row", "lr_coefficient", "strip_chain_count", "contains",
    "is_double_hook", "xi_report", "rosas_report", "SchurVector", "SchurVector_getitem",
    "near_hook_expansion", "schur_expand_product", "index_set_plus", "index_set_minus",
]


@pytest.mark.parametrize("fn,args,positions", COERCING_CALLS, ids=COERCING_NAMES)
def test_coercing_entry_points_agree_on_tuples_and_partitions(fn, args, positions):
    # the memoized names are called through __wrapped__ so that the second
    # call computes its value instead of finding the first one's
    compute = getattr(fn, "__wrapped__", fn)
    as_partitions = tuple(Partition(x) if i in positions else x for i, x in enumerate(args))
    assert compute(*args) == compute(*as_partitions) == fn(*as_partitions)
    if fn in LIST_CALLS:
        as_lists = tuple(list(x) if i in positions else x for i, x in enumerate(args))
        assert fn(*as_lists) == compute(*args)
    for i in positions:
        for bad in ((1, 2), (2, -1)):
            with pytest.raises(ValueError):
                fn(*args[:i], bad, *args[i + 1 :])
