import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kroncalc.partition import Partition, is_double_hook, partitions_list
from kroncalc.rosas import phi, psi, rosas_kronecker, rosas_report, xi, xi_report
from kroncalc.symfun import kronecker_coefficient


def test_phi_values():
    assert phi(2, 3, 3, 0, 6, 2) == 1
    assert phi(2, 3, 3, 0, 6, 3) == 1
    assert phi(2, 3, 3, 0, 6, 1) == 0
    assert phi(2, 3, 3, 0, 6, 4) == 0
    assert phi(0, 0, 0, 0, 0, 5) == 0


def test_psi_values():
    # matching hooks, interior r: two pair families survive
    assert psi(2, 2, 3, 8) == 2
    assert psi(1, 1, 2, 5) == 1
    assert psi(1, 2, 2, 5) == 2
    # hooks too far apart never meet
    assert psi(0, 1, 4, 9) == 0


def test_xi_branches():
    assert xi((3, 2, 1, 1, 1), 2, 2, 5) == 1
    assert xi_report((3, 2, 1, 1, 1), 2, 2, 5).case == "double-hook"
    assert xi_report((3, 2, 1, 1, 1), 2, 2, 5).arguments == (2, 3, 3, 0, 6, 2)


def test_report_record():
    report = xi_report((3, 2, 1, 1, 1), 2, 2, 5)
    assert repr(report) == (
        "XiCaseReport(case='double-hook', value=1, arguments=(2, 3, 3, 0, 6, 2))"
    )
    with pytest.raises(AttributeError):
        report.value = 0
    assert xi((4, 2, 1), 3, 2, 3) == 1
    # one-row branch
    for r in range(1, 4):
        for c in (0, 1, 2):
            a = 7 - c - 1
            assert xi((7,), a, r, c) == int(c == 0 and r == 1)
    # r = 0 base case
    assert xi((3, 1, 1), 3, 0, 1) == 1
    assert xi((3, 2), 3, 0, 1) == 0
    assert xi_report((3, 1, 1), 3, 0, 1).case == "r-zero"
    # column branch: positive iff the hook transposes onto the two-row shape
    assert xi((1,) * 4, 2, 1, 1) == 1  # (2,1,1) == (3,1)^t
    assert xi((1,) * 4, 2, 1, 0) == 0
    assert xi((1,) * 6, 1, 2, 3) == 0
    with pytest.raises(ValueError):
        xi((3, 2, 1), 2, 4, 1)


def test_branch_tags_are_exclusive():
    tags = set()
    for n in range(1, 10):
        for nu in partitions_list(n):
            for r in range(n // 2 + 1):
                for a in range(1, n):
                    report = xi_report(nu, a, r, n - a - 1)
                    tags.add(report.case)
                    assert report.value >= 0
    assert tags >= {"r-zero", "row-N", "column-1N", "hook", "double-hook", "zero"}


def test_rosas_paper_value():
    assert rosas_kronecker(8, 2, 2, 5, (3, 2, 1, 1, 1)) == 1
    report = rosas_report(8, 2, 2, 5, (3, 2, 1, 1, 1))
    assert report.case == "double-hook" and report.value == 1


def test_rosas_column_hook_case():
    # a = 1 turns the hook into a column; value 1 iff nu is the transpose
    for n in range(2, 9):
        for r in range(n // 2 + 1):
            expected = Partition((n - r, r)).transpose()
            for nu in partitions_list(n):
                assert rosas_kronecker(n, r, 1, n - 2, nu) == int(nu == expected)


def test_rosas_validation():
    with pytest.raises(ValueError):
        rosas_kronecker(6, 1, 2, 2, (3, 2))  # |nu| != 6
    with pytest.raises(ValueError):
        rosas_kronecker(6, 1, 2, 4, (3, 2, 1))  # a + c + 1 != 6
    with pytest.raises(ValueError):
        rosas_kronecker(6, 4, 2, 3, (3, 2, 1))  # r too large
    with pytest.raises(ValueError):
        rosas_kronecker(6, 1, 0, 5, (3, 2, 1))  # a must be >= 1


@pytest.mark.parametrize(
    "args,message",
    [
        ((6, 1, 2, 2, (3, 2)), "|nu| must be 6, got 5"),
        ((6, 1, 2, 4, (3, 2, 1)), "hook (a, 1^(c+1)) must have size 6"),
        ((6, 4, 2, 3, (3, 2, 1)), "r must satisfy 0 <= r <= 3, got 4"),
        ((6, 1, 0, 5, (3, 2, 1)), "hook parameters need a >= 1 and c >= 0, got (0, 5)"),
    ],
    ids=["nu-size", "hook-size", "r-range", "hook-parameters"],
)
def test_rosas_validation_messages_fire_on_every_call(args, message):
    # a bad tuple is not memoized by the cached core: the second call checks again
    for fn in (rosas_kronecker, rosas_kronecker, rosas_report):
        with pytest.raises(ValueError) as error:
            fn(*args)
        assert str(error.value) == message


def test_rosas_kronecker_takes_nu_as_list_tuple_or_partition():
    for n in range(1, 8):
        for r in range(n // 2 + 1):
            for a in range(1, n):
                for nu in partitions_list(n):
                    value = rosas_kronecker(n, r, a, n - a - 1, tuple(nu))
                    assert rosas_kronecker(n, r, a, n - a - 1, list(nu)) == value
                    assert rosas_kronecker(n, r, a, n - a - 1, nu) == value


def test_negative_branch_value_raises_cold_and_repeated(monkeypatch):
    from kroncalc import rosas

    monkeypatch.setattr(rosas, "phi", lambda *args: -1)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="negative branch value"):
            rosas_kronecker(8, 2, 2, 5, (3, 2, 1, 1, 1))


def test_xi_report_validates_its_arguments():
    eta = Partition((3, 2, 1))
    first = xi_report(eta, 2, 1, 2)
    assert xi_report((3, 2, 1), 2, 1, 2) == first
    with pytest.raises(ValueError):
        xi_report(eta, 2, 4, 2)  # r too large, after a valid call on the same shape
    with pytest.raises(ValueError):
        xi_report((2, 3), 2, 1, 2)  # not a partition


def test_rosas_matches_oracle_small():
    for n in range(1, 9):
        for r in range(n // 2 + 1):
            two_row = Partition((n - r, r))
            for a in range(1, n):
                c = n - a - 1
                hook = Partition((a,) + (1,) * (c + 1))
                for nu in partitions_list(n):
                    closed = rosas_kronecker(n, r, a, c, nu)
                    oracle = kronecker_coefficient(two_row, hook, nu)
                    assert closed == oracle, (n, r, a, nu)
                    assert (oracle > 0) == (
                        is_double_hook(nu, n) and xi(nu, a, r, c) > 0
                    )


def _overlap(p, q) -> int:
    """Number of cells in the intersection of the diagrams of p and q."""
    return sum(min(x, y) for x, y in zip(p, q))


@st.composite
def two_row_hook_triples(draw):
    n = draw(st.integers(11, 13))
    r = draw(st.integers(0, n // 2))
    a = draw(st.integers(1, n - 1))
    hook = Partition((a,) + (1,) * (n - a))
    # g vanishes off the double hooks and, by Dvir's bound, whenever the
    # diagrams of nu and the hook share fewer than n - r cells
    nus = [
        nu for nu in partitions_list(n)
        if is_double_hook(nu, n) and _overlap(nu, hook) >= n - r
    ]
    return n, r, a, n - a - 1, draw(st.sampled_from(nus))


@seed(20261018)
@settings(max_examples=25, deadline=None, database=None)
@given(two_row_hook_triples())
def test_rosas_matches_oracle_property(triple):
    n, r, a, c, nu = triple
    hook = Partition((a,) + (1,) * (c + 1))
    oracle = kronecker_coefficient(Partition((n - r, r)), hook, nu)
    assert rosas_kronecker(n, r, a, c, nu) == oracle
