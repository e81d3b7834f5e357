import hashlib
import json
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kroncalc import cli, memo, nearhook, rosas
from kroncalc.colored import ColoredTableau
from kroncalc.nearhook import (
    TermCertificate,
    _interval_terms,
    delta_star,
    g_two_row_near_hook,
    index_set_minus,
    index_set_plus,
    j_minus,
    j_plus,
    near_hook_expansion,
    near_hook_row,
    near_hook_value,
    special_nu,
    triple1,
    triple2,
    triple3,
    triple4,
    triple_row,
    WitnessSet,
    witnesses,
    witnesses_for,
)
from kroncalc.partition import (
    Partition,
    as_near_hook,
    as_two_row,
    hook_partition,
    is_double_hook,
    partitions_inside,
    partitions_list,
    two_rows,
)
from kroncalc.rosas import rosas_kronecker
from kroncalc.symfun import kronecker_coefficient, kronecker_row
from kroncalc.tableau import lr_coefficient, lr_two_row, lr_via_strip_difference, lr_weight_support


def P(*parts) -> Partition:
    return Partition(parts)


def tuples(index_set):
    return sorted((tuple(first), second, third) for first, second, third in index_set)


def test_expansion_ten_terms():
    certs, value = near_hook_expansion((4, 2), (4, 2), 4, 2, 0)
    assert value == 2
    assert len(certs) == 10
    plus = [(tuple(c.index[0]), tuple(c.index[1]), tuple(c.index[2]), c.lr_value, c.g_value)
            for c in certs if c.sign == 1]
    minus = [(tuple(c.index[0]), tuple(c.index[1]), tuple(c.index[2]), c.lr_value, c.g_value)
             for c in certs if c.sign == -1]
    assert sorted(plus) == [
        ((3, 2), (1,), (3, 2), 1, 1),
        ((3, 2), (1,), (4, 1), 1, 1),
        ((4, 1), (1,), (3, 2), 1, 1),
        ((4, 1), (1,), (4, 1), 1, 1),
    ]
    assert sorted(minus) == [
        ((2, 2), (2,), (2,), 1, 0),
        ((3, 1), (1, 1), (1, 1), 1, 0),
        ((3, 1), (1, 1), (2,), 1, 1),
        ((3, 1), (2,), (1, 1), 1, 1),
        ((3, 1), (2,), (2,), 1, 0),
        ((4,), (2,), (2,), 1, 0),
    ]


def test_certificate_record():
    cert = near_hook_expansion((4, 2), (4, 2), 4, 2, 0)[0][0]
    assert repr(cert) == (
        "TermCertificate(sign=1, index=(Partition((4, 1)), Partition((1,)),"
        " Partition((4, 1))), lr_value=1, g_value=1)"
    )
    assert cert.contribution == 1
    with pytest.raises(AttributeError):
        cert.g_value = 0


def test_expansion_matches_oracle_small():
    for n in range(4, 7):
        for b in range(2, n // 2 + 1):
            for a in range(b, n - b + 1):
                c = n - a - b
                near_hook = Partition((a, b) + (1,) * c)
                for lam in partitions_list(n):
                    for nu in partitions_list(n):
                        _, value = near_hook_expansion(lam, nu, a, b, c)
                        assert value == kronecker_coefficient(lam, near_hook, nu)


def _expansion_by_scan(lam, nu, a, b, c):
    """near_hook_expansion's certificates found by probing every partition.

    The reference for the expansion that walks the nonzero-LR supports:
    each LR factor is looked up for every partition and zeros are skipped.
    """
    n = a + b + c
    first_hook = hook_partition(a, c + 1)
    second_hook = hook_partition(b - 1, c + 1)
    certs = []
    for delta in partitions_list(b - 1):
        for eta in partitions_list(n - b + 1):
            outer_lr = lr_coefficient(nu, eta, delta)
            if not outer_lr:
                continue
            for theta in partitions_list(n - b + 1):
                inner_lr = lr_coefficient(lam, theta, delta)
                if not inner_lr:
                    continue
                g = kronecker_coefficient(theta, first_hook, eta)
                certs.append(TermCertificate(1, (eta, delta, theta), outer_lr * inner_lr, g))
    for delta in partitions_list(n - a):
        for eta in partitions_list(a):
            outer_lr = lr_coefficient(nu, eta, delta)
            if not outer_lr:
                continue
            for theta in partitions_list(n - a):
                inner_lr = lr_coefficient(lam, eta, theta)
                if not inner_lr:
                    continue
                g = kronecker_coefficient(theta, second_hook, delta)
                certs.append(TermCertificate(-1, (eta, delta, theta), outer_lr * inner_lr, g))
    return certs


def _expansion_by_two_loops(lam, nu, a, b, c):
    """near_hook_expansion's certificates from one hand-written loop per term.

    The positive term walks delta of b-1, the negative term delta of n-a,
    each through the nonzero-LR supports; the reference for the one loop
    over the term table, certificate order included.
    """
    n = a + b + c
    first_hook = hook_partition(a, c + 1)
    second_hook = hook_partition(b - 1, c + 1)
    certs = []
    for delta in partitions_list(b - 1):
        for eta, outer_lr in lr_weight_support(nu, delta):
            for theta, inner_lr in lr_weight_support(lam, delta):
                g = kronecker_coefficient(theta, first_hook, eta)
                certs.append(TermCertificate(1, (eta, delta, theta), outer_lr * inner_lr, g))
    for delta in partitions_list(n - a):
        for eta, outer_lr in lr_weight_support(nu, delta):
            for theta, inner_lr in lr_weight_support(lam, eta):
                g = kronecker_coefficient(theta, second_hook, delta)
                certs.append(TermCertificate(-1, (eta, delta, theta), outer_lr * inner_lr, g))
    return certs


def test_expansion_matches_full_scan():
    cases = certificates = 0
    for n in range(4, 8):
        for b in range(2, n // 2 + 1):
            for a in range(b, n - b + 1):
                c = n - a - b
                for lam in partitions_list(n):
                    for nu in partitions_list(n):
                        want = _expansion_by_scan(lam, nu, a, b, c)
                        got, value = near_hook_expansion(lam, nu, a, b, c)
                        assert got == want, (lam, nu, a, b, c)
                        assert got == _expansion_by_two_loops(lam, nu, a, b, c), (lam, nu, a, b, c)
                        assert [t.to_json() for t in got] == [t.to_json() for t in want]
                        assert value == sum(t.contribution for t in want)
                        cases += 1
                        certificates += len(want)
    assert cases == 1957
    assert certificates > cases


def test_expansion_validation():
    with pytest.raises(ValueError):
        near_hook_expansion((4, 2), (4, 2), 2, 4, 0)  # a < b
    with pytest.raises(ValueError):
        near_hook_expansion((4, 2), (4, 2), 3, 2, 0)  # size mismatch


def test_value_is_the_expansion_total_without_certificates(monkeypatch):
    cases = []
    for n in range(4, 9):
        for b in range(2, n // 2 + 1):
            for a in range(b, n - b + 1):
                c = n - a - b
                for lam in partitions_list(n):
                    for nu in partitions_list(n):
                        cases.append((lam, nu, a, b, c, near_hook_expansion(lam, nu, a, b, c)[1]))
    assert len(cases) == 6313  # the fundamental-vs-oracle sweep's checks

    def no_certificate(*args, **kwargs):
        raise AssertionError("near_hook_value built a certificate")

    monkeypatch.setattr("kroncalc.nearhook.TermCertificate", no_certificate)
    for lam, nu, a, b, c, total in cases:
        assert near_hook_value(lam, nu, a, b, c) == total, (lam, nu, a, b, c)
    # the row holds the same totals, nu in partitions_list order
    totals = {}
    for lam, nu, a, b, c, total in cases:
        totals.setdefault((lam, a, b, c), []).append(total)
    for (lam, a, b, c), row in totals.items():
        assert near_hook_row(lam, a, b, c) == tuple(row), (lam, a, b, c)


@pytest.mark.parametrize(
    "args",
    [
        ((4, 2), (4, 2), 2, 4, 0),  # a < b
        ((4, 2), (4, 2), 3, 1, 2),  # b < 2
        ((4, 2), (4, 2), 3, 2, -1),  # c < 0
        ((4, 2), (4, 2), 3, 2, 0),  # lam and nu of 6, near-hook of 5
        ((4, 2), (3, 2), 4, 2, 0),  # nu of 5
        ((2, 1), (4, 2), 4, 2, 0),  # lam of 3
    ],
    ids=["a-below-b", "b-below-2", "c-negative", "both-sizes", "nu-size", "lam-size"],
)
def test_value_and_expansion_reject_bad_arguments_alike(args):
    with pytest.raises(ValueError) as expansion_error:
        near_hook_expansion(*args)
    with pytest.raises(ValueError) as value_error:
        near_hook_value(*args)
    assert str(value_error.value) == str(expansion_error.value)
    lam, nu, a, b, c = args
    if a >= b >= 2 and c >= 0 and sum(lam) == a + b + c:
        return  # only nu is bad, and a row takes no nu
    with pytest.raises(ValueError) as row_error:
        near_hook_row(lam, a, b, c)
    assert str(row_error.value) == str(expansion_error.value)


@pytest.mark.parametrize("d", [2, 3, 8, 9])  # n = 7: d < e, or e < 0
def test_gated_index_sets_reject_a_d_off_the_two_rows(d):
    # the gate itself is unchecked, so j_plus and j_minus check d once per call
    for index_set in (j_plus, j_minus):
        with pytest.raises(ValueError, match="two-row arguments must be weakly decreasing"):
            index_set(d, (4, 2, 1), 3, 2, 2)


def test_index_sets_reject_nu_of_the_wrong_size():
    # a + b + c = 5 and |nu| = 7, as triple3 rejects it
    for index_set in (
        lambda: index_set_plus((3, 2, 1, 1), 2, 2, 1),
        lambda: index_set_minus((3, 2, 1, 1), 2, 2, 1),
        lambda: j_plus(5, (3, 2, 1, 1), 2, 2, 1),
        lambda: j_minus(5, (3, 2, 1, 1), 2, 2, 1),
    ):
        with pytest.raises(ValueError, match="^nu must be a partition of 5$"):
            index_set()
    with pytest.raises(ValueError, match="^nu must be a partition of 5$"):
        triple3(4, 1, 2, 2, 1, (3, 2, 1, 1))


def test_negative_side_with_b_one_has_no_hook():
    # the negative side's hook is (b - 1, 1^(c+1)), which needs b >= 2
    for index_set in (
        lambda: index_set_minus((3, 1), 2, 1, 1),
        lambda: j_minus(2, (3, 1), 2, 1, 1),
    ):
        with pytest.raises(ValueError, match=r"^hook parameters need a >= 1 and c >= 0, got \(0, 1\)$"):
            index_set()


@pytest.mark.parametrize(
    "a,b,c,messages",
    [
        (3, 1, 1, {"minus": "(0, 1)"}),
        (0, 3, 2, {"plus": "(0, 2)", "minus": "(0, 2)"}),
        (3, 3, -1, {"plus": "(3, -1)", "minus": "(2, -1)"}),
    ],
    ids=["b-one", "a-zero", "c-negative"],
)
def test_index_sets_check_their_hooks_before_reading_nu(a, b, c, messages):
    # each side needs the hooks (a, 1^(c+1)) and (arm, 1^(c+1)), whatever nu is
    n = a + b + c
    entries = {"plus": (index_set_plus, j_plus), "minus": (index_set_minus, j_minus)}
    for side, got in messages.items():
        index_set, gated = entries[side]
        for nu in partitions_list(n):
            for entry in (lambda: index_set(nu, a, b, c), lambda: gated(n, nu, a, b, c)):
                with pytest.raises(ValueError) as error:
                    entry()
                assert str(error.value) == f"hook parameters need a >= 1 and c >= 0, got {got}"


@pytest.mark.parametrize("b,c", [(0, 2), (-1, 3)])  # a = 3, n = 5
def test_positive_side_rejects_b_below_one(b, c):
    # the positive side's strip has p = b - 1 cells; unchecked, p < 0 leaves
    # _support no k to try, and the side answered frozenset()
    for nu in partitions_list(5):
        for entry in (lambda: index_set_plus(nu, 3, b, c), lambda: j_plus(5, nu, 3, b, c)):
            with pytest.raises(ValueError) as error:
                entry()
            assert str(error.value) == f"strip size p = b - 1 must be >= 0, got {b - 1}"


def test_sides_check_hook_and_strip_before_the_size_of_nu():
    # |(9,)| = 9, not a + b + c = 5, but the side's own checks come first
    hook = r"^hook parameters need a >= 1 and c >= 0, got \(0, 1\)$"
    for entry in (lambda: index_set_minus((9,), 3, 1, 1), lambda: j_minus(5, (9,), 3, 1, 1)):
        with pytest.raises(ValueError, match=hook):
            entry()
    for entry in (lambda: index_set_plus((9,), 3, 0, 2), lambda: j_plus(5, (9,), 3, 0, 2)):
        with pytest.raises(ValueError, match=r"^strip size p = b - 1 must be >= 0, got -1$"):
            entry()


@pytest.mark.parametrize(
    "entry,message",
    [
        (lambda: triple1(2, 3, 2, 2, 1, (3, 2)), "two-row index needs d >= e >= 0"),
        (lambda: triple3(4, 1, 3, 2, 0, (5,)), "triple sums need a >= b >= 2 and c >= 1"),
        (lambda: triple1(4, 2, 2, 2, 1, (3, 2)), r"d \+ e must equal 5"),
    ],
    ids=["triple1-d-below-e", "triple3-c-zero", "triple1-d-plus-e"],
)
def test_two_row_entries_reject_arguments_off_their_hypotheses(entry, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry()


def test_negative_closed_form_stops_every_near_hook_route(monkeypatch, capsys):
    # unpatched, the index set and triple3 read a positive closed-form value
    assert tuples(index_set_plus((4, 2), 2, 2, 2)) == [((3, 2), 0, 2)]
    assert triple3(4, 2, 2, 2, 2, (4, 2))[0] == 1
    memo.clear()
    monkeypatch.setattr(rosas, "phi", lambda *args: -1)
    try:
        for route in (
            lambda: index_set_plus((4, 2), 2, 2, 2),
            lambda: triple3(4, 2, 2, 2, 2, (4, 2)),
            lambda: triple1(4, 2, 2, 2, 2, (4, 2)),
        ):
            with pytest.raises(ArithmeticError, match="negative branch value"):
                route()
        assert cli.main(["kron", "3,3", "2,2,1,1", "4,2", "--method", "nearhook"]) == 4
    finally:
        memo.clear()  # no value computed from the patched phi outlives the test
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ArithmeticError: negative branch value")
    assert err.count("\n") == 1


def test_triple_values_from_worked_example():
    assert triple1(4, 2, 3, 2, 1, (4, 2)) == 4
    assert triple2(4, 2, 3, 2, 1, (4, 2)) == 2
    assert g_two_row_near_hook(4, 2, 3, 2, 1, (4, 2)) == 2


def _interval_sum_by_scan(size, p, arm, d, e, c, nu):
    """One side of triple1/triple2 probing every (sigma, k, r) at this d.

    The reference for the sums that keep each side's nonzero terms once and
    gate them per d: sigma runs over the partitions of size, the LR factor is
    c^nu_{sigma,(p-k,k)}, the gate c^{(d,e)}_{(size-r,r),(p-k,k)}.
    """
    total = 0
    for sigma in partitions_list(size):
        for k, strip in enumerate(two_rows(p)):
            coeff = lr_coefficient(nu, sigma, strip)
            if not coeff:
                continue
            for r in range(size // 2 + 1):
                if lr_two_row(size - r, r, p - k, k, d, e):
                    total += coeff * rosas_kronecker(size, r, arm, c, sigma)
    return total


def test_triple_sums_match_full_scan():
    cases = 0
    for n in range(5, 9):
        for b in range(2, n):
            for a in range(b, n - b):
                c = n - a - b
                for nu in partitions_list(n):
                    for d in range((n + 1) // 2, n + 1):
                        e = n - d
                        plus = _interval_sum_by_scan(a + c + 1, b - 1, a, d, e, c, nu)
                        minus = _interval_sum_by_scan(b + c, a, b - 1, d, e, c, nu)
                        assert triple1(d, e, a, b, c, nu) == plus, (d, a, b, nu)
                        assert triple2(d, e, a, b, c, nu) == minus, (d, a, b, nu)
                        cases += 1
    assert cases == 1009


def test_triple_row_is_the_four_sums_at_every_d():
    # every (a, b, c, nu) of the triples-vs-oracle value units with n <= 9
    cases = 0
    for n in range(5, 10):
        ds = range((n + 1) // 2, n + 1)
        for b in range(2, n - 2):
            for a in range(b, n - b):
                c = n - a - b
                for nu in partitions_list(n):
                    row = triple_row(a, b, c, nu)
                    assert len(row) == len(ds)
                    for d, entry in zip(ds, row):
                        e = n - d
                        t3, certs3 = triple3(d, e, a, b, c, nu)
                        t4, certs4 = triple4(d, e, a, b, c, nu)
                        nonpositive = sum(cert.contribution <= 0 for cert in certs3 + certs4)
                        assert entry == (triple1(d, e, a, b, c, nu), triple2(d, e, a, b, c, nu), t3, t4, nonpositive), (d, a, b, nu)
                        cases += 1
    assert cases == 2359


@pytest.mark.parametrize(
    "a,b,c,nu",
    [(2, 3, 1, (4, 2)), (3, 1, 2, (4, 2)), (3, 2, 0, (5,)), (3, 2, 1, (3, 1)), (3, 2, 1, (4, 2, 1))],
    ids=["a-below-b", "b-below-two", "c-zero", "nu-too-small", "nu-too-large"],
)
def test_triple_row_rejects_bad_arguments_as_the_triples_do(a, b, c, nu):
    n = a + b + c
    d = (n + 1) // 2
    for single in (triple1, triple2, triple3, triple4):
        with pytest.raises(ValueError) as single_error:
            single(d, n - d, a, b, c, nu)
        with pytest.raises(ValueError) as row_error:
            triple_row(a, b, c, nu)
        assert str(row_error.value) == str(single_error.value)


def _support_reference(nu, size, p, arm, c) -> frozenset:
    """(sigma, k, r) with c^nu_{sigma,(p-k,k)} * g((size-r, r), (arm, 1^(c+1)), sigma) > 0, walked afresh.

    One walk per call, with no table: sigma inside nu and a double hook, the
    strip-difference LR count, and the closed form for each r.
    """
    out = set()
    for sigma in partitions_inside(nu, size):
        if not is_double_hook(sigma, size):
            continue
        for k in range(p // 2 + 1):
            if lr_via_strip_difference(nu, sigma, p + 1, k) <= 0:
                continue
            for r in range(size // 2 + 1):
                if rosas_kronecker(size, r, arm, c, sigma) > 0:
                    out.add((sigma, k, r))
    return frozenset(out)


def _certified_reference(side, d, support) -> tuple[int, list[TermCertificate]]:
    """triple3 / triple4 computed at one d from the support alone.

    The support is gated at d by the LR coefficient
    c^{(d, S+p-d)}_{(S-r, r),(p-k, k)}, not by the two-row closed form, and
    sorted by (r, sigma, k), and each certificate is built from
    lr_coefficient and rosas_kronecker and checked positive.
    """
    nu, size, p, arm, c = side
    if not d >= size + p - d >= 0:
        raise ValueError("two-row arguments must be weakly decreasing and nonnegative")
    gated = frozenset(
        (sigma, k, r)
        for sigma, k, r in support
        if lr_coefficient((d, size + p - d), (size - r, r), (p - k, k))
    )
    certs = []
    for sigma, k, r in sorted(gated, key=lambda t: (t[2], t[0], t[1])):
        coeff = lr_coefficient(nu, sigma, two_rows(p)[k])
        g = rosas_kronecker(size, r, arm, c, sigma)
        cert = TermCertificate(1, (sigma, k, r), coeff, g)
        if cert.contribution <= 0:
            raise ArithmeticError(f"non-positive reduced term at {(sigma, k, r)}")
        certs.append(cert)
    return sum(t.contribution for t in certs), certs


def test_side_tables_match_the_per_d_reference():
    # every near-hook side with n <= 10 under the triple sums' hypotheses, at
    # every admissible d; the interval sums have no terms outside the positive
    # support, so triple1 / triple2 are the two-row gate filter of its terms
    cases = certificates = 0
    for n in range(5, 11):
        for b in range(2, n - 2):
            for a in range(b, n - b):
                c = n - a - b
                for nu in partitions_list(n):
                    sides = [
                        (triple1, triple3, j_plus, (nu, a + c + 1, b - 1, a, c)),
                        (triple2, triple4, j_minus, (nu, b + c, a, b - 1, c)),
                    ]
                    for interval, reduced, gated, side in sides:
                        support = _support_reference(*side)
                        for d in range((n + 1) // 2, n + 1):
                            e = n - d
                            value, certs = _certified_reference(side, d, support)
                            assert reduced(d, e, a, b, c, nu) == (value, certs), (d, a, b, nu)
                            assert interval(d, e, a, b, c, nu) == value, (d, a, b, nu)
                            assert gated(d, nu, a, b, c) == frozenset(t.index for t in certs)
                            cases += 1
                            certificates += len(certs)
    assert (cases, certificates) == (10766, 19455)


def test_interval_terms_are_immutable():
    terms = _interval_terms(P(4, 2), 5, 1, 3, 1)  # positive side of (a, b, c) = (3, 2, 1)
    assert terms and type(terms) is tuple
    assert all(type(t) is tuple and len(t) == 3 and t[2] != 0 for t in terms)


def test_index_sets_worked_example():
    nu = P(3, 2, 1, 1)
    assert tuples(j_plus(4, nu, 3, 2, 2)) == [
        ((2, 2, 1, 1), 0, 2),
        ((2, 2, 1, 1), 0, 3),
        ((3, 1, 1, 1), 0, 2),
        ((3, 1, 1, 1), 0, 3),
        ((3, 2, 1), 0, 2),
        ((3, 2, 1), 0, 3),
    ]
    assert tuples(j_minus(4, nu, 3, 2, 2)) == [
        ((2, 1, 1), 0, 1),
        ((2, 1, 1), 1, 1),
        ((2, 2), 1, 2),
    ]
    t3, certs3 = triple3(4, 3, 3, 2, 2, nu)
    t4, certs4 = triple4(4, 3, 3, 2, 2, nu)
    assert t3 == 8
    assert sorted(c.contribution for c in certs3) == [1, 1, 1, 1, 2, 2]
    assert t4 == 4
    assert sorted(c.contribution for c in certs4) == [1, 1, 2]
    assert g_two_row_near_hook(4, 3, 3, 2, 2, nu) == 4


def test_index_set_aftermain_example():
    nu = P(8, 2, 1, 1, 1, 1)
    assert tuples(j_plus(8, nu, 6, 2, 6)) == [
        ((7, 2, 1, 1, 1, 1), 0, 5),
        ((7, 2, 1, 1, 1, 1), 0, 6),
    ]


def test_membership_is_positivity_small():
    # membership in the index sets <=> strict positivity of the product
    from kroncalc.tableau import lr_coefficient

    n = 6
    for a in range(1, n):
        for b in range(1, n - a + 1):
            c = n - a - b
            if c < 0:
                continue
            big_n = n - b + 1
            for nu in partitions_list(n):
                plus = index_set_plus(nu, a, b, c)
                for eta in partitions_list(big_n):
                    for j in range((b - 1) // 2 + 1):
                        coeff = lr_coefficient(nu, eta, P(b - 1 - j, j))
                        for r in range(big_n // 2 + 1):
                            g = kronecker_coefficient(
                                P(big_n - r, r), Partition((a,) + (1,) * (c + 1)), eta
                            )
                            assert ((eta, j, r) in plus) == (coeff * g > 0)


def test_membership_worked_examples():
    from kroncalc.tableau import lr_coefficient

    # (421, 1, 2) sits in the positive set of 5321 for (a,b,c) = (3,5,3):
    # the product is c^5321_{421,31} * g(52,31111,421) = 3 * 1
    plus = index_set_plus(P(5, 3, 2, 1), 3, 5, 3)
    assert (P(4, 2, 1), 1, 2) in plus
    assert lr_coefficient((5, 3, 2, 1), (4, 2, 1), (3, 1)) == 3
    assert kronecker_coefficient((5, 2), (3, 1, 1, 1, 1), (4, 2, 1)) == 1
    # (221, 1, 2) sits in the negative set of 4211 for (a,b,c) = (3,3,2):
    # the product is c^4211_{21,221} * g(32,2111,221) = 1 * 1
    from kroncalc.nearhook import index_set_minus

    minus = index_set_minus(P(4, 2, 1, 1), 3, 3, 2)
    assert (P(2, 2, 1), 1, 2) in minus
    assert lr_coefficient((4, 2, 1, 1), (2, 1), (2, 2, 1)) == 1
    assert kronecker_coefficient((3, 2), (2, 1, 1, 1), (2, 2, 1)) == 1


def test_two_row_near_hook_matches_oracle_small():
    for n in range(5, 8):
        for b in range(2, n - 2):
            for a in range(b, n - b):
                c = n - a - b
                if c < 1:
                    continue
                near_hook = Partition((a, b) + (1,) * c)
                for nu in partitions_list(n):
                    for d in range((n + 1) // 2, n + 1):
                        e = n - d
                        expected = kronecker_coefficient(P(d, e), near_hook, nu)
                        assert g_two_row_near_hook(d, e, a, b, c, nu) == expected
                        assert triple1(d, e, a, b, c, nu) - triple2(
                            d, e, a, b, c, nu
                        ) == expected


def test_padded_first_parts_give_weakly_increasing_triple_sums():
    # Murnaghan stability: g(lam + (m), mu + (m), nu + (m)) never decreases
    # in m (Brion, Manuscripta Math. 80, 1993), and it is constant once
    # n >= |x| + |y| + x_1 + y_1 for any two of the three shapes with their
    # first parts removed (Briand, Orellana and Rosas, J. Algebra 331, 2011).
    # Padding the first parts keeps lam two-row and mu a near-hook.  The
    # triple sums give g at every n up to 34, past n = 26; the
    # oracle checks them at n <= 14.  nu is drawn from the support at the
    # start size, so no sequence is all zeros.
    rng = random.Random(2026)
    rising = 0
    for _ in range(10):
        n0 = rng.randint(6, 8)
        b = rng.randint(2, (n0 - 1) // 2)
        a = rng.randint(b, n0 - b - 1)
        c = n0 - a - b
        d = rng.randint((n0 + 1) // 2, n0 - 1)
        e = n0 - d
        mu = P(a, b, *(1,) * c)
        row = kronecker_row(P(d, e), mu)
        nu = rng.choice([nu for nu, g in zip(partitions_list(n0), row) if g])
        values = []
        for m in range(35 - n0):
            nu_m = Partition((nu[0] + m,) + nu[1:])
            value = g_two_row_near_hook(d + m, e, a + m, b, c, nu_m)
            if n0 + m <= 14:
                oracle = kronecker_coefficient(P(d + m, e), P(a + m, b, *(1,) * c), nu_m)
                assert value == oracle, (d + m, e, a + m, b, c, nu_m)
            values.append(value)
        assert all(x <= y for x, y in zip(values, values[1:])), (d, e, a, b, c, nu, values)
        weights = [sum(bar) + max(bar, default=0) for bar in ((e,), (b,) + (1,) * c, nu[1:])]
        stable = sum(weights) - max(weights)  # the least bound over the three pairs
        assert stable <= 26 and len(set(values[max(stable - n0, 0) :])) == 1, (stable, values)
        rising += values[0] < values[-1]
    assert rising  # the sample holds sequences that are not constant


def test_interval_and_support_routes_agree_with_the_oracle_at_n_27_to_34():
    # triple1/triple2 read each LR factor from the table of nu/(p-k,k), the
    # reduced sums triple3/triple4 from the table of nu/sigma, so at
    # n = 27-34 the two routes check each other's LR walks, and their
    # difference g((d,e), (a,b,1^c), nu) checks the oracle.
    # Labels above 5 fill cells only in shapes with many rows: c >= 3 and nu
    # of at least 6 rows, drawn from the support at the start size.
    triples = []
    for n0 in range(8, 11):
        for b in (2, 3):
            for a in range(b, n0 - b - 2):
                c = n0 - a - b
                for d in range((n0 + 1) // 2, n0):
                    row = kronecker_row(P(d, n0 - d), P(a, b, *(1,) * c))
                    for nu, g in zip(partitions_list(n0), row):
                        if g and len(nu) >= 6:
                            triples.append((n0, d, a, b, c, nu))
    for n0, d, a, b, c, nu in random.Random(2027).sample(triples, 8):
        e = n0 - d
        for n in (27, 30, 34):
            m = n - n0
            args = (d + m, e, a + m, b, c, Partition((nu[0] + m,) + nu[1:]))
            assert triple1(*args) == triple3(*args)[0], args
            assert triple2(*args) == triple4(*args)[0], args
            near_hook = Partition((a + m, b) + (1,) * c)
            assert kronecker_coefficient(args[:2], near_hook, args[-1]) == triple1(*args) - triple2(*args), args


def test_special_shapes():
    assert special_nu(3, 2, 2) == P(5, 2)
    assert special_nu(2, 5, 2) == P(4, 2, 1, 1, 1)
    assert delta_star(2, 2) == P(2, 2)


@pytest.mark.parametrize("s", [0, 2, 3, 5])  # c = 1 allows s = 1 only
def test_special_shapes_reject_s_out_of_range(s):
    for build in (lambda: special_nu(2, 1, s), lambda: delta_star(1, s)):
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == f"s must satisfy 1 <= s <= 1, got {s}"


def witness_args(n_max: int):
    """(n, a, c, s, d, e) over the witness hypotheses with n <= n_max, in sweep order."""
    for n in range(4, n_max + 1):
        for a in range(2, n - 2):
            c = n - 2 - a
            if c < 1:
                continue
            for s in range(1, (c + 2) // 2 + 1):
                for d in range((n + 1) // 2, n + 1):
                    yield n, a, c, s, d, n - d


def test_singleton_case():
    assert witnesses(2, 2, 4, 2, 2)[1].removed_min is not None
    assert j_minus(4, P(4, 2), 2, 2, 2) == frozenset({(P(2, 2), 0, 2)})
    assert witnesses(3, 2, 5, 2, 2)[1].removed_min is not None
    assert j_minus(5, P(5, 2), 3, 2, 2) == frozenset({(P(2, 2), 0, 2)})
    # d outside the interval: no singleton
    assert witnesses(3, 3, 4, 4, 2)[1].removed_min is None


def test_null_case():
    assert witnesses(3, 3, 4, 4, 2)[1].removed_min is None
    assert j_minus(4, special_nu(3, 3, 2), 3, 2, 3) == frozenset()
    assert witnesses(3, 4, 5, 4, 3)[1].removed_min is None
    assert j_minus(5, special_nu(3, 4, 3), 3, 2, 4) == frozenset()
    assert witnesses(3, 2, 5, 2, 2)[1].removed_min is not None  # d inside the interval


def test_witnesses_singleton_beforeinterpret():
    # g((5,2), (3,2,1,1), (5,2)) = -1 + 1 = 0
    value, witness_set = witnesses(3, 2, 5, 2, 2)
    assert value == 0
    assert len(witness_set.members) == 1
    assert witness_set.removed_min is not None
    assert len(witness_set.surviving) == 0
    assert witness_set.members[0].tableau == ColoredTableau.from_text(
        "1' 1 1 2' | 1 2'"
    )
    assert witness_set.members[0].source == (P(4, 2), 0, 2)


def test_witnesses_singleton_small_blocks():
    # g((6,3), (2,2,1^5), (4,2,1,1,1)) = -1 + 1 + 1 = 1
    value, witness_set = witnesses(2, 5, 6, 3, 2)
    assert value == 1
    assert witness_set.removed_min == witness_set.members[0]
    assert [m.source for m in witness_set.members] == [
        (P(3, 2, 1, 1, 1), 0, 2),
        (P(3, 2, 1, 1, 1), 0, 3),
    ]
    assert [m.tableau for m in witness_set.members] == [
        ColoredTableau.from_text("1' 1 2' | 1' 2' | 1' | 1' | 1"),
        ColoredTableau.from_text("1' 1 2' | 1' 2' | 1' | 1' | 2"),
    ]
    assert kronecker_coefficient((6, 3), (2, 2, 1, 1, 1, 1, 1), (4, 2, 1, 1, 1)) == 1


def test_witnesses_null_cases():
    # g((4,4), (3,2,1,1,1), (5,2,1)) = 1
    value, witness_set = witnesses(3, 3, 4, 4, 2)
    assert value == 1
    assert witness_set.removed_min is None
    assert witness_set.members[0].tableau == ColoredTableau.from_text(
        "1' 1 1 2' | 1' 2' | 2"
    )
    # g((5,4), (3,2,1^4), (5,2,2)) = 1
    value, witness_set = witnesses(3, 4, 5, 4, 3)
    assert value == 1
    assert witness_set.removed_min is None
    assert witness_set.members[0].tableau == ColoredTableau.from_text(
        "1' 1 1 2' | 1' 2' | 1 2'"
    )
    assert kronecker_coefficient((5, 4), (3, 2, 1, 1, 1, 1), (5, 2, 2)) == 1


def test_witnesses_singleton_large():
    # g((8,6), (6,2,1^6), (8,2,1^4)) = -1 + 1 + 1 = 1; the two block tableaux
    # below were confirmed by a full scan over all 2.2M words of content
    # (8,5) resp. (7,6) with seven bars (each block is a singleton).
    value, witness_set = witnesses(6, 6, 8, 6, 2)
    assert value == 1
    assert [m.source for m in witness_set.members] == [
        (P(7, 2, 1, 1, 1, 1), 0, 5),
        (P(7, 2, 1, 1, 1, 1), 0, 6),
    ]
    assert witness_set.members[0].tableau == ColoredTableau.from_text(
        "1' 1 1 1 1 1 2' | 1' 2' | 1' | 2' | 2' | 2"
    )
    assert witness_set.members[1].tableau == ColoredTableau.from_text(
        "1' 1 1 1 1 1 2' | 1' 2' | 2' | 2' | 2' | 2"
    )
    assert witness_set.removed_min == witness_set.members[0]


def test_witnesses_null_large():
    # g((10,5), (7,2,1^6), (9,2,2,2)) = 1 with a single four-row witness
    value, witness_set = witnesses(7, 6, 10, 5, 4)
    assert value == 1
    assert witness_set.removed_min is None
    assert [m.source for m in witness_set.members] == [(P(8, 2, 2, 2), 0, 4)]
    assert witness_set.members[0].tableau == ColoredTableau.from_text(
        "1' 1 1 1 1 1 1 2' | 1' 2' | 1' 2' | 1 2'"
    )


def test_witnesses_removes_a_member_exactly_inside_the_interval():
    tuples = inside = 0
    for n, a, c, s, d, e in witness_args(10):
        removed = witnesses(a, c, d, e, s)[1].removed_min is not None
        assert removed == nearhook._in_interval(a, c, d, s)
        tuples += 1
        inside += removed
    assert (tuples, inside) == (220, 107)


def test_witness_blocks_are_the_terms_of_triple3():
    # one hook-rule block per certificate of triple3, as large as its term
    certificates = 0
    for n, a, c, s, d, e in witness_args(12):
        plus, certs = triple3(d, e, a, 2, c, special_nu(a, c, s))
        members = witnesses(a, c, d, e, s)[1].members
        blocks = {}
        for member in members:
            blocks[member.source] = blocks.get(member.source, 0) + 1
        assert blocks == {cert.index: cert.contribution for cert in certs}
        assert len(members) == plus
        certificates += len(certs)
        assert all(cert.contribution == 1 for cert in certs)
    assert certificates == 402


@pytest.mark.parametrize(
    "args", [(1, 2, 3, 2, 1), (3, 0, 3, 2, 1), (3, 2, 3, 4, 1), (3, 2, 4, 2, 1), (3, 2, 5, 2, 0), (3, 2, 5, 2, 3)]
)
def test_witnesses_rejects_arguments_off_the_hypotheses(args):
    with pytest.raises(ValueError, match="^witness hypotheses not met$"):
        witnesses(*args)


def test_witnesses_checks_the_negative_side_once(monkeypatch):
    calls = []
    for name in ("j_minus", "triple4"):
        original = getattr(nearhook, name)
        monkeypatch.setattr(
            nearhook, name, lambda *args, _name=name, _fn=original: calls.append(_name) or _fn(*args)
        )
    removed = set()
    for n, a, c, s, d, e in witness_args(10):
        calls.clear()
        removed.add(witnesses(a, c, d, e, s)[1].removed_min is not None)
        assert calls == ["triple4"]  # J- is read from triple4's certificates
    assert removed == {False, True}  # both cases were reached


def test_witnesses_reads_the_hypotheses_and_the_interval_once(monkeypatch):
    calls = []
    for name in ("_witness_hypotheses", "_in_interval", "special_nu"):
        original = getattr(nearhook, name)
        monkeypatch.setattr(
            nearhook, name, lambda *args, _name=name, _fn=original: calls.append(_name) or _fn(*args)
        )
    for n, a, c, s, d, e in witness_args(10):
        calls.clear()
        value = witnesses(a, c, d, e, s)
        assert calls == ["_witness_hypotheses", "special_nu", "_in_interval"]
        # a matched query hands its s and nu to the family body
        calls.clear()
        assert witnesses_for(d, e, a, 2, c, special_nu(a, c, s)) == value
        assert calls == ["_witness_hypotheses", "special_nu", "_in_interval"]


def test_singleton_case_with_no_witness_raises(monkeypatch):
    monkeypatch.setattr(nearhook, "triple3", lambda *args: (0, []))
    with pytest.raises(ArithmeticError, match=r"^no witness to remove at \(a,c,d,s\)=\(6,6,8,2\)$"):
        witnesses(6, 6, 8, 6, 2)  # d inside the interval
    assert witnesses(3, 3, 4, 4, 2) == (0, WitnessSet((), None))  # d outside: nothing to remove


def test_witness_case_raises_when_triple4_disagrees_with_the_interval(monkeypatch):
    # d = 5 lies inside the interval, so J- must be {(delta*, 0, s)} and triple4 must be 1
    _, certs = triple4(5, 2, 3, 2, 2, special_nu(3, 2, 2))
    assert [cert.index for cert in certs] == [(delta_star(2, 2), 0, 2)]
    monkeypatch.setattr(nearhook, "triple4", lambda *args: (1, []))
    with pytest.raises(ArithmeticError, match=r"^negative index set is not \[\(Partition\(\(2, 2\)\), 0, 2\)\]: \[\]$"):
        witnesses(3, 2, 5, 2, 2)
    monkeypatch.setattr(nearhook, "triple4", lambda *args: (2, certs))
    with pytest.raises(ArithmeticError, match=r"^triple4 is 2, expected 1$"):
        witnesses(3, 2, 5, 2, 2)


def test_empty_hook_rule_block_raises(monkeypatch):
    # J+ at d = 5 is {((4,2), 0, 2)}, and its block holds the one witness to remove
    monkeypatch.setattr(nearhook, "enumerate_blasiak", lambda *args: ())
    with pytest.raises(
        ArithmeticError, match=r"^hook-rule block for \(Partition\(\(4, 2\)\), 0, 2\) holds 0 tableaux, its term is 1$"
    ):
        witnesses(3, 2, 5, 2, 2)


def test_hook_rule_block_larger_than_its_term_raises(monkeypatch):
    # a duplicate tableau in the one block would leave g = 1 where the oracle reads 0
    original = nearhook.enumerate_blasiak

    def one_too_many(*args):
        block = original(*args)
        return (*block, block[0])

    monkeypatch.setattr(nearhook, "enumerate_blasiak", one_too_many)
    with pytest.raises(
        ArithmeticError, match=r"^hook-rule block for \(Partition\(\(4, 2\)\), 0, 2\) holds 2 tableaux, its term is 1$"
    ):
        witnesses(3, 2, 5, 2, 2)


def test_certified_sum_rejects_a_non_positive_term(monkeypatch):
    # the support says every term is positive; a zero LR factor contradicts it.
    # A side table built before the patch would hide it, so the test clears the memos
    memo.clear()
    monkeypatch.setattr(nearhook, "lr_coefficient", lambda *args: 0)
    with pytest.raises(ArithmeticError, match=r"^non-positive reduced term at \(Partition\(\(3, 2\)\), 0, 1\)$"):
        triple3(4, 2, 3, 2, 1, (4, 2))


def _witnesses_by_recognizer(lam, mu, nu):
    """Reference match of a kron query to a witness family, written from the query's shapes."""
    shape = as_near_hook(mu)
    two_row = as_two_row(lam)
    if shape is None or two_row is None or shape[1] != 2 or shape[2] < 1:
        return None
    a, _, c = shape
    d, e = two_row
    s = sum(1 for x in nu[1:] if x == 2) + 1
    if not 1 <= s <= (c + 2) // 2 or nu != special_nu(a, c, s):
        return None
    return witnesses(a, c, d, e, s)


def test_witnesses_for_matches_the_reference_recognizer():
    triples = covered = 0
    for n in range(1, 12):
        for lam in partitions_list(n):
            if len(lam) > 2:
                continue
            for mu in partitions_list(n):
                shape = as_near_hook(mu)
                if shape is None or shape[2] < 1:
                    continue
                for nu in partitions_list(n):
                    expected = _witnesses_by_recognizer(lam, mu, nu)
                    assert witnesses_for(*as_two_row(lam), *shape, nu) == expected
                    triples += 1
                    covered += expected is not None
    assert (triples, covered) == (10759, 334)


def test_witnesses_for_returns_none_off_the_families():
    assert witnesses_for(4, 3, 3, 3, 1, (5, 1, 1)) is None  # b = 3
    assert witnesses_for(4, 2, 3, 2, 1, (2, 2, 2)) is None  # s = 3 > (c + 2) // 2 = 1
    assert witnesses_for(3, 3, 3, 2, 1, (4, 2)) is None  # s = 2 > 1
    assert witnesses_for(8, 6, 6, 2, 6, (7, 3, 1, 1, 1, 1)) is None  # s = 1, nu is not special_nu(6, 6, 1)


def test_witnesses_for_reads_a_list_nu_and_checks_its_size():
    assert witnesses_for(8, 6, 6, 2, 6, [8, 2, 1, 1, 1, 1]) == witnesses(6, 6, 8, 6, 2)
    with pytest.raises(ValueError, match="^nu must be a partition of 14$"):
        witnesses_for(8, 6, 6, 2, 6, [8, 2, 1, 1, 1])


def test_mainresults_match_oracle_small():
    for n, a, c, s, d, e in witness_args(8):
        nu = special_nu(a, c, s)
        oracle = kronecker_coefficient(P(d, e), Partition((a, 2) + (1,) * c), nu)
        value, ws = witnesses(a, c, d, e, s)
        if ws.removed_min is None:
            assert not j_minus(d, nu, a, 2, c)
        assert value == oracle == len(ws.surviving)


def test_witness_families_match_oracle_past_the_sweep():
    # verify mainresults stops at n = 10
    tuples_seen = nonzero = 0
    for n, a, c, s, d, e in witness_args(13):
        if n < 11:
            continue
        nu = special_nu(a, c, s)
        oracle = kronecker_coefficient(P(d, e), Partition((a, 2) + (1,) * c), nu)
        value, _ = witnesses_for(d, e, a, 2, c, nu)
        assert value == oracle, (n, a, c, s, d)
        tuples_seen += 1
        nonzero += oracle != 0
    assert (tuples_seen, nonzero) == (485, 162)


def test_near_hook_value_matches_oracle_on_seeded_triples():
    # verify fundamental-vs-oracle stops at n = 8
    rng = random.Random(2027)
    nonzero = 0
    for _ in range(40):
        n = rng.randint(9, 12)
        shapes = [(a, b, n - a - b) for b in range(2, n // 2 + 1) for a in range(b, n - b + 1)]
        a, b, c = rng.choice(shapes)
        lam, nu = rng.choice(partitions_list(n)), rng.choice(partitions_list(n))
        oracle = kronecker_coefficient(lam, Partition((a, b) + (1,) * c), nu)
        assert near_hook_value(lam, nu, a, b, c) == oracle, (lam, a, b, c, nu)
        row = near_hook_row(lam, a, b, c)
        assert row[partitions_list(n).index(nu)] == oracle, (lam, a, b, c, nu)
        nonzero += oracle != 0
    assert nonzero == 27


# sha256 over the index sets, the four triple sums and every reduced-sum
# certificate for all near-hook parameters with n = 5..9, c >= 1 and every
# nu; computed before the two sides of each sum shared one implementation
TRIPLE_SUMS_DIGEST_N9 = "31c0ad9860160de072a17414859f64e0087d06ab7e940a0c4b6a36ab942df852"


def test_triple_sums_golden_digest():
    h = hashlib.sha256()
    total = 0
    for n in range(5, 10):
        for b in range(2, n - 2):
            for a in range(b, n - b):
                c = n - a - b
                for nu in partitions_list(n):
                    h.update(repr((a, b, c, tuple(nu))).encode())
                    h.update(repr(tuples(index_set_plus(nu, a, b, c))).encode())
                    h.update(repr(tuples(index_set_minus(nu, a, b, c))).encode())
                    for d in range((n + 1) // 2, n + 1):
                        e = n - d
                        h.update(repr((
                            triple1(d, e, a, b, c, nu),
                            triple2(d, e, a, b, c, nu),
                        )).encode())
                        for reduced in (triple3, triple4):
                            value, certs = reduced(d, e, a, b, c, nu)
                            h.update(repr(value).encode())
                            for cert in certs:
                                h.update(repr(cert.to_json()).encode())
                                total += 1
    assert total == 8022
    assert h.hexdigest() == TRIPLE_SUMS_DIGEST_N9


# sha256 over index_set_plus and index_set_minus for every near-hook
# (a, b, 1^c) with n = 4..10, c >= 0 included, and every nu; computed before
# the support walked only the sigma inside nu
INDEX_SETS_DIGEST_N10 = "6fe9dfc539e40bc332b02cc766de359fb27da562e7f86a3e3c72cb3f59b595f2"


def test_index_sets_golden_digest():
    h = hashlib.sha256()
    sets = members = 0
    for n in range(4, 11):
        for mu in partitions_list(n):
            abc = as_near_hook(mu)
            if abc is None:
                continue
            for nu in partitions_list(n):
                for index_set in (index_set_plus, index_set_minus):
                    found = tuples(index_set(nu, *abc))
                    h.update(repr((abc, tuple(nu), found)).encode())
                    sets += 1
                    members += len(found)
    assert (sets, members) == (2766, 12565)
    assert h.hexdigest() == INDEX_SETS_DIGEST_N10


# sha256 over every b = 2 witness family for n = 4..10, with a, s and d
# ranging as in the mainresults suite; computed before the singleton and
# null cases shared one implementation
WITNESS_SETS_DIGEST_N10 = "6140a68cee987cc7bf07edbabd4c551acfb0367d8f7f12b1c07de377d385c100"


def test_witness_sets_golden_digest():
    h = hashlib.sha256()
    sets = members = 0
    for n, a, c, s, d, e in witness_args(10):
        value, ws = witnesses(a, c, d, e, s)
        record = [n, a, s, d, value, ws.to_json()]
        h.update(json.dumps(record, sort_keys=True).encode())
        sets += 1
        members += len(ws.members)
    assert (sets, members) == (220, 180)
    assert h.hexdigest() == WITNESS_SETS_DIGEST_N10


def _overlap(p, q) -> int:
    """Number of cells in the intersection of the diagrams of p and q."""
    return sum(min(x, y) for x, y in zip(p, q))


@st.composite
def two_row_near_hook_triples(draw):
    n = draw(st.integers(10, 12))
    b = draw(st.integers(2, (n - 1) // 2))
    a = draw(st.integers(b, n - b - 1))
    d = draw(st.integers((n + 1) // 2, n))
    near_hook = Partition((a, b) + (1,) * (n - a - b))
    # by Dvir's bound g vanishes when nu and the near hook share fewer than d cells
    nus = [nu for nu in partitions_list(n) if _overlap(nu, near_hook) >= d]
    return d, n - d, a, b, n - a - b, draw(st.sampled_from(nus))


@seed(20261018)
@settings(max_examples=20, deadline=None, database=None)
@given(two_row_near_hook_triples())
def test_triple_sums_match_oracle_property(triple):
    d, e, a, b, c, nu = triple
    oracle = kronecker_coefficient(P(d, e), Partition((a, b) + (1,) * c), nu)
    interval = triple1(d, e, a, b, c, nu) - triple2(d, e, a, b, c, nu)
    reduced = triple3(d, e, a, b, c, nu)[0] - triple4(d, e, a, b, c, nu)[0]
    assert interval == reduced == oracle
