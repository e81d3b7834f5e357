"""Acceptance criteria, one printed pass/fail line per criterion.

All values are exact integers; every comparison is equality with zero
tolerance.  Run with -s to see the lines.
"""

import gc
import hashlib
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import kroncalc
from kroncalc import colored, memo, nearhook, symfun, tableau, verify
from kroncalc.cli import main as cli_main
from kroncalc.colored import (
    ColoredTableau,
    blasiak_counts,
    blft,
    enumerate_blasiak,
    mixed_insertion_tableau,
    mixed_insertion_trace,
    parse_colored_word,
)
from kroncalc.nearhook import (
    g_two_row_near_hook,
    j_minus,
    j_plus,
    near_hook_value,
    special_nu,
    triple1,
    triple2,
    triple3,
    triple4,
    witnesses,
)
from kroncalc.partition import Partition, contains, hook_partition, partitions_list, two_rows
from kroncalc.rosas import phi, xi
from kroncalc.symfun import giambelli_leibniz, jacobi_trudi, kronecker_coefficient
from kroncalc.tableau import lr_coefficient, lr_tableaux, strip_chain_count


def report(name: str, passed: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, name


def check(name: str, actual, expected) -> None:
    ok = actual == expected
    if not ok:
        print(f"[acceptance] {name}: FAIL (got {actual!r}, want {expected!r})")
        assert False, f"{name}: got {actual!r}, want {expected!r}"
    print(f"[acceptance] {name}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: golden values


def test_golden_lr_values():
    check("1.1 c^4311_{321,21}", lr_coefficient((4, 3, 1, 1), (3, 2, 1), (2, 1)), 2)
    check("1.2 c^5421_{42,411}", lr_coefficient((5, 4, 2, 1), (4, 2), (4, 1, 1)), 2)
    check("1.3 c^65_{52,31}", lr_coefficient((6, 5), (5, 2), (3, 1)), 1)
    check("1.4 c^5321_{43,31}", lr_coefficient((5, 3, 2, 1), (4, 3), (3, 1)), 1)
    check("1.5 c^5321_{421,31}", lr_coefficient((5, 3, 2, 1), (4, 2, 1), (3, 1)), 3)


def test_golden_kronecker_values():
    check("1.6 g(321,2211,411)", kronecker_coefficient((3, 2, 1), (2, 2, 1, 1), (4, 1, 1)), 2)
    check("1.7 g(42,42,42)", kronecker_coefficient((4, 2), (4, 2), (4, 2)), 2)
    check(
        "1.8 g(521,41111,4211)",
        kronecker_coefficient((5, 2, 1), (4, 1, 1, 1, 1), (4, 2, 1, 1)),
        5,
    )


def test_golden_triple_values():
    check("1.9a triple1(42,321,42)", triple1(4, 2, 3, 2, 1, (4, 2)), 4)
    check("1.9b triple2(42,321,42)", triple2(4, 2, 3, 2, 1, (4, 2)), 2)
    check("1.9c g(42,321,42)", g_two_row_near_hook(4, 2, 3, 2, 1, (4, 2)), 2)
    t3, _ = triple3(4, 3, 3, 2, 2, (3, 2, 1, 1))
    t4, _ = triple4(4, 3, 3, 2, 2, (3, 2, 1, 1))
    check("1.10a triple3(43,3211,3211)", t3, 8)
    check("1.10b triple4(43,3211,3211)", t4, 4)
    check("1.10c g(43,3211,3211)", g_two_row_near_hook(4, 3, 3, 2, 2, (3, 2, 1, 1)), 4)


def _witness_value(args, inside: bool) -> int:
    """witnesses(*args)'s value, once its removal matches whether d is inside the interval."""
    value, witness_set = witnesses(*args)
    assert (witness_set.removed_min is not None) == inside, args
    return value


def test_golden_witness_values():
    check("1.11 g(52,3211,52)", _witness_value((3, 2, 5, 2, 2), True), 0)
    check("1.12 g(86,62111111,821111)", _witness_value((6, 6, 8, 6, 2), True), 1)
    check(
        "1.12o oracle g(86,62111111,821111)",
        kronecker_coefficient((8, 6), (6, 2, 1, 1, 1, 1, 1, 1), (8, 2, 1, 1, 1, 1)),
        1,
    )
    check("1.13 g(54,321111,522)", _witness_value((3, 4, 5, 4, 3), False), 1)
    check("1.14 g((10,5),72111111,9222)", _witness_value((7, 6, 10, 5, 4), False), 1)
    check(
        "1.14o oracle g((10,5),72111111,9222)",
        kronecker_coefficient((10, 5), (7, 2, 1, 1, 1, 1, 1, 1), (9, 2, 2, 2)),
        1,
    )
    check("1.15 g(63,2211111,42111)", _witness_value((2, 5, 6, 3, 2), True), 1)


def test_golden_piecewise_values():
    check("1.16 xi^[2]_32111(2,5)", xi((3, 2, 1, 1, 1), 2, 2, 5), 1)
    check("1.17 phi(2,3,3,0;6,2)", phi(2, 3, 3, 0, 6, 2), 1)
    check("1.18 N(5321,421,1,3)", strip_chain_count((5, 3, 2, 1), (4, 2, 1), 1, 3), 4)
    check("1.19 N(4211,221,1,2)", strip_chain_count((4, 2, 1, 1), (2, 2, 1), 1, 2), 2)


# ---------------------------------------------------------------------------
# criterion 2: golden structures


def test_golden_five_tableaux():
    expected = [
        "1' 1 1 1 | 1' 3' | 2' | 2",
        "1' 1 1 2' | 1' 2 | 1' | 3",
        "1' 1 1 2' | 1' 3' | 1 | 2",
        "1' 1 1 3' | 1' 2' | 1 | 2",
        "1' 1 1 3' | 1' 2 | 1' | 2",
    ]
    got = list(enumerate_blasiak((5, 2, 1), 4, (4, 2, 1, 1)))
    check(
        "2.1 five hook-rule tableaux for (521, 4, 4211)",
        got,
        [ColoredTableau.from_text(s) for s in expected],
    )


def test_golden_insertion_trace():
    word = parse_colored_word("2' 1 1 2 1 1' 3' 1'")
    expected = [
        "2'",
        "1 2'",
        "1 1 2'",
        "1 1 2' 2",
        "1 1 1 2' | 2",
        "1' 1 1 2' | 1 | 2",
        "1' 1 1 2' | 1 | 2 | 3'",
        "1' 1 1 2' | 1' 3' | 1 | 2",
    ]
    got = mixed_insertion_trace(word)
    check(
        "2.2 eight-step insertion trace",
        got,
        [ColoredTableau.from_text(s) for s in expected],
    )


def test_golden_word_image_and_blft():
    word = parse_colored_word("2' 1 4' 4 4' 3 1' 3")
    check(
        "2.3a mixed insertion tableau of the eight-letter word",
        mixed_insertion_tableau(word),
        ColoredTableau.from_text("1' 2' 3 3 | 1 4' | 4' 4"),
    )
    check("2.3b blft", "".join(str(v) for v in blft(word)), "24411433")


def test_golden_index_sets():
    nu = Partition((3, 2, 1, 1))
    plus = {(tuple(e), j, r) for e, j, r in j_plus(4, nu, 3, 2, 2)}
    minus = {(tuple(e), j, r) for e, j, r in j_minus(4, nu, 3, 2, 2)}
    check(
        "2.4a positive index set at (43, 3211, 3211)",
        plus,
        {
            ((3, 2, 1), 0, 2),
            ((3, 2, 1), 0, 3),
            ((3, 1, 1, 1), 0, 2),
            ((3, 1, 1, 1), 0, 3),
            ((2, 2, 1, 1), 0, 2),
            ((2, 2, 1, 1), 0, 3),
        },
    )
    check(
        "2.4b negative index set at (43, 3211, 3211)",
        minus,
        {((2, 2), 1, 2), ((2, 1, 1), 0, 1), ((2, 1, 1), 1, 1)},
    )


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalence sweeps


# checks each sweep runs at the limits below; a sweep that silently drops
# checks would otherwise still report no failures
EXPECTED_CHECKS = {
    "blasiak-vs-oracle": 14654,
    "rosas-vs-oracle": 9926,
    "fundamental-vs-oracle": 6313,
    "triples-vs-oracle": 107567,
    "mainresults": 733,
    "giambelli": 96,
    "littlewood": 2760,
    "kron-basics": 118684,
    "lr": 15991,
    "jacobi-trudi": 67,
    "partitions": 57289,
}


@pytest.mark.parametrize(
    "suite,limit",
    [
        ("blasiak-vs-oracle", 9),
        ("rosas-vs-oracle", 10),
        ("fundamental-vs-oracle", 8),
        ("triples-vs-oracle", 9),
        ("mainresults", 10),
    ],
)
def test_oracle_equivalence(suite, limit):
    checks, failures = verify.run_suites([suite], limit)[0]
    for message in failures[:10]:
        print("   ", message)
    report(f"3 {suite} (n <= {limit}, {checks} checks)", not failures)
    check(f"3 {suite} check count", checks, EXPECTED_CHECKS[suite])


# ---------------------------------------------------------------------------
# criterion 4: identity suites


@pytest.mark.parametrize(
    "suite,limit",
    [
        ("giambelli", 9),
        ("littlewood", 7),
        ("kron-basics", 10),
        ("lr", 8),
        ("jacobi-trudi", 8),
        ("partitions", 30),
    ],
)
def test_identity_suites(suite, limit):
    checks, failures = verify.run_suites([suite], limit)[0]
    for message in failures[:10]:
        print("   ", message)
    report(f"4 {suite} (limit {limit}, {checks} checks)", not failures)
    check(f"4 {suite} check count", checks, EXPECTED_CHECKS[suite])


def _kron_basics_per_triple(kind: str, n: int, g) -> tuple[int, list[str]]:
    """The per-triple loops that kron-basics ran before it compared rows, reading g."""
    checks, fails = 0, []
    parts = partitions_list(n)
    fmt = verify._fmt
    if kind == "s3":
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    base = g(lam, mu, nu)
                    for order in permutations((lam, mu, nu)):
                        checks += 1
                        if g(*order) != base:
                            fails.append(
                                f"index permutation changed g at {fmt(lam)},{fmt(mu)},{fmt(nu)}"
                            )
    elif kind == "conjugation":
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    checks += 1
                    if g(lam, mu, nu) != g(lam, mu.transpose(), nu.transpose()):
                        fails.append(
                            f"conjugation invariance broke at {fmt(lam)},{fmt(mu)},{fmt(nu)}"
                        )
    else:  # trivial-sign
        row = Partition((n,)) if n else Partition()
        column = Partition((1,) * n)
        for lam in parts:
            for mu in parts:
                checks += 2
                expected = 1 if lam == mu else 0
                if g(row, lam, mu) != expected:
                    fails.append(f"trivial row rule broke at {fmt(lam)},{fmt(mu)}")
                expected = 1 if lam == mu.transpose() else 0
                if g(column, lam, mu) != expected:
                    fails.append(f"sign column rule broke at {fmt(lam)},{fmt(mu)}")
    return checks, fails


@pytest.mark.parametrize("kind", ["s3", "conjugation", "trivial-sign"])
def test_kron_basics_failures_match_the_per_triple_loop(monkeypatch, kind):
    # each entry of each row at n = 3 is perturbed in turn; the row comparisons
    # must then report exactly the checks and lines of the per-triple loop
    parts = partitions_list(3)
    index = {nu: k for k, nu in enumerate(parts)}
    true_row = symfun.kronecker_row
    seen = 0
    for lam in parts:
        for mu in parts:
            for k in range(len(parts)):

                def row(x, y, target=(lam, mu), at=k):
                    values = list(true_row(x, y))
                    if (x, y) == target:
                        values[at] += 1
                    return tuple(values)

                monkeypatch.setattr(symfun, "kronecker_row", row)
                expected = _kron_basics_per_triple(kind, 3, lambda x, y, z: row(x, y)[index[z]])
                assert verify.run_kron_basics((kind, 3)) == expected, (lam, mu, k)
                seen += bool(expected[1])
    assert seen >= 2  # perturbations that the rule sees, and the loop reports


def _littlewood_schur_vectors(unit) -> tuple[int, list[str]]:
    """The littlewood loop that summed SchurVectors before it summed dense lists (each term rebuilt per nu)."""
    lam, mu = unit
    checks, fails = 0, []
    product = symfun.schur_product(symfun.schur(lam), symfun.schur(mu))
    lefts = {
        tau: symfun.kronecker_product(symfun.schur(tau), symfun.schur(lam))
        for tau in partitions_list(lam.size)
    }
    rights = {
        eta: symfun.kronecker_product(symfun.schur(eta), symfun.schur(mu))
        for eta in partitions_list(mu.size)
    }
    for nu in partitions_list(lam.size + mu.size):
        checks += 1
        lhs = symfun.kronecker_product(product, symfun.schur(nu))
        rhs_terms = []
        for tau in partitions_list(lam.size):
            for eta, coeff in tableau.lr_weight_support(nu, tau):
                term = symfun.schur_product(lefts[tau], rights[eta])
                rhs_terms.extend((p, coeff * c) for p, c in term.items())
        if lhs != symfun.SchurVector(rhs_terms):
            fails.append(
                f"coproduct compatibility broke at lam={verify._fmt(lam)} mu={verify._fmt(mu)} nu={verify._fmt(nu)}"
            )
    return checks, fails


def test_littlewood_failures_match_the_vector_formulation(monkeypatch):
    # each entry of each oracle row at n = 3 is perturbed in turn; the dense
    # lists must then report exactly the checks and lines of the SchurVector loop
    parts = partitions_list(3)
    units = verify.units_littlewood(4)
    true_row = symfun._kronecker_row
    reported = 0
    for lam in parts:
        for mu in parts:
            for k in range(len(parts)):

                def row(x, y, target=(lam, mu), at=k):
                    values = list(true_row(x, y))
                    if (x, y) == target:
                        values[at] += 1
                    return tuple(values)

                monkeypatch.setattr(symfun, "_kronecker_row", row)
                failures = 0
                for unit in units:
                    expected = _littlewood_schur_vectors(unit)
                    assert verify.run_littlewood(unit) == expected, (lam, mu, k, unit)
                    failures += len(expected[1])
                reported += failures > 0
    assert reported == len(parts) ** 3  # every perturbation is seen, and reported


def _fundamental_per_triple(unit) -> tuple[int, list[str]]:
    """The fundamental-vs-oracle loop that called near_hook_value once per triple before it read rows."""
    n, a, b = unit
    c = n - a - b
    near_hook = Partition((a, b) + (1,) * c)
    checks, fails = 0, []
    for lam in partitions_list(n):
        for nu, oracle in zip(partitions_list(n), symfun.kronecker_row(lam, near_hook)):
            checks += 1
            value = near_hook_value(lam, nu, a, b, c)
            if value != oracle:
                fails.append(
                    f"expansion != oracle at lam={verify._fmt(lam)} (a,b,c)=({a},{b},{c}) nu={verify._fmt(nu)}: {value} vs {oracle}"
                )
    return checks, fails


def test_fundamental_failures_match_the_per_triple_loop(monkeypatch):
    # each entry of the oracle row g((3,1,1), (3,2), .) is perturbed in turn;
    # the expansion rows must then report exactly the checks and lines of the
    # per-triple loop.  Their hook factors are rows of smaller n, so the
    # perturbation reaches only the oracle side, as it does in the loop.
    target = (Partition((3, 1, 1)), Partition((3, 2)))
    units = verify.units_fundamental(5)
    true_row = symfun._kronecker_row
    reported = 0
    for k in range(len(partitions_list(5))):

        def row(x, y, at=k):
            values = list(true_row(x, y))
            if (x, y) == target:
                values[at] += 1
            return tuple(values)

        monkeypatch.setattr(symfun, "_kronecker_row", row)
        failures = 0
        for unit in units:
            expected = _fundamental_per_triple(unit)
            assert verify.run_fundamental(unit) == expected, (k, unit)
            failures += len(expected[1])
        reported += failures == 1
    assert reported == len(partitions_list(5))  # every perturbation is seen once, and reported


def _triples_per_point(unit) -> tuple[int, list[str]]:
    """The triples-vs-oracle loops that called triple1 .. triple4 per (nu, d) and probed every membership point.

    After the probes of one (nu, side), the index set's points that no probe
    visited, which lie off the grid, are reported too, sorted.
    """
    kind, n, a, b = unit
    checks, fails = 0, []
    if kind == "value":
        c = n - a - b
        near_hook = Partition((a, b) + (1,) * c)
        ds = range((n + 1) // 2, n + 1)
        rows = [symfun.kronecker_row(Partition((d, n - d)), near_hook) for d in ds]
        for nu, oracles in zip(partitions_list(n), zip(*rows)):
            for d, oracle in zip(ds, oracles):
                e = n - d
                t1 = triple1(d, e, a, b, c, nu)
                t2 = triple2(d, e, a, b, c, nu)
                checks += 1
                if t1 - t2 != oracle:
                    fails.append(
                        f"triple1-triple2 != oracle at (d,e)=({d},{e}) (a,b,c)=({a},{b},{c}) nu={verify._fmt(nu)}"
                    )
                t3, certs3 = triple3(d, e, a, b, c, nu)
                t4, certs4 = triple4(d, e, a, b, c, nu)
                checks += 1
                if t3 - t4 != oracle:
                    fails.append(
                        f"triple3-triple4 != oracle at (d,e)=({d},{e}) (a,b,c)=({a},{b},{c}) nu={verify._fmt(nu)}"
                    )
                checks += 1
                if t3 != t1 or t4 != t2:
                    fails.append(
                        f"positive support lost terms at (d,e)=({d},{e}) (a,b,c)=({a},{b},{c}) nu={verify._fmt(nu)}"
                    )
                checks += 1
                if any(cert.contribution <= 0 for cert in certs3 + certs4):
                    fails.append(f"non-positive reduced certificate at nu={verify._fmt(nu)}")
        return checks, fails
    for aa in range(1, n):
        for bb in range(1, n - aa + 1):
            cc = n - aa - bb
            sides = [
                (two_rows(bb - 1), verify._g_rows(n - bb + 1, hook_partition(aa, cc + 1)),
                 nearhook.index_set_plus, ("positive", "eta", "j")),
            ]
            if bb >= 2:
                sides.append(
                    (two_rows(aa), verify._g_rows(n - aa, hook_partition(bb - 1, cc + 1)),
                     nearhook.index_set_minus, ("negative", "delta", "i"))
                )
            for nu in partitions_list(n):
                for strips, g_rows, index_set, (side, sigma_name, k_name) in sides:
                    members = index_set(nu, aa, bb, cc)
                    probed = set()
                    for sigma, g_row in g_rows:
                        for k, strip in enumerate(strips):
                            coeff = lr_coefficient(nu, sigma, strip)
                            for r, g in enumerate(g_row):
                                checks += 1
                                probed.add((sigma, k, r))
                                if ((sigma, k, r) in members) != (coeff * g > 0):
                                    fails.append(
                                        f"{side}-support membership broke at nu={verify._fmt(nu)} {sigma_name}={verify._fmt(sigma)} {k_name}={k} r={r}"
                                    )
                    for sigma, k, r in sorted(members - probed):
                        fails.append(
                            f"{side}-support membership broke at nu={verify._fmt(nu)} {sigma_name}={verify._fmt(sigma)} {k_name}={k} r={r}"
                        )
    return checks, fails


def test_triples_value_failures_match_the_per_d_loop(monkeypatch):
    # each entry of the four oracle rows g((d, 6-d), (3,2,1), .) is perturbed
    # in turn; the d-rows must then report exactly the checks and lines of
    # the loop that called triple1 .. triple4 per (nu, d).  The triple sums
    # read the closed form, never these rows, so only the oracle side moves.
    unit = ("value", 6, 3, 2)
    near_hook = Partition((3, 2, 1))
    true_row = symfun._kronecker_row
    reported = 0
    for d in range(3, 7):
        for k in range(len(partitions_list(6))):

            def row(x, y, at=k, target=(Partition((d, 6 - d)), near_hook)):
                values = list(true_row(x, y))
                if (x, y) == target:
                    values[at] += 1
                return tuple(values)

            monkeypatch.setattr(symfun, "_kronecker_row", row)
            expected = _triples_per_point(unit)
            assert verify.run_triples(unit) == expected, (d, k)
            reported += len(expected[1]) == 2  # triple1-triple2 and triple3-triple4
    assert reported == 4 * len(partitions_list(6))


@pytest.mark.parametrize(
    "name,edit,failures",
    [
        ("index_set_plus", {(Partition((3, 1)), 0, 1)}, 1),  # a member dropped
        ("index_set_plus", {(Partition((4,)), 0, 0)}, 1),  # a grid point added
        ("index_set_plus", {(Partition((4,)), 0, 3)}, 1),  # r past the grid: never probed, still reported
        ("index_set_minus", {(Partition((2, 1)), 1, 1), (Partition((3,)), 1, 0), (Partition((1, 1, 1)), 0, 1)}, 3),
        ("index_set_minus", {(Partition((3,)), 2, 0)}, 1),  # k past the grid
        ("index_set_plus", {((1,), 0, 99)}, 1),  # sigma no partition of S, r past every row
    ],
    ids=["plus-drop", "plus-add", "plus-outside", "minus-three", "minus-outside", "plus-off-grid"],
)
def test_triples_membership_failures_match_the_probing_loop(monkeypatch, name, edit, failures):
    # one index set at nu = (3,2), (a, b, c) = (2, 2, 1) gains or loses
    # points; the set comparison must report what probing every grid point did
    unit = ("membership", 5, 0, 0)
    true_set = getattr(nearhook, name)

    def index_set(nu, a, b, c):
        members = true_set(nu, a, b, c)
        return members ^ edit if (nu, a, b, c) == ((3, 2), 2, 2, 1) else members

    monkeypatch.setattr(nearhook, name, index_set)
    expected = _triples_per_point(unit)
    assert verify.run_triples(unit) == expected
    assert len(expected[1]) == failures


# ---------------------------------------------------------------------------
# criterion 5: determinism across worker counts


def test_determinism_across_jobs(capsys):
    identical = True
    # at --n 3, fundamental-vs-oracle and mainresults have no units and still
    # get a report each
    cases = (("littlewood", "5"), ("rosas-vs-oracle", "6"), ("lr", "5"), ("all", "3"))
    for suite, limit in cases:
        outputs = []
        for jobs in ("1", "3"):
            code = cli_main(["verify", suite, "--n", limit, "--jobs", jobs])
            captured = capsys.readouterr()
            assert code == 0
            assert re.findall(r"^suite: (.+)$", captured.out, re.M) == (
                sorted(verify.SUITES) if suite == "all" else [suite]
            )
            outputs.append(captured.out)
        identical = identical and outputs[0] == outputs[1]
    with capsys.disabled():
        report("5 verify reports byte-identical across worker counts", identical)


# ---------------------------------------------------------------------------
# criterion 6: the full sweep report, pinned where the benchmark pins it


def test_verify_all_report_is_pinned(capsys):
    expected_file = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    expected = json.loads(expected_file.read_text())["verify-all"]
    code = cli_main(["verify", "all", "--jobs", "1"])
    out = capsys.readouterr().out
    checks = sum(int(x) for x in re.findall(r"^checks: (\d+)$", out, re.M))
    with capsys.disabled():
        check("6 verify all exit code", code, 0)
        check("6 verify all check count", checks, expected["checks"])
        check("6 verify all report sha256", hashlib.sha256(out.encode()).hexdigest(),
              expected["report_sha256"])


# ---------------------------------------------------------------------------
# criterion 7: the recursive walkers are freed by reference counting


def test_walkers_leave_no_cyclic_garbage():
    """A walk leaves nothing for the garbage collector to find.

    Memoized entry points are called through __wrapped__, and every memo
    is emptied before the count, so a warm memo cannot skip the walk;
    each call is checked to have walked something.
    """
    gc.collect()
    gc.disable()
    try:
        assert len(lr_tableaux((4, 3, 1), (2, 1), (3, 2))) == 2
        assert lr_coefficient.__wrapped__((4, 2, 1, 1), (2, 1), (3, 1, 1)) == 2
        assert strip_chain_count((4, 3, 1), (2, 1), 2, 3) == 3
        memo.clear()
        assert len(blasiak_counts((3, 2, 1))) == 34
        assert colored._strips.cache_info().misses > 0
        assert len(enumerate_blasiak.__wrapped__((5, 2), 2, special_nu(2, 3, 2))) == 2
        assert len(list(giambelli_leibniz((3, 2, 1)))) == 2
        assert len(list(jacobi_trudi((3, 2, 1)))) == 4
        unreachable = gc.collect()
    finally:
        gc.enable()
    check("7 unreachable objects left by the walkers", unreachable, 0)


def test_sweep_units_leave_no_cyclic_garbage():
    """What a unit leaves alive holds no cycle, so run_suites may freeze it.

    Each runner is called directly: through _run_unit, its gc.freeze() would
    move any garbage out of the collector's sight.  Every suite runs at
    min(default, 7) with the collector off.
    """
    gc.collect()
    gc.disable()
    unreachable = {}
    try:
        for name, (limit, make_units, runner) in verify.SUITES.items():
            for unit in make_units(min(limit, 7)):
                runner(unit)
            unreachable[name] = gc.collect()
    finally:
        gc.enable()
    check("7 unreachable objects left by each suite's units", unreachable, dict.fromkeys(verify.SUITES, 0))


def test_run_suites_freezes_units_and_thaws_on_return(monkeypatch):
    # the second unit sees what the first froze; nothing stays frozen after
    # run_suites returns, or raises
    limit, make_units, runner = verify.SUITES["partitions"]
    frozen = []

    def recording(unit):
        frozen.append(gc.get_freeze_count())
        return runner(unit)

    monkeypatch.setitem(verify.SUITES, "partitions", (limit, make_units, recording))
    assert verify.run_suites(["partitions"], 2)[0][1] == []
    assert frozen[0] == 0 < frozen[1]
    assert gc.get_freeze_count() == 0

    def failing(unit):
        if frozen:
            raise RuntimeError("unit failed")
        frozen.append(gc.get_freeze_count())
        return runner(unit)

    frozen.clear()
    monkeypatch.setitem(verify.SUITES, "partitions", (limit, make_units, failing))
    with pytest.raises(RuntimeError, match="unit failed"):
        verify.run_suites(["partitions"], 2)
    assert gc.get_freeze_count() == 0


def test_verify_freezes_what_is_left_for_the_exit_collections():
    # exit hooks run last in, first out: the one registered before verify is
    # imported runs after verify's gc.freeze and sees the memo tables frozen
    src = Path(verify.__file__).resolve().parents[1]
    code = (
        f"import atexit, gc, sys; sys.path.insert(0, {str(src)!r}); "
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0)); "
        "import kroncalc.verify; from kroncalc.cli import main; "
        "print('exit code:', main(['verify', 'partitions', '--n', '2']))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("exit code: 0\nfrozen at exit: True\n"), proc.stdout


# ---------------------------------------------------------------------------
# the names that perfbench/tracer.py reads


def test_the_benchmark_tracer_finds_its_memos_and_its_suite_runner():
    # A traced benchmark pass reads each layer's misses from cache_info(); a
    # layer whose last memo is gone reports null and the pass has no result.
    # install() binds verify.run_suite.  Remove this test with the tracer
    # (ROADMAP item 1).
    for fn in (symfun.kronecker_coefficient, tableau.lr_coefficient, colored.enumerate_blasiak):
        assert callable(getattr(fn, "cache_info", None)), fn.__name__
    assert callable(verify.run_suite)


# ---------------------------------------------------------------------------
# the memo registry


def test_only_untargeted_graphs_share_strip_listings_and_side_tables_hold_no_certificate():
    # A graph with a target has the target in every listing's key, so it
    # lists its strips through a cache of its own and leaves the shared memo
    # to the untargeted graphs, which reuse each other's listings.
    memo.clear()
    assert colored.count_blasiak((4, 3, 2, 1), 3, (4, 3, 2, 1)) > 0
    assert colored._strips.cache_info().currsize == 0
    blasiak_counts((4, 3, 2, 1))
    assert colored._strips.cache_info().currsize > 0
    # the side tables hold plain rows; triple3/triple4 build certificates on read
    sides = set()
    for n in range(5, 9):
        for b in range(2, n - 2):
            for a in range(b, n - b):
                c = n - a - b
                for nu in partitions_list(n):
                    for d in range((n + 1) // 2, n + 1):
                        g_two_row_near_hook(d, n - d, a, b, c, nu)
                    sides.update(nearhook._side(nu, a, b, c, positive) for positive in (True, False))
    assert nearhook._side_table.cache_info().currsize == len(sides) > 0
    rows = [row for side in sides for row in nearhook._side_table(*side)]
    assert rows and not any(isinstance(x, nearhook.TermCertificate) for row in rows for x in row)


def test_short_cuts_agree_with_the_memoized_routes_and_leave_their_memos_untouched():
    # An inner shape that does not fit answers 0 (or an empty support) from
    # the arguments alone, and a side that no triple sum reads is built and
    # dropped; each answer must still equal the memoized route's, and the
    # memo must grow exactly by the keys that route is kept for.
    memo.clear()
    lr_table, chains, side_table = tableau._lr_table, tableau._strip_chains, nearhook._side_table
    shapes = [lam for n in range(8) for lam in partitions_list(n)]
    for lam in shapes:
        for mu in shapes:
            if mu.size > lam.size:
                continue
            table = lr_table.__wrapped__(lam, mu)
            before = lr_table.cache_info().currsize
            for nu in partitions_list(lam.size - mu.size):
                assert lr_coefficient(lam, mu, nu) == table.get(nu, 0), (lam, mu, nu)
            assert tableau.lr_weight_support(lam, mu) == tuple(sorted(table.items(), reverse=True)), (lam, mu)
            fits = contains(mu, lam)
            assert fits or not table, (lam, mu)
            assert lr_table.cache_info().currsize == before + fits, (lam, mu)
    for nu in (lam for n in range(9) for lam in partitions_list(n)):
        for eta in (eta for m in range(nu.size + 1) for eta in partitions_list(m)):
            counts = chains.__wrapped__(nu, eta)
            before = chains.cache_info().currsize
            rest = nu.size - eta.size
            for size1 in range(rest + 1):
                expected = counts[size1] if size1 < len(counts) else 0
                assert strip_chain_count(nu, eta, size1, rest - size1) == expected, (nu, eta, size1)
            fits = contains(eta, nu)
            assert fits or not counts, (nu, eta)
            assert chains.cache_info().currsize == before + fits, (nu, eta)
    # every side a triple sum reads (a >= b >= 2, c >= 1), then every side an
    # index set reads, as the triples-vs-oracle sweep probes them
    for n in range(3, 8):
        grid = [(a, b, n - a - b) for a in range(1, n) for b in range(1, n - a + 1)]
        for nu in partitions_list(n):
            read = {
                nearhook._side(nu, a, b, c, positive)
                for a, b, c in grid
                if a >= b >= 2 and c >= 1
                for positive in (True, False)
            }
            kept = set()
            for a, b, c in grid:
                for positive, index_set in ((True, nearhook.index_set_plus), (False, nearhook.index_set_minus)):
                    if not positive and b < 2:
                        continue
                    side = nearhook._side(nu, a, b, c, positive)
                    rows = side_table.__wrapped__(*side)
                    before = side_table.cache_info().currsize
                    assert index_set(nu, a, b, c) == {(sigma, k, r) for _, _, sigma, k, r, _, _ in rows}, side
                    grown = side in read and side not in kept
                    assert side_table.cache_info().currsize == before + grown, side
                    if grown:
                        kept.add(side)
            assert kept == read, nu
    assert side_table.cache_info().currsize > 0


def test_every_memo_is_registered_and_cleared_by_one_call():
    # A memo declared outside kroncalc.memo would survive memo.clear(), and a
    # test that relies on a cold start would then pass in some orders only.
    # kroncalc.__main__ is left out: importing it runs the command line.
    modules = [kroncalc] + [
        importlib.import_module(f"kroncalc.{info.name}")
        for info in pkgutil.iter_modules(kroncalc.__path__)
        if info.name != "__main__"
    ]
    found = set()
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.update(v for v in vars(value).values() if hasattr(v, "cache_info"))
            elif hasattr(value, "cache_info"):
                found.add(value)
    assert found == set(memo.MEMOS.values())
    names = {f"{fn.__module__}.{fn.__qualname__}" for fn in found}
    assert len(found) == len(names) == 22
    assert names == set(memo.MEMOS)
    kronecker_coefficient((4, 2), (3, 3), (2, 2, 1, 1))
    memo.clear()
    assert [name for name, fn in memo.MEMOS.items() if fn.cache_info().currsize] == []


def test_suites_empty_the_memos_no_remaining_suite_reads_and_build_no_entry_twice(monkeypatch):
    # Each suite, run cold at its default limit, touches the memos of exactly
    # the modules READS names for it, partition aside.  A run of every suite
    # empties a module's memos after the last suite that reads them and
    # rebuilds no entry: its misses, summed over each release, equal those of
    # the same run with the release patched out.
    def counts():
        return {name: fn.cache_info()[:2] for name, fn in memo.MEMOS.items()}

    touched = {}
    for suite in verify.SUITES:
        memo.clear()
        before = counts()
        verify.run_suites([suite])
        touched[suite] = {
            name.split(".")[1] for name, count in counts().items() if count != before[name]
        } - {"partition"}
    check("memo modules each suite reads", touched, {s: set(m) for s, m in verify.READS.items()})

    clear = memo.clear

    def run(release: bool):
        misses = dict.fromkeys(memo.MEMOS, 0)

        def counted(modules=None):  # adds what each release resets
            before = {name: fn.cache_info().misses for name, fn in memo.MEMOS.items()}
            if release:
                clear(modules)
            for name, fn in memo.MEMOS.items():
                misses[name] += before[name] - fn.cache_info().misses

        clear()
        monkeypatch.setattr(memo, "clear", counted)
        results = verify.run_suites(sorted(verify.SUITES))
        monkeypatch.setattr(memo, "clear", clear)
        for name, fn in memo.MEMOS.items():
            misses[name] += fn.cache_info().misses
        return results, misses

    kept, kept_misses = run(release=False)
    released, released_misses = run(release=True)
    assert released == kept
    check("memo misses with and without release", released_misses, kept_misses)
    check("tableau and nearhook memo entries left after the run", {
        name: fn.cache_info().currsize
        for name, fn in memo.MEMOS.items()
        if fn.__module__ in ("kroncalc.tableau", "kroncalc.nearhook") and fn.cache_info().currsize
    }, {})
