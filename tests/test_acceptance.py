"""Acceptance criteria, one printed pass/fail line per criterion.

All values are exact integers; every comparison is equality with zero
tolerance.  Run with -s to see the lines.
"""

import gc
import hashlib
import json
import re
from pathlib import Path

import pytest

from kroncalc import verify
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
    special_nu,
    triple1,
    triple2,
    triple3,
    triple4,
    witnesses_null_case,
    witnesses_singleton_case,
)
from kroncalc.partition import Partition
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


def test_golden_witness_values():
    value, _ = witnesses_singleton_case(3, 2, 5, 2, 2)
    check("1.11 g(52,3211,52)", value, 0)
    value, _ = witnesses_singleton_case(6, 6, 8, 6, 2)
    check("1.12 g(86,62111111,821111)", value, 1)
    check(
        "1.12o oracle g(86,62111111,821111)",
        kronecker_coefficient((8, 6), (6, 2, 1, 1, 1, 1, 1, 1), (8, 2, 1, 1, 1, 1)),
        1,
    )
    value, _ = witnesses_null_case(3, 4, 5, 4, 3)
    check("1.13 g(54,321111,522)", value, 1)
    value, _ = witnesses_null_case(7, 6, 10, 5, 4)
    check("1.14 g((10,5),72111111,9222)", value, 1)
    check(
        "1.14o oracle g((10,5),72111111,9222)",
        kronecker_coefficient((10, 5), (7, 2, 1, 1, 1, 1, 1, 1), (9, 2, 2, 2)),
        1,
    )
    value, _ = witnesses_singleton_case(2, 5, 6, 3, 2)
    check("1.15 g(63,2211111,42111)", value, 1)


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
    checks, failures = verify.run_suite(suite, limit)
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
    checks, failures = verify.run_suite(suite, limit)
    for message in failures[:10]:
        print("   ", message)
    report(f"4 {suite} (limit {limit}, {checks} checks)", not failures)
    check(f"4 {suite} check count", checks, EXPECTED_CHECKS[suite])


# ---------------------------------------------------------------------------
# criterion 5: determinism across worker counts


def test_determinism_across_jobs(capsys):
    identical = True
    for suite, limit in (("littlewood", "5"), ("rosas-vs-oracle", "6"), ("lr", "5")):
        outputs = []
        for jobs in ("1", "3"):
            code = cli_main(["verify", suite, "--n", limit, "--jobs", jobs])
            captured = capsys.readouterr()
            assert code == 0
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

    Memoized entry points are called through __wrapped__, so a warm memo
    cannot skip the walk; each call is checked to have walked something.
    """
    gc.collect()
    gc.disable()
    try:
        assert len(lr_tableaux((4, 3, 1), (2, 1), (3, 2))) == 2
        assert lr_coefficient.__wrapped__((4, 2, 1, 1), (2, 1), (3, 1, 1)) == 2
        assert strip_chain_count.__wrapped__((4, 3, 1), (2, 1), 2, 3) == 3
        assert len(blasiak_counts((3, 2, 1))) == 34
        assert len(enumerate_blasiak.__wrapped__((5, 2), 2, special_nu(2, 3, 2))) == 2
        assert len(list(giambelli_leibniz((3, 2, 1)))) == 2
        assert len(list(jacobi_trudi((3, 2, 1)))) == 4
        unreachable = gc.collect()
    finally:
        gc.enable()
    check("7 unreachable objects left by the walkers", unreachable, 0)
