"""Tests of the benchmark itself: span attribution, checksum gates, tail rule."""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from kroncalc import nearhook, symfun  # noqa: E402


class Ticks:
    """A clock that advances by one second each time it is read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@contextmanager
def installed(**kwargs):
    tracer = tracing.Tracer(**kwargs).install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_nested_call_is_attributed_to_its_own_layer():
    with installed(clock=Ticks()) as tracer:
        symfun.schur_product(symfun.schur((2, 1)), symfun.schur((1,)))
    # algebra opens at 1, schur_expand_product (tableau.lr) runs from 2 to 3,
    # algebra closes at 4; lr_coefficient inside it stays in the lr span
    assert tracer.self_s["tableau.lr"] == 1.0
    assert tracer.self_s["symfun.algebra"] == 2.0
    assert tracer.calls["symfun.algebra"] == 1
    assert tracer.calls["tableau.lr"] > 1


def test_calls_through_imported_names_are_traced_and_restored():
    original = symfun.kronecker_coefficient
    with installed() as tracer:
        assert nearhook.kronecker_coefficient is not original
        certs, value = nearhook.near_hook_expansion((2, 2), (2, 2), 2, 2, 0)
    assert nearhook.kronecker_coefficient is original
    assert symfun.kronecker_coefficient is original
    snapshot = tracer.snapshot()
    assert snapshot["nearhook.expansion.calls"] == 1
    assert snapshot["nearhook.expansion.certificates"] == len(certs)
    assert snapshot["symfun.oracle.calls"] > 0
    assert snapshot["tableau.lr.calls"] > 0
    assert snapshot["symfun.oracle.misses"] is not None


def test_layer_without_cache_reports_null_misses(monkeypatch):
    monkeypatch.setattr(
        symfun, "kronecker_coefficient", symfun.kronecker_coefficient.__wrapped__
    )
    with installed() as tracer:
        assert symfun.kronecker_coefficient((1,), (1,), (1,)) == 1
    snapshot = tracer.snapshot()
    assert snapshot["symfun.oracle.calls"] == 1
    assert snapshot["symfun.oracle.misses"] is None


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_layer_self_times_add_up_to_the_traced_wall():
    traced = run.Pass(wall_s=10.0, traces=[
        {"symfun.oracle.self_s": 2.0, "symfun.oracle.misses": 5, "cli.kron.self_s": 1.0,
         "symfun.cache_file.load_s": 0.5, "verify.lr.unit_max_s": 0.25},
        {"symfun.oracle.self_s": 3.0, "symfun.oracle.misses": None, "cli.kron.self_s": 1.0,
         "symfun.cache_file.load_s": 0.5, "verify.lr.unit_max_s": 0.5},
    ])
    values = run.per_layer(traced, run.Pass(wall_s=8.0))
    assert values["symfun.oracle.misses"] is None
    assert values["verify.lr.unit_max_s"] == 0.5
    assert values["unattributed_s"] == 10.0 - 5.0 - 2.0 - 1.0
    assert values["trace_overhead_s"] == 2.0


def test_gauge_reads_its_speed_inside_the_windows_only(tmp_path):
    # rounds end at t = 1..6; the one from 2 to 3 took 0.2 CPU s, the others
    # 0.1, and the last line is still being written
    log = tmp_path / "gauge.log"
    log.write_text("1 0.1\n2 0.2\n3 0.4\n4 0.5\n5 0.6\n6 0.7\n7.0 0.")
    gauge = run.Gauge(str(log))
    # 1 round in 0.1 s, then 1.5 rounds in 0.15 s; the slow round is outside
    scale = gauge.scale([(1.0, 2.0), (3.25, 4.75)])
    assert abs(scale - run.REFERENCE_S / 0.1) < 1e-12


def test_calibration_kernel_checks_its_own_answer():
    calibrate.one_round()


# ---------------------------------------------------------------------------
# correctness gates, driven by fake runners instead of kroncalc processes


def pool_values() -> dict:
    with open(os.path.join(HERE, "queries.json"), encoding="utf-8") as handle:
        pool = json.load(handle)
    return {tuple(q["argv"]): q["value"] for group in pool.values() for q in group}


def kron_runner(values: dict, corrupt=None):
    """Answers every query with its pool value; ``corrupt`` alters one answer."""
    seen = []

    def runner(argv, trace=False):
        if argv is None:
            return run.Child(rc=0, wall_s=0.01, cpu_s=0.01)
        key = tuple(argv[:-2])  # drop --cache-file PATH
        seen.append(key)
        rc, value = 0, values[key]
        if corrupt is not None and len(seen) == 1:
            rc, value = corrupt(value)
        stdout = f"g(x ; y ; z) = {value}   [oracle, blasiak]\n"
        return run.Child(rc=rc, wall_s=0.02, cpu_s=0.02, main_cpu_s=0.01,
                         stdout=stdout, maxrss_mb=20.0)

    return runner


class SteadyGauge:
    """Stands in for run.Gauge: the machine always runs at half the reference speed."""

    def __init__(self, log_path):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def scale(self, windows):
        return 0.5


def bench(capsys, monkeypatch, tmp_path, runner, workload="kron-queries"):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"]
    code = run.main(args, runner=runner, gauge=SteadyGauge)
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-1])


def test_correct_answers_pass(capsys, monkeypatch, tmp_path):
    code, result = bench(capsys, monkeypatch, tmp_path, kron_runner(pool_values()))
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "cpu_s", "checks_per_s",
                                      "query_p50_ms", "query_tail_ms", "peak_rss_mb"}
    # every CPU time is scaled by the speed during its process
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert abs(metrics["cpu_s"] - 30 * 0.02 * 0.5) < 1e-9
    assert metrics["setup_s"] == 0.5 * 0.01 and metrics["query_p50_ms"] == 1000 * 0.01 * 0.5


def test_wrong_value_fails_the_run(capsys, monkeypatch, tmp_path):
    runner = kron_runner(pool_values(), corrupt=lambda value: (0, value + 1))
    code, result = bench(capsys, monkeypatch, tmp_path, runner)
    assert code == 1 and not result["correct"] and result["failed"] == 1


def test_disagreement_exit_fails_the_run(capsys, monkeypatch, tmp_path):
    runner = kron_runner(pool_values(), corrupt=lambda value: (1, value))
    code, result = bench(capsys, monkeypatch, tmp_path, runner)
    assert code == 1 and result["failed"] == 1


def test_report_checksum_mismatch_fails_the_run(capsys, monkeypatch, tmp_path):
    # the right check count and no failures, but not the committed report bytes
    report = "suite: lr\nlimit: default\nchecks: 269266\nfailures: 0\nPASS"

    def runner(argv, trace=False):
        if argv is None:
            return run.Child(rc=0, wall_s=0.01, cpu_s=0.01)
        return run.Child(rc=0, wall_s=1.0, cpu_s=1.0, main_cpu_s=0.9, stdout=report,
                         maxrss_mb=30.0)

    code, result = bench(capsys, monkeypatch, tmp_path, runner, workload="verify-all")
    assert code == 1 and not result["correct"] and result["failed"] == 1


def test_missing_sources_exit_without_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "verify-all", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
