"""kroncalc benchmark: times the CLI from outside and checks every answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads (each a single client in a closed loop):

- verify-all:    ``verify all --jobs 1``, the 11 exhaustive sweep suites;
- kron-queries:  the ``kron`` queries of queries.json in a seeded order, each
                 in a fresh interpreter, all sharing one ``--cache-file`` that
                 is absent when a pass starts.

Every measured call runs in a fresh interpreter, because kroncalc's caches
are process-global and a second call in one process would time cache hits.
A run makes ``round(seconds / pass_s)`` passes over the workload's inputs,
so the work of a run is fixed by its arguments.  With ``--trace 0`` the
benchmark, its children and the speed gauge of calibrate.py share one core,
and every time is a CPU time scaled to the reference machine's speed by what
the gauge measured during the measured processes (see calibrate.py and
README.md); the last line of stdout holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics of one traced pass, in wall
seconds, next to an untraced pass that gives the tracing overhead.  The
lines before it say the same for a reader.  The exit status is 1 when any
answer is wrong or any process fails.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 10  # per pass
REFERENCE_S = 0.03  # the gauge's CPU seconds per round on the reference machine
CHILD_TIMEOUT_S = 150.0
GAUGE_TIMEOUT_S = 30.0
VALUE_LINE = re.compile(r"^g\(.*\) = (\d+)\s+\[(.*)\]$")
CHECKS_LINE = re.compile(r"^checks: (\d+)$", re.M)
FAILURES_LINE = re.compile(r"^failures: (\d+)$", re.M)


@dataclass
class Child:
    """What one kroncalc process did, as seen from outside."""

    rc: int
    wall_s: float
    cpu_s: float = 0.0
    start: float = 0.0  # time.perf_counter() at spawn and at exit
    end: float = 0.0
    main_cpu_s: float | None = None  # CPU seconds inside cli.main
    stdout: str = ""
    maxrss_mb: float = 0.0
    trace: dict | None = None


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    checks: int = 0
    attempted: int = 0
    failed: int = 0
    maxrss_mb: float = 0.0
    query_s: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def spawn(argv: list[str] | None, trace: bool = False) -> Child:
    """Run one fresh interpreter on ``kroncalc.cli.main(argv)``; None only imports."""
    os.makedirs(WORK, exist_ok=True)
    result_path = os.path.join(WORK, "child-result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    spec = {"src": SRC, "argv": argv, "trace": trace, "result": result_path}
    cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"), json.dumps(spec)]
    # the program would otherwise pick up a cache file named by the caller
    env = {k: v for k, v in os.environ.items() if k != "KRONCALC_CHAR_CACHE"}
    with open(os.path.join(WORK, "child-stderr.txt"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=stderr, env=env, cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would sum
            # or take the maximum over every child reaped so far.  Its
            # ru_maxrss also counts this process's pages, which Linux carries
            # across fork and exec, so a child that reports its own peak is
            # read by that.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    child = Child(
        rc=proc.returncode, wall_s=end - start, cpu_s=usage.ru_utime + usage.ru_stime,
        start=start, end=end, maxrss_mb=usage.ru_maxrss / 1024,
    )
    if argv is not None and proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as handle:
            data = json.load(handle)
        child.rc = data["rc"]
        child.main_cpu_s = data["main_cpu_s"]
        child.stdout = data["stdout"]
        child.trace = data["trace"]
        child.maxrss_mb = data["peak_rss_kb"] / 1024
    elif argv is not None and child.rc == 0:
        child.rc = -1  # exited cleanly without a result
    return child


class Gauge:
    """The speed gauge of calibrate.py, running while the ``with`` block runs.

    Entering pins this process to one CPU, so that the gauge and every
    process started in the block share one core; leaving unpins it.
    ``scale(windows)`` gives REFERENCE_S over the gauge's CPU seconds per
    round during the given (start, end) perf_counter windows.
    """

    def __init__(self, log_path: str):
        self.log_path = log_path

    def __enter__(self) -> "Gauge":
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        os.makedirs(os.path.dirname(self.log_path), exist_ok=True)
        if os.path.exists(self.log_path):
            os.remove(self.log_path)
        self.proc = subprocess.Popen(
            [sys.executable, "-I", os.path.join(HERE, "calibrate.py"), self.log_path],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, cwd=ROOT,
        )
        try:
            self.rounds_until(time.perf_counter())  # the first measured process starts later
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()
        os.sched_setaffinity(0, self.cpus)

    def rounds_until(self, t: float) -> list[tuple[float, float]]:
        """The log's (perf_counter, process_time) rows, once one is later than ``t``."""
        deadline = time.perf_counter() + GAUGE_TIMEOUT_S
        while True:
            rows = []
            if os.path.exists(self.log_path):
                with open(self.log_path, encoding="ascii") as handle:
                    # the last line may be still being written, or cut short
                    rows = [tuple(map(float, ln.split())) for ln in handle if ln.endswith("\n")]
            if rows and rows[-1][0] > t:
                return rows
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("perfbench: the speed gauge stopped logging")
            time.sleep(0.01)

    def scale(self, windows: list[tuple[float, float]]) -> float:
        rows = self.rounds_until(max(end for _, end in windows))
        walls = [wall for wall, _ in rows]

        def done(t: float) -> tuple[float, float]:
            """(rounds, CPU seconds) the gauge had done at ``t``, linear between rows."""
            i = bisect.bisect_right(walls, t)  # rows[i - 1] <= t < rows[i]
            (w0, c0), (w1, c1) = rows[i - 1], rows[i]
            f = (t - w0) / (w1 - w0)
            return i - 1 + f, c0 + f * (c1 - c0)

        rounds = cpu_s = 0.0
        for start, end in windows:
            (r0, c0), (r1, c1) = done(start), done(end)
            rounds += r1 - r0
            cpu_s += c1 - c0
        return REFERENCE_S * rounds / cpu_s


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_json(name: str):
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# workloads


class VerifySweep:
    """``verify all``; one pass is one sweep, checked against the committed report."""

    argv = ["verify", "all", "--jobs", "1"]
    pass_s = 15.0  # nominal wall seconds of one pass on the reference machine

    def __init__(self, seed: int):
        expected = load_json("expected.json")["verify-all"]
        self.report_sha256 = expected["report_sha256"]
        self.expected_checks = expected["checks"]

    def describe(self) -> list[str]:
        return [f"argv: {' '.join(self.argv)}"]

    def run_pass(self, runner, trace: bool = False) -> Pass:
        child = runner(self.argv, trace)
        result = Pass(wall_s=child.wall_s, cpu_s=child.cpu_s, attempted=self.expected_checks)
        result.maxrss_mb = child.maxrss_mb
        if child.trace is not None:
            result.traces.append(child.trace)
        if child.main_cpu_s is None:
            result.failed = result.attempted
            result.notes.append(f"verify all: no result, exit {child.rc}")
            return result
        result.query_s.append(child.main_cpu_s)
        result.checks = sum(int(x) for x in CHECKS_LINE.findall(child.stdout))
        result.failed = sum(int(x) for x in FAILURES_LINE.findall(child.stdout))
        digest = sha256(child.stdout)
        ok = child.rc == 0 and digest == self.report_sha256
        ok = ok and result.checks == self.expected_checks
        if not ok:
            result.failed = max(result.failed, 1)
        result.notes.append(
            f"verify all: exit {child.rc}, {result.checks} checks, "
            f"report sha256 {digest[:12]} {'ok' if ok else 'MISMATCH'}"
        )
        return result


class KronQueries:
    """Independent ``kron`` queries from queries.json, in an order drawn from the seed."""

    pass_s = 21.0

    def __init__(self, seed: int):
        with open(os.path.join(HERE, "queries.json"), "rb") as handle:
            data = handle.read()
        if hashlib.sha256(data).hexdigest() != load_json("expected.json")["queries_sha256"]:
            raise SystemExit("perfbench: queries.json differs from its committed sha256")
        pool = json.loads(data)
        self.expected = {
            tuple(q["argv"]): q["value"] for group in pool.values() for q in group
        }
        # The seed orders the queries within each group but does not choose
        # them: which queries run sets both the work and the sample the
        # percentiles come from, so drawing them would make every seed a
        # different benchmark.  Each query reads and writes the cache file
        # left by the queries before it, and the oracle queries at n = 16-18
        # write most of its entries.  They run first, so every later query
        # meets the same file, whatever the order.
        rng = random.Random(seed)
        self.queries = []
        for group in (pool["oracle"], pool["fixed"] + pool["hook"] + pool["witness"]):
            argvs = [q["argv"] for q in group]
            rng.shuffle(argvs)
            self.queries += argvs
        self.cache_file = os.path.join(WORK, "char-cache.json")

    def describe(self) -> list[str]:
        return [f"query: {' '.join(argv)}" for argv in self.queries]

    @staticmethod
    def pairs_sha256(pairs) -> str:
        return sha256(json.dumps(sorted(pairs)))

    def run_pass(self, runner, trace: bool = False) -> Pass:
        if os.path.exists(self.cache_file):
            os.remove(self.cache_file)
        result = Pass(attempted=len(self.queries))
        observed = []
        for argv in self.queries:
            child = runner(argv + ["--cache-file", self.cache_file], trace)
            result.wall_s += child.wall_s
            result.cpu_s += child.cpu_s
            result.maxrss_mb = max(result.maxrss_mb, child.maxrss_mb)
            if child.trace is not None:
                result.traces.append(child.trace)
            lines = child.stdout.splitlines()
            match = VALUE_LINE.match(lines[0]) if lines else None
            if child.rc != 0 or child.main_cpu_s is None or match is None:
                result.failed += 1
                result.notes.append(f"FAILED (exit {child.rc}): {' '.join(argv)}")
                continue
            result.query_s.append(child.main_cpu_s)
            result.checks += len(match.group(2).split(","))
            value = int(match.group(1))
            observed.append([argv, value])
            if value != self.expected[tuple(argv)]:
                result.failed += 1
                result.notes.append(f"WRONG VALUE {value}: {' '.join(argv)}")
        expected = self.pairs_sha256([[argv, self.expected[tuple(argv)]] for argv in self.queries])
        digest = self.pairs_sha256(observed)
        if digest != expected:
            result.failed = max(result.failed, 1)
        result.notes.append(
            f"{len(observed)}/{len(self.queries)} answers, (argv, value) sha256 "
            f"{digest[:12]} {'ok' if digest == expected else 'MISMATCH'}"
        )
        return result


WORKLOADS = {"verify-all": VerifySweep, "kron-queries": KronQueries}


# ---------------------------------------------------------------------------
# metrics


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies, and the maximum is given
    as the 100th percentile.
    """
    ordered = sorted(samples)
    below = len(ordered) - 10
    if below < 1:
        return ordered[-1], 100.0
    return ordered[below - 1], 100.0 * below / len(ordered)


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, list[str]]:
    samples = [s for p in passes for s in p.query_s] or [0.0]
    tail_s, percentile = tail(samples)
    metrics = {
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "checks_per_s": statistics.median(p.checks / p.cpu_s for p in passes),
        "query_p50_ms": 1000 * statistics.median(samples),
        "query_tail_ms": 1000 * tail_s,
        "peak_rss_mb": max(p.maxrss_mb for p in passes),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters importing kroncalc.cli",
        f"query_tail_ms: p{percentile:.1f} of {len(samples)} samples",
    ]
    return metrics, notes


def per_layer(traced: Pass, untraced: Pass) -> dict:
    """Sum the children's snapshots; add the totals the spans must account for."""
    metrics: dict = {}
    for snapshot in traced.traces:
        for name, value in snapshot.items():
            old = metrics.get(name, 0)
            if value is None or old is None:  # a layer without a cache has no misses
                metrics[name] = None
            elif name.endswith("unit_max_s"):
                metrics[name] = max(old, value)
            else:
                metrics[name] = old + value
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    metrics["verify.self_s"] = sum(v for k, v in self_times.items() if k.startswith("verify."))
    metrics["traced_wall_s"] = traced.wall_s
    metrics["unattributed_s"] = traced.wall_s - sum(self_times.values()) - sum(
        metrics.get(k, 0.0) for k in ("symfun.cache_file.load_s", "symfun.cache_file.save_s")
    )
    metrics["trace_overhead_s"] = traced.wall_s - untraced.wall_s
    return metrics


# ---------------------------------------------------------------------------
# command line


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, runner=spawn, gauge=Gauge) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kroncalc", "cli.py")):
        print(f"perfbench: no kroncalc sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    workload = WORKLOADS[args.workload](args.seed)
    print(
        f"perfbench: workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds:g}, trace {args.trace}"
    )
    print(
        f"machine: {os.cpu_count()} cpus, Python {platform.python_version()}, "
        f"{platform.system()} {platform.machine()}"
    )
    for line in workload.describe():
        print(line)

    runner(None)  # a first import may write bytecode; users pay that once
    if args.trace:
        untraced = workload.run_pass(runner)
        traced = workload.run_pass(runner, trace=True)
        passes = [untraced, traced]
        values = per_layer(traced, untraced)
        declared = bench["per_layer"]
        notes = [
            f"traced pass {traced.wall_s:.3f} s, untraced pass {untraced.wall_s:.3f} s",
            "layer self times + unattributed_s = traced_wall_s",
        ]
    else:
        scales = []

        def timed(argv, trace=False) -> Child:
            """``runner``, with CPU times scaled by the machine's speed during the child."""
            child = runner(argv, trace)
            scales.append(speed.scale([(child.start, child.end)]))
            child.cpu_s *= scales[-1]
            if child.main_cpu_s is not None:
                child.main_cpu_s *= scales[-1]
            return child

        with gauge(os.path.join(WORK, "gauge.log")) as speed:
            setup, passes = [], []
            for _ in range(max(1, round(args.seconds / workload.pass_s))):
                # probes before every pass, so that setup_s samples the whole run
                setup += [timed(None).cpu_s for _ in range(SETUP_PROBES)]
                passes.append(workload.run_pass(timed))
        values, notes = end_to_end(passes, setup)
        notes.insert(0, (
            f"CPU times are scaled to the reference machine's speed by factors "
            f"{min(scales):.4f} to {max(scales):.4f}, median {statistics.median(scales):.4f}"
        ))
        declared = bench["end_to_end"]

    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes))
    for i, p in enumerate(passes, 1):
        for note in p.notes:
            print(f"pass {i}: {note}")
        print(
            f"pass {i}: wall {p.wall_s:.3f} s, CPU {p.cpu_s:.3f} s, "
            f"{p.failed} of {p.attempted} failed"
        )
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }
    for name, metric in metrics.items():
        print(f"{name:40} {metric['value']!s:>24} {metric['unit']}")
    for note in notes:
        print(note)
    print(f"{'fail_ratio':40} {failed / attempted:>24} ratio ({failed} of {attempted})")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": workload.describe(), "attempted": attempted, "failed": failed,
        "values": values, "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "query_s": [p.query_s for p in passes],
        "notes": notes + [n for p in passes for n in p.notes],
    }
    os.makedirs(WORK, exist_ok=True)
    record_path = os.path.join(
        WORK, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    correct = failed == 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
