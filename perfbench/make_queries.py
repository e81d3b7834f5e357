"""Regenerate perfbench/queries.json, the query list of the kron-queries workload.

    python3 perfbench/make_queries.py

The list has four groups; a run takes all of them, in an order drawn from
its seed:

- fixed:   the README examples and the acceptance golden triples, verbatim;
- hook:    hook-mu triples at n = 10-12, answered by the oracle, the hook rule
           and, for a two-row lambda, the closed form;
- witness: --explain queries on the b = 2 witness shapes special_nu(a, c, s);
- oracle:  oracle-only triples at n = 16-18 (mu neither a hook nor a near-hook).

The script also records the file's sha256 in expected.json.  Candidates
come from a fixed random stream.  Each is run once in a fresh
interpreter; the value it prints (all applicable methods agreeing) becomes
the expected value and the run's wall time its ``cost_s``.  Candidates that
time out or fall outside the group's band are dropped.  Of the rest, the
group keeps the median candidate of each of COUNTS[group] equal slices by
cost, so that it spans the band.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from kroncalc.nearhook import special_nu  # noqa: E402
from kroncalc.partition import format_partition, partitions_list  # noqa: E402
from run import VALUE_LINE  # noqa: E402

README = [
    ["kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "all"],
    ["kron", "4,3", "3,2,1,1", "3,2,1,1", "--method", "nearhook", "--explain"],
    ["kron", "6,2", "2,1^6", "3,2,1,1,1", "--method", "rosas", "--explain"],
]
# acceptance criteria 1.6-1.15 as kron queries (1.8 is the first README
# query); the witness goldens use --explain, which routes them through the
# witness families
GOLDEN = [
    ("3,2,1", "2,2,1,1", "4,1,1", False),
    ("4,2", "4,2", "4,2", False),
    ("4,2", "3,2,1", "4,2", False),
    ("4,3", "3,2,1,1", "3,2,1,1", False),
    ("5,2", "3,2,1,1", "5,2", True),
    ("8,6", "6,2,1^6", "8,2,1^4", True),
    ("5,4", "3,2,1^4", "5,2,2", True),
    ("10,5", "7,2,1^6", "9,2,2,2", True),
    ("6,3", "2,2,1^5", "4,2,1^3", True),
]
BANDS = {"hook": (0.2, 1.5), "witness": (0.2, 2.0), "oracle": (0.0, 1.0)}
CANDIDATES = {"hook": 90, "witness": 60, "oracle": 40}
COUNTS = {"hook": 6, "witness": 2, "oracle": 10}
TIMEOUT_S = 4.0


def kron(lam, mu, nu, explain=False) -> list[str]:
    argv = ["kron", format_partition(lam), format_partition(mu), format_partition(nu)]
    return argv + ["--method", "all"] + (["--explain"] if explain else [])


def hook_candidates(rng):
    for _ in range(CANDIDATES["hook"]):
        n = rng.choice((10, 11, 12))
        d = rng.randrange(1, n - 1)
        parts = partitions_list(n)
        yield kron(rng.choice(parts), (n - d,) + (1,) * d, rng.choice(parts))


def witness_candidates(rng):
    shapes = []
    for n in (11, 12, 13, 14):
        for a in range(2, n - 2):
            c = n - 2 - a
            for s in range(1, (c + 2) // 2 + 1):
                for d in range((n + 1) // 2, n + 1):
                    shapes.append((a, c, s, d, n - d))
    for a, c, s, d, e in rng.sample(shapes, CANDIDATES["witness"]):
        yield kron((d, e), (a, 2) + (1,) * c, special_nu(a, c, s), explain=True)


def oracle_candidates(rng):
    for _ in range(CANDIDATES["oracle"]):
        n = rng.choice((16, 17, 18))
        parts = partitions_list(n)
        mus = [p for p in parts if len(p) >= 3 and p[2] >= 2]
        yield kron(rng.choice(parts), rng.choice(mus), rng.choice(parts))


def run_query(argv, timeout) -> tuple[int, float] | None:
    """(value, seconds) of one query in a fresh interpreter, None on timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("KRONCALC_CHAR_CACHE", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kroncalc"] + argv,
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    elapsed = time.perf_counter() - start
    match = VALUE_LINE.match(proc.stdout.splitlines()[0]) if proc.stdout else None
    if proc.returncode != 0 or match is None:
        raise SystemExit(f"query failed: {argv}: {proc.stdout}{proc.stderr}")
    return int(match.group(1)), elapsed


def measure(argv, timeout) -> dict | None:
    result = run_query(argv, timeout)
    status = "timeout" if result is None else f"{result[1]:.2f}s"
    print(f"{status:8} {' '.join(argv[1:])}", flush=True)
    if result is None:
        return None
    return {"argv": argv, "value": result[0], "cost_s": round(result[1], 3)}


def spread_by_cost(entries: list[dict], count: int) -> list[dict]:
    """The median entry of each of ``count`` equal slices of the entries sorted by cost."""
    ordered = sorted(entries, key=lambda q: q["cost_s"])
    bounds = [round(i * len(ordered) / count) for i in range(count + 1)]
    return [ordered[(lo + hi) // 2] for lo, hi in zip(bounds, bounds[1:])]


def main() -> None:
    rng = random.Random(20261017)
    fixed = README + [
        ["kron", lam, mu, nu, "--method", "all"] + (["--explain"] if explain else [])
        for lam, mu, nu, explain in GOLDEN
    ]
    out = {"fixed": [measure(argv, None) for argv in fixed]}
    candidates = {
        "hook": hook_candidates(rng),
        "witness": witness_candidates(rng),
        "oracle": oracle_candidates(rng),
    }
    for name, argvs in candidates.items():
        low, high = BANDS[name]
        unique = list(dict.fromkeys(tuple(argv) for argv in argvs))
        kept = [measure(list(argv), TIMEOUT_S) for argv in unique]
        kept = [q for q in kept if q is not None and low <= q["cost_s"] <= high]
        out[name] = spread_by_cost(kept, COUNTS[name])
    data = (json.dumps(out, indent=1) + "\n").encode()
    with open(os.path.join(HERE, "queries.json"), "wb") as handle:
        handle.write(data)
    expected_path = os.path.join(HERE, "expected.json")
    with open(expected_path, encoding="utf-8") as handle:
        expected = json.load(handle)
    expected["queries_sha256"] = hashlib.sha256(data).hexdigest()
    with open(expected_path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
