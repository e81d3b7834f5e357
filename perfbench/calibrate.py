"""The speed gauge: a fixed pure-Python kernel run in a loop beside kroncalc.

    python3 -I perfbench/calibrate.py LOG

On a machine shared with other tenants the speed of one core drifts by a
third or more over minutes, and every kroncalc time drifts with it.  While
the benchmark measures, this program runs on the same core at a low
priority (nice NICE), so the scheduler interleaves it with the measured
process a few milliseconds at a time and it runs at the speed the measured
process meets.  After each round of the kernel it appends
``<time.perf_counter()> <time.process_time()>`` to LOG; it runs until it is
terminated.  The benchmark reads the kernel's CPU seconds per round during
the measured processes and scales their CPU times by run.REFERENCE_S over
that, so that a run reports seconds at the reference machine's speed.  The
kernel is part of the benchmark and never changes with the program, so a
change to kroncalc moves the scaled times as it moves the raw ones.

The kernel does what kroncalc's oracle does most: the Murnaghan-Nakayama
rule over tuples, with a dict memo and integer arithmetic.  One round is
the character table of S_n for n = 1..N, from an empty memo, and checks
its own answer.
"""

from __future__ import annotations

import math
import os
import sys
import time

N = 10
NICE = 10  # about a tenth of the core beside a process at nice 0


def partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def beta_set(shape: tuple) -> tuple:
    k = len(shape)
    return tuple(part + k - 1 - i for i, part in enumerate(shape))


def character(beta: tuple, rho: tuple, memo: dict) -> int:
    """chi(rho) of the shape with beta-set ``beta``: remove rim hooks of length rho[0]."""
    if not rho:
        return 1
    key = (beta, rho)
    if key in memo:
        return memo[key]
    r, rest = rho[0], rho[1:]
    beads = set(beta)
    total = 0
    for b in beta:
        if b - r >= 0 and b - r not in beads:
            crossed = sum(1 for c in beta if b - r < c < b)
            moved = tuple(sorted((c if c != b else b - r for c in beta), reverse=True))
            total += (-1) ** crossed * character(moved, rest, memo)
    memo[key] = total
    return total


def one_round() -> None:
    memo: dict = {}
    for n in range(1, N + 1):
        shapes = list(partitions(n))
        ones = (1,) * n
        table = [[character(beta_set(s), rho, memo) for rho in shapes] for s in shapes]
        # column orthogonality at rho = (1^n): sum of chi^2 over shapes is n!
        column = [row[shapes.index(ones)] for row in table]
        if sum(x * x for x in column) != math.factorial(n):
            raise AssertionError("calibration kernel computed a wrong character table")


def main() -> None:
    os.nice(NICE)
    with open(sys.argv[1], "w", encoding="ascii") as log:
        while True:
            one_round()
            log.write(f"{time.perf_counter()!r} {time.process_time()!r}\n")
            log.flush()


if __name__ == "__main__":
    main()
