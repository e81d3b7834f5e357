"""Closed-form Kronecker coefficients for a two-row partition and a hook.

Evaluates g((n-r, r), (a, 1^{c+1}), nu) as a piecewise function of the shape
of nu, reorganized into a uniform system of interval indicators.  The r = 0
base case is the trivial-character identity; for r >= 1 the branches are
tested strictly in order: one-row nu, one-column nu, proper hook nu, double
hook with second part >= 2, and zero otherwise.  Each evaluation can report
which branch fired and with which arguments, so sweep failures localize to
a branch.  The branch reports are held once, in one memo keyed on
(eta, a, r, c) that also runs xi_report's r-range check; a tuple that
raises is not memoized and raises again on every call.  rosas_report checks
its other arguments and raises the negative-value ArithmeticError on every
call, in front of that memo; rosas_kronecker reads rosas_report.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .partition import (
    Partition,
    as_partition,
    is_double_hook,
    tail_ones,
    tail_twos,
)


def phi(n3: int, n4: int, d1: int, d2: int, e: int, r: int) -> int:
    """Signed sum of four interval indicators (double-hook branch)."""
    base = d1 + 2 * d2
    total = 0
    if n3 <= r - d2 - 1 <= n4 and base < e < base + 3:
        total += 1
    if n3 <= r - d2 <= n4 and base <= e <= base + 3:
        total += 1
    if n3 <= r - d2 + 1 <= n4 and base < e < base + 3:
        total += 1
    if n3 + d2 + d1 == r and base + 1 <= e <= base + 2:
        total -= 1
    return total


def psi(c: int, r: int, t: int, n: int) -> int:
    """Hook-shape branch: both the target and the second index are hooks.

    Splitting the two-row index by Jacobi-Trudi reduces the value to a
    difference of pair counts A(n-r, r) - A(n-r+1, r-1), where A(p, q)
    counts pairs of hooks of sizes p and q whose product contains both the
    hook (n-t, 1^t) and the hook (n-c-1, 1^(c+1)); a product of two hooks
    of total arm s contains exactly the hooks with arm s and s-1, so the
    count reduces to interval lengths.  Nonzero only when |c + 1 - t| <= 1.
    """
    gap = c + 1 - t
    if abs(gap) > 1:
        return 0
    arm = n - t  # arm of the target hook
    if gap == 0:
        targets = (arm, arm + 1)
    elif gap == 1:
        targets = (arm,)
    else:
        targets = (n - c - 1,)

    def pairs(alpha: int, beta: int) -> int:
        if beta == 0:
            # the second factor is empty: both hooks must coincide
            return 1 if gap == 0 else 0
        total = 0
        for s in targets:
            lo = max(1, s - beta)
            hi = min(alpha, s - 1)
            total += max(0, hi - lo + 1)
        return total

    return pairs(n - r, r) - pairs(n - r + 1, r - 1)


def _phi_arguments(eta: Partition, a: int, r: int, c: int) -> tuple:
    """phi's arguments for a double hook eta with eta_2 >= 2.

    Two regimes, split by whether the gap eta_1 - eta_2 is at most the
    number of 1's in tail(eta).
    """
    ones, twos = tail_ones(eta), tail_twos(eta)
    if eta[0] - eta[1] <= ones:
        return (eta[1], eta[0], ones, twos, c + 1, r)
    return (twos + 2, twos + ones + 2, eta[0] - eta[1], eta[1] - 2, a - 1, r)


class XiCaseReport(NamedTuple):
    """Which branch fired, the value, and the arguments actually used."""

    case: str  # r-zero | row-N | column-1N | hook | double-hook | zero
    value: int
    arguments: tuple

    def describe(self) -> str:
        if self.arguments:
            args = "(" + ", ".join(str(x) for x in self.arguments) + ")"
            return f"{self.case}{args} -> {self.value}"
        return f"{self.case} -> {self.value}"


def xi_report(eta, a: int, r: int, c: int) -> XiCaseReport:
    """Piecewise evaluation with branch provenance; branches tested in order."""
    return _xi_case(as_partition(eta), a, r, c)


@cache
def _xi_case(eta: Partition, a: int, r: int, c: int) -> XiCaseReport:
    """xi_report's r-range check and branches, once per argument tuple."""
    n = eta.size
    if not 0 <= r <= n // 2:
        raise ValueError(f"r must satisfy 0 <= r <= {n // 2}, got {r}")
    hook = (a,) + (1,) * (c + 1) if a >= 1 and c >= -1 else None
    if r == 0:
        return XiCaseReport("r-zero", int(tuple(eta) == hook), (a, c))
    if tuple(eta) == (n,):
        return XiCaseReport("row-N", int(c == 0 and r == 1), (c, r))
    if tuple(eta) == (1,) * n:
        # sign rule: positive iff the hook is the transposed two-row shape
        target = tuple(Partition((n - r, r)).transpose())
        return XiCaseReport("column-1N", int(hook == target), (n, r, a, c))
    if eta[0] >= 2 and len(eta) >= 2 and all(x == 1 for x in eta[1:]):
        t = len(eta) - 1
        return XiCaseReport("hook", psi(c, r, t, n), (c, r, t, n))
    if is_double_hook(eta, n) and len(eta) >= 2 and eta[1] >= 2:
        args = _phi_arguments(eta, a, r, c)
        return XiCaseReport("double-hook", phi(*args), args)
    return XiCaseReport("zero", 0, ())


def xi(eta, a: int, r: int, c: int) -> int:
    """Value of the piecewise evaluation."""
    return xi_report(eta, a, r, c).value


def rosas_report(n: int, r: int, a: int, c: int, nu) -> XiCaseReport:
    """Branch report of g((n-r, r), (a, 1^{c+1}), nu); checks its arguments and a negative value."""
    nu = as_partition(nu)
    if nu.size != n:
        raise ValueError(f"|nu| must be {n}, got {nu.size}")
    if a < 1 or c < 0:
        raise ValueError(f"hook parameters need a >= 1 and c >= 0, got ({a}, {c})")
    if a + c + 1 != n:
        raise ValueError(f"hook (a, 1^(c+1)) must have size {n}")
    report = _xi_case(nu, a, r, c)
    if report.value < 0:
        raise ArithmeticError(f"negative branch value for nu={nu!r}: {report}")
    return report


def rosas_kronecker(n: int, r: int, a: int, c: int, nu) -> int:
    """g((n-r, r), (a, 1^{c+1}), nu) for nu a partition of n."""
    return rosas_report(n, r, a, c, nu).value
