"""Near-hook Kronecker coefficients via hook-indexed expansions.

A near-hook is (a, b, 1^c) with a >= b >= 2.  Writing n = a + b + c, the
hook determinant identity for s_(a,b,1^c) together with the coproduct
compatibility of the internal product turns g(lam, (a,b,1^c), nu) into a
signed double expansion over hook-indexed Kronecker coefficients and LR
coefficients (near_hook_expansion).  Specializing lam to a two-row (d, e)
collapses the LR factors to interval indicators (triple1 - triple2), and
filtering out the vanishing terms via strip-chain counts and the two-row x
hook closed form gives positively-supported index sets J+ / J- and the
reduced sums triple3 - triple4.  Both routes read the closed form through
the checked rosas_kronecker, so a negative value raises on either.

The sums and index sets come in positive and negative sides, and both
sides are one sum with parameters (S, p, arm): sigma runs over the
partitions of S, the LR factor is c^nu_{sigma,(p-k,k)}, the two-row gate
is c^{(d,e)}_{(S-r,r),(p-k,k)}, and the Kronecker factor is
g((S-r, r), (arm, 1^(c+1)), sigma).  The positive side is
(n-b+1, b-1, a), the negative side (n-a, a, b-1).

Every sum walks only its nonzero LR terms: near_hook_expansion reads the
cached nonzero-LR supports of ``tableau``, and each side of triple1/triple2
keeps its nonzero terms once per (nu, S, p, arm, c), so only the two-row
gate runs per d.  The expansion is one walk (_expand) that returns the
total and appends a certificate per term only when handed a list:
near_hook_expansion hands it one, near_hook_value does not and builds no
certificate.  The per-term gate is tableau.two_row_gate, the closed form
without lr_two_row's argument checks; its arguments are two-row by
construction, and j_plus / j_minus check d once per call.

When b = 2 and nu = (a+2, 2^(s-1), 1^(c+2-2s)), the negative side is a
singleton (d inside an explicit interval) or empty (d outside), so the
coefficient becomes a count of hook-rule tableaux - minus one in the
singleton case, realized by removing the lexicographically least witness.
witnesses is the one entry: it calls witnesses_singleton_case or
witnesses_null_case, which check J- and triple4 against the interval once.
witnesses_for matches a (d, e, a, b, c, nu) query to a family, reading s
from nu, and returns None when none applies; kron reaches the families
only through it.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Optional

from .colored import ColoredTableau, enumerate_blasiak
from .partition import (
    Partition,
    as_partition,
    hook_partition,
    is_double_hook,
    partitions_list,
    two_rows,
)
from .rosas import rosas_kronecker
from .symfun import kronecker_coefficient
from .tableau import (
    lr_coefficient,
    lr_two_row,
    lr_via_strip_difference,
    lr_weight_support,
    two_row_gate,
)


class TermCertificate(NamedTuple):
    """One signed summand: contribution = sign * lr_value * g_value."""

    sign: int
    index: tuple
    lr_value: int
    g_value: int

    @property
    def contribution(self) -> int:
        return self.sign * self.lr_value * self.g_value

    def to_json(self) -> dict:
        names = ("eta", "delta", "theta") if len(self.index) == 3 and isinstance(
            self.index[1], Partition
        ) else ("first", "j", "r")
        index = {}
        for name, value in zip(names, self.index):
            index[name] = list(value) if isinstance(value, tuple) else value
        return {
            "sign": self.sign,
            "index": index,
            "lr": self.lr_value,
            "g": self.g_value,
        }


def near_hook_expansion(
    lam, nu, a: int, b: int, c: int
) -> tuple[list[TermCertificate], int]:
    """Signed expansion of g(lam, (a,b,1^c), nu) over hook-indexed terms.

    Positive terms run over (eta, delta, theta) with eta, theta of size
    n-b+1 and delta of size b-1; negative terms over eta of size a and
    delta, theta of size n-a.  A certificate is emitted whenever both LR
    factors are positive, its g factor evaluated by the character oracle.
    The LR factors are read from lr_weight_support (c^nu_{eta, delta} =
    c^nu_{delta, eta} lists the eta for a fixed delta), so only terms with
    both factors positive are visited, in the order of a full scan.
    Returns (certificates, total); the total is the coefficient itself.
    """
    certs: list[TermCertificate] = []
    total = _expand(lam, nu, a, b, c, certs)
    return certs, total


def near_hook_value(lam, nu, a: int, b: int, c: int) -> int:
    """g(lam, (a,b,1^c), nu) as near_hook_expansion's total; no certificate is built."""
    return _expand(lam, nu, a, b, c)


def _expand(lam, nu, a: int, b: int, c: int, certs=None) -> int:
    """The signed expansion's total; each term's certificate is appended to certs when it is a list."""
    lam, nu = as_partition(lam), as_partition(nu)
    if not (a >= b >= 2 and c >= 0):
        raise ValueError("near-hook parameters need a >= b >= 2 and c >= 0")
    n = a + b + c
    if lam.size != n or nu.size != n:
        raise ValueError(f"lam and nu must be partitions of {n}")
    first_hook = hook_partition(a, c + 1)
    second_hook = hook_partition(b - 1, c + 1)
    total = 0
    for delta in partitions_list(b - 1):
        for eta, outer_lr in lr_weight_support(nu, delta):
            for theta, inner_lr in lr_weight_support(lam, delta):
                lr = outer_lr * inner_lr
                g = kronecker_coefficient(theta, first_hook, eta)
                total += lr * g
                if certs is not None:
                    certs.append(TermCertificate(1, (eta, delta, theta), lr, g))
    for delta in partitions_list(n - a):
        for eta, outer_lr in lr_weight_support(nu, delta):
            for theta, inner_lr in lr_weight_support(lam, eta):
                lr = outer_lr * inner_lr
                g = kronecker_coefficient(theta, second_hook, delta)
                total -= lr * g
                if certs is not None:
                    certs.append(TermCertificate(-1, (eta, delta, theta), lr, g))
    return total


def _check_two_row_params(d, e, a, b, c, nu) -> Partition:
    if not (d >= e >= 0):
        raise ValueError("two-row index needs d >= e >= 0")
    if not (a >= b >= 2 and c >= 1):
        raise ValueError("triple sums need a >= b >= 2 and c >= 1")
    n = a + b + c
    if d + e != n:
        raise ValueError(f"d + e must equal {n}")
    return _sized(nu, n)


def _sized(nu, n: int) -> Partition:
    nu = as_partition(nu)
    if nu.size != n:
        raise ValueError(f"nu must be a partition of {n}")
    return nu


def _positive(a: int, b: int, c: int) -> tuple[int, int, int]:
    """(S, p, arm) of the positive side."""
    return a + c + 1, b - 1, a


def _negative(a: int, b: int, c: int) -> tuple[int, int, int]:
    """(S, p, arm) of the negative side."""
    return b + c, a, b - 1


@cache
def _interval_terms(nu, size: int, p: int, arm: int, c: int) -> tuple:
    """(S - r, r, p - k, k, term) for every nonzero term of a side's sum, before the gate.

    term = c^nu_{sigma,(p-k,k)} * g((S-r, r), (arm, 1^(c+1)), sigma), computed
    from the LR coefficient and the closed form, not from _support's
    predicates, so the two routes to the support stay independent.
    """
    out = []
    for sigma in partitions_list(size):
        for k, strip in enumerate(two_rows(p)):
            coeff = lr_coefficient(nu, sigma, strip)
            if not coeff:
                continue
            for r in range(size // 2 + 1):
                term = coeff * rosas_kronecker(size, r, arm, c, sigma)
                if term:
                    out.append((size - r, r, p - k, k, term))
    return tuple(out)


def _interval_sum(side, d, e, a, b, c, nu) -> int:
    nu = _check_two_row_params(d, e, a, b, c, nu)
    return sum(
        term
        for x, y, u, v, term in _interval_terms(nu, *side(a, b, c), c)
        if two_row_gate(x, y, u, v, d)
    )


@cache
def _support(nu: Partition, size: int, p: int, arm: int, c: int) -> frozenset:
    out = set()
    for sigma in partitions_list(size):
        if not is_double_hook(sigma, size):
            continue
        for k in range(p // 2 + 1):
            if lr_via_strip_difference(nu, sigma, p + 1, k) <= 0:
                continue
            for r in range(size // 2 + 1):
                if rosas_kronecker(size, r, arm, c, sigma) > 0:
                    out.add((sigma, k, r))
    return frozenset(out)


def _gated(side, d: int, nu, a: int, b: int, c: int) -> frozenset:
    size, p, arm = side(a, b, c)
    # the gate's other arguments are two-row by construction and balance
    # with e, so d is the one argument left to check
    if not d >= size + p - d >= 0:
        raise ValueError("two-row arguments must be weakly decreasing and nonnegative")
    return frozenset(
        (sigma, k, r)
        for sigma, k, r in _support(nu, size, p, arm, c)
        if two_row_gate(size - r, r, p - k, k, d)
    )


def _sorted_tuples(index_set) -> list:
    return sorted(index_set, key=lambda t: (t[2], t[0], t[1]))


def _certified_sum(side, d, e, a, b, c, nu) -> tuple[int, list[TermCertificate]]:
    nu = _check_two_row_params(d, e, a, b, c, nu)
    size, p, arm = side(a, b, c)
    certs = []
    for sigma, k, r in _sorted_tuples(_gated(side, d, nu, a, b, c)):
        coeff = lr_coefficient(nu, sigma, two_rows(p)[k])
        g = rosas_kronecker(size, r, arm, c, sigma)
        cert = TermCertificate(1, (sigma, k, r), coeff, g)
        if cert.contribution <= 0:
            raise ArithmeticError(f"non-positive reduced term at {(sigma, k, r)}")
        certs.append(cert)
    return sum(t.contribution for t in certs), certs


def triple1(d, e, a, b, c, nu) -> int:
    """Positive interval-gated sum over (eta, j, r), of size n - b + 1 terms."""
    return _interval_sum(_positive, d, e, a, b, c, nu)


def triple2(d, e, a, b, c, nu) -> int:
    """Negative interval-gated sum over (delta, i, r), of size n - a terms."""
    return _interval_sum(_negative, d, e, a, b, c, nu)


def index_set_plus(nu, a: int, b: int, c: int) -> frozenset:
    """Tuples (eta, j, r) whose triple1 summand is strictly positive."""
    return _support(_sized(nu, a + b + c), *_positive(a, b, c), c)


def index_set_minus(nu, a: int, b: int, c: int) -> frozenset:
    """Tuples (delta, i, r) whose triple2 summand is strictly positive."""
    return _support(_sized(nu, a + b + c), *_negative(a, b, c), c)


def j_plus(d: int, nu, a: int, b: int, c: int) -> frozenset:
    """index_set_plus filtered by the two-row interval condition at d."""
    return _gated(_positive, d, _sized(nu, a + b + c), a, b, c)


def j_minus(d: int, nu, a: int, b: int, c: int) -> frozenset:
    """index_set_minus filtered by the two-row interval condition at d."""
    return _gated(_negative, d, _sized(nu, a + b + c), a, b, c)


def triple3(d, e, a, b, c, nu) -> tuple[int, list[TermCertificate]]:
    """triple1 restricted to its positive support; certificates all positive."""
    return _certified_sum(_positive, d, e, a, b, c, nu)


def triple4(d, e, a, b, c, nu) -> tuple[int, list[TermCertificate]]:
    """triple2 restricted to its positive support; certificates all positive."""
    return _certified_sum(_negative, d, e, a, b, c, nu)


def g_two_row_near_hook(d, e, a, b, c, nu) -> int:
    """g((d,e), (a,b,1^c), nu) as triple3 - triple4."""
    plus, _ = triple3(d, e, a, b, c, nu)
    minus, _ = triple4(d, e, a, b, c, nu)
    return plus - minus


# ---------------------------------------------------------------------------
# b = 2 witness families


def _check_s(c: int, s: int) -> None:
    if not 1 <= s <= (c + 2) // 2:
        raise ValueError(f"s must satisfy 1 <= s <= {(c + 2) // 2}, got {s}")


def special_nu(a: int, c: int, s: int) -> Partition:
    """(a+2, 2^(s-1), 1^(c+2-2s)), the target shape of the witness families."""
    _check_s(c, s)
    return Partition((a + 2,) + (2,) * (s - 1) + (1,) * (c + 2 - 2 * s))


def delta_star(c: int, s: int) -> Partition:
    """(2^s, 1^(c+2-2s)), the unique negative-side shape."""
    _check_s(c, s)
    return Partition((2,) * s + (1,) * (c + 2 - 2 * s))


def _witness_hypotheses(a: int, c: int, d: int, e: int, s: int) -> bool:
    n = a + 2 + c
    return (
        a >= 2
        and c >= 1
        and d + e == n
        and d >= e >= 0
        and 1 <= s <= (c + 2) // 2
    )


def _in_interval(a: int, c: int, d: int, s: int) -> bool:
    """The two-row gate of the negative-side term (delta*, 0, s)."""
    return lr_two_row(c + 2 - s, s, a, 0, d, a + c + 2 - d) == 1


def _witness_case(a: int, c: int, d: int, e: int, s: int) -> bool:
    """Whether d lies in the interval, once J- and triple4 at special_nu agree with it.

    Inside the interval J- must be exactly {(delta*, 0, s)} and its term 1;
    outside it J- must be empty and triple4 zero.  A mismatch raises.
    """
    inside = _in_interval(a, c, d, s)
    nu = special_nu(a, c, s)
    expected = {(delta_star(c, s), 0, s)} if inside else set()
    members = j_minus(d, nu, a, 2, c)
    if members != expected:
        raise ArithmeticError(f"negative index set is not {sorted(expected)}: {sorted(members)}")
    value, _ = triple4(d, e, a, 2, c, nu)
    if value != len(expected):
        raise ArithmeticError(f"triple4 is {value}, expected {len(expected)}")
    return inside


class WitnessMember(NamedTuple):
    tableau: ColoredTableau
    source: tuple  # (eta, 0, r)


class WitnessSet(NamedTuple):
    """Disjoint union of hook-rule tableau blocks, canonically ordered.

    Members are (tableau, source) pairs; identical tableaux arising from
    different sources stay distinct.  Ordering is lexicographic by (shape,
    row reading word), ties broken by source r then source shape.  When the
    singleton case applies, the least member is removed and recorded.
    """

    members: tuple[WitnessMember, ...]
    removed_min: Optional[WitnessMember]

    @property
    def surviving(self) -> tuple[WitnessMember, ...]:
        return self.members[1:] if self.removed_min is not None else self.members

    def to_json(self) -> dict:
        def member_json(m: WitnessMember) -> dict:
            eta, j, r = m.source
            return {
                "tableau": m.tableau.to_json(),
                "source": {"eta": list(eta), "j": j, "r": r},
            }

        return {
            "members": [member_json(m) for m in self.members],
            "removed_min": member_json(self.removed_min) if self.removed_min else None,
        }


def _member_key(m: WitnessMember):
    return (
        tuple(m.tableau.shape),
        tuple(x.key for x in m.tableau.reading_word()),
        m.source[2],
        m.source[0],
    )


def _witness_blocks(a: int, c: int, d: int, s: int, inside: bool) -> tuple[int, WitnessSet]:
    """The witness value and set; the least member is removed when d is inside the interval."""
    n = a + 2 + c
    nu = special_nu(a, c, s)
    members = []
    for eta, j, r in _sorted_tuples(j_plus(d, nu, a, 2, c)):
        if j != 0:
            raise ArithmeticError("positive index set must have j = 0 when b = 2")
        block = enumerate_blasiak(Partition((n - 1 - r, r)), c + 1, eta)
        if not block:
            raise ArithmeticError(f"hook-rule block for {(eta, j, r)} is empty")
        members.extend(WitnessMember(t, (eta, 0, r)) for t in block)
    members.sort(key=_member_key)
    if inside and not members:
        raise ArithmeticError(f"no witness to remove at (a,c,d,s)=({a},{c},{d},{s})")
    witness_set = WitnessSet(tuple(members), removed_min=members[0] if inside else None)
    return len(members) - inside, witness_set


def witnesses(a: int, c: int, d: int, e: int, s: int) -> tuple[int, WitnessSet]:
    """g((d,e), (a,2,1^c), special_nu) and its witnesses, by whichever case applies.

    Each case is called by its module-level name, so a wrapper bound there sees the call.
    """
    if not _witness_hypotheses(a, c, d, e, s):
        raise ValueError("witness hypotheses not met")
    case = witnesses_singleton_case if _in_interval(a, c, d, s) else witnesses_null_case
    return case(a, c, d, e, s)


def witnesses_for(d: int, e: int, a: int, b: int, c: int, nu) -> Optional[tuple[int, WitnessSet]]:
    """witnesses(a, c, d, e, s) when b = 2 and nu = special_nu(a, c, s) for an s in range, else None."""
    nu = _sized(nu, a + b + c)
    s = nu[1:].count(2) + 1
    if b != 2 or not _witness_hypotheses(a, c, d, e, s) or nu != special_nu(a, c, s):
        return None
    return witnesses(a, c, d, e, s)


def witnesses_singleton_case(a: int, c: int, d: int, e: int, s: int) -> tuple[int, WitnessSet]:
    """g((d,e), (a,2,1^c), special_nu) = |witnesses| - 1, d inside the interval."""
    if not (_witness_hypotheses(a, c, d, e, s) and _witness_case(a, c, d, e, s)):
        raise ValueError(
            "singleton hypotheses not met; use witnesses_null_case or g_two_row_near_hook"
        )
    return _witness_blocks(a, c, d, s, inside=True)


def witnesses_null_case(a: int, c: int, d: int, e: int, s: int) -> tuple[int, WitnessSet]:
    """g((d,e), (a,2,1^c), special_nu) = |witnesses|, d outside the interval."""
    if not _witness_hypotheses(a, c, d, e, s):
        raise ValueError("witness hypotheses not met")
    if _witness_case(a, c, d, e, s):
        raise ValueError("vanishing-case hypotheses not met; use witnesses_singleton_case")
    return _witness_blocks(a, c, d, s, inside=False)
