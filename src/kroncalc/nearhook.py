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

The expansion has the hook determinant's two terms, s_(a,1^(c+1)) h_(b-1)
- s_(b-1,1^(c+1)) h_a, which _terms lists as (sign, row size, hook); both
of its readers, _expand and near_hook_row, walk that one table in one loop.

The sums and index sets come in positive and negative sides, and both
sides are one sum with parameters (S, p, arm): sigma runs over the
partitions of S, the LR factor is c^nu_{sigma,(p-k,k)}, the two-row gate
is c^{(d,e)}_{(S-r,r),(p-k,k)}, and the Kronecker factor is
g((S-r, r), (arm, 1^(c+1)), sigma).  The positive side is
(n-b+1, b-1, a), the negative side (n-a, a, b-1).  _side derives each
side and runs its checks (hooks, then p >= 0, then |nu| = n), returning
the tuple (nu, S, p, arm, c) that every helper below it reads.

Every sum walks only its nonzero terms.  near_hook_expansion reads the
cached nonzero-LR supports of ``tableau``.  The two-row gate holds exactly
for d in an interval [lo, hi] (tableau.two_row_interval, the closed form
that tableau.lr_two_row also reads).  Each side of triple1/triple2 lists its
nonzero terms as (lo, hi, term), so a d compares two ints per term; the
list is built on each call and kept nowhere, since triple_row reads each
side once and kron reaches only triple3/triple4.  The index sets and
triple3/triple4 read one table per side (_side_table), built once per
(nu, S, p, arm, c) that a triple sum reads (c >= 1 and 1 <= p != arm); an
index set on any other side builds its table and keeps nothing (_support).
A table holds the positive terms sorted by (r, sigma, k), each one
plain row (lo, hi, sigma, k, r, lr, g) of its interval, index and factors,
checked positive once, when the table is built.  The table holds no
certificate: index_set_plus/minus read (sigma, k, r) from every row;
j_plus/j_minus and triple3/triple4 check d once per call and keep the rows
whose interval holds d, and only triple3/triple4 build a certificate, for
those rows alone.  The table reads its (sigma, k) from _strip_factors,
once per (nu, S, p) and so shared by every hook: it walks only the sigma
inside nu (``partitions_inside``), since c^nu_{sigma,(p-k,k)} = 0 for any
other, and tests them by the double-hook and strip-difference predicates,
and reads each row's LR value from the table of nu/sigma.  The interval
terms walk the table of nu/(p-k,k) instead (lr_weight_support), so the two
routes to J+ / J- share no enumeration, predicate or LR table.  Both read
the closed form g((S-r, r), (arm, 1^(c+1)), sigma) from one memoized row
per (S, arm, c, sigma), which does not depend on nu; rosas keeps no memo of
its own.  The expansion is one walk (_expand) that returns the total and
appends a certificate per term only when handed a list: near_hook_expansion
hands it one, near_hook_value does not and builds no certificate.

near_hook_row reads the same signed sum for every nu of a fixed lam at once.
The theta sums of both terms do not depend on nu, so it sums them once per
row, keyed by row part, from oracle rows of the hook factors, where the
single-triple walk reads every hook factor again for each nu.  The two
readers split as kronecker_coefficient and kronecker_row do: a single query
(kron) keeps the walk, which reads single coefficients and can certify
each term, and a sweep over every nu (verify fundamental-vs-oracle) reads
the row.  triple_row splits from triple1 .. triple4 the same way, along
d: it checks its arguments once and sums each side's (lo, hi, value) terms
over every d of the two-rows (d, n-d) in one pass (verify
triples-vs-oracle), where the single-d entries, which kron and the witness
families call, derive the side and scan its terms again for each d.

When b = 2 and nu = (a+2, 2^(s-1), 1^(c+2-2s)), the negative side is a
singleton (d inside an explicit interval) or empty (d outside), so the
coefficient becomes a count of hook-rule tableaux - minus one in the
singleton case, realized by removing the lexicographically least witness.
witnesses checks the hypotheses and builds special_nu once, and
witnesses_for matches a (d, e, a, b, c, nu) query to a family the same
way, reading s from nu, and returns None when none applies; kron reaches
the families only through it.  Both hand s and nu to one family body
(_witness_family), which reads the interval once, checks J- and its sum
against it from one triple4 call, and builds one hook-rule block per
certificate of triple3, which must hold exactly that certificate's term.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, mul
from typing import NamedTuple, Optional

from .colored import ColoredTableau, enumerate_blasiak
from .memo import memo
from .partition import (
    Partition,
    as_partition,
    hook_partition,
    is_double_hook,
    partitions_inside,
    partitions_list,
    two_rows,
)
from .rosas import rosas_kronecker
from .symfun import kronecker_coefficient, kronecker_row
from .tableau import (
    lr_coefficient,
    lr_two_row,
    lr_via_strip_difference,
    lr_weight_support,
    two_row_interval,
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


def near_hook_row(lam, a: int, b: int, c: int) -> tuple[int, ...]:
    """g(lam, (a,b,1^c), nu) for every nu of |lam|, in partitions_list order.

    The terms of near_hook_value, grouped so that the theta sums, which do
    not depend on nu, run once per row instead of once per nu.  For each
    term (sign, m, hook) of _terms and each row part rho of m,
    A_rho = sign * sum_theta c^lam_{theta,rho} g(theta, hook, .) over the
    partitions of n - m, summed from oracle rows.  The entry at nu is
    sum c^nu_{kappa,rho} A_rho[kappa] over lr_weight_support(nu, rho) and
    both terms, and a rho whose factors are all zero is skipped.  The
    negative term's rho is the walk's eta of a, read as
    lr_weight_support(nu, eta) since c^nu_{eta,delta} = c^nu_{delta,eta}.
    """
    lam = as_partition(lam)
    terms = []  # (row part, {hook part: signed theta sum}) of both terms
    for sign, row, hook in _terms(a, b, c, lam):
        for part in partitions_list(row):
            factors = _theta_sum(lam, part, hook)
            if any(factors):
                terms.append((part, dict(zip(partitions_list(hook.size), [sign * f for f in factors]))))
    return tuple(
        sum(lr * factors[rest] for part, factors in terms for rest, lr in lr_weight_support(nu, part))
        for nu in partitions_list(lam.size)
    )


def _theta_sum(lam: Partition, inner: Partition, hook: Partition) -> list[int]:
    """sum over theta of c^lam_{theta,inner} g(theta, hook, .), over the partitions of |hook|."""
    total = [0] * len(partitions_list(hook.size))
    for theta, lr in lr_weight_support(lam, inner):
        total = list(map(add, total, map(mul, repeat(lr), kronecker_row(theta, hook))))
    return total


def _terms(a: int, b: int, c: int, *shapes: Partition) -> tuple[tuple[int, int, Partition], ...]:
    """(sign, row size, hook) of s_(a,1^(c+1)) h_(b-1) - s_(b-1,1^(c+1)) h_a, once a >= b >= 2, c >= 0 and every shape has size a + b + c."""
    if not (a >= b >= 2 and c >= 0):
        raise ValueError("near-hook parameters need a >= b >= 2 and c >= 0")
    n = a + b + c
    if any(shape.size != n for shape in shapes):
        raise ValueError(f"lam and nu must be partitions of {n}")
    return (1, b - 1, hook_partition(a, c + 1)), (-1, a, hook_partition(b - 1, c + 1))


def _expand(lam, nu, a: int, b: int, c: int, certs=None) -> int:
    """The signed expansion's total; each term's certificate is appended to certs when it is a list.

    delta runs over the row parts of the positive term and the hook parts of
    the negative one, so a certificate's index is (eta, delta, theta) on both.
    """
    lam, nu = as_partition(lam), as_partition(nu)
    total = 0
    for sign, row, hook in _terms(a, b, c, lam, nu):
        for delta in partitions_list(row if sign > 0 else hook.size):
            for eta, outer_lr in lr_weight_support(nu, delta):
                part, rest = (delta, eta) if sign > 0 else (eta, delta)  # the row part and the hook part
                for theta, inner_lr in lr_weight_support(lam, part):
                    lr = outer_lr * inner_lr
                    g = kronecker_coefficient(theta, hook, rest)
                    total += sign * lr * g
                    if certs is not None:
                        certs.append(TermCertificate(sign, (eta, delta, theta), lr, g))
    return total


def _two_row_side(d, e, a, b, c, nu, positive: bool) -> tuple:
    """_side, once (d, e) and (a, b, 1^c) meet the triple sums' hypotheses."""
    if not (d >= e >= 0):
        raise ValueError("two-row index needs d >= e >= 0")
    if not (a >= b >= 2 and c >= 1):
        raise ValueError("triple sums need a >= b >= 2 and c >= 1")
    if d + e != a + b + c:
        raise ValueError(f"d + e must equal {a + b + c}")
    return _side(nu, a, b, c, positive)


def _sized(nu, n: int) -> Partition:
    nu = as_partition(nu)
    if nu.size != n:
        raise ValueError(f"nu must be a partition of {n}")
    return nu


def _side(nu, a: int, b: int, c: int, positive: bool) -> tuple:
    """(nu, S, p, arm, c) of one side, once its hooks exist, p >= 0 and nu has size a + b + c."""
    size, p, arm = (a + c + 1, b - 1, a) if positive else (b + c, a, b - 1)
    if min(a, arm) < 1 or c < 0:
        raise ValueError(f"hook parameters need a >= 1 and c >= 0, got ({min(a, arm)}, {c})")
    if p < 0:
        raise ValueError(f"strip size p = b - 1 must be >= 0, got {p}")
    return _sized(nu, a + b + c), size, p, arm, c


@memo
def _closed_form_row(size: int, arm: int, c: int, sigma: Partition) -> tuple[int, ...]:
    """g((size - r, r), (arm, 1^(c+1)), sigma) for r = 0 .. size // 2, read through rosas_kronecker.

    The row does not depend on nu, so one row serves every nu and both
    routes to the support.
    """
    return tuple(rosas_kronecker(size, r, arm, c, sigma) for r in range(size // 2 + 1))


def _interval_terms(nu, size: int, p: int, arm: int, c: int) -> tuple:
    """(lo, hi, term) for every nonzero term of a side's sum; the two-row gate holds at d iff lo <= d <= hi.

    term = c^nu_{sigma,(p-k,k)} * g((S-r, r), (arm, 1^(c+1)), sigma), with sigma
    and its LR factor read from lr_weight_support(nu, (p-k,k)), so this route
    shares no enumeration, predicate or LR table with _side_table.
    """
    out = []
    for k, strip in enumerate(two_rows(p)):
        for sigma, coeff in lr_weight_support(nu, strip):
            for r, g in enumerate(_closed_form_row(size, arm, c, sigma)):
                if g:
                    out.append((*two_row_interval(size - r, r, p - k, k), coeff * g))
    return tuple(out)


def _interval_sum(side: tuple, d: int) -> int:
    return sum(term for lo, hi, term in _interval_terms(*side) if lo <= d <= hi)


@memo
def _strip_factors(nu: Partition, size: int, p: int) -> tuple:
    """(sigma, k) for every double hook sigma of size with c^nu_{sigma,(p-k,k)} > 0, by strip-chain counts.

    The pairs do not depend on the hook, so every side with this (nu, size)
    reads one tuple.
    """
    out = []
    # c^nu_{sigma,(p-k,k)} = 0 unless sigma lies inside nu
    for sigma in partitions_inside(nu, size):
        if not is_double_hook(sigma, size):
            continue
        for k in range(p // 2 + 1):
            if lr_via_strip_difference(nu, sigma, p + 1, k) > 0:
                out.append((sigma, k))
    return tuple(out)


@memo
def _side_table(nu: Partition, size: int, p: int, arm: int, c: int) -> tuple:
    """(lo, hi, sigma, k, r, lr, g) for every positive term of a side, sorted by (r, sigma, k).

    The two-row gate holds at d iff lo <= d <= hi, and the term is lr * g.
    Every term is checked positive here, once, so no d can gate a term that
    was not.  The rows are plain tuples: a certificate is built only for a
    row that a d admits (_gated).
    """
    terms = []
    for sigma, k in _strip_factors(nu, size, p):
        for r, g in enumerate(_closed_form_row(size, arm, c, sigma)):
            if g > 0:
                terms.append((r, sigma, k, g))
    out = []
    strips = two_rows(p)
    for r, sigma, k, g in sorted(terms):
        lr = lr_coefficient(nu, sigma, strips[k])
        if lr * g <= 0:
            raise ArithmeticError(f"non-positive reduced term at {(sigma, k, r)}")
        out.append((*two_row_interval(size - r, r, p - k, k), sigma, k, r, lr, g))
    return tuple(out)


def _support(nu: Partition, size: int, p: int, arm: int, c: int) -> frozenset:
    """The (sigma, k, r) of a side's table, kept in _side_table only when a triple sum can read the side.

    A triple sum's side has c >= 1 and 1 <= p != arm (a >= b >= 2 on either
    side); the key decides, not the caller's (a, b, c), since an index set
    with a < b - 1 reaches the other sign's side of a triple.  Any other
    side is built and dropped.
    """
    table = _side_table if c >= 1 and 1 <= p != arm else _side_table.__wrapped__
    return frozenset((sigma, k, r) for _, _, sigma, k, r, _, _ in table(nu, size, p, arm, c))


def _gated(side: tuple, d: int) -> list[tuple]:
    """The rows of the side's table whose two-row gate holds at d."""
    _, size, p, _, _ = side
    # the table's intervals assume the gate's other arguments, which are
    # two-row by construction and balance with e, so d is the one left to check
    if not d >= size + p - d >= 0:
        raise ValueError("two-row arguments must be weakly decreasing and nonnegative")
    return [row for row in _side_table(*side) if row[0] <= d <= row[1]]


def _certified_sum(side: tuple, d: int) -> tuple[int, list[TermCertificate]]:
    certs = [TermCertificate(1, (sigma, k, r), lr, g) for _, _, sigma, k, r, lr, g in _gated(side, d)]
    return sum(cert.contribution for cert in certs), certs


def triple1(d, e, a, b, c, nu) -> int:
    """Positive interval-gated sum over (eta, j, r), of size n - b + 1 terms."""
    return _interval_sum(_two_row_side(d, e, a, b, c, nu, True), d)


def triple2(d, e, a, b, c, nu) -> int:
    """Negative interval-gated sum over (delta, i, r), of size n - a terms."""
    return _interval_sum(_two_row_side(d, e, a, b, c, nu, False), d)


def index_set_plus(nu, a: int, b: int, c: int) -> frozenset:
    """Tuples (eta, j, r) whose triple1 summand is strictly positive."""
    return _support(*_side(nu, a, b, c, True))


def index_set_minus(nu, a: int, b: int, c: int) -> frozenset:
    """Tuples (delta, i, r) whose triple2 summand is strictly positive."""
    return _support(*_side(nu, a, b, c, False))


def j_plus(d: int, nu, a: int, b: int, c: int) -> frozenset:
    """index_set_plus filtered by the two-row interval condition at d."""
    return frozenset((sigma, k, r) for _, _, sigma, k, r, _, _ in _gated(_side(nu, a, b, c, True), d))


def j_minus(d: int, nu, a: int, b: int, c: int) -> frozenset:
    """index_set_minus filtered by the two-row interval condition at d."""
    return frozenset((sigma, k, r) for _, _, sigma, k, r, _, _ in _gated(_side(nu, a, b, c, False), d))


def triple3(d, e, a, b, c, nu) -> tuple[int, list[TermCertificate]]:
    """triple1 restricted to its positive support; certificates all positive."""
    return _certified_sum(_two_row_side(d, e, a, b, c, nu, True), d)


def triple4(d, e, a, b, c, nu) -> tuple[int, list[TermCertificate]]:
    """triple2 restricted to its positive support; certificates all positive."""
    return _certified_sum(_two_row_side(d, e, a, b, c, nu, False), d)


def g_two_row_near_hook(d, e, a, b, c, nu) -> int:
    """g((d,e), (a,b,1^c), nu) as triple3 - triple4."""
    plus, _ = triple3(d, e, a, b, c, nu)
    minus, _ = triple4(d, e, a, b, c, nu)
    return plus - minus


def triple_row(a: int, b: int, c: int, nu) -> tuple[tuple[int, int, int, int, int], ...]:
    """(triple1, triple2, triple3, triple4, non-positive certificates) for d = ceil(n/2) .. n.

    The four sums of every two-row (d, n-d) at once, with the number of
    certificates of triple3 and triple4 that are <= 0 (none, since
    _side_table refuses them, but a sweep counts them).  (a, b, c) and nu
    are checked once, as triple1 .. triple4 check them, and each side's
    (lo, hi, value) terms are summed over the d range in one pass, where
    the single-d calls read every term again for each d.  The readers split
    as near_hook_row and near_hook_value do: a query at one d (kron, the
    witnesses) keeps triple1 .. triple4, and a sweep over every d (verify
    triples-vs-oracle) reads the row.
    """
    if not (a >= b >= 2 and c >= 1):
        raise ValueError("triple sums need a >= b >= 2 and c >= 1")
    n = a + b + c
    first = (n + 1) // 2
    sides = []  # per side: the interval sums, the certified sums, the non-positive certificates
    for positive in (True, False):
        side = _side(nu, a, b, c, positive)
        table = [(lo, hi, lr * g) for lo, hi, _, _, _, lr, g in _side_table(*side)]
        sides.append((
            _over_d(_interval_terms(*side), first, n),
            _over_d(table, first, n),
            _over_d(((lo, hi, 1) for lo, hi, value in table if value <= 0), first, n),
        ))
    (t1, t3, bad3), (t2, t4, bad4) = sides
    return tuple(zip(t1, t2, t3, t4, map(add, bad3, bad4)))


def _over_d(terms, first: int, n: int) -> list[int]:
    """For d = first .. n, the sum of value over the (lo, hi, value) terms with lo <= d <= hi."""
    steps = [0] * (n - first + 2)
    for lo, hi, value in terms:
        lo, hi = max(lo, first), min(hi, n)
        if lo <= hi:
            steps[lo - first] += value
            steps[hi - first + 1] -= value
    return list(accumulate(steps[:-1]))


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


def witnesses(a: int, c: int, d: int, e: int, s: int) -> tuple[int, WitnessSet]:
    """g((d,e), (a,2,1^c), special_nu): |witnesses|, less one when d is inside the interval."""
    if not _witness_hypotheses(a, c, d, e, s):
        raise ValueError("witness hypotheses not met")
    return _witness_family(a, c, d, e, s, special_nu(a, c, s))


def witnesses_for(d: int, e: int, a: int, b: int, c: int, nu) -> Optional[tuple[int, WitnessSet]]:
    """witnesses(a, c, d, e, s) when b = 2 and nu = special_nu(a, c, s) for an s in range, else None."""
    nu = _sized(nu, a + b + c)
    s = nu[1:].count(2) + 1
    if b != 2 or not _witness_hypotheses(a, c, d, e, s) or nu != special_nu(a, c, s):
        return None
    return _witness_family(a, c, d, e, s, nu)


def _witness_family(a: int, c: int, d: int, e: int, s: int, nu: Partition) -> tuple[int, WitnessSet]:
    """The body of witnesses, on arguments that meet the hypotheses and nu = special_nu(a, c, s).

    Inside the interval J- must be exactly {(delta*, 0, s)} and its term 1;
    outside it J- must be empty and triple4 zero.  Both are read from one
    triple4 call, and a mismatch raises.  Each certificate of triple3 gives
    a hook-rule block as large as its term, so the value is triple3 - triple4.
    """
    inside = _in_interval(a, c, d, s)
    expected = {(delta_star(c, s), 0, s)} if inside else set()
    value, certs = triple4(d, e, a, 2, c, nu)
    indices = {cert.index for cert in certs}
    if indices != expected:
        raise ArithmeticError(f"negative index set is not {sorted(expected)}: {sorted(indices)}")
    if value != len(expected):
        raise ArithmeticError(f"triple4 is {value}, expected {len(expected)}")
    members = []
    for cert in triple3(d, e, a, 2, c, nu)[1]:
        eta, _, r = cert.index
        block = enumerate_blasiak(Partition((d + e - 1 - r, r)), c + 1, eta)
        if len(block) != cert.contribution:
            raise ArithmeticError(
                f"hook-rule block for {cert.index} holds {len(block)} tableaux, its term is {cert.contribution}"
            )
        members.extend(WitnessMember(t, cert.index) for t in block)
    members.sort(key=_member_key)
    if inside and not members:
        raise ArithmeticError(f"no witness to remove at (a,c,d,s)=({a},{c},{d},{s})")
    witness_set = WitnessSet(tuple(members), removed_min=members[0] if inside else None)
    return len(members) - inside, witness_set
