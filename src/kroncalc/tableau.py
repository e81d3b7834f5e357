"""Skew semistandard tableaux and Littlewood-Richardson coefficients.

An LR tableau of shape outer/inner and weight w is a semistandard filling
whose reading word (rows read right to left, top row first) satisfies the
Yamanouchi condition: every prefix contains at least as many i's as
(i+1)'s.  The number of such fillings is the LR coefficient
c^{outer}_{inner, w}.

Enumeration fills cells in reading order so the Yamanouchi prefix counts,
the semistandard constraints, and the weight budget can all be checked
incrementally; this keeps exhaustive sweeps through n <= 12 interactive.
One walk serves both uses: it returns the number of fillings, which is
all ``lr_coefficient`` reads, and only ``lr_tableaux`` asks it to record
each filling's label rows as well.  The fillings walk (``_fill``) and the
strip-chain count (``_chains``) are module-level recursions that take
their state as arguments, so a call leaves no reference cycle behind and
its lists are freed by reference counting as soon as it returns.

Sums weighted by LR coefficients walk the cached supports instead of
probing every partition: ``lr_weight_support`` fixes (outer, inner) and
``lr_outer_support`` fixes (inner, weight), and each lists the third with
its nonzero coefficient, in partitions_list order.  By the symmetry
c^lam_{inner, weight} = c^lam_{weight, inner}, ``lr_weight_support`` also
lists the inner shapes for a fixed weight.  That symmetry also puts every
weight with a nonzero coefficient inside lam, so only those are searched.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple, Sequence

from .partition import Partition, as_partition, contains, partitions_list


def reading_word(rows: Sequence[Sequence]) -> tuple:
    """Rows read right to left, top row first."""
    return tuple(x for row in rows for x in reversed(row))


def value_counts(values: Iterable[int]) -> tuple[int, ...]:
    """How often each of 1, 2, ..., max(values) occurs."""
    counts: dict[int, int] = {}
    for x in values:
        counts[x] = counts.get(x, 0) + 1
    m = max(counts) if counts else 0
    return tuple(counts.get(i, 0) for i in range(1, m + 1))


class _Skew(NamedTuple):
    outer: Partition
    inner: Partition
    rows: tuple[tuple[int, ...], ...]


class SkewSSYT(_Skew):
    """Semistandard filling of outer/inner; rows hold the skew-cell labels."""

    __slots__ = ()

    def __new__(cls, outer, inner, rows):
        outer, inner = Partition(outer), Partition(inner)
        rows = tuple(tuple(r) for r in rows)
        if not contains(inner, outer):
            raise ValueError(f"{inner!r} not contained in {outer!r}")
        if len(rows) != len(outer):
            raise ValueError("one label row per outer row required")
        for i, row in enumerate(rows):
            lo = inner.part(i + 1)
            if len(row) != outer[i] - lo:
                raise ValueError(f"row {i} must hold {outer[i] - lo} labels")
            if any(x < 1 for x in row):
                raise ValueError("labels must be positive integers")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {i} must weakly increase")
        for i in range(1, len(rows)):
            lo, lo_up = inner.part(i + 1), inner.part(i)
            hi_up = outer[i - 1]
            for c in range(max(lo, lo_up), min(outer[i], hi_up)):
                if rows[i][c - lo] <= rows[i - 1][c - lo_up]:
                    raise ValueError(f"column {c} must strictly increase")
        return super().__new__(cls, outer, inner, rows)

    def reading_word(self) -> tuple[int, ...]:
        return reading_word(self.rows)

    def weight(self) -> tuple[int, ...]:
        return value_counts(x for row in self.rows for x in row)

    def to_ascii(self) -> str:
        lines = []
        for i, row in enumerate(self.rows):
            pad = ["."] * self.inner.part(i + 1)
            lines.append(" ".join(pad + [str(x) for x in row]))
        return "\n".join(lines)

    def to_ytableau(self) -> str:
        body = []
        for i, row in enumerate(self.rows):
            cells = ["\\none"] * self.inner.part(i + 1) + [str(x) for x in row]
            body.append(" & ".join(cells))
        return "\\begin{ytableau} " + " \\\\ ".join(body) + " \\end{ytableau}"


def is_yamanouchi(word: Sequence[int]) -> bool:
    """Every prefix has at least as many i's as (i+1)'s, for all i >= 1."""
    counts: dict[int, int] = {}
    for x in word:
        counts[x] = counts.get(x, 0) + 1
        if x > 1 and counts[x] > counts.get(x - 1, 0):
            return False
    return True


def _lr_fillings(outer: Partition, inner: Partition, weight: Sequence[int], found=None) -> int:
    """Count the LR fillings of outer/inner with the given weight.

    When ``found`` is a list, each filling's label rows are appended to it
    as well, in the order the walk finishes them.  Cells are filled in
    reading order; a label v is admissible when it keeps the row weakly
    increasing (right neighbour bound), the column strictly increasing
    (cell above), the weight within budget, and the Yamanouchi prefix
    inequality counts[v] < counts[v-1].  Both bounds come from cells filled
    earlier in reading order, so a cell is never cleared on the way back.
    Degenerate input (inner not contained in outer, or sizes that do not
    balance) has no filling.
    """
    if inner.size + sum(weight) != outer.size or not contains(inner, outer):
        return 0
    cells = []
    for r in range(len(outer)):
        lo = inner.part(r + 1)
        for c in range(outer[r] - 1, lo - 1, -1):
            cells.append((r, c))
    grid = [[0] * outer[r] for r in range(len(outer))]
    return _fill(0, cells, grid, [0] * (len(weight) + 1), weight, outer, inner, found)


def _fill(k, cells, grid, counts, weight, outer, inner, found) -> int:
    """Fillings that complete grid from cell k on, with counts[v] labels v placed."""
    if k == len(cells):
        if found is not None:
            found.append(tuple(tuple(row[inner.part(r + 1) :]) for r, row in enumerate(grid)))
        return 1
    r, c = cells[k]
    row = grid[r]
    hi = row[c + 1] if c + 1 < outer[r] else len(weight)
    lo = grid[r - 1][c] if r > 0 and c < outer[r - 1] else 0
    total = 0
    for v in range(lo + 1, hi + 1):
        if counts[v] >= weight[v - 1]:
            continue
        if v > 1 and counts[v] >= counts[v - 1]:
            continue
        row[c] = v
        counts[v] += 1
        total += _fill(k + 1, cells, grid, counts, weight, outer, inner, found)
        counts[v] -= 1
    return total


def lr_tableaux(lam, mu, nu) -> list[SkewSSYT]:
    """All LR tableaux of shape lam/mu and weight nu."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    found: list[tuple[tuple[int, ...], ...]] = []
    _lr_fillings(lam, mu, nu, found)
    return [SkewSSYT(lam, mu, rows) for rows in found]


@cache
def lr_coefficient(lam, mu, nu) -> int:
    """c^lam_{mu nu}: LR tableaux of shape lam/mu, weight nu (0 on degenerate input)."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    return _lr_fillings(lam, mu, nu)


def _nonzero(size: int, coefficient) -> tuple[tuple[Partition, int], ...]:
    """(p, coefficient(p)) for every partition p of size with a nonzero value."""
    if size < 0:
        return ()
    return tuple((p, c) for p in partitions_list(size) if (c := coefficient(p)))


@cache
def lr_weight_support(lam, inner) -> tuple[tuple[Partition, int], ...]:
    """(weight, c^lam_{inner, weight}) for every weight with a nonzero coefficient."""
    lam, inner = Partition(lam), Partition(inner)
    return _nonzero(
        lam.size - inner.size,
        lambda weight: contains(weight, lam) and lr_coefficient(lam, inner, weight),
    )


@cache
def lr_outer_support(inner, weight) -> tuple[tuple[Partition, int], ...]:
    """(lam, c^lam_{inner, weight}) for every lam with a nonzero coefficient."""
    inner, weight = Partition(inner), Partition(weight)
    return _nonzero(inner.size + weight.size, lambda lam: lr_coefficient(lam, inner, weight))


def lr_two_row(x: int, y: int, u: int, v: int, d: int, e: int) -> int:
    """Closed form for c^{(d,e)}_{(x,y),(u,v)}: 1 iff max(x+v, y+u) <= d <= x+u."""
    if not (x >= y >= 0 and u >= v >= 0 and d >= e >= 0):
        raise ValueError("two-row arguments must be weakly decreasing and nonnegative")
    if d + e != x + y + u + v:
        raise ValueError("sizes must balance: d+e == x+y+u+v")
    return int(two_row_gate(x, y, u, v, d))


def two_row_gate(x: int, y: int, u: int, v: int, d: int) -> bool:
    """lr_two_row's closed form without its checks.

    The caller guarantees x >= y >= 0, u >= v >= 0 and d >= e >= 0, where
    e = x + y + u + v - d.
    """
    return max(x + v, y + u) <= d <= x + u


@cache
def strip_chain_count(nu, eta, size1: int, size2: int) -> int:
    """Number of kappa with eta <= kappa <= nu forming two horizontal strips.

    kappa/eta must be a horizontal strip of size1 cells and nu/kappa one of
    size2 cells.  Negative sizes count as zero by convention.  kappa is
    enumerated row-wise within max(eta_i, nu_{i+1}) <= kappa_i <= min(nu_i,
    eta_{i-1}), which encodes both strip conditions at once.
    """
    nu, eta = as_partition(nu), as_partition(eta)
    if size1 < 0 or size2 < 0:
        return 0
    if eta.size + size1 + size2 != nu.size:
        return 0
    if not contains(eta, nu):
        return 0
    rows = len(nu)
    lo, hi = [], []
    for i in range(rows):
        l = max(eta.part(i + 1), nu.part(i + 2))
        h = min(nu[i], eta.part(i)) if i >= 1 else nu[0]
        if l > h:
            return 0
        lo.append(l)
        hi.append(h)
    suf_lo = [0] * (rows + 1)
    suf_hi = [0] * (rows + 1)
    for i in range(rows - 1, -1, -1):
        suf_lo[i] = suf_lo[i + 1] + lo[i]
        suf_hi[i] = suf_hi[i + 1] + hi[i]
    return _chains(0, eta.size + size1, lo, hi, suf_lo, suf_hi)


def _chains(i, remaining, lo, hi, suf_lo, suf_hi) -> int:
    """Ways to choose lo[j] <= kappa_j <= hi[j] for the rows j >= i, summing to remaining.

    Rows i, i+1, ... sum to between suf_lo[i] and suf_hi[i], so a branch
    that cannot reach the sum exactly is never entered.
    """
    if i == len(lo):
        return 1 if remaining == 0 else 0
    total = 0
    for k in range(lo[i], hi[i] + 1):
        left = remaining - k
        if suf_lo[i + 1] <= left <= suf_hi[i + 1]:
            total += _chains(i + 1, left, lo, hi, suf_lo, suf_hi)
    return total


def lr_via_strip_difference(nu, eta, b: int, j: int) -> int:
    """c^nu_{eta,(b-1-j,j)} as a difference of two strip-chain counts."""
    return strip_chain_count(nu, eta, j, b - 1 - j) - strip_chain_count(
        nu, eta, j - 1, b - j
    )


def dimension(lam) -> int:
    """Number of standard tableaux of shape lam (hook length formula)."""
    lam = Partition(lam)
    from math import factorial

    result = factorial(lam.size)
    for row in lam.hook_lengths():
        for h in row:
            result //= h
    return result


def schur_expand_product(mu, nu) -> dict[Partition, int]:
    """Map lam -> c^lam_{mu nu} over all lam of the right size; a fresh dict per call."""
    return dict(lr_outer_support(as_partition(mu), as_partition(nu)))
