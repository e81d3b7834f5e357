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
strip lister's walk (``_grow``), shared with the hook rule in ``colored``,
are module-level recursions that take their state as arguments, so a call
leaves no reference cycle behind and its lists are freed by reference
counting as soon as it returns.

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
from itertools import accumulate
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
    size2 cells.  Negative sizes count as zero by convention.  kappa runs
    over the strips _strips lists on eta inside nu; nu/kappa is a
    horizontal strip when kappa has at least len(nu) - 1 rows and
    kappa_i >= nu_{i+1} for every row i.  Since kappa_i <= eta_{i-1} as
    well, the count is 0 when some row i >= 2 has eta_{i-1} < nu_{i+1}.
    """
    nu, eta = as_partition(nu), as_partition(eta)
    if size1 < 0 or size2 < 0:
        return 0
    if eta.size + size1 + size2 != nu.size:
        return 0
    if not contains(eta, nu):
        return 0
    if any(eta.part(i - 1) < nu.part(i + 1) for i in range(2, len(nu))):
        return 0
    return sum(
        len(kappa) >= len(nu) - 1 and all(k >= nu.part(i + 2) for i, k in enumerate(kappa))
        for kappa, _ in _strips(eta, size1, nu, None)
    )


def lr_via_strip_difference(nu, eta, b: int, j: int) -> int:
    """c^nu_{eta,(b-1-j,j)} as a difference of two strip-chain counts."""
    return strip_chain_count(nu, eta, j, b - 1 - j) - strip_chain_count(
        nu, eta, j - 1, b - j
    )


def _strips(lines: Sequence[int], s: int, limit, bound) -> list:
    """Ways to add a horizontal strip of s cells to a shape's lines.

    lines are the weakly decreasing line lengths (rows, or the columns of
    the conjugate shape for a vertical strip); line i takes at most
    lines[i-1] - lines[i] cells, line 0 any number, and one empty line
    after the last may open.  No line may grow past limit (a shape), and
    bound[i] (the last entry for i past the end) caps the strip's cells in
    lines 0..i.  Each way is (grown line lengths, prefix sums), the prefix
    sums being accumulate(cells per line, initial=0); an empty strip is
    (tuple(lines), (0,)).
    """
    if s == 0:
        return [(tuple(lines), (0,))]
    padded = list(lines) + [0]
    caps = [s] + [a - b for a, b in zip(padded, padded[1:])]
    if limit is not None:
        caps = [
            min(cap, limit[i] - length) if i < len(limit) else 0
            for i, (cap, length) in enumerate(zip(caps, padded))
        ]
    if bound is not None:
        bound = [bound[i] if i < len(bound) else bound[-1] for i in range(len(caps))]
    room = list(accumulate(reversed(caps)))[::-1]
    out = []
    _grow(0, 0, s, padded, caps, room, bound, [0] * len(caps), out)
    return out


def _grow(start, placed, s, padded, caps, room, bound, picks, out) -> None:
    """Append to out each way to place the s - placed cells left in lines start..

    picks[i] holds the cells line i takes; lines from start on take none
    yet.  Lines are tried in order and, within a line, the larger count
    first, so the ways come in decreasing lexicographic order of picks.
    """
    if placed == s:
        grown = tuple(a + t for a, t in zip(padded, picks))
        prefix = tuple(accumulate(picks, initial=0))
        out.append((grown if picks[-1] else grown[:-1], prefix))
        return
    left = s - placed
    for j in range(start, len(caps)):
        if room[j] < left:
            break
        hi = min(caps[j], left)
        if bound is not None:
            hi = min(hi, bound[j] - placed)
        for t in range(hi, 0, -1):
            picks[j] = t
            _grow(j + 1, placed + t, s, padded, caps, room, bound, picks, out)
        picks[j] = 0


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
