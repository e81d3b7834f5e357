"""Skew semistandard tableaux and Littlewood-Richardson coefficients.

An LR tableau of shape outer/inner and weight w is a semistandard filling
whose reading word (rows read right to left, top row first) satisfies the
Yamanouchi condition: every prefix contains at least as many i's as
(i+1)'s.  The number of such fillings is the LR coefficient
c^{outer}_{inner, w}.

One walk per skew shape serves every weight.  It fills cells in reading
order, so the Yamanouchi prefix counts and the semistandard constraints are
checked incrementally; it needs no weight budget, since the rightmost cell
of row r (counted from 0) takes labels up to r + 1 and the Yamanouchi test
prunes the rest.  ``_lr_table`` tallies the fillings by weight, once per
(outer, inner), and ``lr_coefficient`` reads one entry of that table.  An
inner shape that does not fit in outer has no filling, so
``lr_coefficient`` and ``lr_weight_support`` answer it from the arguments
(``_fits``) and no table is kept for it; only
``lr_tableaux`` asks the walk to record the label rows of its weight as
well, in the same order.  The walk (``_fill``) is a module-level recursion
that takes its state as arguments, so a call leaves no reference cycle
behind and its lists are freed by reference counting as soon as it returns.

Sums weighted by LR coefficients walk the cached supports instead of
probing every partition: ``lr_weight_support`` fixes (outer, inner) and
``lr_outer_support`` fixes (inner, weight), and each lists the third with
its nonzero coefficient, in partitions_list order.  By the symmetry
c^lam_{inner, weight} = c^lam_{weight, inner}, ``lr_weight_support`` also
lists the inner shapes for a fixed weight.  It takes its weights from the
keys of the shape's table and reads each value through ``lr_coefficient``.

Strip-chain counts need no search: kappa/eta and nu/kappa are horizontal
strips exactly when every row lies in its own interval, so the counts by
|kappa/eta| are the coefficients of a product of one interval per row.
``_strip_chains`` holds them once per (nu, eta) with eta inside nu;
``strip_chain_count`` converts its arguments, answers 0 for an eta that
does not fit, and otherwise reads one entry, with no memo of its own.
"""

from __future__ import annotations

from operator import gt
from typing import Iterable, NamedTuple, Sequence

from .memo import memo
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


def _lr_walk(outer: Partition, inner: Partition, found=None) -> dict[tuple, int]:
    """Tally the LR fillings of outer/inner by their label counts.

    The keys are (0, m_1, m_2, ..., m_len(outer)), m_v the number of labels
    v.  When ``found`` is a pair (key, list), the label grid of each filling
    with that key is appended to the list, in the order the walk finishes
    them.  Cells are filled in reading order; a label v is admissible when
    it keeps the row weakly increasing (right neighbour bound, or r + 1 in
    the rightmost cell of row r, counted from 0), the column strictly
    increasing (cell above), and the Yamanouchi prefix inequality
    counts[v] < counts[v-1].  Both bounds come from cells filled earlier in
    reading order, so a cell is never cleared on the way back.  An inner
    shape not contained in outer has no filling.
    """
    tally: dict[tuple, int] = {}
    if not contains(inner, outer):
        return tally
    grid = [[0] * part for part in outer]
    cells = []
    for r, part in enumerate(outer):
        for c in range(part - 1, inner.part(r + 1) - 1, -1):
            above = grid[r - 1] if r and c < outer[r - 1] else None
            cells.append((grid[r], c, r + 1 if c + 1 == part else 0, above))
    _fill(0, cells, grid, [0] * (len(outer) + 1), tally, found)
    return tally


def _fill(k, cells, grid, counts, tally, found) -> None:
    """Tally the fillings that complete grid from cell k on, counts[v] labels v placed."""
    if k == len(cells):
        key = tuple(counts)
        tally[key] = tally.get(key, 0) + 1
        if found is not None and key == found[0]:
            found[1].append(tuple(map(tuple, grid)))
        return
    row, c, top, above = cells[k]
    hi = top or row[c + 1]
    for v in range(above[c] + 1 if above is not None else 1, hi + 1):
        if v > 1 and counts[v] >= counts[v - 1]:
            continue
        row[c] = v
        counts[v] += 1
        _fill(k + 1, cells, grid, counts, tally, found)
        counts[v] -= 1


@memo
def _lr_table(outer: Partition, inner: Partition) -> dict[Partition, int]:
    """weight -> c^outer_{inner, weight} for every weight with a nonzero coefficient."""
    return {Partition(key[1:]): count for key, count in _lr_walk(outer, inner).items()}


def lr_tableaux(lam, mu, nu) -> list[SkewSSYT]:
    """All LR tableaux of shape lam/mu and weight nu."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    found: tuple[tuple, list] = ((0, *nu) + (0,) * (len(lam) - len(nu)), [])
    _lr_walk(lam, mu, found)
    return [
        SkewSSYT(lam, mu, [row[mu.part(r + 1) :] for r, row in enumerate(grid)])
        for grid in found[1]
    ]


def _fits(inner: Partition, outer: Partition) -> bool:
    """contains(inner, outer) on two Partitions, without converting them again."""
    return len(inner) <= len(outer) and not any(map(gt, inner, outer))


@memo
def lr_coefficient(lam, mu, nu) -> int:
    """c^lam_{mu nu}: LR tableaux of shape lam/mu, weight nu (0 on degenerate input)."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    return _lr_table(lam, mu).get(nu, 0) if _fits(mu, lam) else 0


@memo
def lr_weight_support(lam, inner) -> tuple[tuple[Partition, int], ...]:
    """(weight, c^lam_{inner, weight}) for every weight with a nonzero coefficient."""
    lam, inner = Partition(lam), Partition(inner)
    if not _fits(inner, lam):
        return ()
    # reverse lexicographic order is partitions_list order
    return tuple(
        (weight, lr_coefficient(lam, inner, weight))
        for weight in sorted(_lr_table(lam, inner), reverse=True)
    )


@memo
def lr_outer_support(inner, weight) -> tuple[tuple[Partition, int], ...]:
    """(lam, c^lam_{inner, weight}) for every lam with a nonzero coefficient."""
    inner, weight = Partition(inner), Partition(weight)
    return tuple(
        (lam, c)
        for lam in partitions_list(inner.size + weight.size)
        if (c := lr_coefficient(lam, inner, weight))
    )


def lr_two_row(x: int, y: int, u: int, v: int, d: int, e: int) -> int:
    """Closed form for c^{(d,e)}_{(x,y),(u,v)}: 1 iff max(x+v, y+u) <= d <= x+u."""
    if not (x >= y >= 0 and u >= v >= 0 and d >= e >= 0):
        raise ValueError("two-row arguments must be weakly decreasing and nonnegative")
    if d + e != x + y + u + v:
        raise ValueError("sizes must balance: d+e == x+y+u+v")
    lo, hi = two_row_interval(x, y, u, v)
    return int(lo <= d <= hi)


def two_row_interval(x: int, y: int, u: int, v: int) -> tuple[int, int]:
    """(lo, hi): c^{(d,e)}_{(x,y),(u,v)} = 1 exactly when lo <= d <= hi, under lr_two_row's checks."""
    return max(x + v, y + u), x + u


def strip_chain_count(nu, eta, size1: int, size2: int) -> int:
    """Number of kappa with eta <= kappa <= nu forming two horizontal strips.

    kappa/eta must be a horizontal strip of size1 cells and nu/kappa one of
    size2 cells.  Negative sizes count as zero by convention.
    """
    nu, eta = as_partition(nu), as_partition(eta)
    if size1 < 0 or size2 < 0 or eta.size + size1 + size2 != nu.size or not _fits(eta, nu):
        return 0
    chains = _strip_chains(nu, eta)
    return chains[size1] if size1 < len(chains) else 0


@memo
def _strip_chains(nu: Partition, eta: Partition) -> tuple[int, ...]:
    """strip_chain_count(nu, eta, s, |nu/eta| - s) for s = 0, 1, ...; () when all are 0.

    The two strips bound each row on its own:
    max(eta_i, nu_{i+1}) <= kappa_i <= min(nu_i, eta_{i-1}), with no upper
    bound from eta in row 1, and the lower bounds keep kappa a partition.
    So the counts are the coefficients of the product over the rows of
    x^(lo - eta_i) + ... + x^(hi - eta_i).
    """
    if len(eta) > len(nu):
        return ()
    inner = (*eta, *(0,) * (len(nu) - len(eta)))
    low, counts = 0, [1]
    for top, below, base, above in zip(nu, (*nu[1:], 0), inner, (*nu[:1], *inner)):
        lo, hi = max(base, below), min(top, above)
        if lo > hi:
            return ()
        low += lo - base
        if hi > lo:
            grown = [0] * (len(counts) + hi - lo)
            for s, count in enumerate(counts):
                for t in range(s, s + hi - lo + 1):
                    grown[t] += count
            counts = grown
    return (0,) * low + tuple(counts)


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
