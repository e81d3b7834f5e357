"""Integer partitions and shape predicates.

A partition is a weakly decreasing tuple of positive integers.  Trailing
zeros are stripped at construction, so ``(5, 2, 0)`` and ``(5, 2)`` denote
the same partition and the empty tuple is the unique partition of 0.

The text syntax shared with the command line accepts exponent tokens:
``"6,2,1^6"`` parses to ``(6, 2, 1, 1, 1, 1, 1, 1)``.  Enumeration of all
partitions of n (Knuth's Algorithm P) is reverse-lexicographic and stable,
so sweep output is reproducible byte for byte.
"""

from __future__ import annotations

from operator import index
from typing import Iterator, NamedTuple, Optional, Sequence

from .memo import memo


def _conjugate(lengths: Sequence[int]) -> tuple:
    """Line lengths of the conjugate shape: the column lengths of these rows."""
    cols = []
    r = len(lengths)
    for c in range(lengths[0] if lengths else 0):
        while lengths[r - 1] <= c:
            r -= 1
        cols.append(r)
    return tuple(cols)


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts  # immutable and validated when it was built
        parts = tuple(parts)
        try:
            tup = [index(p) for p in parts]
        except TypeError:
            raise ValueError(f"parts must be integers: {parts!r}") from None
        while tup and tup[-1] == 0:
            tup.pop()
        for a, b in zip(tup, tup[1:]):
            if a < b:
                raise ValueError(f"parts must weakly decrease: {parts!r}")
        if tup and tup[-1] < 0:
            raise ValueError(f"parts must be positive: {parts!r}")
        return super().__new__(cls, tup)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"

    # the builtin sum as the getter: a read runs no Python frame
    size = property(sum, doc="Sum of the parts: the number of cells of the Young diagram.")

    def part(self, i: int) -> int:
        """1-indexed part; 0 past the end."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    @memo
    def transpose(self) -> "Partition":
        """Column lengths of the Young diagram, built once per partition."""
        # a conjugate partition is valid by construction: no constructor checks
        return tuple.__new__(Partition, _conjugate(self))

    def frobenius(self) -> "FrobeniusCoords":
        """Arm/leg lengths of the diagonal boxes.

        The i-th diagonal box (1-indexed) has arm ``self[i] - i`` and leg
        ``transpose[i] - i``; the empty partition has no diagonal boxes.
        """
        t = self.transpose()
        arms, legs = [], []
        i = 0
        while i < len(self) and self[i] >= i + 1:
            arms.append(self[i] - i - 1)
            legs.append(t[i] - i - 1)
            i += 1
        return FrobeniusCoords(tuple(arms), tuple(legs))

    def hook_lengths(self) -> list[list[int]]:
        t = self.transpose()
        return [
            [self[i] - j + t[j] - i - 1 for j in range(self[i])]
            for i in range(len(self))
        ]


def as_partition(p) -> Partition:
    """p itself when its type is Partition, else Partition(p).

    A Partition was validated when it was built, so the hot entry points
    take this path instead of calling the constructor on every argument.
    """
    return p if type(p) is Partition else Partition(p)


class FrobeniusCoords(NamedTuple):
    """Strictly decreasing arm and leg sequences of equal length."""

    arms: tuple[int, ...]
    legs: tuple[int, ...]

    @property
    def diagonal(self) -> int:
        return len(self.arms)


def from_frobenius(coords: FrobeniusCoords) -> Partition:
    """Rebuild the partition with the given diagonal arm/leg lengths."""
    arms, legs = coords.arms, coords.legs
    d = len(arms)
    if d != len(legs):
        raise ValueError("arm and leg sequences must have equal length")
    for seq in (arms, legs):
        if any(x < 0 for x in seq) or any(x <= y for x, y in zip(seq, seq[1:])):
            raise ValueError(f"{seq} is not a strictly decreasing sequence of nonnegative integers")
    # only the first d columns reach below the Durfee square
    rows = [arms[i] + i + 1 for i in range(d)]
    rows += _conjugate([legs[j] + j + 1 for j in range(d)])[d:]
    return Partition(rows)


def contains(inner, outer) -> bool:
    """True iff inner_i <= outer_i for all i (missing parts read as 0)."""
    inner, outer = as_partition(inner), as_partition(outer)
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def is_horizontal_strip(inner, outer) -> bool:
    """True iff outer/inner has at most one cell per column.

    Requires ``contains(inner, outer)``; equivalently outer_{i+1} <= inner_i
    for every row i.
    """
    inner, outer = Partition(inner), Partition(outer)
    if not contains(inner, outer):
        raise ValueError(f"{inner!r} is not contained in {outer!r}")
    return all(outer[i + 1] <= inner.part(i + 1) for i in range(len(outer) - 1))


def tail(eta) -> Partition:
    """Parts of eta from the third on; empty when fewer than three parts."""
    eta = Partition(eta)
    return Partition(eta[2:])


def tail_twos(eta) -> int:
    """Number of 2's among the parts of tail(eta)."""
    return Partition(eta)[2:].count(2)


def tail_ones(eta) -> int:
    """Number of 1's among the parts of tail(eta)."""
    return Partition(eta)[2:].count(1)


def is_double_hook(eta, n: int) -> bool:
    """True iff eta is a partition of n with at most two rows or third part <= 2."""
    eta = as_partition(eta)
    return eta.size == n and (len(eta) <= 2 or eta[2] <= 2)


def as_hook(p) -> Optional[tuple[int, int]]:
    """Decompose p as (arm, legs) with p == (arm, 1^legs), else None."""
    p = Partition(p)
    if not p:
        return None
    if any(x != 1 for x in p[1:]):
        return None
    return p[0], len(p) - 1


def as_two_row(p) -> Optional[tuple[int, int]]:
    """Decompose p as (d, e) with at most two rows, else None."""
    p = Partition(p)
    if len(p) > 2:
        return None
    return p.part(1), p.part(2)


def as_near_hook(p) -> Optional[tuple[int, int, int]]:
    """Decompose p as (a, b, c) with p == (a, b, 1^c), a >= b >= 2, else None."""
    p = Partition(p)
    if len(p) < 2 or p[1] < 2:
        return None
    if any(x != 1 for x in p[2:]):
        return None
    return p[0], p[1], len(p) - 2


def hook_partition(arm: int, legs: int) -> Partition:
    """The hook (arm, 1^legs)."""
    if arm < 1 or legs < 0:
        raise ValueError(f"invalid hook parameters ({arm}, {legs})")
    # valid by construction, so it skips the constructor's checks; index()
    # and the repeat count still reject a part that is not an integer
    return tuple.__new__(Partition, (index(arm),) + (1,) * legs)


@memo
def two_rows(m: int) -> tuple[Partition, ...]:
    """The partitions (m - k, k) of m with at most two rows, in order of k."""
    return tuple(Partition((m - k, k)) for k in range(m // 2 + 1))


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield the partitions of n in reverse-lexicographic order.

    Knuth's Algorithm P (TAOCP 4A, 7.2.1.4), on a list that holds exactly
    the parts: q is the index of the last part above 1 (-1 when there is
    none), so the trailing 1s are never scanned.  A 2 at q becomes 1 + 1
    in place; a larger part is lowered by one, and the cells it and the 1s
    after it held are refilled with parts as large as that allows.  The
    parts stay positive and weakly decreasing, so each one is wrapped
    without the constructor's validation.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    new = tuple.__new__
    parts = [n] if n else []
    q = len(parts) - 1 - (n == 1)
    while True:
        yield new(Partition, parts)
        if q < 0:
            return
        x = parts[q]
        if x == 2:
            parts[q] = 1
            parts.append(1)
            q -= 1
            continue
        x -= 1
        left = len(parts) - q  # the cells after q, once q holds x
        del parts[q + 1 :]
        parts[q] = x
        while left > x:
            parts.append(x)
            left -= x
        parts.append(left)
        q = len(parts) - 1 - (left == 1)


def partitions_inside(outer, size: int) -> Iterator[Partition]:
    """Yield the partitions of size contained in outer, in partitions_list order.

    The rows are filled from the top, each as large as the row above it,
    outer and what is left allow.  Each next partition lowers by one the
    last part above 1 whose lowered value still leaves room below it, in
    the rows of outer each capped by that value, for the cells it and the
    parts after it held, and refills those rows the same way.  The parts
    stay positive and weakly decreasing, so each one is wrapped without the
    constructor's validation.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    outer = as_partition(outer)
    if size > outer.size:
        return
    parts: list[int] = []
    left = cap = size
    while True:
        row = len(parts)
        while left:
            cap = min(cap, outer[row], left)
            parts.append(cap)
            left -= cap
            row += 1
        yield tuple.__new__(Partition, parts)
        while parts:
            part = parts.pop()
            left += part
            if part > 1:
                cap = part - 1
                if left - cap <= sum(min(x, cap) for x in outer[len(parts) + 1 :]):
                    parts.append(cap)
                    left -= cap
                    break
        else:
            return


@memo
def partitions_list(n: int) -> tuple[Partition, ...]:
    """Cached tuple of partitions_of(n)."""
    return tuple(partitions_of(n))


@memo
def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence (independent of the enumerator)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def parse_partition(text: str) -> Partition:
    """Parse "6,2,1^6" style text; "" and "()" denote the empty partition."""
    s = text.strip()
    if s in ("", "()"):
        return Partition()
    parts: list[int] = []
    for token in s.split(","):
        token = token.strip()
        if "^" in token:
            base, _, exp = token.partition("^")
            count = int(exp)
            if count < 0:
                raise ValueError(f"negative exponent in {token!r}")
            parts.extend([int(base)] * count)
        else:
            parts.append(int(token))
    return Partition(parts)


def format_partition(p) -> str:
    """Comma-separated parts; "()" for the empty partition."""
    p = Partition(p)
    return ",".join(str(x) for x in p) if p else "()"
