"""Colored words, mixed insertion, and the hook Kronecker tableau rule.

The alphabet is 1' < 1 < 2' < 2 < ... where a trailing apostrophe marks a
barred letter.  Internally a letter (v, barred) is encoded as the integer
2v-1 (barred) or 2v (unbarred) so the total order is plain integer order.

Mixed insertion is one bump loop over a cell (i, j), starting at row 1,
column 1.  An unbarred letter scans row i from the left and a barred
letter scans column j from the top; the first entry strictly greater than
the letter is bumped and the letter takes its cell.  A bumped unbarred
letter goes on in the row below (i + 1); a bumped barred letter goes on in
the column to the right (j + 1).  When no entry is greater, the letter ends
that row or column.  The strict comparators in both directions are forced
by the worked single-letter insertions and the full insertion trace for an
eight-letter word, which are pinned as test vectors; row scans pass over
equal unbarred letters (rows weakly increase in them) and column scans
pass over equal barred letters (columns weakly increase in them).

A colored word w lies behind the hook rule when w^blft - barred letters
moved to the front, bars erased - is Yamanouchi in the suffix sense: the
content of every suffix is a partition.  The number of distinct mixed
insertion tableaux of such words with content lam, exactly d bars, shape
nu, and an unbarred southwest corner equals g(lam, (n-d, 1^d), nu).

The enumeration searches insertion states rather than words.  Insertion is
deterministic and admissibility of the next letter depends only on the
counts of barred and unbarred letters still to be placed, which the
tableau built so far determines; so words that reach the same tableau have
the same completions, and each tableau state is expanded once.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence

from .partition import Partition
from .tableau import is_yamanouchi


class _Letter(NamedTuple):
    value: int
    barred: bool = False


class ColoredLetter(_Letter):
    __slots__ = ()

    def __new__(cls, value: int, barred: bool = False):
        if value < 1:
            raise ValueError("letter values start at 1")
        return super().__new__(cls, value, barred)

    @property
    def key(self) -> int:
        return 2 * self.value - 1 if self.barred else 2 * self.value

    def __lt__(self, other: "ColoredLetter") -> bool:
        return self.key < other.key

    def __le__(self, other: "ColoredLetter") -> bool:
        return self.key <= other.key

    def __gt__(self, other: "ColoredLetter") -> bool:
        return self.key > other.key

    def __ge__(self, other: "ColoredLetter") -> bool:
        return self.key >= other.key

    def __str__(self) -> str:
        return f"{self.value}'" if self.barred else str(self.value)


def _dec(k: int) -> ColoredLetter:
    return ColoredLetter((k + 1) // 2, bool(k & 1))


def parse_colored_word(text: str) -> tuple[ColoredLetter, ...]:
    """Parse space-separated letters; "2' 1 4'" means barred 2, 1, barred 4."""
    letters = []
    for token in text.split():
        barred = token.endswith("'")
        value = int(token[:-1] if barred else token)
        letters.append(ColoredLetter(value, barred))
    return tuple(letters)


def format_colored_word(word: Iterable[ColoredLetter]) -> str:
    return " ".join(str(x) for x in word)


def content(word: Iterable[ColoredLetter]) -> tuple[int, ...]:
    """Counts of each value, barred and unbarred occurrences together."""
    counts: dict[int, int] = {}
    for letter in word:
        counts[letter.value] = counts.get(letter.value, 0) + 1
    m = max(counts) if counts else 0
    return tuple(counts.get(i, 0) for i in range(1, m + 1))


def total_color(word: Iterable[ColoredLetter]) -> int:
    """Number of barred letters."""
    return sum(1 for letter in word if letter.barred)


def blft(word: Iterable[ColoredLetter]) -> tuple[int, ...]:
    """Barred letters moved to the front (order kept), bars erased."""
    barred = [x.value for x in word if x.barred]
    unbarred = [x.value for x in word if not x.barred]
    return tuple(barred + unbarred)


def is_suffix_yamanouchi(values: Sequence[int]) -> bool:
    """Every suffix of the plain word has weakly decreasing content."""
    return is_yamanouchi(reversed(values))


def is_colored_yamanouchi(word: Iterable[ColoredLetter]) -> bool:
    """The content of every suffix (bars ignored) is a partition."""
    return is_suffix_yamanouchi([x.value for x in word])


class _Tableau(NamedTuple):
    rows: tuple[tuple[ColoredLetter, ...], ...]


class ColoredTableau(_Tableau):
    """Partition-shaped tableau over the colored alphabet.

    Construction enforces the four colored-tableau conditions: unbarred
    letters weakly increase along rows and strictly increase down columns;
    barred letters strictly increase along rows and weakly increase down
    columns.  Global weak monotonicity is a separate, stronger property
    reported by is_globally_weakly_increasing().
    """

    __slots__ = ()

    def __new__(cls, rows: Iterable[Iterable[ColoredLetter]]):
        rows = tuple(tuple(r) for r in rows)
        lengths = [len(r) for r in rows]
        if any(l == 0 for l in lengths) or any(
            a < b for a, b in zip(lengths, lengths[1:])
        ):
            raise ValueError("rows must be nonempty with weakly decreasing lengths")
        for row in rows:
            unb = [x.value for x in row if not x.barred]
            if any(a > b for a, b in zip(unb, unb[1:])):
                raise ValueError("unbarred letters must weakly increase in rows")
            bar = [x.value for x in row if x.barred]
            if any(a >= b for a, b in zip(bar, bar[1:])):
                raise ValueError("barred letters must strictly increase in rows")
        ncols = lengths[0] if lengths else 0
        for c in range(ncols):
            col = [row[c] for row in rows if c < len(row)]
            unb = [x.value for x in col if not x.barred]
            if any(a >= b for a, b in zip(unb, unb[1:])):
                raise ValueError("unbarred letters must strictly increase in columns")
            bar = [x.value for x in col if x.barred]
            if any(a > b for a, b in zip(bar, bar[1:])):
                raise ValueError("barred letters must weakly increase in columns")
        return super().__new__(cls, rows)

    @property
    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)

    def cells(self) -> tuple[ColoredLetter, ...]:
        return tuple(x for row in self.rows for x in row)

    def southwest(self) -> ColoredLetter:
        """Lowest cell of the leftmost column."""
        if not self.rows:
            raise ValueError("empty tableau has no southwest entry")
        return self.rows[-1][0]

    def reading_word(self) -> tuple[ColoredLetter, ...]:
        """Rows read right to left, top row first."""
        out: list[ColoredLetter] = []
        for row in self.rows:
            out.extend(reversed(row))
        return tuple(out)

    def is_globally_weakly_increasing(self) -> bool:
        for row in self.rows:
            keys = [x.key for x in row]
            if any(a > b for a, b in zip(keys, keys[1:])):
                return False
        ncols = len(self.rows[0]) if self.rows else 0
        for c in range(ncols):
            keys = [row[c].key for row in self.rows if c < len(row)]
            if any(a > b for a, b in zip(keys, keys[1:])):
                return False
        return True

    def to_ascii(self) -> str:
        return "\n".join(
            " ".join(f"{str(x):<2}" for x in row).rstrip() for row in self.rows
        )

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "cells": [[x.value, x.barred] for row in self.rows for x in row],
        }

    @classmethod
    def from_text(cls, text: str) -> "ColoredTableau":
        """Rows separated by "|", letters by spaces: "1' 1 1 | 2"."""
        rows = [parse_colored_word(chunk) for chunk in text.split("|")]
        return cls(tuple(rows))


def _tableau_from_encoded(rows: Sequence[Sequence[int]]) -> ColoredTableau:
    return ColoredTableau(tuple(tuple(_dec(k) for k in row) for row in rows))


# ---------------------------------------------------------------------------
# insertion


def schensted_insert(
    rows: Sequence[Sequence[int]], x: int
) -> tuple[tuple[int, ...], ...]:
    """Ordinary row insertion into a straight-shape SSYT of plain integers.

    This is mixed insertion restricted to unbarred letters: value v is
    encoded as 2v, so no barred letter arises and no column insertion runs.
    """
    doubled = tuple(tuple(2 * y for y in row) for row in rows)
    return tuple(tuple(k // 2 for k in row) for row in _inserted(doubled, 2 * x))


def _inserted(
    state: tuple[tuple[int, ...], ...], k: int
) -> tuple[tuple[int, ...], ...]:
    """The frozen tableau state with encoded letter k mixed-inserted.

    One bump loop: an unbarred k scans row i from the left and a barred k
    scans column j from the top.  The first entry greater than k is swapped
    out at (i, j); a bumped barred letter goes on in column j + 1, a bumped
    unbarred one in row i + 1.  With nothing greater, k lands at (i, j).
    Only the rows that change are rebuilt; the others are shared with state.
    """
    rows = list(state)
    i = j = 0
    while True:
        if k & 1:
            i = 0
            while i < len(rows) and j < len(rows[i]) and rows[i][j] <= k:
                i += 1
        else:
            j = 0
            while i < len(rows) and j < len(rows[i]) and rows[i][j] <= k:
                j += 1
        if i == len(rows):
            if j != 0:
                raise RuntimeError("insertion produced a ragged shape")
            rows.append((k,))
            return tuple(rows)
        row = rows[i]
        if j >= len(row):
            if j != len(row):
                raise RuntimeError("insertion produced a ragged shape")
            rows[i] = row + (k,)
            return tuple(rows)
        rows[i] = row[:j] + (k,) + row[j + 1 :]
        k = row[j]
        if k & 1:
            j += 1
        else:
            i += 1


def mixed_insert(tab: ColoredTableau, letter: ColoredLetter) -> ColoredTableau:
    """Mixed-insert one letter into a colored tableau."""
    rows = tuple(tuple(x.key for x in row) for row in tab.rows)
    return _tableau_from_encoded(_inserted(rows, letter.key))


def mixed_insertion_tableau(word: Iterable[ColoredLetter]) -> ColoredTableau:
    """Left-to-right mixed insertion of the word, starting from empty."""
    return _tableau_from_encoded(reduce(_inserted, (x.key for x in word), ()))


def mixed_insertion_trace(word: Sequence[ColoredLetter]) -> list[ColoredTableau]:
    """The successive insertion tableaux P_1, ..., P_n."""
    states = accumulate((x.key for x in word), _inserted, initial=())
    return [_tableau_from_encoded(state) for state in states][1:]


# ---------------------------------------------------------------------------
# tableau enumeration behind the hook rule


def _barred_content_vectors(lam: Partition, d: int):
    """All ways to choose how many letters of each value carry a bar."""
    m = len(lam)

    def rec(i: int, left: int):
        if i == m:
            if left == 0:
                yield ()
            return
        hi = min(lam[i], left)
        lo = max(0, left - sum(lam[i + 1 :]))
        for take in range(hi, lo - 1, -1):
            for rest in rec(i + 1, left - take):
                yield (take,) + rest

    yield from rec(0, d)


def _search(lam: Partition, d: int, target: Optional[Partition]):
    """Distinct insertion tableaux of admissible words, keyed by shape.

    Words are generated by interleaving a barred subsequence B and an
    unbarred subsequence U.  Fixing the bar content vector, the suffix
    condition on w^blft becomes two prefix-checkable conditions: after each
    barred letter the remaining barred content plus the whole unbarred
    content must be a partition, and after each unbarred letter the
    remaining unbarred content must be a partition.  Every intermediate
    insertion shape is contained in the final one, so a target shape prunes
    the search tree early.

    The search runs over insertion states, not words.  Mixed insertion is
    deterministic, and the admissibility test reads only the remaining
    barred and unbarred counts rb, ru (the unbarred content cu is fixed by
    the bar content vector).  The tableau holds exactly the letters
    inserted so far, so for a fixed bar content vector it determines rb and
    ru.  Two prefixes that reach the same tableau therefore have the same
    completions, and each tableau state is expanded once.
    """
    n = lam.size
    m = len(lam)
    found: dict[tuple[int, ...], set] = {}
    tgt = tuple(target) if target is not None else None

    for cb in _barred_content_vectors(lam, d):
        cu = tuple(a - b for a, b in zip(lam, cb))
        if any(cu[i] < cu[i + 1] for i in range(m - 1)):
            continue
        rb = list(cb)
        ru = list(cu)
        seen: set = set()

        def dfs(state: tuple, remaining: int):
            if state in seen:
                return
            seen.add(state)
            if remaining == 0:
                if state and not state[-1][0] & 1:
                    shape = tuple(len(r) for r in state)
                    if tgt is None or shape == tgt:
                        found.setdefault(shape, set()).add(state)
                return
            for v in range(m):
                if rb[v]:
                    below = (rb[v + 1] + cu[v + 1]) if v + 1 < m else 0
                    if rb[v] - 1 + cu[v] >= below:
                        rb[v] -= 1
                        nxt = _inserted(state, 2 * v + 1)
                        if tgt is None or _fits(nxt, tgt):
                            dfs(nxt, remaining - 1)
                        rb[v] += 1
                if ru[v]:
                    below = ru[v + 1] if v + 1 < m else 0
                    if ru[v] - 1 >= below:
                        ru[v] -= 1
                        nxt = _inserted(state, 2 * v + 2)
                        if tgt is None or _fits(nxt, tgt):
                            dfs(nxt, remaining - 1)
                        ru[v] += 1

        dfs((), n)
    return found


def _fits(rows: Sequence[Sequence[int]], tgt: tuple[int, ...]) -> bool:
    if len(rows) > len(tgt):
        return False
    return all(len(rows[i]) <= tgt[i] for i in range(len(rows)))


def _check_hook_args(lam: Partition, d: int) -> None:
    if not 0 <= d < max(lam.size, 1):
        raise ValueError(f"total color {d} out of range for content {lam!r}")


def _finalize(lam: Partition, d: int, encoded: Iterable[tuple]) -> tuple[ColoredTableau, ...]:
    """Decode, validate, and canonically order enumerated tableaux."""
    out = []
    for rows in encoded:
        tab = _tableau_from_encoded(rows)
        if not tab.is_globally_weakly_increasing():
            raise AssertionError(f"enumerated tableau not globally monotone: {rows}")
        if content(tab.cells()) != tuple(lam) or total_color(tab.cells()) != d:
            raise AssertionError(f"enumerated tableau has wrong content: {rows}")
        if tab.southwest().barred:
            raise AssertionError(f"enumerated tableau has barred corner: {rows}")
        out.append(tab)
    out.sort(key=lambda t: (tuple(t.shape), tuple(x.key for x in t.reading_word())))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_blasiak(lam, d: int, nu) -> tuple[ColoredTableau, ...]:
    """The tableaux counted by g(lam, (n-d, 1^d), nu), canonically ordered."""
    lam, nu = Partition(lam), Partition(nu)
    _check_hook_args(lam, d)
    if nu.size != lam.size:
        raise ValueError(f"shape size {nu.size} differs from content size {lam.size}")
    found = _search(lam, d, nu)
    return _finalize(lam, d, found.get(tuple(nu), ()))


def count_blasiak(lam, d: int, nu) -> int:
    """g(lam, (n-d, 1^d), nu) as a tableau count."""
    return len(enumerate_blasiak(Partition(lam), d, Partition(nu)))


def blasiak_by_shape(lam, d: int) -> dict:
    """Map shape -> canonically ordered tableaux, one search for all shapes."""
    lam = Partition(lam)
    _check_hook_args(lam, d)
    found = _search(lam, d, None)
    return {
        Partition(shape): _finalize(lam, d, rows) for shape, rows in sorted(found.items())
    }
