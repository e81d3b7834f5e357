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

The enumeration builds these colored Yamanouchi tableaux directly rather
than inserting words (Blasiak, arXiv:1209.2018).  The keys 1', 1, 2', 2,
... are placed in order, a barred key as a vertical strip and an unbarred
key as a horizontal strip; a vertical strip is placed as a horizontal strip
of the conjugate shape, so one routine lists both.  The barred content cb
is chosen key by key: cb_v is fixed when the keys of value v are placed,
so that the unbarred content cu = lam - cb stays a partition and the later
values can still take exactly the bars left.  Two reading rules hold:

- the unbarred letters, read bottom row first and left to right, form a
  word whose every suffix has partition content;
- the barred letters, read column by column from right to left and top to
  bottom within a column, form a word whose every suffix has content
  plus cu a partition.

Counting needs no tableau.  What can still follow a partly built tableau
depends only on a small state (the value being placed, the row lengths,
the bars left, and the counts the reading rules compare), so the counts
come from a memoized graph of these states; with the bars left out of the
state, one graph counts every total color at once.  Enumeration walks the
same graph, enters only states with a nonzero count, and records the shape
after each key; the rows of a finished tableau are read off that chain of
shapes.

The tests keep a search over mixed-insertion states of the admissible
words as the reference this construction must match.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, zip_longest
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


@lru_cache(maxsize=None)
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


def _misordered(line: Iterable[ColoredLetter], strict_barred: bool) -> str:
    """Which letters are out of order in a row (strict_barred) or column:
    "unbarred" (reported first), "barred", or "" when none are."""
    last, bad = [0, 0], ""  # last unbarred and last barred value
    for value, barred in line:
        if value < last[barred] or (value == last[barred] and barred == strict_barred):
            if not barred:
                return "unbarred"
            bad = "barred"
        last[barred] = value
    return bad


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
            bad = _misordered(row, strict_barred=True)
            if bad == "unbarred":
                raise ValueError("unbarred letters must weakly increase in rows")
            if bad:
                raise ValueError("barred letters must strictly increase in rows")
        for col in zip_longest(*rows):  # lengths decrease, so padding ends a column
            bad = _misordered(filter(None, col), strict_barred=False)
            if bad == "unbarred":
                raise ValueError("unbarred letters must strictly increase in columns")
            if bad:
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
        return _weakly_increasing([[x.key for x in row] for row in self.rows])

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


def _weakly_increasing(rows: Sequence[Sequence[int]]) -> bool:
    """Integer rows weakly increase along every row and down every column."""
    if any(a > b for row in rows for a, b in zip(row, row[1:])):
        return False
    # rows are left-justified, so zip pairs each cell with the one below
    return not any(
        a > b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower)
    )


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


def _search(lam: Partition, d: int, target: Optional[Partition]):
    """Colored Yamanouchi tableaux of content lam with d bars, keyed by shape.

    A walk over the counted states of a _HookGraph that records the chain
    of shapes, one after each key, and decodes each finished chain once.
    It enters only states with a nonzero count, that is, states from which
    a tableau with exactly the bars left (and the target shape, if given)
    can still be finished, so no branch it explores is dead.  With a target
    shape no row may outgrow it, so every finished tableau has that shape.
    Each shape maps to a set of encoded row tuples (2v - 1 for v', 2v for v).
    """
    graph = _HookGraph(lam, d, target, walk=True)
    m = len(lam)
    found: dict[tuple[int, ...], set] = {}

    def walk(state: tuple, chain: tuple) -> None:
        if state[0] == m:
            found.setdefault(state[1], set()).add(_rows_of_chain(chain))
            return
        for barred, child in graph.live[state]:
            walk(child, chain + (barred, child[1]))

    if graph.counts(graph.root):
        walk(graph.root, ())
    return found


def _rows_of_chain(chain: Sequence[Sequence[int]]) -> tuple:
    """Encoded rows of the tableau whose k-th shape in chain adds the key k.

    The cells new in a shape are the last ones of their rows, so each row
    holds every key in turn, as many as the row grew by with it.
    """
    rows = []
    for lengths in zip_longest(*chain, fillvalue=0):  # one row's lengths
        row, prev = [], 0
        for k, length in enumerate(lengths, 1):
            if length != prev:
                row += [k] * (length - prev)
                prev = length
        rows.append(tuple(row))
    return tuple(rows)


class _HookGraph:
    """The states of the hook-rule search for one content lam, with their counts.

    The keys 1', 1, 2', 2, ... are placed in order, each filling a strip of
    the shape built so far: a vertical strip for a barred key (a horizontal
    strip of the conjugate shape), a horizontal strip for an unbarred one.
    At value v the number of barred v, cb_v, is chosen as the keys are
    placed, from min(lam_v, bars left) down to 0.  A count is skipped when
    the unbarred count cu_v = lam_v - cb_v exceeds cu_{v-1}, or when the
    later values cannot take exactly the bars still left (each later w
    takes at most lam_w bars and at least lam_w - cu_v).
    Two reading rules hold strip by strip, for every value u >= 2:

    - unbarred: for every row r, the unbarred u in rows 1..r number at most
      the unbarred u - 1 in rows 1..r-1 (the unbarred letters, read bottom
      row first and left to right, form a suffix-Yamanouchi word);
    - barred: for every column c, the barred u in columns 1..c plus cu_u is
      at most the barred u - 1 in columns 1..c-1 plus cu_{u-1} (read column
      by column from right to left, top to bottom, every suffix of the
      barred letters has content plus cu a partition).

    A tableau is finished when all values are placed and its southwest
    corner is unbarred.  What can still follow a state depends only on

        (v, lengths, left, cu_prev, bar_below, unb_above, bottom_barred):

    the next value v (from 0), the row lengths, the bars still to place,
    cu_{v-1}, the barred v - 1 in columns < c (bar_below[c]), the unbarred
    v - 1 in rows < r (unb_above[r]), and whether the bottom row starts
    barred.  bar_below and unb_above are the prefix sums _strips returns
    for the last v' and v strips, and None at v = 0.  With d None, left is
    None and any number of bars may be placed, so one graph counts every d.
    counts(state) maps (bars placed from state on, final shape) to the
    number of finished tableaux; it is memoized on the state, so tableaux
    that share a state are counted once, and none is built.  With walk set,
    live[state] keeps (barred, next state) for each move into a state with
    a nonzero count: the row lengths after the v' strip and after the v
    strip are all an enumeration needs to walk and to fill the rows; a
    count alone keeps no moves.  With a target shape no row may outgrow it.
    """

    def __init__(
        self, lam: Partition, d: Optional[int], target: Optional[Partition], walk: bool = False
    ):
        self.lam = lam
        self.tgt = tuple(target) if target is not None else None
        self.tgt_cols = _conjugate(self.tgt) if target is not None else None
        self.root = (0, (), d, lam[0] if lam else 0, None, None, False)
        self.memo: dict[tuple, dict] = {}
        self.live: Optional[dict[tuple, list]] = {} if walk else None

    def moves(self, state: tuple):
        """Yield (cb, barred, next state) for each way to place v', v.

        The cb barred v fill a horizontal strip of the conjugate shape,
        conjugated back to the row lengths barred; the unbarred v then fill
        a horizontal strip, which gives the row lengths of the next state.
        The bottom row starts barred once the v' strip opens a row, and
        starts unbarred again when the v strip opens one.
        """
        v, lengths, left, cu_prev, bar_below, unb_above, bottom_barred = state
        lam = self.lam
        part, later = lam[v], lam[v + 1 :]
        lo, hi = max(0, part - cu_prev), part
        if left is not None:
            lo, hi = max(lo, left - sum(later)), min(hi, left)
        cols = _conjugate(lengths)
        for cb in range(hi, lo - 1, -1):
            cu = part - cb
            rest = None
            if left is not None:
                rest = left - cb
                if rest < sum(w - cu for w in later if w > cu):
                    continue
            bound = [c + cu_prev - cu for c in bar_below] if v else None
            for grown, below in _strips(cols, cb, self.tgt_cols, bound):
                barred = _conjugate(grown)
                starts_barred = bottom_barred or len(barred) > len(lengths)
                for full, above in _strips(barred, cu, self.tgt, unb_above):
                    ends_barred = starts_barred and len(full) == len(barred)
                    yield cb, barred, (
                        v + 1, full, rest, cu, below, above, ends_barred
                    )

    def counts(self, state: tuple) -> dict:
        """{(bars placed from state on, final shape): finished tableaux}."""
        got = self.memo.get(state)
        if got is not None:
            return got
        got = {}
        if state[0] == len(self.lam):
            if state[1] and not state[6]:
                got[0, state[1]] = 1
        else:
            live = None
            if self.live is not None:
                live = self.live[state] = []
            for cb, barred, child in self.moves(state):
                below = self.counts(child)
                if below and live is not None:
                    live.append((barred, child))
                for (bars, shape), c in below.items():
                    key = (bars + cb, shape)
                    got[key] = got.get(key, 0) + c
        self.memo[state] = got
        return got


def _conjugate(lengths: Sequence[int]) -> tuple:
    """Line lengths of the conjugate shape: the column lengths of these rows."""
    cols = []
    r = len(lengths)
    for c in range(lengths[0] if lengths else 0):
        while lengths[r - 1] <= c:
            r -= 1
        cols.append(r)
    return tuple(cols)


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
    picks = [0] * len(caps)
    out = []

    def rec(start: int, placed: int) -> None:
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
                rec(j + 1, placed + t)
            picks[j] = 0

    rec(0, 0)
    return out


def _check_hook_args(lam: Partition, d: int, nu: Optional[Partition] = None) -> None:
    if lam.size == 0:
        raise ValueError("content must be nonempty: the hook (n-d, 1^d) needs n >= 1")
    if not 0 <= d < lam.size:
        raise ValueError(f"total color {d} out of range for content {lam!r}")
    if nu is not None and nu.size != lam.size:
        raise ValueError(f"shape size {nu.size} differs from content size {lam.size}")


def _finalize(lam: Partition, d: int, encoded: Iterable[tuple]) -> tuple[ColoredTableau, ...]:
    """Validate, decode, and canonically order enumerated tableaux.

    The checks read the encoded rows, before any letter is decoded: global
    weak monotonicity, the content and bar count, and the southwest corner.
    """
    values = tuple(v for v, part in enumerate(lam, 1) for _ in range(part))
    out = []
    # shape, then the keys of the reading word (rows right to left, top first)
    for rows in sorted(
        encoded,
        key=lambda rows: (tuple(map(len, rows)), tuple(k for r in rows for k in r[::-1])),
    ):
        if not _weakly_increasing(rows):
            raise AssertionError(f"enumerated tableau not globally monotone: {rows}")
        keys = sorted(k for row in rows for k in row)
        if tuple((k + 1) >> 1 for k in keys) != values or sum(k & 1 for k in keys) != d:
            raise AssertionError(f"enumerated tableau has wrong content: {rows}")
        if rows[-1][0] & 1:
            raise AssertionError(f"enumerated tableau has barred corner: {rows}")
        out.append(_tableau_from_encoded(rows))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_blasiak(lam, d: int, nu) -> tuple[ColoredTableau, ...]:
    """The tableaux counted by g(lam, (n-d, 1^d), nu), canonically ordered."""
    lam, nu = Partition(lam), Partition(nu)
    _check_hook_args(lam, d, nu)
    found = _search(lam, d, nu)
    return _finalize(lam, d, found.get(tuple(nu), ()))


def count_blasiak(lam, d: int, nu) -> int:
    """g(lam, (n-d, 1^d), nu) as a tableau count, no tableau built."""
    lam, nu = Partition(lam), Partition(nu)
    _check_hook_args(lam, d, nu)
    graph = _HookGraph(lam, d, nu)
    return graph.counts(graph.root).get((d, nu), 0)


def blasiak_counts(lam) -> dict:
    """Map (d, shape) -> g(lam, (n-d, 1^d), shape) for every d, from one count.

    Pairs with no tableau are left out; no tableau is built.
    """
    lam = Partition(lam)
    _check_hook_args(lam, 0)
    graph = _HookGraph(lam, None, None)
    return {
        (d, Partition(shape)): count
        for (d, shape), count in sorted(graph.counts(graph.root).items())
    }


def blasiak_by_shape(lam, d: int) -> dict:
    """Map shape -> canonically ordered tableaux, one search for all shapes."""
    lam = Partition(lam)
    _check_hook_args(lam, d)
    found = _search(lam, d, None)
    return {
        Partition(shape): _finalize(lam, d, rows) for shape, rows in sorted(found.items())
    }
