"""Schur-basis symmetric function engine.

Everything is exact: vectors carry integer coefficients, symmetric
group characters come from memoized border-strip recursion, and the
Kronecker coefficient is the class-sum character formula

    g(lam, mu, nu) = sum over cycle types rho of
                     |class(rho)| * chi^lam(rho) chi^mu(rho) chi^nu(rho) / n!

evaluated in integer arithmetic (the class-sum form is mathematically
identical to averaging over all n! permutations but exponentially cheaper).
The sum runs over one cached table of per-partition rows in
partitions_list order, built once per partition: ``_rows(lam)`` holds the
character row chi^lam on every cycle type of n together with the weighted
row |class(rho)| * chi^lam(rho).  A coefficient multiplies the first
argument's weighted row term by term with the other two arguments'
character rows.
``character`` validates its arguments; the recursion below it runs on
James' abacus.  A shape is one int, its bead set, whose set bits are the
beta numbers lam_i + (L - 1 - i) of its L rows.  Removing a border strip
of size k moves a bead from b to an empty b - k, and its sign is the
parity of the beads strictly between, counted with ``int.bit_count``.
Beads left at 0, 1, ... are empty last rows and are shifted out, so each
shape has one key.  The largest part of the cycle type is removed first,
and each suffix of a cycle type is one node (``_Suffix``): its first part
k, the bit masks of a strip of size k, the node of the rest, and a dict
from bead set to chi on that suffix.  A child value is read from the rest
node's dict by its bead set, one int, and the recursion runs only on a
miss, so there is one memo state per (shape, suffix).  One cached table
per n, ``_cycle_types(n)``, holds each cycle type's node and class size
n!/z_rho in partitions_list order, and ``_rows`` reads it.
``kronecker_product`` walks a cached table per ordered pair (lam, mu): the
(nu, g) pairs with g(lam, mu, nu) != 0 in partitions_list order, each g
read from ``kronecker_coefficient`` with the arguments in that order, so
no zero term is generated and every triple still passes its checks.
The h-basis appears only as formal monomial lists inside the Jacobi-Trudi
expansion; the public algebra is Schur-basis only.  Giambelli's hook
determinant and the Jacobi-Trudi determinant both go through one Leibniz
expansion (``_leibniz``).  It builds the matrix once and ends a branch
when the lowest unused column has no nonvanishing entry in the rows still
to fill, so a banded matrix such as the Jacobi-Trudi one of (1^n), with
2^(n-1) terms among n! permutations, costs time in its terms rather than
in n!.  The expansion recurses through a module-level generator
(``_expand``) that takes the matrix as an argument, so it leaves no
reference cycle, and yields each term as the walk reaches it.  Every linear
combination is summed in one place, the ``SchurVector`` constructor, and a
vector is read-only once built, so the memoized vectors of
``h_monomial_to_schur`` are safe to share.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import cache, reduce
from itertools import chain
from math import factorial
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from .partition import Partition, as_partition, hook_partition, partitions_list
from .tableau import lr_weight_support, schur_expand_product


class SchurVector:
    """Finite formal linear combination of Schur functions, integer coefficients.

    A vector is read-only: ``terms`` is a read-only view of its nonzero
    coefficients and cannot be rebound, so a memoized vector cannot be
    changed under the callers that share it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """Sum the (partition, coefficient) pairs of a mapping or iterable; drop zeros."""
        data: dict[Partition, int] = {}
        for lam, coeff in terms.items() if isinstance(terms, (dict, MappingProxyType)) else terms:
            if coeff:
                key = as_partition(lam)
                data[key] = data.get(key, 0) + coeff
        for key in [k for k, v in data.items() if not v]:
            del data[key]  # the others keep their order
        object.__setattr__(self, "terms", MappingProxyType(data))

    def __setattr__(self, name, value):
        raise AttributeError("SchurVector is read-only")

    def __delattr__(self, name):
        raise AttributeError("SchurVector is read-only")

    def __reduce__(self):
        return SchurVector, (dict(self.terms),)

    def items(self):
        return self.terms.items()

    def __getitem__(self, lam) -> int:
        return self.terms.get(as_partition(lam), 0)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, SchurVector) and self.terms == other.terms

    def __add__(self, other: "SchurVector") -> "SchurVector":
        return SchurVector(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "SchurVector") -> "SchurVector":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "SchurVector":
        return SchurVector((lam, factor * c) for lam, c in self.terms.items())

    def homogeneous_degree(self) -> int:
        """Common size of the indexing partitions; error if mixed or empty."""
        sizes = {lam.size for lam in self.terms}
        if len(sizes) != 1:
            raise ValueError(f"vector is not homogeneous: degrees {sorted(sizes)}")
        return sizes.pop()

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].size, kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "SchurVector(0)"
        bits = []
        for lam, c in self.sorted_items():
            name = "s[" + ",".join(str(x) for x in lam) + "]"
            bits.append(name if c == 1 else f"{c}*{name}")
        return "SchurVector(" + " + ".join(bits) + ")"


def schur(lam) -> SchurVector:
    """The Schur basis element s_lam."""
    return SchurVector({as_partition(lam): 1})


def schur_product(f: SchurVector, g: SchurVector) -> SchurVector:
    """Bilinear extension of s_mu * s_nu = sum_lam c^lam_{mu nu} s_lam."""
    return SchurVector(
        (lam, a * b * c)
        for mu, a in f.items()
        for nu, b in g.items()
        for lam, c in schur_expand_product(mu, nu).items()
    )


def _schur_product_of(shapes) -> SchurVector:
    """The product s_shape1 * s_shape2 * ... in the Schur basis; 1 if no shapes."""
    factors = map(schur, shapes)
    return reduce(schur_product, factors, next(factors, schur(())))


def _signed_sum(terms) -> SchurVector:
    """sum of sign * vector over (sign, vector) pairs."""
    return SchurVector((lam, sign * c) for sign, vec in terms for lam, c in vec.items())


def _leibniz(size: int, entry) -> Iterator[tuple[int, tuple]]:
    """Nonvanishing Leibniz terms (sign, entries) of det(entry(i, j)), 0 <= i, j < size.

    Terms are yielded in lexicographic order of the permutation p; entries[i]
    is entry(i, p(i)), and None marks a vanishing matrix entry.  The matrix
    is built once, at the call.  A branch ends as soon as its lowest unused
    column has a nonvanishing entry in no row still to fill, since no
    permutation completes it; the terms and their order stay those of the
    full expansion.  Size 0 yields the single term (1, ()).  The identity's
    branch, walked first, recurses size deep (both callers' diagonals never
    vanish), so a size at the recursion limit raises RecursionError at the call.
    """
    if size >= sys.getrecursionlimit():
        raise RecursionError(f"a Leibniz expansion of size {size} recurses past the limit")
    matrix = [[entry(i, j) for j in range(size)] for i in range(size)]
    # last[j]: the last row with a nonvanishing entry in column j, -1 if none;
    # the sentinel last[size] lets a full set of columns pass the test
    last = [
        max((i for i, row in enumerate(matrix) if row[j] is not None), default=-1)
        for j in range(size)
    ]
    last.append(size)
    return _expand(0, 0, 1, (), matrix, last)


def _expand(i: int, used: int, sign: int, entries: tuple, matrix, last) -> Iterator[tuple[int, tuple]]:
    """Yield each Leibniz term that completes rows 0..i-1 of a permutation.

    used has bit j set for each column taken by those rows, sign is the
    sign so far, and entries their matrix entries.
    """
    if i == len(matrix):
        yield sign, entries
        return
    for j, x in enumerate(matrix[i]):
        if x is None or used >> j & 1:
            continue
        now = used | 1 << j
        if last[(~now & (now + 1)).bit_length() - 1] <= i:
            continue  # the lowest unused column can no longer be filled
        # each column already used to the right of j is one more inversion
        flips = (used >> (j + 1)).bit_count()
        yield from _expand(i + 1, now, -sign if flips & 1 else sign, entries + (x,), matrix, last)


def coproduct(lam) -> Iterator[tuple[Partition, Partition, int]]:
    """All (mu, nu, c^lam_{mu nu}) with positive coefficient, over all bidegrees, one at a time."""
    lam = Partition(lam)
    return (
        (mu, nu, c)
        for k in range(lam.size + 1)
        for mu in partitions_list(k)
        for nu, c in lr_weight_support(lam, mu)
    )


def hall_inner(f: SchurVector, g: SchurVector) -> int:
    """Hall inner product; the Schur basis is orthonormal."""
    if len(f.terms) > len(g.terms):
        f, g = g, f
    return sum(c * g.terms.get(lam, 0) for lam, c in f.items())


class SignedHookProduct(NamedTuple):
    """One Leibniz term of the hook determinant expansion of s_lam."""

    sign: int
    hooks: tuple[Partition, ...]


def giambelli_leibniz(lam) -> Iterator[SignedHookProduct]:
    """Expand the hook determinant for s_lam into d! signed hook products, one at a time.

    With Frobenius coordinates (arms | legs) of length d, the term for a
    permutation p of the legs is sgn(p) * prod_i s_(arms[i]+1, 1^legs[p(i)]).
    """
    lam = Partition(lam)
    if not lam:
        raise ValueError("empty partition has no hook expansion")
    arms, legs = lam.frobenius()
    terms = _leibniz(len(arms), lambda i, j: hook_partition(arms[i] + 1, legs[j]))
    return (SignedHookProduct(sign, hooks) for sign, hooks in terms)


def giambelli_expand(lam) -> SchurVector:
    """Multiply out the signed hook products; must reproduce s_lam."""
    return _signed_sum((t.sign, _schur_product_of(t.hooks)) for t in giambelli_leibniz(lam))


def jacobi_trudi(lam) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Signed complete-homogeneous monomials from det(h_{lam_i - i + j}), one at a time.

    Terms containing any negative index vanish and are dropped; h_0 = 1 is
    removed from the monomials.  The empty partition yields (1, ()).
    """
    lam = Partition(lam)
    terms = _leibniz(len(lam), lambda i, j: lam[i] - i + j if lam[i] + j >= i else None)
    return ((sign, tuple(sorted(filter(None, mono), reverse=True))) for sign, mono in terms)


@cache
def h_monomial_to_schur(mono: tuple[int, ...]) -> SchurVector:
    """Expand h_{m1} h_{m2} ... in the Schur basis (h_k = s_(k), iterated Pieri)."""
    return _schur_product_of((k,) for k in mono)


def jacobi_trudi_to_schur(lam) -> SchurVector:
    """Evaluate the Jacobi-Trudi expansion back into the Schur basis."""
    return _signed_sum((sign, h_monomial_to_schur(mono)) for sign, mono in jacobi_trudi(lam))


# ---------------------------------------------------------------------------
# symmetric group characters


def centralizer_order(mu) -> int:
    """z_mu = prod_i i^{m_i} m_i! over the multiplicities of mu."""
    mu = Partition(mu)
    mult: dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for i, m in mult.items():
        z *= i**m * factorial(m)
    return z


def character(lam, mu) -> int:
    """chi^lam evaluated on cycle type mu, by border-strip removal."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError(f"|{lam!r}| != |{mu!r}|")
    return _chi(_beads(lam), _suffix(mu))


def _beads(lam) -> int:
    """The bead set of lam: bit lam_i + (L - 1 - i) set for each of its L rows."""
    last = len(lam) - 1
    return sum(1 << (part + last - i) for i, part in enumerate(lam))


class _Suffix:
    """One suffix of a cycle type, with chi of every shape reached on it.

    k is the first part, crossed and high the bit masks of a border strip of
    size k, rest the node of the suffix without its first part, and memo
    maps a bead set to chi of that shape on this suffix.  The empty suffix
    has no first part and holds chi = 1 on the empty shape, bead set 0.
    """

    __slots__ = ("k", "crossed", "high", "rest", "memo")

    def __init__(self, k: int = 0, rest: _Suffix | None = None):
        self.k, self.rest = k, rest
        if rest is None:
            self.memo = {0: 1}
        else:
            self.memo = {}
            self.crossed = (1 << (k - 1)) - 1
            self.high = ~((1 << k) - 1)


_EMPTY = _Suffix()


@cache
def _node(k: int, rest: _Suffix) -> _Suffix:
    """The one node of the suffix (k,) + rest."""
    return _Suffix(k, rest)


def _suffix(mu) -> _Suffix:
    """The node of the cycle type mu, built from its last part up."""
    node = _EMPTY
    for k in reversed(mu):
        node = _node(k, node)
    return node


def _chi(beads: int, node: _Suffix) -> int:
    """chi^lam on node's suffix for the bead set of lam, from the memo if there."""
    chi = node.memo.get(beads)
    return _char(beads, node) if chi is None else chi


def _char(beads: int, node: _Suffix) -> int:
    """chi^lam on node's nonempty suffix for the bead set of lam; stores it in node.memo.

    Each child value is read from node.rest.memo by its bead set, and the
    recursion runs only on a miss.
    """
    k, rest, crossed = node.k, node.rest, node.crossed
    memo = rest.memo
    # Removing a border strip of size k moves a bead from b to an empty b - k;
    # its sign is the parity of the beads crossed, strictly between b - k and b.
    movable = beads & ~(beads << k) & node.high  # b >= k and b - k empty
    total = 0
    while movable:
        bead = movable & -movable
        movable ^= bead
        moved = beads ^ bead ^ (bead >> k)
        if moved & 1:
            # beads at 0, 1, ... are empty last rows: shift them out
            moved >>= (moved ^ (moved + 1)).bit_length() - 1
        term = memo.get(moved)
        if term is None:
            term = _char(moved, rest)
        low = bead.bit_length() - k
        total += -term if (beads >> low & crossed).bit_count() & 1 else term
    node.memo[beads] = total
    return total


@cache
def _cycle_types(n: int) -> tuple[tuple[_Suffix, int], ...]:
    """(suffix node, n!/z_rho) for every cycle type rho of n, in partitions_list order."""
    nfact = factorial(n)
    return tuple((_suffix(rho), nfact // centralizer_order(rho)) for rho in partitions_list(n))


@cache
def _rows(lam: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """chi^lam(rho) and |class(rho)| * chi^lam(rho) on every cycle type rho of |lam|,
    in partitions_list order."""
    beads = _beads(lam)
    table = _cycle_types(lam.size)
    row = tuple(_chi(beads, node) for node, _ in table)
    return row, tuple(chi * size for chi, (_, size) in zip(row, table))


@cache
def kronecker_coefficient(lam, mu, nu) -> int:
    """g(lam, mu, nu) by the class-sum character formula; exact, nonnegative."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValueError("all three partitions must have the same size")
    total = sum(map(mul, _rows(lam)[1], map(mul, _rows(mu)[0], _rows(nu)[0])))
    nfact = factorial(n)
    value, remainder = divmod(total, nfact)
    if remainder or value < 0:
        raise ArithmeticError(f"character sum is not a Kronecker coefficient: {total}/{nfact}")
    return value


def kronecker_product(f: SchurVector, g: SchurVector) -> SchurVector:
    """Bilinear extension of s_lam (*) s_mu = sum_nu g(lam, mu, nu) s_nu."""
    if not f.terms or not g.terms:
        return SchurVector()
    n = f.homogeneous_degree()
    if g.homogeneous_degree() != n:
        raise ValueError("internal product requires equal homogeneous degrees")
    return SchurVector(
        (nu, a * b * c)
        for lam, a in f.items()
        for mu, b in g.items()
        for nu, c in _kronecker_support(lam, mu)
    )


@cache
def _kronecker_support(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """The (nu, g(lam, mu, nu)) pairs with g != 0, in partitions_list order.

    Each value comes from ``kronecker_coefficient(lam, mu, nu)`` in this
    argument order, so its checks run for every triple of the table.
    """
    pairs = ((nu, kronecker_coefficient(lam, mu, nu)) for nu in partitions_list(lam.size))
    return tuple((nu, c) for nu, c in pairs if c)
