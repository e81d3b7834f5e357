"""Schur-basis symmetric function engine.

Everything is exact: vectors carry integer coefficients, symmetric
group characters come from memoized border-strip recursion, and the
Kronecker coefficient is the class-sum character formula

    g(lam, mu, nu) = sum over cycle types rho of
                     |class(rho)| * chi^lam(rho) chi^mu(rho) chi^nu(rho) / n!

evaluated in integer arithmetic (the class-sum form is mathematically
identical to averaging over all n! permutations but exponentially cheaper).
The sum runs over cached per-partition character rows: chi^lam on every
cycle type of n, in partitions_list order, built once per partition and
multiplied term by term with the class sizes and the other two rows.
``character`` validates its arguments; the recursion below it runs on
plain tuples, walking the beta numbers of lam once per step and slicing
out each smaller shape instead of sorting and revalidating it.
The h-basis appears only as formal monomial lists inside the Jacobi-Trudi
expansion; the public algebra is Schur-basis only.  Giambelli's hook
determinant and the Jacobi-Trudi determinant both go through one Leibniz
expansion (``_leibniz``), and every linear combination is summed in one
place, the ``SchurVector`` constructor.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import chain
from math import factorial
from operator import mul
from typing import NamedTuple

from .partition import Partition, partitions_list
from .tableau import lr_weight_support, schur_expand_product


class SchurVector:
    """Finite formal linear combination of Schur functions, integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """Sum the (partition, coefficient) pairs of a dict or iterable; drop zeros."""
        data: dict[Partition, int] = {}
        for lam, coeff in terms.items() if isinstance(terms, dict) else terms:
            if coeff:
                key = Partition(lam)
                data[key] = data.get(key, 0) + coeff
        self.terms = {k: v for k, v in data.items() if v}

    def items(self):
        return self.terms.items()

    def __getitem__(self, lam) -> int:
        return self.terms.get(Partition(lam), 0)

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
    return SchurVector({Partition(lam): 1})


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


def _leibniz(size: int, entry):
    """Nonvanishing Leibniz terms (sign, entries) of det(entry(i, j)), 0 <= i, j < size.

    Terms come in lexicographic order of the permutation p; entries[i] is
    entry(i, p(i)), and a term is skipped as soon as one of its entries is
    None (a vanishing matrix entry).  Size 0 yields the single term (1, ()).
    """

    def rec(i: int, used: int, sign: int, entries: tuple):
        if i == size:
            yield sign, entries
            return
        for j in range(size):
            if used >> j & 1:
                continue
            x = entry(i, j)
            if x is None:
                continue
            # each column already used to the right of j is one more inversion
            flips = bin(used >> (j + 1)).count("1")
            yield from rec(i + 1, used | 1 << j, -sign if flips % 2 else sign, entries + (x,))

    return rec(0, 0, 1, ())


def coproduct(lam) -> list[tuple[Partition, Partition, int]]:
    """All (mu, nu, c^lam_{mu nu}) with positive coefficient, over all bidegrees."""
    lam = Partition(lam)
    return [
        (mu, nu, c)
        for k in range(lam.size + 1)
        for mu in partitions_list(k)
        for nu, c in lr_weight_support(lam, mu)
    ]


def hall_inner(f: SchurVector, g: SchurVector) -> int:
    """Hall inner product; the Schur basis is orthonormal."""
    if len(f.terms) > len(g.terms):
        f, g = g, f
    return sum(c * g.terms.get(lam, 0) for lam, c in f.items())


class SignedHookProduct(NamedTuple):
    """One Leibniz term of the hook determinant expansion of s_lam."""

    sign: int
    hooks: tuple[Partition, ...]


def giambelli_leibniz(lam) -> list[SignedHookProduct]:
    """Expand the hook determinant for s_lam into d! signed hook products.

    With Frobenius coordinates (arms | legs) of length d, the term for a
    permutation p of the legs is sgn(p) * prod_i s_(arms[i]+1, 1^legs[p(i)]).
    """
    lam = Partition(lam)
    if not lam:
        raise ValueError("empty partition has no hook expansion")
    arms, legs = lam.frobenius()
    terms = _leibniz(len(arms), lambda i, j: Partition((arms[i] + 1,) + (1,) * legs[j]))
    return [SignedHookProduct(sign, hooks) for sign, hooks in terms]


def giambelli_expand(lam) -> SchurVector:
    """Multiply out the signed hook products; must reproduce s_lam."""
    return _signed_sum((t.sign, _schur_product_of(t.hooks)) for t in giambelli_leibniz(lam))


def jacobi_trudi(lam) -> list[tuple[int, tuple[int, ...]]]:
    """Signed complete-homogeneous monomials from det(h_{lam_i - i + j}).

    Terms containing any negative index vanish and are dropped; h_0 = 1 is
    removed from the monomials.  The empty partition yields [(1, ())].
    """
    lam = Partition(lam)
    terms = _leibniz(len(lam), lambda i, j: lam[i] - i + j if lam[i] + j >= i else None)
    return [(sign, tuple(sorted(filter(None, mono), reverse=True))) for sign, mono in terms]


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
    return _char(lam, mu)


@cache
def _char(lam: tuple, mu: tuple) -> int:
    """chi^lam(mu) on plain partition tuples of equal size."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    # Beta numbers lam_i + (L - 1 - i) strictly decrease and encode the shape.
    # Removing a border strip of size k replaces one beta b by nb = b - k; the
    # sign is the parity of the betas crossed, those strictly between nb and b.
    size = len(lam)
    betas = [part + size - 1 - i for i, part in enumerate(lam)]
    total = 0
    p = 0  # insertion point of nb: the first beta <= nb; only moves forward
    for i, b in enumerate(betas):
        nb = b - k
        if nb < 0:
            break
        if p <= i:
            p = i + 1
        while p < size and betas[p] > nb:
            p += 1
        if p < size and betas[p] == nb:
            continue
        # rows i+1 .. p-1 move up one place and lose a box; nb becomes row p-1.
        # Only nb = 0 leaves empty rows, at the bottom, and they are cut off.
        shape = lam[:i] + tuple(x - 1 for x in lam[i + 1 : p]) + (nb - size + p,) + lam[p:]
        term = _char(shape[: shape.index(0)] if nb == 0 else shape, rest)
        total += -term if (p - i - 1) % 2 else term
    return total


@cache
def _class_sizes(n: int) -> tuple[int, ...]:
    """n!/z_rho for every cycle type rho of n, in partitions_list order."""
    nfact = factorial(n)
    return tuple(nfact // centralizer_order(rho) for rho in partitions_list(n))


@cache
def _char_row(lam: Partition) -> tuple[int, ...]:
    """chi^lam on every cycle type of |lam|, in partitions_list order."""
    return tuple(_char(lam, rho) for rho in partitions_list(lam.size))


@cache
def kronecker_coefficient(lam, mu, nu) -> int:
    """g(lam, mu, nu) by the class-sum character formula; exact, nonnegative."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValueError("all three partitions must have the same size")
    weighted = map(mul, _class_sizes(n), _char_row(lam))
    total = sum(map(mul, weighted, map(mul, _char_row(mu), _char_row(nu))))
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
        (nu, a * b * kronecker_coefficient(lam, mu, nu))
        for lam, a in f.items()
        for mu, b in g.items()
        for nu in partitions_list(n)
    )
