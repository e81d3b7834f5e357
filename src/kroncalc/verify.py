"""Exhaustive small-case verification sweeps.

Each suite is a list of independent work units plus a pure runner mapping a
unit to (number of checks, failure messages).  The units of every selected
suite run in order on one pool of worker processes; reports are assembled in
unit order, so output is byte identical regardless of worker count.

The selected suites run in the declaration order of ``SUITES``, whatever
order the caller names them in; results come back in the caller's order.
That order puts together the suites that share memos: first the LR and
near-hook readers, then those that read only the oracle and the hook rule.
``READS`` names the kroncalc modules whose memos each suite reads.  When a
process (in process, or a pool worker) starts on a unit of another suite, it
empties the memos of every module that an earlier suite of the run read and
no remaining suite reads, so the LR tables and near-hook side tables are
gone before the oracle-only suites build their rows.  Partition memos are
never emptied, and no memo entry is built twice.

A suite that reads g(lam, mu, nu) for every nu of a fixed pair reads the
oracle's row ``symfun.kronecker_row(lam, mu)`` beside ``partitions_list(n)``;
kron-basics scans those rows entry by entry for conjugation and the
trivial/sign rules, and compares whole tables for S3 symmetry.  littlewood
compares both sides of its identity as dense integer lists over
``partitions_list(n)``, summed from those rows and from LR supports, so no
sum builds a dictionary of partitions.  fundamental-vs-oracle zips each oracle row with the near-hook
expansion's row ``nearhook.near_hook_row``, as blasiak-vs-oracle zips it with
the hook rule's counts.  triples-vs-oracle reads the four triple sums of every
d at once (``nearhook.triple_row``), and its membership units compare each
index set with the set of positive grid points, built from the sigma whose
g row is nonzero and that lie inside nu, reporting the points where they
differ in grid order, then any index-set point off the grid, sorted.

A memo entry is kept only where a later read uses it.  A membership unit
reads no LR coefficient for a sigma outside nu, which is 0, and the lr
suite's one-pass identity checks (symmetry, Pieri, two-row, strip
difference) read each coefficient through ``tableau.lr_coefficient``'s
``__wrapped__``, the same value from the same memoized LR table with no
entry of its own.

What a unit leaves alive is memo entries, which hold no reference cycle
(tests/test_acceptance.py runs every suite with the collector off to check
it).  So after each unit, in process and in each pool worker, the survivors
are frozen (``gc.freeze``) and later collections do not rescan the memo
tables; ``run_suites`` unfreezes them before it returns.  At exit the
interpreter collects once more; importing this module registers
``gc.freeze`` as an exit hook, so those last collections skip the memo
tables too.  Only ``kroncalc verify`` imports it.
"""

from __future__ import annotations

import atexit
import gc
from itertools import permutations, repeat
from math import comb
from operator import add, mul

from . import colored, memo, nearhook, rosas, symfun, tableau
from .partition import (
    Partition,
    contains,
    from_frobenius,
    hook_partition,
    is_double_hook,
    is_horizontal_strip,
    partition_count,
    partitions_list,
    partitions_of,
    two_rows,
)


atexit.register(gc.freeze)  # the exit collections skip what the sweep leaves (module docstring)


def _fmt(p: Partition) -> str:
    return "(" + ",".join(str(x) for x in p) + ")"


# ---------------------------------------------------------------------------
# suite: partitions


def units_partitions(limit: int):
    return [("involution", n) for n in range(limit + 1)] + [
        ("count", n) for n in range(max(limit, 30) + 1)
    ]


def run_partitions(unit) -> tuple[int, list[str]]:
    kind, n = unit
    checks, fails = 0, []
    if kind == "involution":
        for lam in partitions_list(n):
            checks += 2
            if lam.transpose().transpose() != lam:
                fails.append(f"transpose not involutive at {_fmt(lam)}")
            if lam and from_frobenius(lam.frobenius()) != lam:
                fails.append(f"frobenius round trip broke at {_fmt(lam)}")
    else:
        checks += 1
        # counted without partitions_list, whose cache would keep all of them
        if sum(1 for _ in partitions_of(n)) != partition_count(n):
            fails.append(f"enumerated count != p({n})")
    return checks, fails


# ---------------------------------------------------------------------------
# suite: lr (tableau-level identities)


def units_lr(limit: int):
    units = [("symmetry", n) for n in range(limit + 1)]
    units += [("pieri", (n, limit - n)) for n in range(limit + 1)]
    units += [("two-row", t) for t in range(11)]
    units += [("strip-diff", n) for n in range(limit + 1)]
    units += [("product-dim", n) for n in range(min(limit, 8) + 1)]
    return units


def run_lr(unit) -> tuple[int, list[str]]:
    kind, n = unit
    checks, fails = 0, []
    # the one-pass checks read each coefficient about once: no memo entry for
    # it, while the LR tables it is read from stay memoized (module docstring)
    lr_coefficient = tableau.lr_coefficient.__wrapped__
    if kind == "symmetry":
        for lam in partitions_list(n):
            for k in range(n + 1):
                for mu in partitions_list(k):
                    for nu in partitions_list(n - k):
                        checks += 1
                        if lr_coefficient(lam, mu, nu) != lr_coefficient(lam, nu, mu):
                            fails.append(f"lr symmetry broke at {_fmt(lam)}/{_fmt(mu)},{_fmt(nu)}")
    elif kind == "pieri":
        # horizontal-strip indicator == Pieri coefficient of h_k s_mu,
        # over all |mu| + k up to the sweep limit
        n, kmax = n
        for mu in partitions_list(n):
            for k in range(kmax + 1):
                row = Partition((k,))
                for lam in partitions_list(n + k):
                    checks += 1
                    coeff = lr_coefficient(lam, mu, row)
                    strip = (
                        1
                        if contains(mu, lam) and is_horizontal_strip(mu, lam)
                        else 0
                    )
                    if coeff != strip:
                        fails.append(f"pieri mismatch at mu={_fmt(mu)} k={k} lam={_fmt(lam)}")
    elif kind == "two-row":
        total = n
        outers = two_rows(total)  # (total - e, e) at index e
        for x in range(total + 1):
            for y in range(min(x, total - x) + 1):
                inner = Partition((x, y))
                for u in range(total - x - y + 1):
                    v = total - x - y - u
                    if v > u:
                        continue
                    weight = Partition((u, v))
                    for d in range((total + 1) // 2, total + 1):
                        checks += 1
                        closed = tableau.lr_two_row(x, y, u, v, d, total - d)
                        direct = lr_coefficient(outers[total - d], inner, weight)
                        if closed != direct:
                            fails.append(
                                f"two-row closed form broke at {(x, y, u, v, d, total - d)}"
                            )
    elif kind == "strip-diff":
        for nu in partitions_list(n):
            for b in range(1, n + 2):
                strips = two_rows(b - 1)  # (b - 1 - j, j) at index j
                for eta in partitions_list(n - b + 1):
                    for j, strip in enumerate(strips):
                        checks += 1
                        via = tableau.lr_via_strip_difference(nu, eta, b, j)
                        direct = lr_coefficient(nu, eta, strip)
                        if via != direct:
                            fails.append(
                                f"strip-difference broke at nu={_fmt(nu)} eta={_fmt(eta)} b={b} j={j}"
                            )
    else:  # product-dim
        for k in range(n + 1):
            for mu in partitions_list(k):
                for nu in partitions_list(n - k):
                    checks += 1
                    total = sum(
                        c * tableau.dimension(lam)
                        for lam, c in tableau.schur_expand_product(mu, nu).items()
                    )
                    expected = (
                        comb(n, k) * tableau.dimension(mu) * tableau.dimension(nu)
                    )
                    if total != expected:
                        fails.append(f"product dimension broke at {_fmt(mu)} x {_fmt(nu)}")
    return checks, fails


# ---------------------------------------------------------------------------
# suites: giambelli, jacobi-trudi (a determinant expansion reproduces s_lam)


def units_giambelli(limit: int):
    return [n for n in range(1, limit + 1)]


def units_jacobi_trudi(limit: int):
    return [n for n in range(limit + 1)]


def run_expansion(expand, label: str, n: int) -> tuple[int, list[str]]:
    checks, fails = 0, []
    for lam in partitions_list(n):
        checks += 1
        if expand(lam) != symfun.schur(lam):
            fails.append(f"{label} expansion broke at {_fmt(lam)}")
    return checks, fails


# ---------------------------------------------------------------------------
# suite: littlewood


def units_littlewood(limit: int):
    units = []
    for total in range(limit + 1):
        for k in range(total + 1):
            for lam in partitions_list(k):
                for mu in partitions_list(total - k):
                    units.append((lam, mu))
    return units


def run_littlewood(unit) -> tuple[int, list[str]]:
    """(s_lam s_mu) * s_nu = sum_{tau, eta} c^nu_{tau eta} (s_tau * s_lam)(s_eta * s_mu), per nu.

    Both sides are dense integer lists over ``partitions_list(n)``, built
    from oracle rows and LR supports.  The left side sums the rows
    g(kappa, nu, .) over the kappa of s_lam s_mu; the right side sums one
    vector T per (tau, eta), whose entry at rho is
    sum_{alpha, beta} g(tau, lam, alpha) g(eta, mu, beta) c^rho_{alpha beta}.
    Adding lists position by position costs a fraction of building a
    ``SchurVector``, a dictionary keyed by revalidated partitions, for
    every product and sum; the lists hold the same coefficients, zeros
    included, so the comparison and its failures are unchanged.
    """
    lam, mu = unit
    checks, fails = 0, []
    n = lam.size + mu.size
    index = {rho: i for i, rho in enumerate(partitions_list(n))}
    size = len(index)
    product = tableau.lr_outer_support(lam, mu)
    # every tau of |lam| and every eta of |mu| meets some nu, so each factor
    # is read once here instead of once per (tau, eta) pair
    lefts = {tau: _row_support(tau, lam) for tau in partitions_list(lam.size)}
    rights = {eta: _row_support(eta, mu) for eta in partitions_list(mu.size)}
    terms: dict[tuple[Partition, Partition], list[int]] = {}
    for nu in partitions_list(n):
        checks += 1
        lhs = _combine(size, ((c, symfun.kronecker_row(kappa, nu)) for kappa, c in product))
        rhs_terms = []
        for tau in partitions_list(lam.size):
            for eta, coeff in tableau.lr_weight_support(nu, tau):
                term = terms.get((tau, eta))
                if term is None:
                    term = terms[tau, eta] = _product_vector(lefts[tau], rights[eta], index)
                rhs_terms.append((coeff, term))
        if lhs != _combine(size, rhs_terms):
            fails.append(
                f"coproduct compatibility broke at lam={_fmt(lam)} mu={_fmt(mu)} nu={_fmt(nu)}"
            )
    return checks, fails


def _row_support(lam: Partition, mu: Partition) -> list[tuple[Partition, int]]:
    """The (nu, g(lam, mu, nu)) pairs with g != 0, from the oracle row."""
    return [(nu, g) for nu, g in zip(partitions_list(lam.size), symfun.kronecker_row(lam, mu)) if g]


def _product_vector(left, right, index: dict[Partition, int]) -> list[int]:
    """(sum_alpha a s_alpha)(sum_beta b s_beta) as a dense list over the keys of index."""
    vector = [0] * len(index)
    for alpha, a in left:
        for beta, b in right:
            for rho, c in tableau.lr_outer_support(alpha, beta):
                vector[index[rho]] += a * b * c
    return vector


def _combine(size: int, scaled) -> list[int]:
    """sum of coeff * vector over (coeff, vector) pairs, each vector of length size."""
    total = [0] * size
    for coeff, vector in scaled:
        if coeff != 1:  # most coefficients are 1; skipping their products saves about a quarter of the warm suite
            vector = map(mul, repeat(coeff), vector)
        total = list(map(add, total, vector))
    return total


# ---------------------------------------------------------------------------
# suite: kron-basics (S3 symmetry, conjugation, trivial/sign rows)


def units_kron_basics(limit: int):
    units = [("s3", n) for n in range(min(limit, 8) + 1)]
    units += [("conjugation", n) for n in range(min(limit, 8) + 1)]
    units += [("trivial-sign", n) for n in range(limit + 1)]
    units += [("hall", n) for n in range(min(limit, 5) + 1)]
    return units


def run_kron_basics(unit) -> tuple[int, list[str]]:
    """The s3, conjugation and trivial-sign rules read whole rows g(lam, mu, .).

    Conjugation and trivial-sign scan each row once, writing a line at each
    mismatch.  s3 alone keeps a second path: two C-level comparisons of the
    tables against their transposes cost less than scanning six permutations
    per triple, so only a failing unit is rewritten triple by triple.
    """
    kind, n = unit
    checks, fails = 0, []
    parts = partitions_list(n)
    if kind == "s3":
        # tables[i][j][k] = g(parts[i], parts[j], parts[k]); the transpositions
        # j <-> k and i <-> j generate S3.  One failing table touches triples
        # of every first argument, so the block is the whole unit.
        tables = [[symfun.kronecker_row(lam, mu) for mu in parts] for lam in parts]
        checks += 6 * len(parts) ** 3
        if any(table != list(zip(*table)) for table in tables) or tables != [
            list(column) for column in zip(*tables)
        ]:
            for i, lam in enumerate(parts):
                for j, mu in enumerate(parts):
                    for k, nu in enumerate(parts):
                        base = tables[i][j][k]
                        for a, b, c in permutations((i, j, k)):
                            if tables[a][b][c] != base:
                                fails.append(
                                    f"index permutation changed g at {_fmt(lam)},{_fmt(mu)},{_fmt(nu)}"
                                )
    elif kind == "conjugation":
        # g(lam, mu, nu) = g(lam, mu', nu'): the row (lam, mu') read at nu'
        index = {nu: k for k, nu in enumerate(parts)}
        conjugates = [index[nu.transpose()] for nu in parts]
        for lam in parts:
            for mu in parts:
                checks += len(parts)
                other = symfun.kronecker_row(lam, mu.transpose())
                for nu, g, k in zip(parts, symfun.kronecker_row(lam, mu), conjugates):
                    if g != other[k]:
                        fails.append(
                            f"conjugation invariance broke at {_fmt(lam)},{_fmt(mu)},{_fmt(nu)}"
                        )
    elif kind == "trivial-sign":
        # the rows of (n) and (1^n) at lam are the unit vectors of lam and lam'
        one_row = Partition((n,))
        column = Partition((1,) * n)
        for lam in parts:
            checks += 2 * len(parts)
            trivial = symfun.kronecker_row(one_row, lam)
            sign = symfun.kronecker_row(column, lam)
            conjugate = lam.transpose()
            for mu, t, s in zip(parts, trivial, sign):
                if t != (mu == lam):
                    fails.append(f"trivial row rule broke at {_fmt(lam)},{_fmt(mu)}")
                if s != (mu == conjugate):
                    fails.append(f"sign column rule broke at {_fmt(lam)},{_fmt(mu)}")
    else:  # hall: <f*g, h> == <f, g*h> on basis elements
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    checks += 1
                    left = symfun.hall_inner(
                        symfun.kronecker_product(symfun.schur(lam), symfun.schur(mu)),
                        symfun.schur(nu),
                    )
                    right = symfun.hall_inner(
                        symfun.schur(lam),
                        symfun.kronecker_product(symfun.schur(mu), symfun.schur(nu)),
                    )
                    if left != right:
                        fails.append(
                            f"inner product adjunction broke at {_fmt(lam)},{_fmt(mu)},{_fmt(nu)}"
                        )
    return checks, fails


# ---------------------------------------------------------------------------
# suite: rosas-vs-oracle


def units_rosas(limit: int):
    return [(n, r) for n in range(1, limit + 1) for r in range(n // 2 + 1)]


def run_rosas(unit) -> tuple[int, list[str]]:
    n, r = unit
    checks, fails = 0, []
    two_row = Partition((n - r, r))
    seen_cases: dict[tuple, str] = {}
    for a in range(1, n):
        c = n - a - 1
        hook = Partition((a,) + (1,) * (c + 1))
        for nu, oracle in zip(partitions_list(n), symfun.kronecker_row(two_row, hook)):
            checks += 1
            branch = rosas.rosas_report(n, r, a, c, nu)
            if branch.value != oracle:
                fails.append(
                    f"closed form != oracle at n={n} r={r} a={a} nu={_fmt(nu)}: {branch.value} vs {oracle}"
                )
            # positivity localization: positive iff double hook with positive branch
            positive = oracle > 0
            claim = is_double_hook(nu, n) and branch.value > 0
            checks += 1
            if positive != claim:
                fails.append(
                    f"positivity characterization broke at n={n} r={r} a={a} nu={_fmt(nu)}"
                )
            key = (tuple(nu), r == 0)
            prior = seen_cases.get(key)
            if prior is not None and prior != branch.case:
                fails.append(
                    f"branch depends on a at nu={_fmt(nu)} r={r}: {prior} vs {branch.case}"
                )
            seen_cases[key] = branch.case
    return checks, fails


# ---------------------------------------------------------------------------
# suite: blasiak-vs-oracle


def units_blasiak(limit: int):
    return [lam for n in range(1, limit + 1) for lam in partitions_list(n)]


def run_blasiak(lam) -> tuple[int, list[str]]:
    checks, fails = 0, []
    n = lam.size
    counts = colored.blasiak_counts(lam)
    for d in range(n):
        hook = Partition((n - d,) + (1,) * d)
        for nu, oracle in zip(partitions_list(n), symfun.kronecker_row(lam, hook)):
            checks += 1
            count = counts.get((d, nu), 0)
            if count != oracle:
                fails.append(
                    f"tableau count != oracle at lam={_fmt(lam)} d={d} nu={_fmt(nu)}: {count} vs {oracle}"
                )
    return checks, fails


# ---------------------------------------------------------------------------
# suite: fundamental-vs-oracle (the signed hook-indexed expansion)


def units_fundamental(limit: int):
    units = []
    for n in range(4, limit + 1):
        for b in range(2, n // 2 + 1):
            for a in range(b, n - b + 1):
                units.append((n, a, b))
    return units


def run_fundamental(unit) -> tuple[int, list[str]]:
    n, a, b = unit
    c = n - a - b
    near_hook = Partition((a, b) + (1,) * c)
    checks, fails = 0, []
    for lam in partitions_list(n):
        values = nearhook.near_hook_row(lam, a, b, c)
        for nu, value, oracle in zip(partitions_list(n), values, symfun.kronecker_row(lam, near_hook)):
            checks += 1
            if value != oracle:
                fails.append(
                    f"expansion != oracle at lam={_fmt(lam)} (a,b,c)=({a},{b},{c}) nu={_fmt(nu)}: {value} vs {oracle}"
                )
    return checks, fails


# ---------------------------------------------------------------------------
# suite: triples-vs-oracle


def units_triples(limit: int):
    units = []
    for n in range(5, limit + 1):
        for b in range(2, n - 2):
            for a in range(b, n - b):
                units.append(("value", n, a, b))
    for n in range(3, min(limit, 8) + 1):
        units.append(("membership", n, 0, 0))
    return units


def run_triples(unit) -> tuple[int, list[str]]:
    kind, n, a, b = unit
    checks, fails = 0, []
    if kind == "value":
        c = n - a - b
        near_hook = Partition((a, b) + (1,) * c)
        ds = range((n + 1) // 2, n + 1)
        rows = [symfun.kronecker_row(Partition((d, n - d)), near_hook) for d in ds]
        for nu, oracles in zip(partitions_list(n), zip(*rows)):
            for d, oracle, (t1, t2, t3, t4, nonpositive) in zip(
                ds, oracles, nearhook.triple_row(a, b, c, nu)
            ):
                e = n - d
                checks += 4
                if t1 - t2 != oracle:
                    fails.append(
                        f"triple1-triple2 != oracle at (d,e)=({d},{e}) (a,b,c)=({a},{b},{c}) nu={_fmt(nu)}"
                    )
                if t3 - t4 != oracle:
                    fails.append(
                        f"triple3-triple4 != oracle at (d,e)=({d},{e}) (a,b,c)=({a},{b},{c}) nu={_fmt(nu)}"
                    )
                if t3 != t1 or t4 != t2:
                    fails.append(
                        f"positive support lost terms at (d,e)=({d},{e}) (a,b,c)=({a},{b},{c}) nu={_fmt(nu)}"
                    )
                if nonpositive:
                    fails.append(f"non-positive reduced certificate at nu={_fmt(nu)}")
    else:
        # membership <=> strict positivity of the product, via the oracle route
        for aa in range(1, n):
            for bb in range(1, n - aa + 1):
                cc = n - aa - bb
                # per side: the strips (p-k, k), g((S-r, r), hook, sigma) for each
                # sigma of S and each r, index set and message labels; the
                # negative side's hook (b-1, 1^(c+1)) needs b >= 2
                sides = [
                    (two_rows(bb - 1), _g_rows(n - bb + 1, hook_partition(aa, cc + 1)),
                     nearhook.index_set_plus, ("positive", "eta", "j")),
                ]
                if bb >= 2:
                    sides.append(
                        (two_rows(aa), _g_rows(n - aa, hook_partition(bb - 1, cc + 1)),
                         nearhook.index_set_minus, ("negative", "delta", "i"))
                    )
                for nu in partitions_list(n):
                    for strips, g_rows, index_set, (side, sigma_name, k_name) in sides:
                        # the grid is every (sigma, k, r); only a sigma with a
                        # nonzero g row can be positive, so the set
                        # {(sigma, k, r): c * g > 0} is built from those alone
                        width = len(g_rows[0][1])
                        checks += len(g_rows) * len(strips) * width
                        positive = set()
                        for sigma, g_row in g_rows:
                            # c^nu_{sigma, strip} = 0 for sigma not inside nu:
                            # not read, so no memo entry holds the zero
                            if not any(g_row) or not contains(sigma, nu):
                                continue
                            for k, strip in enumerate(strips):
                                # c^nu_{strip, delta} is read as c^nu_{delta, strip} (LR symmetry)
                                coeff = tableau.lr_coefficient(nu, sigma, strip)
                                if coeff:
                                    positive.update((sigma, k, r) for r, g in enumerate(g_row) if coeff * g > 0)
                        broken = positive.symmetric_difference(index_set(nu, aa, bb, cc))
                        if broken:  # in grid order, as a probe of every point would, then the points off the grid, sorted
                            order = {sigma: i for i, (sigma, _) in enumerate(g_rows)}
                            on_grid = {
                                (sigma, k, r)
                                for sigma, k, r in broken
                                if sigma in order and 0 <= k < len(strips) and 0 <= r < width
                            }
                            broken = sorted(on_grid, key=lambda p: (order[p[0]], p[1], p[2])) + sorted(broken - on_grid)
                        for sigma, k, r in broken:
                            fails.append(
                                f"{side}-support membership broke at nu={_fmt(nu)} {sigma_name}={_fmt(sigma)} {k_name}={k} r={r}"
                            )
    return checks, fails


def _g_rows(size: int, hook: Partition) -> list:
    """(sigma, (g((size-r, r), hook, sigma) for each r)) for every sigma of size."""
    rows = [symfun.kronecker_row(two_row, hook) for two_row in two_rows(size)]
    return list(zip(partitions_list(size), zip(*rows)))


# ---------------------------------------------------------------------------
# suite: mainresults (witness families, b = 2)


def units_mainresults(limit: int):
    units = []
    for n in range(4, limit + 1):
        for a in range(2, n - 2):
            c = n - 2 - a
            for s in range(1, (c + 2) // 2 + 1):
                units.append((n, a, s))
    return units


def run_mainresults(unit) -> tuple[int, list[str]]:
    n, a, s = unit
    c = n - 2 - a
    checks, fails = 0, []
    nu = nearhook.special_nu(a, c, s)
    near_hook = Partition((a, 2) + (1,) * c)
    for d in range((n + 1) // 2, n + 1):
        e = n - d
        oracle = symfun.kronecker_coefficient(Partition((d, e)), near_hook, nu)
        value, witness_set = nearhook.witnesses(a, c, d, e, s)
        if witness_set.removed_min is None:  # the null case: J- must be empty
            checks += 1
            if nearhook.j_minus(d, nu, a, 2, c):
                fails.append(f"interval logic inconsistent at (n,a,s,d)=({n},{a},{s},{d})")
                continue
        checks += 2
        if value != oracle:
            fails.append(
                f"witness value != oracle at (n,a,s,d)=({n},{a},{s},{d}): {value} vs {oracle}"
            )
        if value != len(witness_set.surviving):
            fails.append(f"removal policy broke at (n,a,s,d)=({n},{a},{s},{d})")
        # single-box LR guarantee for the positive index set
        for eta, j, r in nearhook.j_plus(d, nu, a, 2, c):
            checks += 1
            if tableau.lr_coefficient(nu, eta, Partition((1,))) != 1:
                fails.append(
                    f"single-box LR coefficient != 1 at eta={_fmt(eta)} (n,a,s,d)=({n},{a},{s},{d})"
                )
    return checks, fails


# ---------------------------------------------------------------------------
# registry


# In run order: the suites that read LR tables and near-hook side tables come
# before those that read only the oracle and the hook rule (module docstring).
SUITES = {
    "partitions": (12, units_partitions, run_partitions),
    "triples-vs-oracle": (9, units_triples, run_triples),
    "mainresults": (10, units_mainresults, run_mainresults),
    # each expansion is looked up on every call, so a wrapper bound in place
    # of the symfun function sees the call
    "giambelli": (
        9, units_giambelli, lambda n: run_expansion(symfun.giambelli_expand, "hook determinant", n)
    ),
    "jacobi-trudi": (
        8, units_jacobi_trudi, lambda n: run_expansion(symfun.jacobi_trudi_to_schur, "jacobi-trudi", n)
    ),
    "lr": (8, units_lr, run_lr),
    "littlewood": (7, units_littlewood, run_littlewood),
    "fundamental-vs-oracle": (8, units_fundamental, run_fundamental),
    "kron-basics": (10, units_kron_basics, run_kron_basics),
    "rosas-vs-oracle": (10, units_rosas, run_rosas),
    "blasiak-vs-oracle": (8, units_blasiak, run_blasiak),
}

# suite -> the kroncalc modules whose memos its units read; partition memos,
# which every suite reads, are never emptied
READS = {
    "partitions": (),
    "triples-vs-oracle": ("nearhook", "symfun", "tableau"),
    "mainresults": ("colored", "nearhook", "symfun", "tableau"),
    "giambelli": ("tableau",),
    "jacobi-trudi": ("symfun", "tableau"),
    "lr": ("tableau",),
    "littlewood": ("symfun", "tableau"),
    "fundamental-vs-oracle": ("symfun", "tableau"),
    "kron-basics": ("symfun",),
    "rosas-vs-oracle": ("symfun",),
    "blasiak-vs-oracle": ("colored", "symfun"),
}


_suite_here = None  # the suite of the last unit this process ran


def _run_unit(suite, unit, spent):
    global _suite_here
    if suite != _suite_here:  # a suite boundary in this process
        memo.clear(spent)  # no remaining suite of the run reads these modules' memos
        _suite_here = suite
    _, _, runner = SUITES[suite]
    result = runner(unit)
    gc.freeze()  # the survivors are memo entries, which hold no cycles (module docstring)
    return result


def run_suites(names, limit: int | None = None, jobs: int = 1) -> list[tuple[int, list[str]]]:
    """One (checks, failures) per name, in the caller's order; a suite without units gets (0, []).

    The suites run in the order of ``SUITES``; each unit carries the modules
    whose memos an earlier suite of the run read and no remaining suite reads.
    """
    global _suite_here
    run = sorted(names, key=list(SUITES).index)
    tasks, read = [], set()
    for i, name in enumerate(run):
        default_limit, unit_maker, _ = SUITES[name]
        spent = read - {module for later in run[i:] for module in READS[later]}
        read.update(READS[name])
        tasks += [(name, unit, spent) for unit in unit_maker(default_limit if limit is None else limit)]
    _suite_here = None  # pool workers fork with this too
    results = (_run_unit(*task) for task in tasks)  # in process, unless a pool maps them below
    if jobs > 1 and len(tasks) > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(min(jobs, len(tasks))) as pool:
            results = pool.starmap(_run_unit, tasks, chunksize=1)
    totals = {name: (0, []) for name in names}
    try:
        for (name, _, _), (checks, failures) in zip(tasks, results):
            totals[name] = (totals[name][0] + checks, totals[name][1] + failures)
    finally:
        gc.unfreeze()  # an in-process caller gets its normal collections back
    return [totals[name] for name in names]


def run_suite(name: str, limit: int | None = None, jobs: int = 1):
    return run_suites([name], limit, jobs)[0]  # one suite; perfbench/tracer.py binds this name


def report(name: str, limit: int | None, checks: int, failures: list[str]) -> str:
    lines = [
        f"suite: {name}",
        f"limit: {'default' if limit is None else limit}",
        f"checks: {checks}",
        f"failures: {len(failures)}",
    ]
    lines.extend(failures[:50])
    lines.append("PASS" if not failures else "FAIL")
    return "\n".join(lines)
