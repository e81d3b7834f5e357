"""Exhaustive small-case verification sweeps.

Each suite is a list of independent work units plus a pure runner mapping a
unit to (number of checks, failure messages).  Units can be fanned across
worker processes; reports are assembled in unit order, so output is byte
identical regardless of worker count.
"""

from __future__ import annotations

from math import comb

from . import colored, nearhook, rosas, symfun, tableau
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
    if kind == "symmetry":
        for lam in partitions_list(n):
            for k in range(n + 1):
                for mu in partitions_list(k):
                    for nu in partitions_list(n - k):
                        checks += 1
                        if tableau.lr_coefficient(lam, mu, nu) != tableau.lr_coefficient(
                            lam, nu, mu
                        ):
                            fails.append(f"lr symmetry broke at {_fmt(lam)}/{_fmt(mu)},{_fmt(nu)}")
    elif kind == "pieri":
        # horizontal-strip indicator == Pieri coefficient of h_k s_mu,
        # over all |mu| + k up to the sweep limit
        n, kmax = n
        for mu in partitions_list(n):
            for k in range(kmax + 1):
                for lam in partitions_list(n + k):
                    checks += 1
                    coeff = tableau.lr_coefficient(lam, mu, Partition((k,)))
                    strip = (
                        1
                        if contains(mu, lam) and is_horizontal_strip(mu, lam)
                        else 0
                    )
                    if coeff != strip:
                        fails.append(f"pieri mismatch at mu={_fmt(mu)} k={k} lam={_fmt(lam)}")
    elif kind == "two-row":
        total = n
        for x in range(total + 1):
            for y in range(min(x, total - x) + 1):
                for u in range(total - x - y + 1):
                    v = total - x - y - u
                    if v > u:
                        continue
                    for d in range((total + 1) // 2, total + 1):
                        checks += 1
                        closed = tableau.lr_two_row(x, y, u, v, d, total - d)
                        direct = tableau.lr_coefficient(
                            Partition((d, total - d)),
                            Partition((x, y)),
                            Partition((u, v)),
                        )
                        if closed != direct:
                            fails.append(
                                f"two-row closed form broke at {(x, y, u, v, d, total - d)}"
                            )
    elif kind == "strip-diff":
        for nu in partitions_list(n):
            for b in range(1, n + 2):
                for eta in partitions_list(n - b + 1):
                    for j in range((b - 1) // 2 + 1):
                        checks += 1
                        via = tableau.lr_via_strip_difference(nu, eta, b, j)
                        direct = tableau.lr_coefficient(
                            nu, eta, Partition((b - 1 - j, j))
                        )
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
    lam, mu = unit
    checks, fails = 0, []
    n = lam.size + mu.size
    product = symfun.schur_product(symfun.schur(lam), symfun.schur(mu))
    # every tau of |lam| and every eta of |mu| meets some nu, so each factor
    # is built once here instead of once per (tau, eta) pair
    lefts = {
        tau: symfun.kronecker_product(symfun.schur(tau), symfun.schur(lam))
        for tau in partitions_list(lam.size)
    }
    rights = {
        eta: symfun.kronecker_product(symfun.schur(eta), symfun.schur(mu))
        for eta in partitions_list(mu.size)
    }
    terms: dict[tuple[Partition, Partition], symfun.SchurVector] = {}
    for nu in partitions_list(n):
        checks += 1
        lhs = symfun.kronecker_product(product, symfun.schur(nu)) if product else symfun.SchurVector()
        rhs_terms = []
        for tau in partitions_list(lam.size):
            for eta, coeff in tableau.lr_weight_support(nu, tau):
                term = terms.get((tau, eta))
                if term is None:
                    term = terms[tau, eta] = symfun.schur_product(lefts[tau], rights[eta])
                rhs_terms.extend((p, coeff * c) for p, c in term.items())
        if lhs != symfun.SchurVector(rhs_terms):
            fails.append(
                f"coproduct compatibility broke at lam={_fmt(lam)} mu={_fmt(mu)} nu={_fmt(nu)}"
            )
    return checks, fails


# ---------------------------------------------------------------------------
# suite: kron-basics (S3 symmetry, conjugation, trivial/sign rows)


def units_kron_basics(limit: int):
    units = [("s3", n) for n in range(min(limit, 8) + 1)]
    units += [("conjugation", n) for n in range(min(limit, 8) + 1)]
    units += [("trivial-sign", n) for n in range(limit + 1)]
    units += [("hall", n) for n in range(min(limit, 5) + 1)]
    return units


def run_kron_basics(unit) -> tuple[int, list[str]]:
    kind, n = unit
    checks, fails = 0, []
    parts = partitions_list(n)
    if kind == "s3":
        from itertools import permutations

        for lam in parts:
            for mu in parts:
                for nu in parts:
                    base = symfun.kronecker_coefficient(lam, mu, nu)
                    for order in permutations((lam, mu, nu)):
                        checks += 1
                        if symfun.kronecker_coefficient(*order) != base:
                            fails.append(
                                f"index permutation changed g at {_fmt(lam)},{_fmt(mu)},{_fmt(nu)}"
                            )
    elif kind == "conjugation":
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    checks += 1
                    if symfun.kronecker_coefficient(
                        lam, mu, nu
                    ) != symfun.kronecker_coefficient(
                        lam, mu.transpose(), nu.transpose()
                    ):
                        fails.append(
                            f"conjugation invariance broke at {_fmt(lam)},{_fmt(mu)},{_fmt(nu)}"
                        )
    elif kind == "trivial-sign":
        row = Partition((n,)) if n else Partition()
        column = Partition((1,) * n)
        for lam in parts:
            for mu in parts:
                checks += 2
                expected = 1 if lam == mu else 0
                if symfun.kronecker_coefficient(row, lam, mu) != expected:
                    fails.append(f"trivial row rule broke at {_fmt(lam)},{_fmt(mu)}")
                expected = 1 if lam == mu.transpose() else 0
                if symfun.kronecker_coefficient(column, lam, mu) != expected:
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
        for nu in partitions_list(n):
            checks += 1
            branch = rosas.rosas_report(n, r, a, c, nu)
            oracle = symfun.kronecker_coefficient(two_row, hook, nu)
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
        for nu in partitions_list(n):
            checks += 1
            count = counts.get((d, nu), 0)
            oracle = symfun.kronecker_coefficient(lam, hook, nu)
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
        for nu in partitions_list(n):
            checks += 1
            value = nearhook.near_hook_value(lam, nu, a, b, c)
            oracle = symfun.kronecker_coefficient(lam, near_hook, nu)
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
        for nu in partitions_list(n):
            for d in range((n + 1) // 2, n + 1):
                e = n - d
                oracle = symfun.kronecker_coefficient(Partition((d, e)), near_hook, nu)
                t1 = nearhook.triple1(d, e, a, b, c, nu)
                t2 = nearhook.triple2(d, e, a, b, c, nu)
                checks += 1
                if t1 - t2 != oracle:
                    fails.append(
                        f"triple1-triple2 != oracle at (d,e)=({d},{e}) (a,b,c)=({a},{b},{c}) nu={_fmt(nu)}"
                    )
                t3, certs3 = nearhook.triple3(d, e, a, b, c, nu)
                t4, certs4 = nearhook.triple4(d, e, a, b, c, nu)
                checks += 1
                if t3 - t4 != oracle:
                    fails.append(
                        f"triple3-triple4 != oracle at (d,e)=({d},{e}) (a,b,c)=({a},{b},{c}) nu={_fmt(nu)}"
                    )
                checks += 1
                if t3 != t1 or t4 != t2:
                    fails.append(
                        f"positive support lost terms at (d,e)=({d},{e}) (a,b,c)=({a},{b},{c}) nu={_fmt(nu)}"
                    )
                checks += 1
                if any(cert.contribution <= 0 for cert in certs3 + certs4):
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
                        members = index_set(nu, aa, bb, cc)
                        for sigma, g_row in g_rows:
                            for k, strip in enumerate(strips):
                                # c^nu_{strip, delta} is read as c^nu_{delta, strip} (LR symmetry)
                                coeff = tableau.lr_coefficient(nu, sigma, strip)
                                for r, g in enumerate(g_row):
                                    checks += 1
                                    if ((sigma, k, r) in members) != (coeff * g > 0):
                                        fails.append(
                                            f"{side}-support membership broke at nu={_fmt(nu)} {sigma_name}={_fmt(sigma)} {k_name}={k} r={r}"
                                        )
    return checks, fails


def _g_rows(size: int, hook: Partition) -> list:
    """(sigma, [g((size-r, r), hook, sigma) for each r]) for every sigma of size."""
    two_row_shapes = two_rows(size)
    return [
        (sigma, [symfun.kronecker_coefficient(two_row, hook, sigma) for two_row in two_row_shapes])
        for sigma in partitions_list(size)
    ]


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


SUITES = {
    "partitions": (12, units_partitions, run_partitions),
    "lr": (8, units_lr, run_lr),
    # each expansion is looked up on every call, so a wrapper bound in place
    # of the symfun function sees the call
    "giambelli": (
        9, units_giambelli, lambda n: run_expansion(symfun.giambelli_expand, "hook determinant", n)
    ),
    "jacobi-trudi": (
        8, units_jacobi_trudi, lambda n: run_expansion(symfun.jacobi_trudi_to_schur, "jacobi-trudi", n)
    ),
    "littlewood": (7, units_littlewood, run_littlewood),
    "kron-basics": (10, units_kron_basics, run_kron_basics),
    "rosas-vs-oracle": (10, units_rosas, run_rosas),
    "blasiak-vs-oracle": (8, units_blasiak, run_blasiak),
    "fundamental-vs-oracle": (8, units_fundamental, run_fundamental),
    "triples-vs-oracle": (9, units_triples, run_triples),
    "mainresults": (10, units_mainresults, run_mainresults),
}


def _run_unit(task):
    suite, unit = task
    _, _, runner = SUITES[suite]
    return runner(unit)


def run_suite(name: str, limit: int | None = None, jobs: int = 1):
    """Run one suite; returns (checks, failures) with deterministic ordering."""
    default_limit, unit_maker, _ = SUITES[name]
    units = unit_maker(default_limit if limit is None else limit)
    tasks = [(name, unit) for unit in units]
    if jobs > 1 and len(tasks) > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(jobs) as pool:
            results = pool.map(_run_unit, tasks, chunksize=1)
    else:
        results = [_run_unit(task) for task in tasks]
    checks = sum(r[0] for r in results)
    failures = [msg for r in results for msg in r[1]]
    return checks, failures


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
