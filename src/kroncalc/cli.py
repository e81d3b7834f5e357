"""Command line front end.

Subcommands: kron (coefficient queries by any method), enumerate (LR and
hook-rule tableaux, insertion traces), rosas (two-row x hook closed form
with branch report), expand (hook determinant / Jacobi-Trudi / coproduct
printing), verify (exhaustive sweep suites).

Exit codes: 0 success, 1 verification failure or method disagreement,
2 input error, 3 method hypotheses not met, 4 internal error (a failed
consistency check).  Partitions use the text syntax "6,2,1^6"; colored
words use space-separated letters with a trailing apostrophe for bars
("2' 1 4' 4").
"""

from __future__ import annotations

import argparse
import io
import sys
import time

from . import colored, nearhook, rosas, symfun, verify
from .partition import (
    Partition,
    as_hook,
    as_near_hook,
    as_two_row,
    contains,
    format_partition,
    parse_partition,
)
from .tableau import lr_tableaux


class InputError(Exception):
    pass


class HypothesisError(Exception):
    pass


def _print_json(obj) -> None:
    # json is imported here, not at module level: most queries print text
    import json

    print(json.dumps(obj, sort_keys=True))


def _parse_partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# kron


def _applicable_methods(lam, mu):
    """Method -> None if applicable, else the failed hypothesis."""
    out = {"oracle": None}
    hook = as_hook(mu)
    out["blasiak"] = None if hook else "mu is not a hook (m, 1^d)"
    if hook and len(mu) >= 2 and as_two_row(lam):
        out["rosas"] = None
    elif not hook or len(mu) < 2:
        out["rosas"] = "mu is not a hook (a, 1^(c+1)) with c >= 0"
    else:
        out["rosas"] = "lambda is not a two-row partition"
    out["nearhook"] = (
        None if as_near_hook(mu) else "mu is not a near-hook (a, b, 1^c) with a >= b >= 2"
    )
    return out


def _witnesses_if_applicable(lam, mu, nu):
    """Route to a witness family when the b = 2 special shape matches."""
    shape = as_near_hook(mu)
    two_row = as_two_row(lam)
    if shape is None or two_row is None or shape[1] != 2 or shape[2] < 1:
        return None
    a, _, c = shape
    d, e = two_row
    twos = sum(1 for x in nu[1:] if x == 2)
    s = twos + 1
    if nu != nearhook.special_nu(a, c, s) or not 1 <= s <= (c + 2) // 2:
        return None
    if nearhook.singleton_case_check(a, 2, c, d, e, s) is not None:
        return nearhook.witnesses_singleton_case(a, c, d, e, s)
    return nearhook.witnesses_null_case(a, c, d, e, s)


def _run_method(method: str, lam, mu, nu, explain: bool):
    """Returns (value, explain lines, explain json payload)."""
    lines: list[str] = []
    payload: dict = {}
    if method == "oracle":
        return symfun.kronecker_coefficient(lam, mu, nu), lines, payload
    if method == "blasiak":
        d = len(mu) - 1
        if not explain:
            return colored.count_blasiak(lam, d, nu), lines, payload
        tableaux = colored.enumerate_blasiak(lam, d, nu)
        payload["tableaux"] = [tab.to_json() for tab in tableaux]
        for i, tab in enumerate(tableaux, 1):
            lines.append(f"tableau {i}:")
            lines.extend("  " + row for row in tab.to_ascii().splitlines())
        return len(tableaux), lines, payload
    if method == "rosas":
        n = lam.size
        report = rosas.rosas_report(n, lam.part(2), mu[0], len(mu) - 2, nu)
        if explain:
            payload["branch"] = report.case
            payload["arguments"] = list(report.arguments)
            lines.append(f"branch: {report.describe()}")
        return report.value, lines, payload
    if method == "nearhook":
        a, b, c = as_near_hook(mu)
        two_row = as_two_row(lam)
        if two_row and c >= 1:
            d, e = two_row
            plus, certs3 = nearhook.triple3(d, e, a, b, c, nu)
            minus, certs4 = nearhook.triple4(d, e, a, b, c, nu)
            if explain:
                payload["triple3"] = plus
                payload["triple4"] = minus
                payload["certificates"] = {
                    "plus": [cert.to_json() for cert in certs3],
                    "minus": [
                        dict(cert.to_json(), sign=-1) for cert in certs4
                    ],
                }
                lines.append(f"triple3 = {plus}")
                lines.extend("  +" + _cert_text(cert) for cert in certs3)
                lines.append(f"triple4 = {minus}")
                lines.extend("  -" + _cert_text(cert) for cert in certs4)
                witnessed = _witnesses_if_applicable(lam, mu, nu)
                if witnessed is not None:
                    value, witness_set = witnessed
                    payload["witnesses"] = witness_set.to_json()
                    removed = witness_set.removed_min
                    lines.append(
                        f"witnesses: {len(witness_set.members)} tableau(x), "
                        + ("least removed" if removed else "none removed")
                    )
                    for member in witness_set.members:
                        eta, j, r = member.source
                        tag = " (removed)" if member is removed else ""
                        lines.append(
                            f"  from ({','.join(map(str, eta))} | j={j}, r={r}){tag}:"
                        )
                        lines.extend(
                            "    " + row
                            for row in member.tableau.to_ascii().splitlines()
                        )
            return plus - minus, lines, payload
    certs, value = nearhook.near_hook_expansion(lam, nu, *as_near_hook(mu))
    if explain:
        payload["terms"] = [cert.to_json() for cert in certs]
        lines.append(f"signed expansion, {len(certs)} terms:")
        lines.extend(
            "  " + ("+" if cert.sign > 0 else "-") + _cert_text(cert)
            for cert in certs
        )
    return value, lines, payload


def _cert_text(cert) -> str:
    index = ", ".join(
        format_partition(x) if isinstance(x, tuple) else str(x) for x in cert.index
    )
    return f"[{index}] lr={cert.lr_value} g={cert.g_value}"


def _parse_triple(*texts: str) -> tuple[Partition, Partition, Partition]:
    """lambda, mu, nu parsed in turn, then checked to have one size."""
    lam, mu, nu = (_parse_partition_arg(x) for x in texts)
    if not lam.size == mu.size == nu.size:
        raise InputError(
            f"sizes differ: |lambda|={lam.size} |mu|={mu.size} |nu|={nu.size}"
        )
    return lam, mu, nu


def cmd_kron(args) -> int:
    if args.explain and args.output == "csv":
        raise InputError("--explain has no csv form; use --output text or json")
    lam, mu, nu = _parse_triple(args.lam, args.mu, args.nu)
    applicable = _applicable_methods(lam, mu)
    if args.method == "all":
        methods = [m for m, why in applicable.items() if why is None]
    else:
        why = applicable[args.method]
        if why is not None:
            raise HypothesisError(f"method {args.method}: {why}")
        methods = [args.method]
    values: dict[str, int] = {}
    timings: dict[str, float] = {}
    explains: dict[str, list[str]] = {}
    payloads: dict[str, dict] = {}
    for method in methods:
        start = time.perf_counter()
        value, lines, payload = _run_method(method, lam, mu, nu, args.explain)
        timings[method] = (time.perf_counter() - start) * 1000.0
        values[method] = value
        explains[method] = lines
        payloads[method] = payload
    distinct = sorted(set(values.values()))
    query = f"{format_partition(lam)} ; {format_partition(mu)} ; {format_partition(nu)}"
    if len(distinct) > 1:
        print(f"disagreement on g({query}):")
        for method in methods:
            print(f"  {method}: {values[method]}")
        return 1
    value = distinct[0]
    if args.output == "json":
        payload = {
            "lambda": list(lam),
            "mu": list(mu),
            "nu": list(nu),
            "method": args.method,
            "methods": {m: values[m] for m in methods},
            "value": value,
        }
        if args.explain:
            payload["explain"] = {m: payloads[m] for m in methods}
        _print_json(payload)
    elif args.output == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["lambda", "mu", "nu", "method", "value", "runtime_ms"])
        for method in methods:
            writer.writerow(
                [
                    format_partition(lam),
                    format_partition(mu),
                    format_partition(nu),
                    method,
                    values[method],
                    f"{timings[method]:.3f}",
                ]
            )
        sys.stdout.write(buf.getvalue())
    else:
        print(f"g({query}) = {value}   [{', '.join(methods)}]")
        if args.explain:
            for method in methods:
                if explains[method]:
                    print(f"-- {method} --")
                    for line in explains[method]:
                        print(line)
    return 0


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    kind = args.kind
    rest = args.params
    trace = kind == "blasiak" and rest[:1] == ["trace"]
    if args.ytableau and kind != "lr":
        raise InputError("--ytableau applies only to enumerate lr")
    if args.output == "json" and (kind == "lr" or trace):
        raise InputError(
            "--output json applies only to enumerate blasiak CONTENT TOTAL_COLOR SHAPE"
        )
    if kind == "lr":
        if len(rest) != 3:
            raise InputError("usage: enumerate lr OUTER INNER WEIGHT")
        outer, inner, weight = (_parse_partition_arg(x) for x in rest)
        if not contains(inner, outer):
            raise InputError(
                f"INNER {format_partition(inner)} is not contained in OUTER {format_partition(outer)}"
            )
        if outer.size != inner.size + weight.size:
            raise InputError(
                f"sizes do not balance: |OUTER|={outer.size}, |INNER|+|WEIGHT|={inner.size + weight.size}"
            )
        tableaux = lr_tableaux(outer, inner, weight)
        print(f"count: {len(tableaux)}")
        for i, tab in enumerate(tableaux, 1):
            print(f"tableau {i}:")
            print(tab.to_ascii())
            if args.ytableau:
                print(tab.to_ytableau())
        return 0
    # kind is "blasiak": the parser's choices admit no other
    if trace:
        word = colored.parse_colored_word(" ".join(rest[1:]))
        if not word:
            raise InputError("usage: enumerate blasiak trace LETTERS")
        print(f"word: {colored.format_colored_word(word)}")
        print(f"blft: {''.join(str(v) for v in colored.blft(word))}")
        for step, tab in enumerate(colored.mixed_insertion_trace(word), 1):
            print(f"step {step}:")
            print(tab.to_ascii())
        return 0
    if len(rest) != 3:
        raise InputError("usage: enumerate blasiak CONTENT TOTAL_COLOR SHAPE")
    lam = _parse_partition_arg(rest[0])
    try:
        d = int(rest[1])
    except ValueError as exc:
        raise InputError(f"bad total color {rest[1]!r}") from exc
    nu = _parse_partition_arg(rest[2])
    try:
        tableaux = colored.enumerate_blasiak(lam, d, nu)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.output == "json":
        _print_json([t.to_json() for t in tableaux])
        return 0
    print(f"count: {len(tableaux)}")
    for i, tab in enumerate(tableaux, 1):
        print(f"tableau {i}:")
        print(tab.to_ascii())
    return 0


# ---------------------------------------------------------------------------
# rosas


def cmd_rosas(args) -> int:
    lam, mu, nu = _parse_triple(args.two_row, args.hook, args.nu)
    why = _applicable_methods(lam, mu)["rosas"]
    if why is not None:
        raise HypothesisError(why)
    value, lines, payload = _run_method("rosas", lam, mu, nu, explain=True)
    if args.output == "json":
        _print_json(dict(payload, value=value))
    else:
        print(f"value: {value}")
        print(*lines, sep="\n")
    return 0


# ---------------------------------------------------------------------------
# expand


def cmd_expand(args) -> int:
    lam = _parse_partition_arg(args.partition)
    if args.what == "giambelli":
        if not lam:
            raise InputError("the empty partition has no hook expansion")
        for term in symfun.giambelli_leibniz(lam):
            hooks = " * ".join("s[" + format_partition(h) + "]" for h in term.hooks)
            print(("+ " if term.sign > 0 else "- ") + hooks)
    elif args.what == "jacobi-trudi":
        for sign, mono in symfun.jacobi_trudi(lam):
            text = " * ".join(f"h[{k}]" for k in mono) if mono else "1"
            print(("+ " if sign > 0 else "- ") + text)
    else:  # coproduct
        for mu, nu, coeff in symfun.coproduct(lam):
            print(
                f"{coeff} * s[{format_partition(mu)}] (x) s[{format_partition(nu)}]"
            )
    return 0


# ---------------------------------------------------------------------------
# verify

MAX_JOBS = 64  # verify opens one pool of this many workers per suite


def cmd_verify(args) -> int:
    if args.n is not None and args.n < 0:
        raise InputError(f"--n must be >= 0, got {args.n}")
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs > MAX_JOBS:
        raise InputError(f"--jobs must be <= {MAX_JOBS}, got {args.jobs}")
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in verify.SUITES:
        raise InputError(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(verify.SUITES))} or all"
        )
    failed = False
    reports = []
    for name in names:
        checks, failures = verify.run_suite(name, args.n, jobs=args.jobs)
        reports.append(verify.report(name, args.n, checks, failures))
        failed = failed or bool(failures)
    print("\n\n".join(reports))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


CACHE_FILE_HELP = "accepted and ignored; characters are memoized per process"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kroncalc",
        description="Exact Kronecker coefficients by independent methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kron = sub.add_parser("kron", help="compute one Kronecker coefficient")
    kron.add_argument("lam", metavar="LAMBDA")
    kron.add_argument("mu", metavar="MU")
    kron.add_argument("nu", metavar="NU")
    kron.add_argument(
        "--method",
        choices=["oracle", "blasiak", "rosas", "nearhook", "all"],
        default="all",
    )
    kron.add_argument("--output", choices=["text", "json", "csv"], default="text")
    kron.add_argument("--explain", action="store_true")
    kron.add_argument("--cache-file", help=CACHE_FILE_HELP)
    kron.set_defaults(func=cmd_kron)

    enum = sub.add_parser("enumerate", help="enumerate tableaux or trace insertion")
    enum.add_argument("kind", choices=["lr", "blasiak"])
    enum.add_argument("params", nargs="*")
    enum.add_argument("--output", choices=["text", "json"], default="text")
    enum.add_argument("--ytableau", action="store_true")
    enum.set_defaults(func=cmd_enumerate)

    ros = sub.add_parser("rosas", help="two-row x hook closed form with branch report")
    ros.add_argument("two_row", metavar="TWO_ROW")
    ros.add_argument("hook", metavar="HOOK")
    ros.add_argument("nu", metavar="NU")
    ros.add_argument("--output", choices=["text", "json"], default="text")
    ros.set_defaults(func=cmd_rosas)

    exp = sub.add_parser("expand", help="print structural expansions")
    exp.add_argument("what", choices=["giambelli", "jacobi-trudi", "coproduct"])
    exp.add_argument("partition", metavar="PARTITION")
    exp.set_defaults(func=cmd_expand)

    ver = sub.add_parser("verify", help="run verification sweeps")
    ver.add_argument("suite")
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument(
        "--jobs", type=int, default=1, help=f"worker processes, 1 to {MAX_JOBS}"
    )
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, AssertionError) as exc:
        # a failed consistency check inside an engine, not a user error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
