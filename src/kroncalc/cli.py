"""Command line front end: `parse_args` reads the `COMMANDS` table.

Subcommands: kron (coefficient queries by any method), enumerate (LR and
hook-rule tableaux, insertion traces), expand (hook determinant /
Jacobi-Trudi / coproduct printing), verify (exhaustive sweep suites).  kron
reads the `METHODS` table: one row per method, its hypotheses and its
evaluator, so a new method is one row.  Options go before, between or after
positionals, as --opt value, --opt=value or a unique prefix of --opt; "--"
ends them, and -h prints help.

Exit codes: 0 success, 1 verification failure or method disagreement,
2 input error, 3 method hypotheses not met, 4 internal error (a failed
consistency check or a fault inside an engine), 141 stdout closed by its
reader.  Partitions use the text syntax "6,2,1^6"; colored words use
space-separated letters with a trailing apostrophe for bars ("2' 1 4' 4").
"""

from __future__ import annotations

import os
import re
import sys
import time
from types import SimpleNamespace

from . import colored, nearhook, rosas, symfun
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


class InputError(ValueError):
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


# Largest n measured for the oracle: a cold `kron --method oracle` query at
# n = 40 took at most 1.08 s CPU and 87.5 MB peak RSS for the whole process
# (twelve triples, 3 runs each: ten drawn by random.Random(40) from all
# partitions of 40, and 11,9,6,5,4,2,2,1 34,1^6 10,9,6,5,4,3,2,1 and
# 9,8,7,6,5,4,1 21,1^19 9,8,7,6,5,3,2; a shared 2-core machine, Python
# 3.11.7).  A single triple sums three character rows over the p(n) cycle
# types, so the cost grows with p(n).
ORACLE_MAX_N = 40

# Largest oracle size n - b + 1 for the near-hook method's signed expansion,
# which calls the oracle once per term and so does not inherit the bound
# above.  Cold `kron --method nearhook` with c = 0 at n - b + 1 = 26 (lam and
# nu with six to eight corners, one triple for each b = 2-7) took 0.13-8.5 s
# CPU and at most 63 MB peak RSS, rising with b; at n - b + 1 = 37 the triple
# 9,8,7,6,5,4,1 36,4 9,8,7,6,5,3,2 (b = 4) took 11.1 s and 292 MB.  The bound
# does not cap the number of terms, which grows with b: at n - b + 1 = 26,
# 9,7,6,5,3,2,1 25,8 8,7,6,4,3,2,2,1 (b = 8), 9,8,6,5,3,2,1 25,9
# 8,7,6,5,3,2,2,1 (b = 9) and 9,8,7,5,3,2,1 25,10 9,7,6,5,3,2,2,1 (b = 10)
# took 17.5, 27.1 and 35.0 s CPU and 85, 97 and 111 MB peak RSS (one cold run
# each, 2-core machine, Python 3.11.7; the oracle gave the same values).
EXPANSION_MAX_N = 26


def _oracle_applies(lam, mu):
    n = lam.size
    return None if n <= ORACLE_MAX_N else f"n = {n} is above the bound {ORACLE_MAX_N}"


def _oracle(lam, mu, nu, explain):
    return symfun.kronecker_coefficient(lam, mu, nu), [], {}


def _blasiak_applies(lam, mu):
    return None if as_hook(mu) else "mu is not a hook (m, 1^d)"


def _blasiak(lam, mu, nu, explain):
    d = len(mu) - 1
    if not explain:
        return colored.count_blasiak(lam, d, nu), [], {}
    tableaux = colored.enumerate_blasiak(lam, d, nu)
    lines = []
    for i, tab in enumerate(tableaux, 1):
        lines.append(f"tableau {i}:")
        lines.extend("  " + row for row in tab.to_ascii().splitlines())
    return len(tableaux), lines, {"tableaux": [tab.to_json() for tab in tableaux]}


def _rosas_applies(lam, mu):
    if not as_hook(mu) or len(mu) < 2:
        return "mu is not a hook (a, 1^(c+1)) with c >= 0"
    return None if as_two_row(lam) else "lambda is not a two-row partition"


def _rosas(lam, mu, nu, explain):
    report = rosas.rosas_report(lam.size, lam.part(2), mu[0], len(mu) - 2, nu)
    if not explain:
        return report.value, [], {}
    payload = {"branch": report.case, "arguments": list(report.arguments)}
    return report.value, [f"branch: {report.describe()}"], payload


def _nearhook_applies(lam, mu):
    near_hook = as_near_hook(mu)
    if near_hook is None:
        return "mu is not a near-hook (a, b, 1^c) with a >= b >= 2"
    # the signed expansion, unlike the triple sums, calls the oracle at n - b + 1
    inner = lam.size - near_hook[1] + 1
    if inner > EXPANSION_MAX_N and not _triple_sums(lam, near_hook):
        return f"the signed expansion calls the oracle at n - b + 1 = {inner}, above the bound {EXPANSION_MAX_N}"
    return None


def _triple_sums(lam, near_hook):
    """(d, e) when the near-hook method takes the triple sums (two-row lam, c >= 1), else None."""
    return as_two_row(lam) if near_hook[2] >= 1 else None


def _nearhook(lam, mu, nu, explain):
    lines: list[str] = []
    payload: dict = {}
    a, b, c = near_hook = as_near_hook(mu)
    two_row = _triple_sums(lam, near_hook)
    if two_row:
        d, e = two_row
        plus, certs3 = nearhook.triple3(d, e, a, b, c, nu)
        minus, certs4 = nearhook.triple4(d, e, a, b, c, nu)
        if explain:
            payload["triple3"] = plus
            payload["triple4"] = minus
            payload["certificates"] = {
                "plus": [cert.to_json() for cert in certs3],
                "minus": [dict(cert.to_json(), sign=-1) for cert in certs4],
            }
            lines.append(f"triple3 = {plus}")
            lines.extend("  +" + _cert_text(cert) for cert in certs3)
            lines.append(f"triple4 = {minus}")
            lines.extend("  -" + _cert_text(cert) for cert in certs4)
            witnessed = nearhook.witnesses_for(d, e, a, b, c, nu)
            if witnessed is not None:
                witness_set = witnessed[1]
                payload["witnesses"] = witness_set.to_json()
                removed = witness_set.removed_min
                lines.append(
                    f"witnesses: {len(witness_set.members)} tableau(x), "
                    + ("least removed" if removed else "none removed")
                )
                for member in witness_set.members:
                    eta, j, r = member.source
                    tag = " (removed)" if member is removed else ""
                    lines.append(f"  from ({','.join(map(str, eta))} | j={j}, r={r}){tag}:")
                    lines.extend("    " + row for row in member.tableau.to_ascii().splitlines())
        return plus - minus, lines, payload
    if not explain:
        return nearhook.near_hook_value(lam, nu, a, b, c), lines, payload
    certs, value = nearhook.near_hook_expansion(lam, nu, a, b, c)
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


# name -> (applies(lam, mu): None, or the text of the failed hypothesis;
# evaluate(lam, mu, nu, explain): the value, the --explain lines and the json
# payload).  `kron --method all` runs the rows that apply, in this order.
METHODS = {
    "oracle": (_oracle_applies, _oracle),
    "blasiak": (_blasiak_applies, _blasiak),
    "rosas": (_rosas_applies, _rosas),
    "nearhook": (_nearhook_applies, _nearhook),
}


def _applicable_methods(lam, mu):
    """Method -> None if applicable, else the failed hypothesis."""
    return {name: applies(lam, mu) for name, (applies, _) in METHODS.items()}


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
    methods = [m for m, why in applicable.items() if why is None and args.method in (m, "all")]
    if not methods and args.method != "all":
        raise HypothesisError(f"method {args.method}: {applicable[args.method]}")
    if not methods:
        raise HypothesisError("no method applies: " + "; ".join(f"{m}: {why}" for m, why in applicable.items()))
    results = {}  # method -> (value, explain lines, explain json payload, runtime in ms)
    for method in methods:
        start = time.perf_counter()
        value, lines, payload = METHODS[method][1](lam, mu, nu, args.explain)
        results[method] = value, lines, payload, (time.perf_counter() - start) * 1000.0
    distinct = {result[0] for result in results.values()}
    value = distinct.pop() if len(distinct) == 1 else None  # None: the methods disagree
    texts = [format_partition(p) for p in (lam, mu, nu)]
    query = " ; ".join(texts)
    if args.output == "json":
        payload = {
            "lambda": list(lam),
            "mu": list(mu),
            "nu": list(nu),
            "method": args.method,
            "methods": {m: result[0] for m, result in results.items()},
            "value": value,
        }
        if args.explain:
            payload["explain"] = {m: result[2] for m, result in results.items()}
        _print_json(payload)
    elif args.output == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["lambda", "mu", "nu", "method", "value", "runtime_ms"])
        for method, (method_value, _, _, runtime) in results.items():
            writer.writerow([*texts, method, method_value, f"{runtime:.3f}"])
    elif value is None:
        print(f"disagreement on g({query}):")
        for method, result in results.items():
            print(f"  {method}: {result[0]}")
    else:
        print(f"g({query}) = {value}   [{', '.join(methods)}]")
        if args.explain:
            for method, (_, lines, _, _) in results.items():
                if lines:
                    print(f"-- {method} --", *lines, sep="\n")
    return 1 if value is None else 0


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
    if trace:
        text = " ".join(rest[1:])
        try:
            word = colored.parse_colored_word(text)
        except ValueError as exc:
            raise InputError(f"bad colored word {text!r}: {exc}") from exc
        if not word:
            raise InputError("usage: enumerate blasiak trace LETTERS")
        print(f"word: {colored.format_colored_word(word)}")
        values = colored.blft(word)  # separated once a value has two digits, so the line reads back
        print(f"blft: {(' ' if max(values) > 9 else '').join(map(str, values))}")
        for step, tab in enumerate(colored.mixed_insertion_trace(word), 1):
            print(f"step {step}:")
            print(tab.to_ascii())
        return 0
    if len(rest) != 3:
        usage = "OUTER INNER WEIGHT" if kind == "lr" else "CONTENT TOTAL_COLOR SHAPE"
        raise InputError(f"usage: enumerate {kind} {usage}")
    if kind == "lr":
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
    else:  # kind is "blasiak": the parser's choices admit no other
        lam = _parse_partition_arg(rest[0])
        try:
            d = int(rest[1])
        except ValueError as exc:
            raise InputError(f"bad total color {rest[1]!r}") from exc
        nu = _parse_partition_arg(rest[2])
        tableaux = colored.enumerate_blasiak(lam, d, nu)
        if args.output == "json":
            _print_json([t.to_json() for t in tableaux])
            return 0
    print(f"count: {len(tableaux)}")
    for i, tab in enumerate(tableaux, 1):
        print(f"tableau {i}:")
        print(tab.to_ascii())
        if args.ytableau:  # the option check admits it only for lr
            print(tab.to_ytableau())
    return 0


# ---------------------------------------------------------------------------
# expand


def cmd_expand(args) -> int:
    lam = _parse_partition_arg(args.partition)
    if args.what == "giambelli":
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

MAX_JOBS = 64  # verify runs every selected suite on one pool of at most this many workers


def cmd_verify(args) -> int:
    from . import verify  # only this command reads the sweep suites
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
    results = verify.run_suites(names, args.n, jobs=args.jobs)
    print("\n\n".join(verify.report(name, args.n, *result) for name, result in zip(names, results)))
    return 1 if any(failures for _, failures in results) else 0


# ---------------------------------------------------------------------------
# command line


# command -> (handler, help, positionals, options).  A positional maps to its
# metavar or its tuple of choices, and "params" takes zero or more tokens.  An
# option maps to (kind, default, help); kind is bool, str, int or the choices.
COMMANDS = {
    "kron": (cmd_kron, "compute one Kronecker coefficient", {"lam": "LAMBDA", "mu": "MU", "nu": "NU"}, {
        "--method": ((*METHODS, "all"), "all",
                     f"the oracle takes n up to {ORACLE_MAX_N}; all runs every method that applies"),
        "--output": (("text", "json", "csv"), "text", ""), "--explain": (bool, False, ""),
        "--cache-file": (str, None, "accepted and ignored; characters are memoized per process"),
    }),
    "enumerate": (cmd_enumerate, "enumerate tableaux or trace insertion", {"kind": ("lr", "blasiak"), "params": "PARAMS"},
                  {"--output": (("text", "json"), "text", ""), "--ytableau": (bool, False, "")}),
    "expand": (cmd_expand, "print structural expansions",
               {"what": ("giambelli", "jacobi-trudi", "coproduct"), "partition": "PARTITION"}, {}),
    "verify": (cmd_verify, "run verification sweeps", {"suite": "SUITE"},
               {"--n": (int, None, ""), "--jobs": (int, 1, f"worker processes, 1 to {MAX_JOBS}")}),
}

# as in argparse, "-", "-1", "-.5" and any token with a space are values, not options
_VALUE = re.compile(r"|[^-].*|-|-\d+|-\d*\.\d+|.* .*", re.DOTALL)


def _exit(code: int, usage: str, *lines: str):
    """Print the usage line and lines: help to stdout (0) or an error to stderr (2)."""
    print(f"usage: {usage}", *lines, sep="\n", file=sys.stderr if code else sys.stdout)
    raise SystemExit(code)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The handler's arguments, with `func` and `command`, for a command line
    without the program name; raises SystemExit(2) if malformed, (0) after -h."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        usage = "kroncalc [-h] {" + ",".join(COMMANDS) + "} ..."
        if command == "-h" or len(command) > 2 and "--help".startswith(command):
            _exit(0, usage, "", "Exact Kronecker coefficients by independent methods.", "",
                  *(f"  {name:26} {spec[1]}" for name, spec in COMMANDS.items()))
        _exit(2, usage, f"kroncalc: error: {f'invalid command {command!r}' if argv else 'a command is required'}")
    func, about, positionals, options = COMMANDS[command]
    shown = {o: o if k is bool else f"{o} {{{','.join(k)}}}" if isinstance(k, tuple)
             else f"{o} {o[2:].upper().replace('-', '_')}" for o, (k, _, _) in options.items()}
    usage = " ".join([f"kroncalc {command} [-h]"] + [f"[{s}]" for s in shown.values()] + [
        "[PARAMS ...]" if p == "params" else k if isinstance(k, str) else "{" + ",".join(k) + "}"
        for p, k in positionals.items()])

    def fail(message: str):
        _exit(2, usage, f"kroncalc {command}: error: {message}")

    args = SimpleNamespace(command=command, func=func, **{o[2:].replace("-", "_"): s[1] for o, s in options.items()})
    values, extras = [], []
    rest = iter(argv[1:])
    for token in rest:
        if token == "--":
            values += rest
            continue
        if _VALUE.fullmatch(token):
            values.append(token)
            continue
        name, eq, value = token.partition("=")
        hits = [o for o in ("-h", "--help", *options)
                if o == name or len(name) > 2 and name.startswith("--") and o.startswith(name)]
        option = name if name in hits else hits[0] if len(hits) == 1 else None
        if option in ("-h", "--help"):
            _exit(0, usage, "", about, "", *(f"  {shown[o]:26} {text} {f'(default: {d})' if d else ''}".rstrip()
                                             for o, (_, d, text) in options.items()))
        if option is None:
            extras.append(token)
            continue
        kind = options[option][0]
        if kind is bool:
            value = not eq or fail(f"argument {option}: ignored explicit argument {value!r}")
        elif not eq:
            value = next(rest, "--")
            if not _VALUE.fullmatch(value):
                fail(f"argument {option}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                fail(f"argument {option}: invalid int value: {value!r}")
        elif isinstance(kind, tuple) and value not in kind:
            fail(f"argument {option}: invalid choice: {value!r} (choose from {', '.join(kind)})")
        setattr(args, option[2:].replace("-", "_"), value)
    required = [p for p in positionals if p != "params"]
    for name, token in zip(required, values):
        if isinstance(positionals[name], tuple) and token not in positionals[name]:
            fail(f"argument {name}: invalid choice: {token!r} (choose from {', '.join(positionals[name])})")
        setattr(args, name, token)
    if "params" in positionals:
        args.params, values = values[len(required):], values[:len(required)]
    extras += values[len(required):]
    if len(values) < len(required) or extras:
        fail(f"the following arguments are required: {', '.join(required[len(values):])}"
             if len(values) < len(required) else f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # a RuntimeError, but the input is at fault, not an engine
        print(f"error: input too deep for the recursive walkers (recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    except MemoryError:  # as with RecursionError, the input is at fault
        print("error: input too large: out of memory", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, AssertionError, LookupError, TypeError) as exc:
        # a failed consistency check or a fault inside an engine, not a user error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    """Run main; a reader that closes stdout early ends the run with 141 (128 + SIGPIPE)."""
    try:
        try:
            code = main()
        finally:  # the help of parse_args, too, leaves its lines in the buffer
            sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; give it somewhere to write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
