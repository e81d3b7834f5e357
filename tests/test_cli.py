import argparse
import csv
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import random
import re
import shlex
import subprocess
import sys

import pytest

import kroncalc
from kroncalc import cli, memo
from kroncalc.cli import EXPANSION_MAX_N, ORACLE_MAX_N, _applicable_methods, main, parse_args
from kroncalc.partition import Partition, format_partition

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kron_all_methods_agree(capsys):
    code, out, _ = run(capsys, "kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "all")
    assert code == 0
    assert "= 5" in out
    assert "oracle" in out and "blasiak" in out


def test_kron_nearhook_explain(capsys):
    code, out, _ = run(
        capsys, "kron", "4,3", "3,2,1,1", "3,2,1,1", "--method", "nearhook", "--explain"
    )
    assert code == 0
    assert "= 4" in out
    assert "triple3 = 8" in out
    assert "triple4 = 4" in out


def test_kron_nearhook_explain_off_the_witness_range(capsys):
    # nu = (2,2,2) reads as s = 3 > (c + 2) // 2 = 1: no witness family applies
    code, out, err = run(
        capsys, "kron", "4,2", "3,2,1", "2,2,2", "--method", "nearhook", "--explain"
    )
    assert (code, err) == (0, "")
    assert out == (
        "g(4,2 ; 3,2,1 ; 2,2,2) = 1   [nearhook]\n"
        "-- nearhook --\n"
        "triple3 = 2\n"
        "  +[2,2,1, 0, 1] lr=1 g=1\n"
        "  +[2,2,1, 0, 2] lr=1 g=1\n"
        "triple4 = 1\n"
        "  -[2,1, 1, 1] lr=1 g=1\n"
    )


def test_kron_rosas_branch(capsys):
    code, out, _ = run(
        capsys, "kron", "6,2", "2,1^6", "3,2,1,1,1", "--method", "rosas", "--explain"
    )
    assert code == 0
    assert "= 1" in out
    assert "double-hook" in out


def test_kron_size_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "kron", "3,1", "2,1", "3,1")
    assert code == 2
    assert "sizes differ" in err
    # mu = (2,1^3) fits no rosas hypothesis, but the sizes are checked first
    code, _, err = run(capsys, "kron", "3,2,1", "2,1^3", "3,2,1", "--method", "rosas")
    assert code == 2
    assert "sizes differ: |lambda|=6 |mu|=5 |nu|=6" in err


def test_kron_bad_partition_exits_2(capsys):
    code, _, err = run(capsys, "kron", "3,x", "2,1", "3,1")
    assert code == 2
    assert "bad partition" in err


def test_kron_hypothesis_not_met_exits_3(capsys):
    code, _, err = run(capsys, "kron", "3,1", "2,2", "3,1", "--method", "rosas")
    assert code == 3
    assert "hypothesis not met" in err
    code, _, err = run(capsys, "kron", "2,1,1", "2,1,1", "3,1", "--method", "nearhook")
    assert code == 3


def test_kron_oracle_rejects_n_above_bound(capsys):
    # every query here is rejected before any method runs
    n = ORACLE_MAX_N + 1
    reason = f"n = {n} is above the bound {ORACLE_MAX_N}"
    code, out, err = run(capsys, "kron", f"{n}", f"{n}", f"{n}", "--method", "oracle")
    assert (code, out) == (3, "")
    assert err == f"hypothesis not met: method oracle: {reason}\n"
    code, out, err = run(capsys, "kron", f"{n}", f"{n - 6},3,3", f"{n}")
    assert (code, out) == (3, "")
    assert err.startswith(f"hypothesis not met: no method applies: oracle: {reason}; blasiak: ")
    # --method all keeps the other methods that apply
    applicable = _applicable_methods(Partition((n - 2, 2)), Partition((n - 1, 1)))
    assert applicable["oracle"] == reason
    assert [m for m, why in applicable.items() if why is None] == ["blasiak", "rosas"]
    assert _applicable_methods(Partition((n - 1,)), Partition((n - 1,)))["oracle"] is None


def test_nearhook_refuses_an_inner_oracle_size_above_the_bound(capsys, monkeypatch):
    from kroncalc import symfun

    def entered(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(symfun, "_char", entered)
    # the signed expansion calls the oracle at n - b + 1, and its bound is its own
    code, out, err = run(capsys, "kron", "8,7,6,5,4", "3,2,1^25", "10,8,6,4,2", "--method", "nearhook")
    assert (code, out) == (3, "")
    assert err == (
        "hypothesis not met: method nearhook: the signed expansion calls the oracle"
        f" at n - b + 1 = 29, above the bound {EXPANSION_MAX_N}\n"
    )
    code, out, err = run(capsys, "kron", "10,8,6,5,4,3,2,1,1,1", "4,3,1^34", "12,10,8,6,5")  # n = 41
    assert (code, out) == (3, "")
    assert err.endswith(
        f"; nearhook: the signed expansion calls the oracle at n - b + 1 = 39, above the bound {EXPANSION_MAX_N}\n"
    )
    # c = 0 takes the signed expansion even for a two-row lambda
    assert "n - b + 1 = 29" in _applicable_methods(Partition((20, 10)), Partition((28, 2)))["nearhook"]
    # a two-row lambda with c >= 1 takes the triple sums, which need no oracle
    code, out, err = run(capsys, "kron", "28,2", "3,2,1^25", "3,2,1^25", "--method", "nearhook")
    assert (code, err) == (0, "")
    assert out.endswith(") = 4   [nearhook]\n")


def test_kron_json_round_trip(capsys):
    args = ["kron", "4,2", "4,2", "4,2", "--output", "json"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    # re-querying from the parsed payload reproduces identical output
    again = [
        "kron",
        ",".join(str(x) for x in payload["lambda"]),
        ",".join(str(x) for x in payload["mu"]),
        ",".join(str(x) for x in payload["nu"]),
        "--method",
        payload["method"],
        "--output",
        "json",
    ]
    code2, out2, _ = run(capsys, *again)
    assert code2 == 0 and out2 == out


def test_kron_csv_schema(capsys):
    code, out, _ = run(capsys, "kron", "4,2", "4,2", "4,2", "--output", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "lambda,mu,nu,method,value,runtime_ms"
    assert len(out.splitlines()) >= 2


def test_enumerate_blasiak(capsys):
    code, out, _ = run(capsys, "enumerate", "blasiak", "5,2,1", "4", "4,2,1,1")
    assert code == 0
    assert out.startswith("count: 5")
    assert "1' 1  1  1" in out


def test_enumerate_blasiak_listing_bytes_are_pinned(capsys):
    code, out, err = run(capsys, "enumerate", "blasiak", "5,2,1", "4", "4,2,1,1")
    assert (code, err) == (0, "")
    assert out == (
        "count: 5\n"
        "tableau 1:\n1' 1  1  1\n1' 3'\n2'\n2\n"
        "tableau 2:\n1' 1  1  2'\n1' 2\n1'\n3\n"
        "tableau 3:\n1' 1  1  2'\n1' 3'\n1\n2\n"
        "tableau 4:\n1' 1  1  3'\n1' 2'\n1\n2\n"
        "tableau 5:\n1' 1  1  3'\n1' 2\n1'\n2\n"
    )


def test_enumerate_lr(capsys):
    code, out, _ = run(capsys, "enumerate", "lr", "5,4,2,1", "4,2", "4,1,1")
    assert code == 0
    assert out.startswith("count: 2")
    assert ". . . . 1" in out


def test_enumerate_lr_ytableau_prints_each_grid_as_latex(capsys):
    code, out, err = run(capsys, "enumerate", "lr", "5,4,2,1", "4,2", "4,1,1", "--ytableau")
    assert (code, err) == (0, "")
    assert out == (
        "count: 2\n"
        "tableau 1:\n. . . . 1\n. . 1 1\n1 2\n3\n"
        r"\begin{ytableau} \none & \none & \none & \none & 1 \\ \none & \none & 1 & 1 \\ 1 & 2 \\ 3 \end{ytableau}"
        "\n"
        "tableau 2:\n. . . . 1\n. . 1 2\n1 1\n3\n"
        r"\begin{ytableau} \none & \none & \none & \none & 1 \\ \none & \none & 1 & 2 \\ 1 & 1 \\ 3 \end{ytableau}"
        "\n"
    )


def test_enumerate_trace(capsys):
    code, out, _ = run(
        capsys, "enumerate", "blasiak", "trace", "2'", "1", "4'", "4", "4'", "3", "1'", "3"
    )
    assert code == 0
    assert "blft: 24411433" in out
    assert "step 8:" in out
    assert "1' 2' 3  3" in out


def test_enumerate_bad_shape_exits_2(capsys):
    code, _, err = run(capsys, "enumerate", "lr", "5,4", "oops", "4,1,1")
    assert code == 2


def test_enumerate_blasiak_size_mismatch_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "blasiak", "5,2,1", "4", "4,2,1")
    assert code == 2
    assert out == ""
    assert err == "error: shape size 7 differs from content size 8\n"


def test_enumerate_blasiak_empty_content_exits_2(capsys):
    # (n - d, 1^d) is a hook only for n >= 1, as kron's check of mu says
    code, out, err = run(capsys, "enumerate", "blasiak", "", "0", "")
    assert code == 2
    assert out == ""
    assert err == "error: content must be nonempty: the hook (n-d, 1^d) needs n >= 1\n"


def test_enumerate_blasiak_color_out_of_range_prints_the_content_as_typed(capsys):
    code, out, err = run(capsys, "enumerate", "blasiak", "2,1", "5", "3")
    assert code == 2
    assert out == ""
    assert err == "error: total color 5 out of range for content 2,1\n"


@pytest.mark.parametrize(
    "letters,line",
    [(("1", "11"), "blft: 1 11"), (("11", "1"), "blft: 11 1")],
    ids=["one-eleven", "eleven-one"],
)
def test_enumerate_trace_blft_line_reads_back(capsys, letters, line):
    # joined with no separator, (1, 11) and (11, 1) would both print "111";
    # test_enumerate_trace pins the README word's unseparated "blft: 24411433"
    code, out, _ = run(capsys, "enumerate", "blasiak", "trace", *letters)
    assert code == 0
    assert out.splitlines()[1] == line


@pytest.mark.parametrize(
    "letters,message",
    [
        (("x",), "bad colored word 'x': invalid literal for int() with base 10: 'x'"),
        (("2'", "0"), "bad colored word \"2' 0\": letter values start at 1"),
    ],
    ids=["not-a-number", "value-zero"],
)
def test_enumerate_trace_bad_colored_word_exits_2(capsys, letters, message):
    code, out, err = run(capsys, "enumerate", "blasiak", "trace", *letters)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("5,4", "4,2", "4,1,1"), "error: sizes do not balance: |OUTER|=9, |INNER|+|WEIGHT|=12\n"),
        (("3,1", "4,2", "1"), "error: INNER 4,2 is not contained in OUTER 3,1\n"),
    ],
    ids=["sizes-unbalanced", "inner-not-contained"],
)
def test_enumerate_lr_unfillable_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "enumerate", "lr", *argv)
    assert code == 2
    assert out == ""
    assert err == message


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "lr", "5,4,2,1", "4,2", "4,1,1", "--output", "json"),
        ("enumerate", "blasiak", "trace", "2'", "1", "--output", "json"),
        ("enumerate", "blasiak", "5,2,1", "4", "4,2,1,1", "--ytableau"),
        ("enumerate", "blasiak", "trace", "2'", "1", "--ytableau"),
        ("kron", "4,2", "4,2", "4,2", "--explain", "--output", "csv"),
    ],
    ids=["lr-json", "trace-json", "blasiak-ytableau", "trace-ytableau", "kron-explain-csv"],
)
def test_option_that_would_be_ignored_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (("lr", "5,4"), "usage: enumerate lr OUTER INNER WEIGHT"),
        (("blasiak", "trace"), "usage: enumerate blasiak trace LETTERS"),
        (("blasiak", "2,1", "1"), "usage: enumerate blasiak CONTENT TOTAL_COLOR SHAPE"),
        (("blasiak", "2,1", "x", "2,1"), "bad total color 'x'"),
    ],
    ids=["lr-arity", "trace-empty", "blasiak-arity", "blasiak-bad-color"],
)
def test_enumerate_malformed_arguments_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "enumerate", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_expand_outputs(capsys):
    code, out, _ = run(capsys, "expand", "giambelli", "4,3,1,1")
    assert code == 0
    assert "+ s[4,1,1,1] * s[2]" in out
    assert "- s[4] * s[2,1,1,1]" in out
    code, out, _ = run(capsys, "expand", "jacobi-trudi", "3,1")
    assert "+ h[3] * h[1]" in out and "- h[4]" in out
    code, out, _ = run(capsys, "expand", "coproduct", "2,1")
    assert "s[1] (x) s[1,1]" in out


def test_expand_giambelli_of_the_empty_partition_exits_2(capsys):
    code, out, err = run(capsys, "expand", "giambelli", "")
    assert (code, out, err) == (2, "", "error: empty partition has no hook expansion\n")


def _module(argv):
    """The command line and environment of python -m kroncalc argv, importing this checkout's kroncalc."""
    src = os.path.dirname(os.path.dirname(kroncalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "kroncalc", *argv], dict(os.environ, PYTHONPATH=path)


def _run_module(argv, **kwargs):
    """python -m kroncalc argv in a subprocess that imports this checkout's kroncalc."""
    command, env = _module(argv)
    return subprocess.run(command, capture_output=True, text=True, env=env, **kwargs)


def test_module_entry_point_matches_in_process(capsys):
    argv = ["kron", "4,2", "4,2", "4,2"]
    proc = _run_module(argv, timeout=60)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def _loaded_after_cli_import(names):
    src = os.path.dirname(os.path.dirname(kroncalc.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import kroncalc.cli; "
        f"print(sorted({set(names)!r} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    assert _loaded_after_cli_import({"dataclasses", "inspect", "json", "csv"}) == "[]\n"


def test_cli_import_leaves_argparse_locale_and_verify_unloaded():
    # argparse's gettext calls import locale; verify is read by cmd_verify only
    names = {"argparse", "gettext", "locale", "kroncalc.verify"}
    assert _loaded_after_cli_import(names) == "[]\n"


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "giambelli", "--n", "5")
    assert code == 0
    assert out.strip().endswith("PASS")
    code, _, err = run(capsys, "verify", "not-a-suite")
    assert code == 2


def test_verify_byte_identical_across_jobs(capsys):
    code1, out1, _ = run(capsys, "verify", "littlewood", "--n", "4", "--jobs", "1")
    code2, out2, _ = run(capsys, "verify", "littlewood", "--n", "4", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_starts_no_more_workers_than_units(capsys, monkeypatch):
    requested = []

    class InProcessPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def starmap(self, fn, tasks, chunksize=1):
            return [fn(*task) for task in tasks]

    class Context:
        Pool = InProcessPool

    # the fake context maps in this process, so no worker is started
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    code, out, _ = run(capsys, "verify", "giambelli", "--n", "2", "--jobs", "64")
    assert code == 0
    assert "checks: 3" in out and out.strip().endswith("PASS")
    assert requested == [2]  # giambelli has one unit per n from 1 to 2


def _blasiak_off_by_one(monkeypatch):
    applies, evaluate = cli.METHODS["blasiak"]

    def broken(lam, mu, nu, explain):
        value, lines, payload = evaluate(lam, mu, nu, explain)
        return value + 1, lines, payload

    monkeypatch.setitem(cli.METHODS, "blasiak", (applies, broken))


def test_disagreement_reports_and_exits_1(capsys, monkeypatch):
    _blasiak_off_by_one(monkeypatch)
    code, out, _ = run(capsys, "kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "all")
    assert code == 1
    assert "disagreement" in out
    assert "oracle: 5" in out and "blasiak: 6" in out


def test_disagreement_keeps_json_and_csv_machine_readable(capsys, monkeypatch):
    _blasiak_off_by_one(monkeypatch)
    query = ("kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "all")
    code, out, err = run(capsys, *query, "--output", "json")
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["value"] is None
    assert payload["methods"] == {"oracle": 5, "blasiak": 6}
    code, out, err = run(capsys, *query, "--output", "json", "--explain")
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["value"] is None and set(payload["explain"]) == {"oracle", "blasiak"}
    code, out, err = run(capsys, *query, "--output", "csv")
    assert code == 1 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lambda", "mu", "nu", "method", "value", "runtime_ms"]
    assert [row[3:5] for row in rows[1:]] == [["oracle", "5"], ["blasiak", "6"]]


def test_cache_file_round_trip(tmp_path, capsys):
    # --cache-file is accepted and ignored: same bytes out, no file written
    cache = tmp_path / "chars.json"
    query = ("kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "all", "--output", "json")
    code, plain, _ = run(capsys, *query)
    assert code == 0
    code, out, _ = run(capsys, *query, "--cache-file", str(cache))
    assert code == 0
    assert out == plain
    assert not cache.exists()


def test_verify_cache_file_exits_2(capsys):
    # verify never read a cache file, so it no longer takes the option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lr", "--cache-file", "X"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-file X" in capsys.readouterr().err


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser kroncalc used before parse_args: the reference."""
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
        "--method", choices=["oracle", "blasiak", "rosas", "nearhook", "all"], default="all"
    )
    kron.add_argument("--output", choices=["text", "json", "csv"], default="text")
    kron.add_argument("--explain", action="store_true")
    kron.add_argument("--cache-file")
    kron.set_defaults(func=cli.cmd_kron)

    enum = sub.add_parser("enumerate", help="enumerate tableaux or trace insertion")
    enum.add_argument("kind", choices=["lr", "blasiak"])
    enum.add_argument("params", nargs="*")
    enum.add_argument("--output", choices=["text", "json"], default="text")
    enum.add_argument("--ytableau", action="store_true")
    enum.set_defaults(func=cli.cmd_enumerate)

    exp = sub.add_parser("expand", help="print structural expansions")
    exp.add_argument("what", choices=["giambelli", "jacobi-trudi", "coproduct"])
    exp.add_argument("partition", metavar="PARTITION")
    exp.set_defaults(func=cli.cmd_expand)

    ver = sub.add_parser("verify", help="run verification sweeps")
    ver.add_argument("suite")
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--jobs", type=int, default=1)
    ver.set_defaults(func=cli.cmd_verify)

    return parser


def _readme_argvs():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_readme_command_lines_exit_0(capsys):
    argvs = _readme_argvs()
    assert len(argvs) == 11
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


def _queries():
    with open(os.path.join(REPO, "perfbench", "queries.json"), encoding="utf-8") as handle:
        pool = json.load(handle)
    return [query for group in pool.values() for query in group]


def _queries_argvs():
    return [query["argv"] for query in _queries()]


def test_kron_answers_the_benchmark_queries_with_their_stored_values(capsys):
    queries = _queries()
    assert len(queries) == 30
    for query in queries:
        code, out, err = run(capsys, *query["argv"])
        assert code == 0, (query["argv"], err)
        first = out.splitlines()[0]
        assert first.startswith("g(") and f") = {query['value']}   [" in first, (query["argv"], first)


# lines the handlers accept or reject themselves, and lines that are malformed
# (exit 2) or ask for help (exit 0) in both parsers
PARSER_CASES = [
    "kron 5,2,1 4,1^4 4,2,1,1 --method=all",
    "kron --method all --output json 5,2,1 4,1^4 4,2,1,1",
    "kron 5,2,1 --explain 4,1^4 --output=csv 4,2,1,1",
    "kron 5,2,1 4,1^4 4,2,1,1 --meth oracle --out json --exp --cache P",
    "kron 5,2,1 4,1^4 4,2,1,1 --meth=oracle",
    "kron -- 5,2,1 4,1^4 4,2,1,1",
    "kron --explain -- 5,2,1 -4 --method",
    "kron 1,1 2 --cache-file= 2",
    "kron -1 -2 -3",
    "kron '-a b' 2 3",
    "enumerate blasiak 2,1 -1 2,1",
    "enumerate --output json blasiak 5,2,1 4 4,2,1,1",
    "enumerate lr 5,4,2,1 4,2 4,1,1 --yt",
    "enumerate blasiak '' 0 ''",
    "enumerate lr -- -5 --x",
    "enumerate blasiak",
    "kron 6,2 2,1^6 3,2,1,1,1 --method rosas --explain --output json",
    "expand coproduct -- 2,1",
    "verify lr --n -3",
    "verify lr --jobs=2 --n=4",
    "verify lr --j 2 --n ' 3'",
    "verify not-a-suite",
    # malformed
    "",
    "bogus 1 2",
    "rosas 6,2 2,1^6 3,2,1,1,1",
    "--bogus kron 1 2 3",
    "--method all kron 1 2 3",
    "-- kron 1 2 3",
    "kron",
    "kron 5,2,1 4,1^4",
    "kron 5,2,1 4,1^4 4,2,1,1 4",
    "kron 5,2,1 4,1^4 4,2,1,1 --bogus",
    "kron 1 2 3 -x",
    "kron 1 2 3 -",
    "kron 5,2,1 4,1^4 4,2,1,1 --method bogus",
    "kron 5,2,1 4,1^4 4,2,1,1 --method",
    "kron 5,2,1 4,1^4 4,2,1,1 --method --explain",
    "kron 5,2,1 4,1^4 4,2,1,1 --cache-file",
    "kron 5,2,1 4,1^4 4,2,1,1 --explain=yes",
    "kron 1 2 3 --=x",
    "enumerate",
    "enumerate bogus 1",
    "expand bogus 4",
    "expand giambelli",
    "expand coproduct 2,1 extra",
    "verify",
    "verify lr --jobs x",
    "verify lr --n 1.5",
    "verify lr --n -.5",
    # help
    "-h",
    "--help",
    "--he kron",
    "kron -h",
    "kron 1 --help",
    "kron 1 2 3 --bogus --h",
    "enumerate -h",
    "kron 1 2 3 -h",
    "expand --help",
    "verify lr -h",
]


def _parse_outcome(parse, argv, capsys):
    try:
        result = ("parsed", vars(parse(list(argv))))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


def test_parser_matches_argparse_reference(capsys):
    argvs = _readme_argvs() + _queries_argvs() + [shlex.split(case) for case in PARSER_CASES]
    argvs += [argv + ["--cache-file", "P"] for argv in _readme_argvs() + _queries_argvs()]
    outcomes = {"parsed": 0, 0: 0, 2: 0}
    for argv in argvs:
        expected, _ = _parse_outcome(build_parser().parse_args, argv, capsys)
        got, captured = _parse_outcome(parse_args, argv, capsys)
        assert got == expected, argv
        outcomes[got[0] if got[0] == "parsed" else got[1]] += 1
        if got == ("exit", 2):
            lines = captured.err.splitlines()
            assert captured.out == "" and len(lines) == 2, argv
            assert lines[0].startswith("usage: kroncalc"), argv
            assert lines[1].startswith("kroncalc") and ": error: " in lines[1], argv
        elif got == ("exit", 0):
            assert captured.out.startswith("usage: kroncalc") and captured.err == "", argv
    # every kind of outcome is exercised
    assert min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize(
    "line,reordered",
    [
        ("enumerate lr --ytableau 5,4,2,1 4,2 4,1,1", "enumerate --ytableau lr 5,4,2,1 4,2 4,1,1"),
        ("enumerate blasiak 5,2,1 --output json 4 4,2,1,1",
         "enumerate --output json blasiak 5,2,1 4 4,2,1,1"),
    ],
    ids=["flag-before-params", "option-between-params"],
)
def test_parser_accepts_lines_argparse_rejected(capsys, line, reordered):
    # argparse ends a nargs="*" positional at the first option after it
    assert _parse_outcome(build_parser().parse_args, shlex.split(line), capsys)[0] == ("exit", 2)
    expected, _ = _parse_outcome(build_parser().parse_args, shlex.split(reordered), capsys)
    assert expected[0] == "parsed"
    assert _parse_outcome(parse_args, shlex.split(line), capsys)[0] == expected


def test_help_lists_each_option_with_its_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kron", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: kroncalc kron [-h] ")
    for shown in ("--method {oracle,blasiak,rosas,nearhook,all}", "--output {text,json,csv}",
                  "--explain", "--cache-file CACHE_FILE"):
        assert "\n  " + shown in out


def test_internal_error_exits_4_without_traceback(capsys, monkeypatch):
    from kroncalc import colored

    def broken(self, state):
        raise RuntimeError("insertion produced a ragged shape")

    # the count (no --explain) and the enumeration (--explain) share the moves
    monkeypatch.setattr(colored._HookGraph, "moves", broken)
    for explain in ((), ("--explain",)):
        memo.clear()  # a cached answer would skip the search
        code, out, err = run(
            capsys, "kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "blasiak", *explain
        )
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: insertion produced a ragged shape\n"


def test_engine_lookup_error_exits_4_without_traceback(capsys, monkeypatch):
    # a KeyError is a LookupError, a fault inside the engine, not "methods disagree" (exit 1)
    def broken(lam, d, nu):
        raise KeyError((5, 2, 1))

    monkeypatch.setattr(cli.colored, "count_blasiak", broken)
    code, out, err = run(capsys, "kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "blasiak")
    assert (code, out) == (4, "")
    assert err == "internal error: KeyError: (5, 2, 1)\n"


def test_verify_runner_index_error_exits_4_without_traceback(capsys, monkeypatch):
    from kroncalc import verify

    def broken(unit):
        raise IndexError("list index out of range")

    default, units, _ = verify.SUITES["partitions"]
    monkeypatch.setitem(verify.SUITES, "partitions", (default, units, broken))
    code, out, err = run(capsys, "verify", "partitions", "--n", "3", "--jobs", "1")
    assert (code, out) == (4, "")
    assert err == "internal error: IndexError: list index out of range\n"


@pytest.mark.parametrize(
    "argv",
    [("kron", "1^1200", "1200", "1^1200"), ("enumerate", "lr", "1^1000", "", "1^1000")],
    ids=["kron-hook-rule", "enumerate-lr"],
)
def test_input_too_deep_for_the_recursion_limit_exits_2(capsys, argv):
    # RecursionError is a RuntimeError, but the input is at fault, not an engine
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        "error: input too deep for the recursive walkers"
        f" (recursion limit {sys.getrecursionlimit()})\n"
    )


def _limit_address_space_to_512_mib():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize(
    "argv",
    [("kron", "1^100000", "100000", "1^100000"), ("expand", "jacobi-trudi", "1^6000")],
    ids=["kron-hook-rule", "expand-jacobi-trudi"],
)
def test_input_too_deep_exits_2_within_512_mib(argv):
    # a walker that held memory quadratic in its depth ran out of address
    # space (MemoryError, exit 1) before it reached the recursion limit
    proc = _run_module(argv, timeout=120, preexec_fn=_limit_address_space_to_512_mib)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-500:]
    assert re.fullmatch(r"error: input too deep for the recursive walkers \(recursion limit \d+\)\n", proc.stderr)


def test_input_too_large_for_memory_exits_2():
    # parse_partition runs out of address space building 10^8 parts
    argv = ["kron", "1^100000000", "100000000", "1^100000000"]
    proc = _run_module(argv, timeout=120, preexec_fn=_limit_address_space_to_512_mib)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: input too large: out of memory\n")


@pytest.mark.parametrize(
    "argv, reads",
    [(["expand", "jacobi-trudi", "1^24"], 3), (["kron", "-h"], 0)],
    ids=["expand-read-3-lines", "help-unread"],
)
def test_closed_stdout_exits_141_without_a_traceback(argv, reads):
    # 1^24 has 2^23 terms: the expansion streams, so the process stays inside
    # 512 MiB and ends as soon as its reader closes the pipe.  The help fits in
    # the stdout buffer, so only the flush at the end meets the closed pipe;
    # stdout is block-buffered, as from a shell, for that to hold.
    command, env = _module(argv)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        preexec_fn=_limit_address_space_to_512_mib,
    )
    try:
        lines = [proc.stdout.readline() for _ in range(reads)]
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert all(line.endswith(b"\n") for line in lines)


def test_witness_count_that_differs_from_the_triple_sums_exits_4(capsys, monkeypatch):
    from kroncalc import nearhook

    original = nearhook.enumerate_blasiak

    def one_too_many(*args):
        block = original(*args)
        return (*block, block[0])

    # the first block, of (7,2,1^4) at r = 5, gains a duplicate of its one tableau
    monkeypatch.setattr(nearhook, "enumerate_blasiak", one_too_many)
    argv = ("kron", "8,6", "6,2,1^6", "8,2,1^4", "--method", "nearhook", "--explain")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == (
        "internal error: ArithmeticError: hook-rule block for"
        " (Partition((7, 2, 1, 1, 1, 1)), 0, 5) holds 2 tableaux, its term is 1\n"
    )


def test_singleton_case_with_no_witness_exits_4(capsys, monkeypatch):
    from kroncalc import nearhook

    monkeypatch.setattr(nearhook, "triple3", lambda *args: (0, []))
    argv = ("kron", "8,6", "6,2,1^6", "8,2,1^4", "--method", "nearhook", "--explain")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "internal error: ArithmeticError: no witness to remove at (a,c,d,s)=(6,6,8,2)\n"


def test_kron_explains_every_witness_family_up_to_n_10(capsys):
    from kroncalc.nearhook import special_nu
    from kroncalc.symfun import kronecker_coefficient

    families = 0
    for n in range(4, 11):
        for a in range(2, n - 2):
            c = n - 2 - a
            for s in range(1, (c + 2) // 2 + 1):
                nu = special_nu(a, c, s)
                for d in range((n + 1) // 2, n + 1):
                    lam, mu = Partition((d, n - d)), Partition((a, 2) + (1,) * c)
                    value = kronecker_coefficient(lam, mu, nu)
                    query = ("kron", *map(format_partition, (lam, mu, nu)), "--method", "all", "--explain")
                    code, out, err = run(capsys, *query)
                    assert (code, err) == (0, ""), query
                    assert out.startswith(f"g({format_partition(lam)} ; ") and f") = {value}   [" in out
                    assert "\nwitnesses: " in out
                    code, out, err = run(capsys, *query, "--output", "json")
                    assert (code, err) == (0, ""), query
                    report = json.loads(out)
                    assert report["value"] == value
                    witness_set = report["explain"]["nearhook"]["witnesses"]
                    assert len(witness_set["members"]) - (witness_set["removed_min"] is not None) == value
                    families += 1
    assert families == 220


def test_hook_rule_walk_that_differs_from_its_count_exits_4(capsys, monkeypatch):
    from kroncalc import colored

    walk = colored._walk

    def first_moves_only(state, chain, m, live, found):
        walk(state, chain, m, {s: moves[:1] for s, moves in live.items()}, found)

    monkeypatch.setattr(colored, "_walk", first_moves_only)
    memo.clear()
    try:
        argv = ("kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "blasiak", "--explain")
        code, out, err = run(capsys, *argv)
    finally:
        memo.clear()
    assert (code, out) == (4, "")
    assert err == (
        "internal error: ArithmeticError: hook-rule walk found {(4, (4, 2, 1, 1)): 1} tableaux,"
        " the count is {(4, (4, 2, 1, 1)): 5}\n"
    )


def test_verify_rejects_negative_limit_and_jobs_below_one(capsys):
    for argv in (
        ("verify", "lr", "--n", "-3"),
        ("verify", "lr", "--jobs", "0"),
        ("verify", "lr", "--jobs", "-2"),
        ("verify", "lr", "--jobs", "65"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_kron_negative_exponent_exits_2(capsys):
    # "1^-3" used to expand to no parts, so this printed g(3 ; 3 ; 3) = 1
    code, out, err = run(capsys, "kron", "1^-3,3", "3", "3")
    assert code == 2
    assert out == ""
    assert "bad partition" in err


# sha256 of stdout for the --explain queries of the benchmark, in text and
# json, with the hook-rule tableaux, the signed expansion and one tableau
# listing; any change to an explain line, its order or its json shows here
EXPLAIN_DIGESTS = [
    (("kron", "4,3", "3,2,1,1", "3,2,1,1", "--method", "nearhook", "--explain", "--output", "text"),
     "eb4b4dedb2abf5bf90787e0cb017439f8deca6e8ad6c4fb2975046f7735bcc24"),
    (("kron", "4,3", "3,2,1,1", "3,2,1,1", "--method", "nearhook", "--explain", "--output", "json"),
     "1d3a3cf30f4424841ebdd8792c7c5e1783ae58bdd235be73699b2351b2884588"),
    (("kron", "6,2", "2,1^6", "3,2,1,1,1", "--method", "rosas", "--explain", "--output", "text"),
     "83d9fe23df7f5728b2ee8b1fa0d56a8aa1dd60b5be1836645da7de06160854ad"),
    (("kron", "6,2", "2,1^6", "3,2,1,1,1", "--method", "rosas", "--explain", "--output", "json"),
     "df15a2a5108fd7e9647d745e475b90367580e043d8b7a71aeb013836cdbc99ef"),
    (("kron", "5,2", "3,2,1,1", "5,2", "--method", "all", "--explain", "--output", "text"),
     "5b091ca1c1930890afafb612b2e87c012e0ba077c25003c830e21342afa71fcf"),
    (("kron", "5,2", "3,2,1,1", "5,2", "--method", "all", "--explain", "--output", "json"),
     "e8e06659e7c7b0cbe7d37a591b48f6562c6217c6ad5943a703a15e8fd1c221a7"),
    (("kron", "8,6", "6,2,1^6", "8,2,1^4", "--method", "all", "--explain", "--output", "text"),
     "7d31cf6f96e1ab82bece34d1d2a926d71fec44206299024f74200f39a7f13f79"),
    (("kron", "8,6", "6,2,1^6", "8,2,1^4", "--method", "all", "--explain", "--output", "json"),
     "1b40003d3fa53a2dfaa30b7f252323ba54ba2a660a0c61810b10c9dbe8c02abb"),
    (("kron", "5,4", "3,2,1^4", "5,2,2", "--method", "all", "--explain", "--output", "text"),
     "507f6600e2c1971ac7293229260f7892bb8d5e0bad8f5a844aada92df7d8e9ae"),
    (("kron", "5,4", "3,2,1^4", "5,2,2", "--method", "all", "--explain", "--output", "json"),
     "b6b9d9e0652f41498627d3c74aae314e5116735c3d3a1930b4ec6371b551174c"),
    (("kron", "10,5", "7,2,1^6", "9,2,2,2", "--method", "all", "--explain", "--output", "text"),
     "b9b406d2f8e1ffba8688077e14b5a8b116ec7efa80b679437fd090415b73a82e"),
    (("kron", "10,5", "7,2,1^6", "9,2,2,2", "--method", "all", "--explain", "--output", "json"),
     "ecb1b13e70c72f530c2154e8aa21fb2acff177f895498463e58818a19b5c5d0e"),
    (("kron", "6,3", "2,2,1^5", "4,2,1^3", "--method", "all", "--explain", "--output", "text"),
     "2de8e1928309c1e922303a431cdec89eae34d6f6ef728ee6b36cd228020286df"),
    (("kron", "6,3", "2,2,1^5", "4,2,1^3", "--method", "all", "--explain", "--output", "json"),
     "5b96a0f9af17fe0fc0c654516fe8020a14b67e5b941c8f99b4d8c0e3d830f357"),
    (("kron", "11,2", "5,2,1,1,1,1,1,1", "7,2,1,1,1,1", "--method", "all", "--explain", "--output", "text"),
     "e48abee993f85f01f6fac7bcb06014f1d928e9a3540de1ed21b278b1325ece17"),
    (("kron", "11,2", "5,2,1,1,1,1,1,1", "7,2,1,1,1,1", "--method", "all", "--explain", "--output", "json"),
     "2d8e3eefebf2a1b2db15f26463af2718a15e62b213626ed59a6e4313b162b7c7"),
    (("kron", "8,5", "7,2,1,1,1,1", "9,2,1,1", "--method", "all", "--explain", "--output", "text"),
     "065e6fb4bef1dddc1f7022899da722839d89e10f7ddba27f69d562fd4223b390"),
    (("kron", "8,5", "7,2,1,1,1,1", "9,2,1,1", "--method", "all", "--explain", "--output", "json"),
     "e18492ca517aa42c657ca0173a0129e737c120720ce38a81b50967b01e625394"),
    (("kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "all", "--explain", "--output", "text"),
     "da5e1e167dc7217f11ace30d20bb839c7b86aa00bab1921aa3c86fb92c835473"),
    (("kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "all", "--explain", "--output", "json"),
     "86c910f85df05049386a8ea660051f19f2d72a13ec9c921eb4914b544dc3f246"),
    (("kron", "3,2,1", "2,2,1,1", "4,1,1", "--method", "all", "--explain", "--output", "text"),
     "4c482549d2caae29e87fc526ff6204603caabb614e8501da9b09af4501386c11"),
    (("kron", "3,2,1", "2,2,1,1", "4,1,1", "--method", "all", "--explain", "--output", "json"),
     "254ce3d8733e70d337d21a6c8b7938bbe2b7d214fe555f13c5f67f439d6be830"),
    (("enumerate", "blasiak", "5,2,1", "4", "4,2,1,1", "--output", "json"),
     "b356aadae1d2fa64f483685937a8a66cfff0df4a6187a742ce4c093c939b150c"),
]


def test_explain_output_bytes_are_pinned(capsys):
    changed = []
    for argv, digest in EXPLAIN_DIGESTS:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(" ".join(argv))
    assert not changed


def _dispatch_transcript(capsys) -> str:
    """(argv, exit code, stdout, stderr) of every `kron` form on the benchmark
    triples, the csv rows without their runtime, and both help texts."""
    records = []

    def record(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # -h
            code = exc.code
        out, err = capsys.readouterr()
        if "csv" in argv:
            out = "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines())
        records.append([argv, code, out, err])

    triples = [tuple(argv[1:4]) for argv in _queries_argvs()]
    for triple in triples:
        for method in ("all", "oracle", "blasiak", "rosas", "nearhook"):
            query = ("kron", *triple, "--method", method)
            for form in ((), ("--output", "json"), ("--explain",), ("--explain", "--output", "json"),
                         ("--output", "csv")):
                record(*query, *form)
    record("-h")
    record("kron", "-h")
    return json.dumps(records)


def test_dispatch_output_bytes_are_pinned(capsys):
    transcript = _dispatch_transcript(capsys)
    assert hashlib.sha256(transcript.encode()).hexdigest() == (
        "1a950d3c75a2c23636aa092531d14c8b5112830ed179830d6f3da76e2dae000d"
    )


def test_kron_all_agrees_with_the_oracle_on_every_triple_up_to_n_6(capsys):
    # every applicable method's row runs on its own arguments, so a row wired
    # to the wrong ones shows up as a disagreement (exit 1) or a wrong value
    from kroncalc.partition import partitions_list
    from kroncalc.symfun import kronecker_coefficient

    triples = [(lam, mu, nu) for n in range(7) for lam in partitions_list(n)
               for mu in partitions_list(n) for nu in partitions_list(n)]
    assert len(triples) == 1836
    for triple in triples:
        code, out, err = run(capsys, "kron", *(",".join(map(str, p)) or "0" for p in triple))
        assert (code, err) == (0, ""), triple
        assert f") = {kronecker_coefficient(*triple)}   [" in out, (triple, out)


def test_kron_all_agrees_with_the_oracle_past_n_26(capsys):
    # up to the bound the oracle answers every triple, so each hook and each
    # two-row x near-hook query at n = 27-34 has two methods that must agree
    # (a disagreement exits 1).  lam and nu are drawn at n0 = 7-9 (n0 = 6-8
    # for the near-hook) and padded in their first parts, and mu is a hook
    # (n - d, 1^d) or a near-hook (n - b - c, b, 1^c).
    from kroncalc.partition import partitions_list

    rng = random.Random(2053)
    queries = []  # (n0, n, lam at n0, mu, the methods that apply)
    for _ in range(20):
        n0, n, d = rng.randint(7, 9), rng.randint(27, 34), rng.randint(1, 4)
        lam = rng.choice(partitions_list(n0))
        methods = "oracle, blasiak, rosas" if len(lam) <= 2 else "oracle, blasiak"
        queries.append((n0, n, lam, Partition((n - d,) + (1,) * d), methods))
    for _ in range(20):
        n0, n, b, c = rng.randint(6, 8), rng.randint(27, 32), rng.randint(2, 4), rng.randint(1, 4)
        e = rng.randint(1, n0 // 2)
        queries.append((n0, n, Partition((n0 - e, e)), Partition((n - b - c, b) + (1,) * c), "oracle, nearhook"))
    nonzero = 0
    for n0, n, lam, mu, methods in queries:
        nu = rng.choice(partitions_list(n0))
        m = n - n0
        lam, nu = Partition((lam[0] + m,) + lam[1:]), Partition((nu[0] + m,) + nu[1:])
        code, out, err = run(capsys, "kron", *map(format_partition, (lam, mu, nu)))
        assert (code, err) == (0, ""), (lam, mu, nu, out)
        assert out.endswith(f"   [{methods}]\n"), (lam, mu, nu, out)
        nonzero += " = 0   [" not in out
    assert nonzero  # the sample holds nonzero coefficients


def _add(*shapes):
    """Shapes added row by row."""
    return Partition(tuple(map(sum, itertools.zip_longest(*shapes, fillvalue=0))))


def test_kron_padded_positive_triples_stay_positive_at_n_27_to_34(capsys):
    # semigroup property (Christandl, Harrow and Mitchison, 2007): g(alpha, (m),
    # alpha) = 1, so g(lam1, mu1, nu1) > 0 gives g(lam1 + alpha, mu1 + (m),
    # nu1 + alpha) > 0 whatever any method says.  mu1 is a hook, or a near-hook
    # with a two-row lam1 and alpha, so mu stays one and a second method applies
    from kroncalc.partition import partitions_list
    from kroncalc.symfun import kronecker_coefficient

    rng = random.Random(2055)
    seeds = []  # (lam1, mu1, nu1, alpha) with g(lam1, mu1, nu1) > 0
    while len(seeds) < 20:
        hook = len(seeds) < 10
        if hook:
            n0, d = rng.randint(7, 9), rng.randint(1, 4)
            lam1, mu1 = rng.choice(partitions_list(n0)), Partition((n0 - d,) + (1,) * d)
        else:
            n0, b, c = rng.randint(6, 8), rng.randint(2, 3), rng.randint(1, 3)
            e, a = rng.randint(1, n0 // 2), n0 - b - c
            if a < b:
                continue
            lam1, mu1 = Partition((n0 - e, e)), Partition((a, b) + (1,) * c)
        nu1 = rng.choice(partitions_list(n0))
        if not kronecker_coefficient(lam1, mu1, nu1):
            continue
        m = rng.randint(27, 34) - n0
        f = rng.randint(0, m // 2)
        alpha = rng.choice(partitions_list(m)) if hook else Partition((m - f, f) if f else (m,))
        seeds.append((lam1, mu1, nu1, alpha))
    for lam1, mu1, nu1, alpha in seeds:
        triple = _add(lam1, alpha), _add(mu1, (alpha.size,)), _add(nu1, alpha)
        code, out, err = run(capsys, "kron", *map(format_partition, triple))
        assert (code, err) == (0, ""), (triple, out, err)
        value, methods = re.fullmatch(r"g\(.*\) = (\d+)   \[(.*)\]\n", out).groups()
        assert int(value) > 0 and len(methods.split(", ")) >= 2, (triple, out)
