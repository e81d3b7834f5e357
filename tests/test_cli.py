import json
import os
import subprocess
import sys

import pytest

import kroncalc
from kroncalc.cli import main


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


def test_enumerate_lr(capsys):
    code, out, _ = run(capsys, "enumerate", "lr", "5,4,2,1", "4,2", "4,1,1")
    assert code == 0
    assert out.startswith("count: 2")
    assert ". . . . 1" in out


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


def test_rosas_readme_example_bytes(capsys):
    argv = ("rosas", "6,2", "2,1^6", "3,2,1,1,1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "value: 1\nbranch: double-hook(2, 3, 3, 0, 6, 2) -> 1\n"
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == 0
    assert out == '{"arguments": [2, 3, 3, 0, 6, 2], "branch": "double-hook", "value": 1}\n'


def test_rosas_subcommand(capsys):
    code, out, _ = run(capsys, "rosas", "6,2", "2,1^6", "3,2,1,1,1")
    assert code == 0
    assert "value: 1" in out
    assert "branch: double-hook" in out
    code, _, err = run(capsys, "rosas", "3,2,1", "2,1^3", "3,2,1")
    assert code == 3


def test_expand_outputs(capsys):
    code, out, _ = run(capsys, "expand", "giambelli", "4,3,1,1")
    assert code == 0
    assert "+ s[4,1,1,1] * s[2]" in out
    assert "- s[4] * s[2,1,1,1]" in out
    code, out, _ = run(capsys, "expand", "jacobi-trudi", "3,1")
    assert "+ h[3] * h[1]" in out and "- h[4]" in out
    code, out, _ = run(capsys, "expand", "coproduct", "2,1")
    assert "s[1] (x) s[1,1]" in out


def test_module_entry_point_matches_in_process(capsys):
    argv = ["kron", "4,2", "4,2", "4,2"]
    src = os.path.dirname(os.path.dirname(kroncalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "kroncalc", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    src = os.path.dirname(os.path.dirname(kroncalc.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import kroncalc.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'csv'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def test_disagreement_reports_and_exits_1(capsys, monkeypatch):
    from kroncalc import cli

    original = cli._run_method

    def broken(method, lam, mu, nu, explain):
        value, lines, payload = original(method, lam, mu, nu, explain)
        if method == "blasiak":
            value += 1
        return value, lines, payload

    monkeypatch.setattr(cli, "_run_method", broken)
    code, out, _ = run(capsys, "kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "all")
    assert code == 1
    assert "disagreement" in out
    assert "oracle: 5" in out and "blasiak: 6" in out


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


def test_internal_error_exits_4_without_traceback(capsys, monkeypatch):
    from kroncalc import colored

    def broken(self, state):
        raise RuntimeError("insertion produced a ragged shape")

    # the count (no --explain) and the enumeration (--explain) share the moves
    monkeypatch.setattr(colored._HookGraph, "moves", broken)
    for explain in ((), ("--explain",)):
        colored.enumerate_blasiak.cache_clear()  # a cached answer would skip the search
        code, out, err = run(
            capsys, "kron", "5,2,1", "4,1^4", "4,2,1,1", "--method", "blasiak", *explain
        )
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: insertion produced a ragged shape\n"


def test_verify_rejects_negative_limit_and_jobs_below_one(capsys):
    for argv in (
        ("verify", "lr", "--n", "-3"),
        ("verify", "lr", "--jobs", "0"),
        ("verify", "lr", "--jobs", "-2"),
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
