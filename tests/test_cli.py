import hashlib
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
    code, _, err = run(capsys, "rosas", "3,2,1", "2,1^4", "3,2,1")
    assert code == 3
    assert "hypothesis not met" in err
    # sizes 6, 5, 6: the size check comes before the hypotheses, as in kron
    code, _, err = run(capsys, "rosas", "3,2,1", "2,1^3", "3,2,1")
    assert code == 2
    assert "sizes differ: |lambda|=6 |mu|=5 |nu|=6" in err


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
