"""A catalogue of mutants, each with the one test that must kill it.

Each entry is one exact-text replacement in a module of src/kroncalc (the
module, the old text, which must occur exactly once, and the new text), the
test id that must fail on the mutated tree, and the CHANGES.md entry that
named the mutant, quoted.  tests/test_mutants.py checks that every old text
occurs exactly once, so a change that moves the code must move the entry
with it.

Run `python tests/mutants.py` from anywhere to replay the catalogue.  Each
mutant gets a fresh copy of src/, tests/, perfbench/ and pyproject.toml in a
temporary directory, with the one replacement applied, and its test id runs
there with -x.  pytest runs from the copy with PYTHONPATH at the copy's
src: pyproject.toml's `pythonpath = ["src"]` resolves against the working
directory's tree, so a run from the repository would test the unmutated
code.  Every run must exit 1 (tests failed); 0 means the mutant survived,
and any other code means the test id did not run.  The script exits 1 if
any mutant is not killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple


class Mutant(NamedTuple):
    module: str  # under src/kroncalc, without .py
    old: str
    new: str
    test: str  # the pytest id that must fail
    named: str  # the CHANGES.md entry that named it, quoted


MUTANTS = [
    Mutant(
        "colored",
        "got[0, state[1]] = 1\n",
        "got[0, state[1]] = 1 + (self.lam.size in (15, 16))\n",
        "tests/test_cli.py::test_kron_orientations_agree_with_the_oracle_at_n_10_to_16",
        "`_HookGraph.counts` counting each finished tableau twice when |λ| ∈ {15, 16}",
    ),
    Mutant(
        "nearhook",
        "certs.append(TermCertificate(sign, (eta, delta, theta), lr, g))\n    return total\n",
        "certs.append(TermCertificate(sign, (eta, delta, theta), lr, g))\n"
        "    return total + (lam.size in (15, 16))\n",
        "tests/test_cli.py::test_kron_orientations_agree_with_the_oracle_at_n_10_to_16",
        "`nearhook._expand` returning its total plus 1 when |λ| ∈ {15, 16}",
    ),
    Mutant(
        "colored",
        "got[0, state[1]] = 1\n",
        "got[0, state[1]] = 1 + (self.tgt is None and self.root[2] == 4 and self.lam.size >= 27)\n",
        "tests/test_colored.py::test_hook_rule_rows_satisfy_the_character_identity_at_n_27_to_34",
        "A mutant that doubles the counts of untargeted hook-rule graphs only when n ≥ 27 and d = 4",
    ),
    Mutant(
        "symfun",
        "(beads >> (bead.bit_length() - k) & crossed).bit_count() & 1))",
        "(beads >> (bead.bit_length() - k) & crossed).bit_count() & 1 ^ (k >= 35)))",
        "tests/test_symfun.py::test_character_table_rows_at_n_35_and_40",
        "The mutant XORs the parity that `symfun._moves` returns with `k >= 35`",
    ),
    Mutant(
        "symfun",
        "{total}/{nfact}\")\n    return value\n",
        "{total}/{nfact}\")\n    return value + (nfact > factorial(26))\n",
        "tests/test_cli.py::test_kron_all_agrees_with_the_oracle_past_n_26",
        "the scratch mutant `symfun._coefficient` returning `value + (nfact > factorial(26))`",
    ),
    Mutant(
        "tableau",
        "counts[v] == caps[v]",
        "counts[v] > caps[v]",
        "tests/test_tableau.py::test_lr_tableaux_walk_only_their_weight_and_list_the_full_walks_grids_in_order",
        "(`>` for `==` in `_fill`)",
    ),
    Mutant(
        "verify",
        '"triples-vs-oracle": ("nearhook", "symfun", "tableau"),',
        '"triples-vs-oracle": ("nearhook", "symfun"),',
        "tests/test_acceptance.py::test_suites_empty_the_memos_no_remaining_suite_reads_and_build_no_entry_twice",
        '`tableau` dropped from `READS["triples-vs-oracle"]`',
    ),
    Mutant(
        "verify",
        "for later in run[i:]",
        "for later in run[i + 1:]",
        "tests/test_acceptance.py::test_suites_empty_the_memos_no_remaining_suite_reads_and_build_no_entry_twice",
        "a release one suite too early (`run[i + 1:]` for `run[i:]` in the remaining set)",
    ),
    Mutant(
        "symfun",
        "            total += weight\n    return _coefficient(total, factorial(n))",
        "            total += weight << (n == 7)\n    return _coefficient(total, factorial(n))",
        "tests/test_symfun.py::test_kronecker_row_matches_the_single_triple_sums",
        "the single-triple oracle doubling its character sum when n = 7",
    ),
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_path(root: str, module: str) -> str:
    return os.path.join(root, "src", "kroncalc", module + ".py")


def replay(mutant: Mutant) -> tuple[int, str]:
    """pytest's exit code for the mutant's test id in a mutated copy, and its last line."""
    with tempfile.TemporaryDirectory(prefix="kroncalc-mutant-") as copy:
        for tree in ("src", "tests", "perfbench"):
            shutil.copytree(os.path.join(ROOT, tree), os.path.join(copy, tree),
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        path = source_path(copy, mutant.module)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.test],
                              cwd=copy, env=env, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
        return done.returncode, lines[-1]


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        code, last = replay(mutant)
        verdict = "killed" if code == 1 else "NOT KILLED"
        survivors += code != 1
        print(f"{verdict} (exit {code}, {time.perf_counter() - start:.1f} s): {mutant.module}: {mutant.named}")
        print(f"  {mutant.test}: {last}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
