import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from mutants import MUTANTS, ROOT, source_path  # noqa: E402


def test_each_catalogued_mutant_replaces_text_that_occurs_once_in_src():
    # tests/mutants.py replays each entry against its test id; this only
    # checks that every entry still applies to the code as it stands
    assert len(MUTANTS) >= 6
    for mutant in MUTANTS:
        with open(source_path(ROOT, mutant.module), encoding="utf-8") as handle:
            text = handle.read()
        assert text.count(mutant.old) == 1, mutant
        path, _, name = mutant.test.partition("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            assert f"\ndef {name}(" in handle.read(), mutant
