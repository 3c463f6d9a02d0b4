"""tools/mutate.py's table stays in step with the code it mutates.

Running the mutants takes minutes, so the suite checks only the table: a
mutant whose text no longer occurs once, an equivalence note for a mutant
that is gone, or a test module that was renamed fails here.
"""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_table_matches_the_tree():
    mutate = _load_mutate()
    names = []
    for path, (tests, mutants) in mutate.MUTANTS.items():
        source = (ROOT / path).read_text()
        for test in tests:
            assert (ROOT / test).is_file(), (path, test)
        for name, old, new in mutants:
            assert source.count(old) == 1, (name, old, source.count(old))
            assert old != new, name
            names.append(name)
    assert len(names) == len(set(names))
    assert set(mutate.EQUIVALENT) <= set(names), set(mutate.EQUIVALENT) - set(names)
