"""The mutation table of tools/mutants.py still matches the code: every
mutant's old text occurs exactly once in its file. Running the mutants
themselves is a CI step, not a tier-1 test."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "tools", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_matches_its_file_exactly_once():
    mutants = load_mutants()
    assert mutants.MUTANTS
    assert [m.name for m in mutants.MUTANTS if mutants.stale(m)] == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.tests, m.name
