"""tests/mutate.py changes one site at a time, and its operators reach
the mutants that the tests named in their docstrings kill."""

import ast
from pathlib import Path

import pytest

import mutate

SRC = Path(__file__).resolve().parents[1] / "src" / "orbkit"


@pytest.mark.parametrize("module, fragment", [
    ("abelian", "self.rank > 2"),
    ("model", "(pli.j1 + j) % m2"),
    ("model", "self.multiplicity > 2"),
    ("spin", "3 ** len(names)"),
])
def test_one_mutant_carries_each_named_change(module, fragment):
    source = (SRC / f"{module}.py").read_text()
    base = ast.unparse(ast.parse(source))
    count = len(mutate.sites(ast.parse(source)))
    mutants = [mutate.mutant(source, n)[1] for n in range(count)]
    assert fragment not in base
    assert sum(fragment in m for m in mutants) == 1
    assert len(set(mutants)) == count and base not in mutants


def test_cover_names_test_files_that_exist():
    """A misspelt name in COVER would make pytest fail on every mutant
    of its module, each read as killed."""
    tests = Path(mutate.__file__).resolve().parent
    for module, names in mutate.COVER.items():
        assert (SRC / f"{module}.py").is_file()
        for name in names:
            assert (tests / name).is_file(), (module, name)
