"""The cheap half of the recorded mutation checks (``tests/mutants.py``):
every mutant applies cleanly and names a test that exists.  Running
the mutants themselves is a CI job (``python tests/mutants.py``)."""

import ast

import pytest

from tests.mutants import MUTANTS, ROOT, Mutant, apply


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_the_mutant_applies_once_and_names_an_existing_test(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1, mutant.path
    assert mutant.new != mutant.old
    path, _, name = mutant.catches.partition("::")
    tree = ast.parse((ROOT / path).read_text())
    tests = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert name.partition("[")[0] in tests, mutant.catches


def test_mutant_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(set(ids)) == len(ids)


def test_apply_refuses_an_old_text_that_is_not_there_once(tmp_path):
    (tmp_path / "f.py").write_text("x = 1\nx = 1\n")
    for old in ("x = 1\n", "y = 2\n"):
        with pytest.raises(ValueError, match="occurs"):
            apply(Mutant("m", "f.py", old, "", "t"), tmp_path)
    apply(Mutant("m", "f.py", "x = 1\nx", "x = 2\nx", "t"), tmp_path)
    assert (tmp_path / "f.py").read_text() == "x = 2\nx = 1\n"
