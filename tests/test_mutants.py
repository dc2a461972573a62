"""The mutant table of ``tests/mutants.py`` still applies to the source it names."""

import ast
import importlib
import textwrap
from pathlib import Path

import pytest

from mutants import MUTANTS, split

TESTS = Path(__file__).resolve().parent


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_pattern_occurs_once_in_its_function(mutant):
    # the substitution hits exactly one place of one definition, and the mutated definition still
    # compiles; each killing test is defined where its id says
    _, body, _ = split(Path(importlib.import_module(f"poissonkit.{mutant.module}").__file__).read_text(), mutant.function)
    source = textwrap.dedent(body)
    assert source.count(mutant.pattern) == 1 and mutant.replacement != mutant.pattern
    compile(source.replace(mutant.pattern, mutant.replacement), mutant.name, "exec")
    assert mutant.killed_by
    for test_id in mutant.killed_by:
        path, name = test_id.split("::")
        tree = ast.parse((TESTS.parent / path).read_text())
        assert name.split("[")[0] in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test_id


def test_every_checking_module_has_a_mutant():
    # the exact kernel and the checks over it are mutated too, not only the sampled gates
    modules = {"exactalg", "liealg", "linalg", "poisson", "dirac", "groupnum", "dynr", "report", "chartio"}
    assert modules <= {m.module for m in MUTANTS}, modules - {m.module for m in MUTANTS}
