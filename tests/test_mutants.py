"""The mutant table of ``tests/mutants.py`` still applies to the source it names."""

import ast
import functools
import importlib
import inspect
import textwrap
from pathlib import Path

import pytest

from mutants import MUTANTS

TESTS = Path(__file__).resolve().parent


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_pattern_occurs_once_in_its_function(mutant):
    # the substitution hits exactly one place of one function, and the mutated function still
    # compiles; each killing test is defined where its id says
    function = functools.reduce(getattr, mutant.function.split("."), importlib.import_module(f"poissonkit.{mutant.module}"))
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(mutant.pattern) == 1 and mutant.replacement != mutant.pattern
    compile(source.replace(mutant.pattern, mutant.replacement), mutant.name, "exec")
    assert mutant.killed_by
    for test_id in mutant.killed_by:
        path, name = test_id.split("::")
        tree = ast.parse((TESTS.parent / path).read_text())
        assert name.split("[")[0] in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test_id
