"""Every test module imports.

The tier-1 command collects with `--continue-on-collection-errors`, so a
module that fails to import (say, one that imports a name the engine no
longer has) would drop all of its tests with no failed test to show for
it. Importing each `test_*.py` module here turns that into a failure.

Likewise a module that defines two top-level tests of one name keeps
only the last, and the first never runs; no name may appear twice.
"""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = sorted(path.stem for path in Path(__file__).parent.glob("test_*.py"))


def test_every_test_module_is_listed():
    assert len(MODULES) >= 20 and "test_collection" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", MODULES)
def test_no_test_name_is_defined_twice(name):
    tree = ast.parse((Path(__file__).parent / f"{name}.py").read_text())
    names = [node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name.startswith(("test", "Test"))]
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
