"""Every test module imports.

The tier-1 command collects with `--continue-on-collection-errors`, so a
module that fails to import (say, one that imports a name the engine no
longer has) would drop all of its tests with no failed test to show for
it. Importing each `test_*.py` module here turns that into a failure.

Likewise a module that defines two top-level tests of one name keeps
only the last, and the first never runs; no name may appear twice.

Each submodule of `hyperhom` is also the package's attribute of that
name, so that `import hyperhom.homology as m` binds the module and not
something the package exports under the same name.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hyperhom

MODULES = sorted(path.stem for path in Path(__file__).parent.glob("test_*.py"))
# `__main__` runs the CLI when imported
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(hyperhom.__path__)
                    if m.name != "__main__")


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


def test_every_engine_submodule_is_listed():
    assert len(SUBMODULES) >= 12 and {"homology", "cli", "selftest"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_engine_submodule_imports_as_a_module(name):
    assert getattr(hyperhom, name) is importlib.import_module(f"hyperhom.{name}")
