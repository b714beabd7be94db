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

A backquoted dotted reference in the engine's docstrings or README.md,
`module.name` or `Class.name`, names something that exists: a refactor
that removes or renames a function leaves no stale pointer to it.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
import re
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


DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`")
FILE_SUFFIXES = {"py", "toml", "json", "md"}  # `pyproject.toml` names a file


def documented_references() -> tuple:
    """(where, owner, name) for each backquoted `owner.name` in a docstring
    of the engine's source or in README.md, and {class name: the
    attributes its methods set on self}."""
    found, self_set = [], {}
    for path in sorted(Path(hyperhom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                self_set.setdefault(node.name, set()).update(
                    n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                    and n.value.id == "self")
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                found += [(path.name, *m) for m in DOTTED.findall(doc)]
    readme = Path(__file__).resolve().parents[1] / "README.md"
    found += [("README.md", *m) for m in DOTTED.findall(readme.read_text(encoding="utf-8"))]
    return [ref for ref in found if ref[2] not in FILE_SUFFIXES], self_set


def resolves(owner: str, name: str, classes: dict, self_set: dict) -> bool:
    """Whether owner.name exists: an attribute of an engine submodule, or of
    an engine class in `classes` (a record's fields and what its methods
    set on self count), or of a builtin or standard module."""
    if owner in SUBMODULES:
        return hasattr(importlib.import_module(f"hyperhom.{owner}"), name)
    if owner in classes:
        cls = classes[owner]
        return (hasattr(cls, name) or name in self_set.get(owner, ())
                or any(name in vars(c).get("__annotations__", {}) for c in cls.__mro__))
    try:
        return hasattr(getattr(builtins, owner, None) or importlib.import_module(owner), name)
    except ImportError:
        return False


def test_documented_dotted_references_resolve():
    references, self_set = documented_references()
    assert len(references) >= 30
    assert {("InducedMap", "matrix"), ("DegreeSolver", "reps")} <= {
        (owner, name) for _, owner, name in references}
    classes = {cls.__name__: cls for module in SUBMODULES
               for _, cls in inspect.getmembers(importlib.import_module(f"hyperhom.{module}"),
                                                inspect.isclass)
               if cls.__module__.startswith("hyperhom.")}
    stale = [f"{where}: {owner}.{name}" for where, owner, name in references
             if not resolves(owner, name, classes, self_set)]
    assert not stale, stale
