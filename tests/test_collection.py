"""Every test module imports.

The tier-1 command collects with `--continue-on-collection-errors`, so a
module that fails to import (say, one that imports a name the engine no
longer has) would drop all of its tests with no failed test to show for
it. Importing each `test_*.py` module here turns that into a failure.
"""

import importlib
from pathlib import Path

import pytest

MODULES = sorted(path.stem for path in Path(__file__).parent.glob("test_*.py"))


def test_every_test_module_is_listed():
    assert len(MODULES) >= 20 and "test_collection" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
