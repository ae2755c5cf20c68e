"""The export lists: every submodule's __all__ names something that
exists, the package re-exports exactly the names its submodules list
(the CLI's aside), and its runtime imports stay within the standard
library and numpy."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import netspread

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(netspread.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"netspread.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    tree = ast.parse(Path(netspread.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"netspread.{node.module}")
        public = [a.name for a in node.names if not a.name.startswith("_")]
        assert [n for n in public if n not in module.__all__] == [], node.module


@pytest.mark.parametrize("name", [name for name in SUBMODULES if name != "cli"])
def test_package_reexports_every_listed_name(name):
    module = importlib.import_module(f"netspread.{name}")
    assert [n for n in module.__all__ if not hasattr(netspread, n)] == []


def test_runtime_imports_are_the_standard_library_numpy_and_the_package():
    # the runtime dependency stays numpy alone
    root = Path(netspread.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "netspread"}
    outside = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names if name.partition(".")[0] not in allowed]
    assert outside == []
