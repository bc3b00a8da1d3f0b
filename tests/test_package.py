"""Package-wide invariants: exported names exist, dependencies stay few."""

import ast
import importlib
import pathlib
import sys

import pytest

import carmafield
from carmafield import cli

SRC = pathlib.Path(carmafield.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
# the package's only third-party dependencies
ALLOWED = {"numpy", "scipy"}


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_every_exported_name_exists(name):
    module = carmafield if name == "__init__" else importlib.import_module(
        f"carmafield.{name}")
    names = getattr(module, "__all__", [])
    assert [attr for attr in names if not hasattr(module, attr)] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_scipy(path):
    tops = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    assert tops - set(sys.stdlib_module_names) - ALLOWED - {"carmafield"} == set()


# the RunConfig methods through which a handler reads a config key
READERS = {"get", "get_float", "get_int", "get_bool", "get_list", "require"}


def test_every_flag_has_a_reader_and_every_read_key_a_flag():
    read = set()
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in READERS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("cfg", "self")
                and node.args and isinstance(node.args[0], ast.Constant)):
            read.add(node.args[0].value)
    flags = set(cli._COMMON_FLAGS)
    assert sorted(flags - read) == []
    assert sorted(read - flags) == []
