"""Package-wide invariants: exported names exist, dependencies stay few."""

import argparse
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


def _keys_read_by_each_function(tree):
    """Config keys each function of ``tree`` reads, itself or through the
    functions and ``cfg``/``self`` methods of the same module it calls."""
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    keys, callees = {}, {}
    for name, function in functions.items():
        keys[name], callees[name] = set(), set()
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in ("cfg", "self")):
                if (func.attr in READERS and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    keys[name].add(node.args[0].value)
                else:
                    callees[name].add(func.attr)
            elif isinstance(func, ast.Name):
                callees[name].add(func.id)
    changed = True
    while changed:
        changed = False
        for name in functions:
            for callee in callees[name] & functions.keys():
                if not keys[callee] <= keys[name]:
                    keys[name] |= keys[callee]
                    changed = True
    return keys


def test_every_flag_has_a_reader_and_every_read_key_a_flag():
    read = _keys_read_by_each_function(ast.parse((SRC / "cli.py").read_text()))
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    for command, handler in cli._HANDLERS.items():
        # a command accepts exactly the keys its handler and helpers read,
        # each as a flag of its own
        assert sorted(cli._COMMAND_KEYS[command]) == sorted(read[handler.__name__]), command
        flags = {a.dest for a in subparsers[command]._actions} - {"help", "config"}
        assert sorted(flags) == sorted(read[handler.__name__]), command
