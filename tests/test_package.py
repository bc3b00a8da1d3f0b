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


PERFBENCH = SRC.parents[1] / "perfbench"
# the modules whose names the benchmark reads: the package's and the
# tests' spec drawer
READ_ROOTS = {"carmafield", "oracles"}


def _imported_roots(tree):
    """Names that ``tree`` binds to a package module or to ``oracles``."""
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in READ_ROOTS:
                    module = importlib.import_module(alias.name)
                    roots[alias.asname or top] = module if alias.asname else (
                        importlib.import_module(top))
        elif isinstance(node, ast.ImportFrom) and node.module == "carmafield":
            for alias in node.names:
                roots[alias.asname or alias.name] = importlib.import_module(
                    f"carmafield.{alias.name}")
    return roots


def _dotted(node):
    """The names of an attribute chain rooted at a plain name, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else None


def _missing(roots, names):
    """The first prefix of ``names`` that does not resolve, else None."""
    value = roots[names[0]]
    for depth, name in enumerate(names[1:], 2):
        if not hasattr(value, name):
            return ".".join(names[:depth])
        value = getattr(value, name)
    return None


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_benchmark_reads_exists(path):
    tree = ast.parse(path.read_text())
    roots = _imported_roots(tree)
    chains = [_dotted(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    # layers.TARGETS wraps (owner, "name") pairs by name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "TARGETS"):
            for row in node.value.elts:
                owner, name = row.elts[:2]
                chains.append(_dotted(owner) + [name.value])
    read = [names for names in chains if names and names[0] in roots and len(names) > 1]
    assert [m for m in (_missing(roots, names) for names in read) if m] == []
    if path.name in ("layers.py", "workloads.py"):
        assert read


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
