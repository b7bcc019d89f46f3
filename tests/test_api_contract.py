"""Every name that the benchmark tracer, the package exports and the demos
rely on resolves to an attribute of the package, and every constant in
``config.py`` is read by some other module of the package.

The tracer's table is read from ``perfbench/tracing.py`` as text, so the
benchmark module is neither imported nor changed here.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

import ptffool

ROOT = Path(__file__).resolve().parent.parent


def _resolve(module: str, dotted: str):
    return functools.reduce(getattr, dotted.split("."),
                            importlib.import_module(module))


def _traced() -> list[tuple[str, str]]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py has no TRACED table")


def _demo_imports() -> list[tuple[str, str]]:
    out = []
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "ptffool"):
                out += [(node.module, alias.name) for alias in node.names]
    return out


def test_tables_are_not_empty():
    assert len(_traced()) >= 20 and len(_demo_imports()) >= 20


@pytest.mark.parametrize("layer,attr", _traced())
def test_traced_function_resolves(layer, attr):
    assert callable(_resolve(f"ptffool.{layer}", attr))


@pytest.mark.parametrize("name", ptffool.__all__)
def test_exported_name_resolves(name):
    assert hasattr(ptffool, name)


@pytest.mark.parametrize("module,name", _demo_imports())
def test_demo_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_every_config_constant_is_read():
    src = ROOT / "src" / "ptffool"
    constants = {t.id for node in ast.parse((src / "config.py").read_text()).body
                 if isinstance(node, ast.Assign) for t in node.targets
                 if isinstance(t, ast.Name) and t.id.isupper()}
    read = set()
    for path in src.glob("*.py"):
        if path.name != "config.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
    assert len(constants) >= 20
    assert sorted(constants - read) == []
