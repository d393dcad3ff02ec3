"""Structural properties of the `gpade` sources, read with the `ast` module.

- no module imports another module's `_`-prefixed name;
- no `assert` statement (invariants raise `InvariantViolation`, which
  `python -O` cannot strip);
- every name in a module's `__all__`, and every name the package re-exports,
  resolves;
- every function the benchmark tracer wraps (`TRACED` in `bench/tracing.py`)
  resolves, so `--trace 1` keeps reporting all of its spans;
- every `--option` of every subcommand appears in README's command-line
  section.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from gpade.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gpade"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _module_name(path: Path) -> str:
    return "gpade" if path.stem == "__init__" else f"gpade.{path.stem}"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_cross_module_import(path):
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.startswith("gpade"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_exported_names_resolve(path):
    module = importlib.import_module(_module_name(path))
    names = list(getattr(module, "__all__", ()))
    if path.stem == "__init__":
        names += [
            alias.asname or alias.name
            for node in _tree(path).body
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
        ]
    assert [name for name in names if not hasattr(module, name)] == []


def test_traced_names_resolve():
    tree = _tree(ROOT / "bench" / "tracing.py")
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    missing = [
        f"{mod}.{fn}"
        for mod, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"gpade.{mod}"), fn, None))
    ]
    assert traced
    assert missing == []


def test_cli_options_documented():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt
        for sub in subparsers.choices.values()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert options
    assert sorted(opt for opt in options if not re.search(re.escape(opt) + r"(?![\w-])", section)) == []
