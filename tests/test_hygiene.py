"""Structural properties of the `gpade` sources, read with the `ast` module.

- no module imports another module's `_`-prefixed name;
- no `assert` statement (invariants raise `InvariantViolation`, which
  `python -O` cannot strip);
- outside `arith` and `interval`, no comparison holds a power x ** e with
  neither base nor exponent a literal: `arith.power_le` decides those;
- no float constant and no `float` name, and `math.log` only in
  `arith.floor_log`, whose seed is the package's one float;
- no module imports `dataclasses`, and `import gpade.cli` does not load it:
  records are `NamedTuple`s, which generate no code at import, and each
  record stays immutable, equal and hashable by value, and keeps its
  constructor checks under `python -O`;
- every name in a module's `__all__`, and every name the package re-exports,
  resolves;
- every function the benchmark tracer wraps (`TRACED` in `bench/tracing.py`)
  resolves, so `--trace 1` keeps reporting all of its spans;
- every `--option` of every subcommand appears in README's command-line
  section;
- every function is reached by the golden corpus, or an acceptance test
  calls it and it is on an explicit allowlist with that reason;
- no module's compile peak rises above the bound that keeps the benchmark's
  peak_rss_mb where it is.
"""

import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from gpade.arith import FactoredInteger, Grid, Interval
from gpade.cli import _build_parser
from gpade.denom import ThetaMode, make_cert, remainder_padic_bound, scaled_integers
from gpade.pade import ApproxShape, build_family
from gpade.padic import LinearFormInstance, eval_phi_padic, linear_form_valuation, select_block_degrees
from gpade.params import derive_params, padic_domain_check
from gpade.realapprox import make_restricted_instance, smallest_admissible_b
from gpade.realseries import phi_heads, rows_at_point
from gpade.report import entry

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


POWER_MODULES = [p for p in MODULES if p.stem not in ("arith", "interval")]


@pytest.mark.parametrize("path", POWER_MODULES, ids=[p.stem for p in POWER_MODULES])
def test_no_inline_power_comparison(path):
    powers = [
        f"{sub.lineno}: {ast.unparse(sub)}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Compare)
        for sub in ast.walk(node)
        if isinstance(sub, ast.BinOp)
        and isinstance(sub.op, ast.Pow)
        and not isinstance(sub.left, ast.Constant)
        and not isinstance(sub.right, ast.Constant)
    ]
    assert powers == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_one_float_seeds_floor_log(path):
    tree = _tree(path)
    floats = [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Attribute) and ast.unparse(node) == "math.log")
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "math"
            and path.stem != "arith"
            and any(alias.name == "log" for alias in node.names)
        )
    ]
    assert floats == []
    if path.stem == "arith":
        users = {
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id == "log"
        }
        assert users == {"floor_log"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_dataclasses_import(path):
    lines = [
        node.lineno
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names))
    ]
    assert lines == []


def test_cli_import_leaves_dataclasses_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, gpade.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def _record_samples() -> list:
    """One instance of every record type of the package, built by the code
    that builds it in a report."""
    gp = derive_params([F(1), F(1, 2)])
    shape = ApproxShape(n=(1,), n0=1)
    family = build_family(gp, shape)
    cert = make_cert(gp, shape, ThetaMode.paper())
    heads = phi_heads(gp, shape, F(8, 3), shape.remainder_truncation)
    enc = eval_phi_padic(gp, 1, F(8, 3), 2, 8)
    form = LinearFormInstance(ell=(5, 4), tau=F(1, 2), delta=F(1, 20))
    gp11, sharp = derive_params([F(1), F(1)]), ThetaMode.sharp()
    b = smallest_admissible_b(gp11, 1, sharp, F(2))
    restricted = make_restricted_instance(gp11, a=1, b=b, B=1, t=F(0), mode=sharp, vartheta=F(2))
    return [
        FactoredInteger.of(360),
        Interval.of(F(1, 3), F(1, 2)),
        Grid.of(6, (3, 4)),
        gp,
        padic_domain_check(gp, 2, F(8)),
        shape,
        family,
        cert.constants.mode,
        cert.constants,
        cert,
        scaled_integers(gp, shape, rows_at_point(gp, list(family.q), shape, 8, 3, heads), cert, F(8, 3), p=2),
        remainder_padic_bound(gp, shape, F(8, 3), 2, cert),
        enc,
        linear_form_valuation((enc,), (0, 1)),
        form,
        select_block_degrees(form, 8),
        restricted.constants,
        restricted,
        entry("sample", True, True, F(1, 3), 1),
    ]


def _record_types() -> set[type]:
    """Every public NamedTuple class defined in a module of the package."""
    found = set()
    for path in MODULES:
        module = importlib.import_module(_module_name(path))
        for name, obj in vars(module).items():
            is_record = isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
            if is_record and not name.startswith("_") and obj.__module__ == module.__name__:
                found.add(obj)
    return found


def test_records_are_immutable_values():
    samples = _record_samples()
    assert {type(x) for x in samples} == _record_types()
    for x in samples:
        cls, name = type(x), type(x).__name__
        with pytest.raises(AttributeError):
            setattr(x, x._fields[0], None)
        with pytest.raises(AttributeError):
            x.extra = None  # no instance dict
        twin = cls(*x)
        assert twin == x and twin is not x
        if any(isinstance(v, dict) for v in x):
            with pytest.raises(TypeError):  # a dict field makes the record unhashable
                hash(x)
        else:
            assert hash(twin) == hash(x)
        fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in x._fields)
        assert repr(x) == f"{name}({fields})"


# Each constructor check of a record, run under `python -O`: the bad fields,
# and the error type and message the check raises.
_OPTIMIZED_CHECKS = """
from fractions import Fraction as F
from gpade.arith import FactoredInteger, Interval
from gpade.pade import ApproxShape
from gpade.padic import LinearFormInstance
cases = [
    (Interval.of, (F(1, 2), F(1, 3))),
    (Interval.of, (1, 0, 1)),
    (FactoredInteger, (12, ((3, 1), (2, 2)))),
    (FactoredInteger, (12, ((2, 2),))),
    (FactoredInteger, (0, ())),
    (ApproxShape, ((), 1)),
    (ApproxShape, ((2, 0), 2)),
    (ApproxShape, ((1, 3), 2)),
    (LinearFormInstance, ((0, 0), F(1, 2), F(0))),
    (LinearFormInstance, ((1, 1), F(0), F(0))),
    (LinearFormInstance, ((1, 1), F(1, 2), F(-1))),
]
for cls, fields in cases:
    try:
        cls(*fields)
    except Exception as exc:
        print(cls.__qualname__.split(".")[0], type(exc).__name__, exc)
    else:
        print(cls.__qualname__.split(".")[0], "accepted")
"""


def test_record_checks_hold_under_optimize():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "Interval InvariantViolation empty interval: lo > hi",
        "Interval InvariantViolation empty interval: lo > hi",
        "FactoredInteger ValueError factors must have ascending primes, e >= 1",
        "FactoredInteger ValueError factorization does not match value",
        "FactoredInteger ValueError factorization does not match value",
        "ApproxShape ValueError block degrees must be positive",
        "ApproxShape ValueError block degrees must be positive",
        "ApproxShape ValueError n0 must be >= max n_j",
        "LinearFormInstance ValueError the zero form is excluded",
        "LinearFormInstance ValueError need tau > 0 and delta >= 0",
        "LinearFormInstance ValueError need tau > 0 and delta >= 0",
    ]


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


# The benchmark runs gpade with PYTHONDONTWRITEBYTECODE=1, so every process
# compiles src/gpade from source, and the compile peak of the largest module
# sets a floor under every workload's peak_rss_mb: growing realapprox.py from
# 601 to 678 lines raised that peak from 1.66 to 1.86 MiB and peak_rss_mb by
# 0.25 MB on all three workloads.  The bound is the largest peak measured
# when this check was added: realapprox.py at 601 lines, 1.66 MiB.
COMPILE_PEAK_BYTES = 1_740_152


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the bound is measured on Python 3.11")
def test_compile_peak_of_every_module():
    peaks = {}
    for path in MODULES:
        source = path.read_text()
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.stem] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= COMPILE_PEAK_BYTES, peaks


# The functions no golden report reaches, each with the reason it stays.  A
# function neither the corpus nor an acceptance test reaches is deleted.
UNREACHED_ALLOWED = {
    "denom.check_remainder_padic": "acceptance criterion 6 checks the p-adic remainder bounds with it",
    "denom.remainder_padic_bound": "acceptance criterion 6, through check_remainder_padic",
    "realapprox.eval_phi_real": "acceptance criterion 11 encloses phi(1/2) with it",
    "realapprox.smallest_admissible_b": "acceptance criteria 10 and 11 take the least admissible b from it",
}

# Replays the golden corpus in a fresh interpreter under sys.settrace and
# prints "module.qualname" of every gpade function entered.  A fresh process
# keeps the memoized constants and the prime sieve that earlier tests filled
# from hiding the functions that fill them.
_TRACE_CORPUS = """
import json, os, sys
src = sys.argv[1] + os.sep
reached = set()

def tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(src):
        reached.add(os.path.basename(code.co_filename)[:-3] + "." + code.co_qualname)

sys.settrace(tracer)
from test_golden import CASES, replay
for case in CASES:
    replay(case)
sys.settrace(None)
print(json.dumps(sorted(reached)))
"""


def _defined_functions(path: Path) -> set[str]:
    """"module.qualname" of every function and method defined in a module."""
    names = set()

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{path.stem}.{prefix}{child.name}")
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")

    walk(_tree(path), "")
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11 on")
def test_every_function_reached():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(ROOT / "tests")])}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_CORPUS, str(SRC)], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    reached = set(json.loads(proc.stdout))
    defined = set().union(*map(_defined_functions, MODULES))
    assert sorted(defined - reached) == sorted(UNREACHED_ALLOWED)
    assert all(re.match(r"acceptance criteri|error path", why) for why in UNREACHED_ALLOWED.values())
