"""Shows that every checker accepts a true report and rejects corrupted ones.

    python3 bench/selftest.py

Runs small reports of each subcommand through `gpade.cli.main`, checks them,
then applies each corruption below and requires the checker to object.
Exits 0 when every pristine report passes and every corruption is caught.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checks import check_report  # noqa: E402
from workloads import Op, Workload, _smoke, params_text  # noqa: E402


def _sub(pattern: str, repl):
    """Corruption by one regex substitution on a line of the report; it must match."""

    def corrupt(text: str) -> str:
        new, count = re.subn(pattern, repl, text, count=1, flags=re.M)
        if count != 1:
            raise AssertionError(f"corruption pattern {pattern!r} did not match")
        return new

    return corrupt


def _plus(k: int):
    return lambda mt: f"{mt.group(1)}{int(mt.group(2)) + k}"


def _ulps(k: int):
    """Move a printed decimal by k units of its last printed digit."""

    def repl(mt):
        head, value = mt.group(1), mt.group(2)
        decimals = len(value.split(".")[1])
        moved = F(value) + F(k, 10**decimals)
        whole, frac = divmod(moved.numerator * 10**decimals // moved.denominator, 10**decimals)
        return f"{head}{whole}.{str(frac).zfill(decimals)}"

    return repl


def _json_edit(path: list, fn):
    def corrupt(text: str) -> str:
        data = json.loads(text)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
        return json.dumps(data)

    return corrupt


CORRUPTIONS = {
    "verify": [
        ("verdict", _sub(r"^verdict\tPASS$", "verdict\tFAIL")),
        ("determinant exponent", _sub(r"^(determinant_monomial\.exponent\t)(\d+)$", _plus(1))),
        ("determinant leading", _sub(r"^(determinant_monomial\.leading\t)(\d+)", _plus(1))),
        ("oracle flag", _sub(r"^oracle_equivalence\.i0\tTrue$", "oracle_equivalence.i0\tFalse")),
    ],
    "construct": [
        ("Q coefficient", _sub(r"^(0\tQ\t0\t)(-?\d+)", _plus(1))),
        ("P coefficient", _sub(r"^(1\t1\t2\t)(-?\d+)", _plus(1))),
        ("clearing integer", _sub(r"^(# scaled_by_D = )(\d+)$", _plus(1))),
    ],
    "denominators": [
        ("D value", _sub(r"^(D\t)(\d+)", _plus(1))),
        ("D1 factorisation", _sub(r"^(D1\t\d+\t)(\d+)", _plus(2))),
        ("c3 too low", _sub(r"^(c3\t)(\d+\.\d+)", _ulps(-2))),
        ("c6 too high", _sub(r"^(c6\t)(\d+\.\d+)", _ulps(2))),
    ],
    "constants": [
        ("c1 too low", _sub(r"^(size_constants\.c1\.value\t)(\d+\.\d+)", _ulps(-2))),
        ("c9 too high", _sub(r"^(global_relation\.c9\.value\t)(\d+\.\d+)", _ulps(2))),
        ("log C too low", _sub(r"^(global_relation\.log_C\.value\t)(\d+\.\d+)", _ulps(-2))),
    ],
    "padic": [
        ("unit residue", _json_edit(["enclosures", 0, "unit_residue"], lambda r: r + 1)),
        ("enclosure valuation", _json_edit(["enclosures", 0, "valuation_offset"], lambda v: v + 1)),
        ("form valuation", _json_edit(["linear_forms", 0, "valuation"], lambda v: v + 1)),
        ("dominance", _json_edit(["audits", 0, "dominance_holds"], lambda d: None)),
    ],
    "global": [
        ("probe valuation", _sub(r"^(probe\.per_prime\.0\.valuation\t)(\d+)$", _plus(1))),
        ("probe verdict list", _sub(r"^probe\.certified_nonzero_at\.0\t3\n", "")),
        ("c9 too high", _sub(r"^(c9\.value\t)(\d+\.\d+)", _ulps(2))),
    ],
    "restricted": [
        ("candidate digits", _sub(r"^(constants\.candidate_n_digits\t)(\d+)$", _plus(1))),
        ("final verdict", _sub(r"^final_verdict\tall checks passed$", "final_verdict\tFAILED: x")),
        ("a check", _sub(r"^(checks\.\d+\.passed\t)True$", r"\1False")),
    ],
}


def main() -> int:
    import gpade.cli

    params: dict = {}
    ops = _smoke(params) + [Op("constants.smoke_half", "smoke_half", ("constants",))]
    wl = Workload(params, ops, ops[0].name)
    workdir = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    failures = 0
    try:
        for key, alphas in params.items():
            with open(os.path.join(workdir, f"{key}.params"), "w", encoding="utf-8") as fh:
                fh.write(params_text(alphas))
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = gpade.cli.main(wl.argv(op, workdir))
            text = out.getvalue()
            problems = check_report(op, params[op.params], text)
            ok = code == 0 and not problems
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {op.name}: true report accepted {problems or ''}")
            for label, corrupt in CORRUPTIONS[op.command]:
                caught = check_report(op, params[op.params], corrupt(text))
                failures += not caught
                print(f"{'PASS' if caught else 'FAIL'}  {op.name}: {label} corruption rejected {caught[:1]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "all checkers behave" if not failures else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
