"""Golden CLI reports: every case in tests/golden/cases.json is replayed
through `gpade.cli.main` in-process, and its stdout and exit code must match
the stored report byte for byte.

A change that alters a report on purpose rewrites the corpus with
`PYTHONPATH=src python tests/test_golden.py` and says why in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gpade import arith, envelope
from gpade.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def replay(case: dict) -> tuple[int, str]:
    params = str(GOLDEN / "params" / f"{case['params']}.params")
    argv = [case["argv"][0], "--params", params, *case["argv"][1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case):
    code, out = replay(case)
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()


def test_golden_reports_do_not_depend_on_call_order():
    # the certified constants are memoized per process: replaying the corpus
    # backwards, each case twice, must print the same bytes and exit codes
    for case in reversed(CASES):
        expected = (case["exit"], (GOLDEN / f"{case['name']}.out").read_bytes())
        for _ in range(2):
            code, out = replay(case)
            assert (code, out.encode()) == expected, case["name"]


@pytest.mark.parametrize("bits, exact_expected", [(6, True), (256, False)])
def test_envelope_bounds_never_change_a_report(monkeypatch, bits, exact_expected):
    # the restricted audit settles its envelope questions from bounds on the
    # big power n^(18M); with 6-bit bounds some fall through to the exact
    # power, with the default 256 bits none does, and the report is the same.
    # Only the envelope's powers count: `arith.power_le` settles its own.
    case = next(c for c in CASES if c["name"] == "restricted.unit.beta1e40.json")
    exact_runs = []

    class Counting(envelope.BoundedPower):
        def settle(self, reader):
            calls = []
            answer = super().settle(lambda p, s: calls.append(s) or reader(p, s))
            exact_runs.append(len(calls) == 3)
            return answer

    monkeypatch.setattr(envelope, "BoundedPower", Counting)
    monkeypatch.setattr(arith, "_POWER_BITS", bits)
    code, out = replay(case)
    assert (code, out.encode()) == (case["exit"], (GOLDEN / f"{case['name']}.out").read_bytes())
    assert len(exact_runs) == 5 and any(exact_runs) == exact_expected


def _write_corpus() -> None:
    for case in CASES:
        case["exit"], out = replay(case)
        (GOLDEN / f"{case['name']}.out").write_bytes(out.encode())
    lines = ",\n".join("  " + json.dumps(case) for case in CASES)
    (GOLDEN / "cases.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    _write_corpus()
