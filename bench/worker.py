"""One round of a workload in a fresh interpreter.

Imports gpade from the checkout's `src`, writes the workload's parameter
files, then calls `gpade.cli.main(argv)` once per report in the workload's
order, with stdout and stderr captured.  Prints one JSON line: when set-up
finished, and per report the exit code, wall and CPU time, the speed probe's
kernel time and the stdout digest, plus the process's peak RSS.  With
--trace-file the traced functions are wrapped first and the line also carries
per-layer totals; with --check the reports are checked after everything has
been measured.

    python3 bench/worker.py --workload audit-ladder --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from math import gcd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cpu_ns() -> int:
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((child.ru_utime + child.ru_stime) * 1e9)


# Operands of the speed probe's big-integer gcd (the step that normalises
# every Fraction result).
_KERNEL_A = 3**1500 + 12345
_KERNEL_B = 5**1000 + 777


class SpeedProbe:
    """Samples this machine's current speed for exact arithmetic: the time of
    a fixed kernel that touches no gpade code, half big-integer gcd and half
    small Fraction sums.  The machine's slow spells slow the two halves by
    different amounts, and gpade's reports sit in between: over repeated
    rounds of the three workloads, scaling by either half alone left 6-20 %
    spread between rounds, scaling by both 4-12 %.  `around()` times the
    kernel a few times between reports; while `running`, SIGALRM times it
    every SAMPLE_INTERVAL_S inside the report too, so speed changes during a
    long report are seen.  The caller subtracts the kernel's time inside a
    report from the report's time."""

    SAMPLE_INTERVAL_S = 0.025

    def __init__(self):
        self.samples: list[int] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(self._kernel_ns()))

    @staticmethod
    def _kernel_ns() -> int:
        start = time.perf_counter_ns()
        for k in range(1, 9):
            gcd(_KERNEL_A * k, _KERNEL_B)
        acc = Fraction(0)
        for k in range(1, 85):
            acc += Fraction(1, k)
        return time.perf_counter_ns() - start

    def around(self, times: int = 5) -> None:
        self.samples.extend(self._kernel_ns() for _ in range(times))

    @contextlib.contextmanager
    def running(self):
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def kernel_s(self) -> float:
        return statistics.median(self.samples) / 1e9


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None, help="trace the round and write its spans here")
    ap.add_argument("--check", action="store_true", help="check the reports after measuring")
    ap.add_argument("--setup-only", action="store_true", help="stop once set up")
    ap.add_argument("--only", default=None, metavar="REPORT", help="run just this report of the workload")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gpade", "__init__.py")):
        print(f"gpade sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gpade.cli  # gpade/__init__.py loads every module the tracer patches

    if not os.path.abspath(gpade.__file__).startswith(SRC + os.sep):
        print(f"imported gpade from {gpade.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import build, params_text

    wl = build(args.workload, args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    for key, alphas in wl.params.items():
        with open(os.path.join(args.workdir, f"{key}.params"), "w", encoding="utf-8") as fh:
            fh.write(params_text(alphas))
    ops = [op for op in wl.ops if args.only in (None, op.name)]
    if not ops:
        print(f"no report named {args.only!r} in {args.workload}", file=sys.stderr)
        return 2
    argvs = [wl.argv(op, args.workdir) for op in ops]

    tracer = None
    if args.trace_file:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    probe = SpeedProbe()
    probe.around()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns, "kernel_s": probe.kernel_s()}))
        return 0
    setup_kernel_s = probe.kernel_s()

    results = []
    outputs = []
    for idx, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op_index = idx
        out, err = io.StringIO(), io.StringIO()
        probe.samples = []
        probe.around()
        before = len(probe.samples)
        cpu_start = _cpu_ns()
        start = time.perf_counter_ns()
        with probe.running(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gpade.cli.main(argv)
            except Exception:  # an uncaught fault is a failed report, not a crashed round
                code = -1
                traceback.print_exc()
        end = time.perf_counter_ns()
        cpu_end = _cpu_ns()
        inner_ns = sum(probe.samples[before:])
        probe.around()
        text = out.getvalue()
        outputs.append(text)
        results.append(
            {
                "name": ops[idx].name,
                "code": code,
                "wall_s": (end - start - inner_ns) / 1e9,
                "cpu_s": (cpu_end - cpu_start - inner_ns) / 1e9,
                "kernel_s": probe.kernel_s(),
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "stderr": err.getvalue().strip().splitlines()[-1:] if code else [],
            }
        )
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    line = {
        "ready_ns": ready_ns,
        "kernel_s": setup_kernel_s,
        "ops": results,
        "peak_rss_mb": rss_kb / 1024,
    }
    if tracer is not None:
        line["layers"] = tracer.layer_totals()
        tracer.write_jsonl(args.trace_file, [op.name for op in ops])
    if args.check:
        from checks import check_report

        problems = []
        for op, res, text in zip(ops, results, outputs):
            if res["code"] != 0:
                continue
            for msg in check_report(op, wl.params[op.params], text):
                problems.append(f"{op.name}: {msg}")
        line["problems"] = problems
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
