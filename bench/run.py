"""The gpade benchmark: one workload, measured in fresh Python processes.

    python3 bench/run.py --workload construct-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; it needs `src/gpade`.  A round is one fresh
interpreter (bench/worker.py) that imports gpade, writes the workload's
parameter files and calls `gpade.cli.main(argv)` for every report of the
workload in order, single-threaded, with the default --jobs 1; then
LARGEST_SAMPLES fresh interpreters that run only the workload's largest
report.  Rounds repeat until the next one would end past --seconds (at least
three with --trace 0), so every run attempts whole rounds.  The first round's
reports go through the independent checkers (bench/checks.py); every other
output must match the first round's byte for byte.

Times are in reference seconds (see REFERENCE_KERNEL_S).  With --trace 0 the
last line reports the end-to-end metrics, with --trace 1, where untraced and
traced rounds alternate, the per-layer ones.  Set-up is also sampled by a
few processes that stop right after set-up.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 5
LARGEST_SAMPLES = 2
# Time of the worker.SpeedProbe kernel on the reference machine (2 cores,
# Python 3.11.7, at its fast speed).  Every reported time is scaled
# by this over the kernel's median time around and during the same report,
# so the machine's own speed swings cancel.
REFERENCE_KERNEL_S = 0.0004
WORKER_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from tracing import SPAN_NAMES, TRACED  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


class RoundFailed(Exception):
    pass


def _spawn(args, workdir: str, *extra: str):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    cmd += extra
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    line["setup_s"] = _normal((line["ready_ns"] - spawn_ns) / 1e9, line["kernel_s"])
    return line


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _normal(seconds: float, kernel_s: float) -> float:
    """A measured time in reference seconds: scaled by how much slower the
    speed probe's kernel ran than on the reference machine."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def _report_median(rounds: list[dict], k: int, key: str = "wall_s") -> float:
    return statistics.median(_normal(r["ops"][k][key], r["ops"][k]["kernel_s"]) for r in rounds)


def _typical_round(rounds: list[dict], key: str) -> float:
    """`key` ("wall_s" or "cpu_s") of a typical round, in reference seconds:
    the sum over reports of each report's median across rounds.  A slow spell
    on the machine then spoils single samples, not the figure."""
    return sum(_report_median(rounds, k, key) for k in range(len(rounds[0]["ops"])))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gpade", "__init__.py")):
        print(f"no gpade sources under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"

    setups = []
    for k in range(SETUP_SAMPLES):
        setups.append(_spawn(args, os.path.join(OUT, f"work-{tag}-setup{k}"), "--setup-only")["setup_s"])

    largest = build(args.workload, args.seed).largest
    rounds, singles = [], []
    min_rounds = 2 if args.trace else 3
    start = time.monotonic()
    while True:
        # a round: the whole workload in one process, then the largest report
        # alone in LARGEST_SAMPLES fresh processes, as a user would run it
        k = len(rounds)
        traced = args.trace == 1 and k % 2 == 1
        extra = ["--check"] if k == 0 else []
        if traced:
            extra += ["--trace-file", os.path.join(OUT, f"trace-{tag}-round{k}.jsonl")]
        rounds.append(_spawn(args, os.path.join(OUT, f"work-{tag}-round{k}"), *extra))
        rounds[-1]["traced"] = traced
        for j in range(LARGEST_SAMPLES):
            singles.append(_spawn(args, os.path.join(OUT, f"work-{tag}-round{k}-largest{j}"), "--only", largest))
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    first = rounds[0]
    names = [op["name"] for op in first["ops"]]
    problems = list(first["problems"])
    for k, rnd in enumerate(rounds[1:], start=1):
        for ref, res in zip(first["ops"], rnd["ops"]):
            if ref["sha256"] != res["sha256"] or ref["code"] != res["code"]:
                kind = "traced" if rnd["traced"] else "untraced"
                problems.append(f"{res['name']}: {kind} round {k} output differs from round 0")
    ref = first["ops"][names.index(largest)]
    if any(one["ops"][0]["sha256"] != ref["sha256"] for one in singles):
        problems.append(f"{largest}: output alone differs from its output within the workload")
    every_op = [op for r in rounds + singles for op in r["ops"]]
    failed = sum(op["code"] != 0 for op in every_op)

    for rnd in rounds:
        raw = sum(op["wall_s"] for op in rnd["ops"])
        print(f"round traced={int(rnd['traced'])} measured_wall_s={raw:.4f} "
              f"reference_wall_s={_typical_round([rnd], 'wall_s'):.4f} "
              f"kernel_ms={1e3 * statistics.median(op['kernel_s'] for op in rnd['ops']):.4f} "
              f"setup_s={rnd['setup_s']:.4f} rss_mb={rnd['peak_rss_mb']:.1f}")
    print(f"largest report alone: {len(singles)} samples, median {_report_median(singles, 0):.4f} s")
    for k, op in enumerate(first["ops"]):
        status = "ok" if op["code"] == 0 else f"FAILED exit {op['code']}: {' '.join(op['stderr'])}"
        print(f"  {_report_median(rounds, k):8.4f}s  {op['name']}  {status}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")

    plain = [r for r in rounds if not r["traced"]]
    if args.trace == 0:
        metrics = {
            "wall_s": _metric(_typical_round(plain, "wall_s"), "s"),
            "cpu_s": _metric(_typical_round(plain, "cpu_s"), "s"),
            "largest_report_s": _metric(_report_median(singles, 0), "s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "setup_s": _metric(statistics.median(setups + [r["setup_s"] for r in rounds + singles]), "s"),
        }
    else:
        traced = [r for r in rounds if r["traced"]]

        def self_s(rnd, qualnames):
            kernel_s = statistics.median(op["kernel_s"] for op in rnd["ops"])
            return _normal(sum(rnd["layers"][q]["self_s"] for q in qualnames), kernel_s)

        metrics = {}
        for qualname in SPAN_NAMES:
            metrics[f"{qualname}.self_s"] = _metric(statistics.median(self_s(r, [qualname]) for r in traced), "s")
            metrics[f"{qualname}.calls"] = _metric(traced[0]["layers"][qualname]["calls"], "count")
        for mod, fns in TRACED.items():
            qualnames = [f"{mod}.{fn}" for fn in fns]
            metrics[f"{mod}.self_s"] = _metric(statistics.median(self_s(r, qualnames) for r in traced), "s")
        metrics["trace.overhead_s"] = _metric(_typical_round(traced, "wall_s") - _typical_round(plain, "wall_s"), "s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(every_op), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
