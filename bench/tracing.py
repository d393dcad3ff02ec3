"""Spans around the public functions of each gpade module.

`Tracer.install()` replaces every traced function by a wrapper in every
gpade module namespace that holds it: `from .pade import build_family`
binds the function into `cli`, `padic` and `realapprox` at import time, so
patching only `pade` would miss those callers.  Calls through a module's own
globals (including the recursion of `log_interval` and `exp_interval`) go
through the wrapper as well.

Spans stay in memory as flat tuples and are written as JSON lines once the
run is over.  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions whose spans make up the per-layer metrics
TRACED = {
    "params": ("load_params",),
    "arith": ("pochhammer", "log_interval", "exp_interval", "epsilon_interval", "nth_root_iv"),
    "pade": (
        "phi_coeffs", "build_q_generic", "series_product_coeffs", "build_family",
        "verify_order", "oracle_solve", "family_det", "family_tsv",
    ),
    "denom": (
        "compute_d1", "compute_d2", "bound_constants", "make_cert",
        "verify_integrality", "check_size_bounds", "scaled_integers",
    ),
    "padic": (
        "eval_phi_padic", "linear_form_valuation", "select_block_degrees",
        "audit_linear_form", "global_relation_constant", "probe_global_relation",
    ),
    "realapprox": (
        "restricted_constants", "make_restricted_instance", "restricted_d1",
        "restricted_d2", "eval_phi_real", "audit_restricted",
    ),
    "cli": ("main", "emit_report"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self):
        # (name index, start ns, end ns, parent span index or -1, op index)
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self._stack: list[int] = []
        self.op_index = -1

    def _wrap(self, name_index: int, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_index, start, end, parent, tracer.op_index)

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded gpade module."""
        modules = [m for name, m in sys.modules.items() if name == "gpade" or name.startswith("gpade.")]
        for name_index, qualname in enumerate(SPAN_NAMES):
            mod_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"gpade.{mod_name}"], fn_name)
            wrapper = self._wrap(name_index, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls and self seconds, over all spans."""
        self_ns = [0] * len(SPAN_NAMES)
        calls = [0] * len(SPAN_NAMES)
        for span in self.spans:
            name, start, end, parent, _ = span
            dur = end - start
            self_ns[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= dur
        return {
            qualname: {"self_s": self_ns[i] / 1e9, "calls": calls[i]}
            for i, qualname in enumerate(SPAN_NAMES)
        }

    def write_jsonl(self, path: str, op_names: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": SPAN_NAMES[name],
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent if parent >= 0 else None,
                            "op": op_names[op] if op >= 0 else None,
                        }
                    )
                    + "\n"
                )
