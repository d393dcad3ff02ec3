"""The three-walk report renderer, kept as a test reference.

`report.emit_report` renders a result tree in one walk that dispatches on
each node's type.  The renderer here is the former route: `canonical`
converts the whole tree into JSON-ready primitives by an `isinstance` chain,
then JSON is `json.dumps` of that tree and TSV is `flatten` of it, one
"key<TAB>value" row per leaf, joined by `tsv`.
"""

import json
from fractions import Fraction

from gpade.arith import Interval
from gpade.report import Check, abbrev, fmt_ratio, int_str, rational

_TEN_40 = 10**40


def canonical(obj, exact: bool = False):
    """Convert a result object into deterministic JSON-ready primitives."""
    if isinstance(obj, Check):
        obj = obj._asdict()
    if isinstance(obj, Interval):
        lo, hi, den = obj
        return {"lo": fmt_ratio(lo, den, 24), "hi": fmt_ratio(hi, den, 24), "direction": "outward"}
    if isinstance(obj, Fraction):
        return rational(obj, exact)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return int_str(obj, exact) if abs(obj) >= _TEN_40 else obj
    if isinstance(obj, str):
        return abbrev(obj, exact)
    if isinstance(obj, dict):
        return {str(k): canonical(v, exact) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v, exact) for v in obj]
    return str(obj)


def flatten(obj, prefix="") -> list[tuple[str, str]]:
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, list):
        for idx, v in enumerate(obj):
            rows.extend(flatten(v, f"{prefix}{idx}."))
    else:
        rows.append((prefix.rstrip("."), "" if obj is None else str(obj)))
    return rows


def tsv(header, rows) -> str:
    """Tab-separated lines: the header's fields, then each row's fields."""
    lines = ["\t".join(header)] + ["\t".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def reference_emit_report(result, fmt: str, exact: bool = False) -> str:
    canon = canonical(result, exact)
    if fmt == "json":
        return json.dumps(canon, sort_keys=True, indent=2) + "\n"
    return tsv(("key", "value"), flatten(canon))
