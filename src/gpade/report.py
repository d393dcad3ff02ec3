"""Report rendering: how every printed number, check entry and report looks.

Every report the CLI prints is rendered here, so a rendering rule is
decided once.  Integers printed in full go through `full_digits`, which does not
depend on the interpreter's int-to-str digit limit; reports abbreviate
integers above 40 digits unless exact output was requested.

`emit_report` renders a result tree in one walk that dispatches on each
node's type (`_node`): TSV lines come straight out of the walk, and JSON is
`json.dumps` of the same leaves.  `tsv` joins the lines of every TSV report.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from .arith import Interval, digits10

__all__ = [
    "full_digits", "fmt_real", "fmt_ratio", "int_str", "rational", "abbrev", "dec_iv", "fmt_value", "Check", "entry",
    "tagged_bound", "tsv", "emit_report",
]


def full_digits(n: int) -> str:
    """Every decimal digit of n (with its sign), for an integer of any size."""
    return str(Decimal(n))


def int_str(n: int, exact: bool) -> str:
    """n in full, or abbreviated to its first and last 12 digits plus the
    digit count when it has more than 40 digits (the sign is not counted)."""
    d = digits10(n)
    if exact or d <= 40:
        return full_digits(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10 ** (d - 12)}...{n % 10**12:012d}({d}digits)"


def rational(q: Fraction, exact: bool = True) -> str:
    """`str(q)` for a rational of any size, numerator and denominator
    rendered by `int_str`."""
    num = int_str(q.numerator, exact)
    return num if q.denominator == 1 else f"{num}/{int_str(q.denominator, exact)}"


def abbrev(s: str, exact: bool) -> str:
    """Abbreviate a digit string longer than 40 characters (the sign counts)."""
    if exact or len(s) <= 40 or not s.lstrip("-").isdigit():
        return s
    body = s.lstrip("-")
    sign = "-" if s.startswith("-") else ""
    return f"{sign}{body[:12]}...{body[-12:]}({len(body)}digits)"


def fmt_real(q: Fraction, sig: int = 18) -> str:
    """Deterministic decimal rendering of a rational, exact-arithmetic only.

    Mid-range values print in fixed point (truncated); very large or very
    small ones print as a truncated mantissa with a power of ten.  Safe for
    integers of any size (never stringifies a huge int directly).
    """
    q = Fraction(q)
    return fmt_ratio(q.numerator, q.denominator, sig)


def fmt_ratio(n: int, d: int, sig: int = 18) -> str:
    """`fmt_real(n/d)` for integers n and d > 0 that need not be coprime.

    Every digit is a floor of n*10^k/d (or n/(d*10^-k)) and the exponent is
    floor(log10(|n|/d)); both depend only on the value n/d, so any multiple
    (n*g, d*g) renders the same without a gcd.  Being monotone floors, they
    also agree on every value between two that render alike: when both
    operands are long, their leading bits nl = n >> t and dl = d >> t bracket
    n/d in [nl/(dl+1), (nl+1)/dl], and the exact rendering is paid only when
    the two ends of the bracket render differently.  The ends share the
    powers of ten of one rendering.
    """
    if n == 0:
        return "0"
    sign = "-" if n < 0 else ""
    n = abs(n)
    pows: dict[int, int] = {}
    t = min(n.bit_length(), d.bit_length()) - (4 * sig + 128)
    if t > 0:
        nl, dl = n >> t, d >> t
        low = _fmt_positive(nl, dl + 1, sig, pows)
        if low == _fmt_positive(nl + 1, dl, sig, pows):
            return sign + low
    return sign + _fmt_positive(n, d, sig, pows)


def _fmt_positive(n: int, d: int, sig: int, pows: dict[int, int]) -> str:
    """`fmt_ratio(n, d, sig)` for n, d > 0, from the exact value; `pows`
    holds the powers 10^j already formed for this rendering, by j.

    With e = floor(log10(n/d)) and a lower bound e_lo from the bit lengths,
    m = floor(n/d 10^k) for k = sig - 1 - e_lo has e + k + 1 >= sig digits,
    which give e, and its leading sig digits are the mantissa.  So one
    power 10^|k| serves both, and the ends of a bracket, whose bit lengths
    agree, find it in `pows`.
    """
    # n/d > 2^v for v = n.bit_length() - d.bit_length() - 1, and 0.30103 v
    # exceeds v log10(2) by less than 1 while v < 2.3 * 10^8, so e_lo <= e
    # there; the loop lowers e_lo for longer operands
    e_lo = (n.bit_length() - d.bit_length() - 1) * 30103 // 100000 - 1
    while True:
        j = abs(sig - 1 - e_lo)
        p = pows.get(j) or pows.setdefault(j, 10**j)
        m = n * p // d if e_lo < sig else n // (d * p)
        if m >= 10 ** (sig - 1):
            break
        e_lo -= 1
    e = e_lo + len(str(m)) - sig
    if -6 <= e <= 24:
        whole, frac = divmod(n * 10**sig // d, 10**sig)
        return f"{whole}.{str(frac).zfill(sig)}"
    ms = str(m // 10 ** (e - e_lo))
    return f"{ms[0]}.{ms[1:]}e{e:+d}"


def dec_iv(iv: Interval, digits: int = 12) -> str:
    lo, hi, den = iv
    return f"[{fmt_ratio(lo, den, digits)}, {fmt_ratio(hi, den, digits)}]"


def fmt_value(value) -> str:
    if isinstance(value, Fraction):
        return fmt_real(value)
    if isinstance(value, int):
        return fmt_real(Fraction(value)) if abs(value) >= 10**24 else full_digits(value)
    return str(value)


class Check(NamedTuple):
    """One check of a report: a rendered left side against a rendered right side.

    `passed` is the numeric outcome either way; `applicable` records whether
    the bound's stated size threshold is met (only then is a FAIL a finding).
    """

    name: str
    applicable: bool
    passed: bool
    lhs: str
    rhs: str

    @property
    def failed(self) -> bool:
        return self.applicable and not self.passed

    @property
    def status(self) -> str:
        return "SKIP" if not self.applicable else ("FAIL" if self.failed else "PASS")


def entry(name, applicable, passed, lhs="", rhs="") -> Check:
    """A Check whose two sides are rendered by `fmt_value`."""
    return Check(name, applicable, passed, fmt_value(lhs), fmt_value(rhs))


def tagged_bound(value: Fraction, digits: int, direction: str, precision: int) -> dict:
    """A directed-rounded bound as printed: its value, rounding side and grid."""
    return {"value": fmt_real(value, digits), "direction": direction, "precision_bits": precision}


_TEN_40 = 10**40  # above 128 bits, so not folded into a constant at compile time
# The classes a node is dispatched on, in the order of precedence: a node of
# any other type is read as the first of them it is an instance of.
_KINDS = dict.fromkeys((Check, Interval, Fraction, bool, type(None), int, str, dict, list, tuple))


def _node(obj, exact: bool):
    """A node of a result tree as both formats print it: a dict with str keys
    or a list of children still to walk, or a leaf's JSON value.  A Check
    becomes the dict of its fields, an Interval that of its outward 24-digit
    ends; a Fraction prints by `rational`, an int of 41 or more digits by
    `int_str`, a str by `abbrev`, any other leaf but bool and None by `str`."""
    t = type(obj)
    if t not in _KINDS:
        t = next((k for k in _KINDS if isinstance(obj, k)), object)
    if t is str:
        return obj if exact or len(obj) <= 40 else abbrev(obj, exact)
    if t is int:
        return obj if -_TEN_40 < obj < _TEN_40 else int_str(obj, exact)
    if t is bool or obj is None:
        return obj
    if t is dict:
        return dict(zip(map(str, obj), obj.values()))
    if t is list or t is tuple:
        return list(obj)
    if t is Check:
        return obj._asdict()
    if t is Interval:
        lo, hi, den = obj
        return {"lo": fmt_ratio(lo, den, 24), "hi": fmt_ratio(hi, den, 24), "direction": "outward"}
    return rational(obj, exact) if t is Fraction else str(obj)


def _json(obj, exact: bool):
    node = _node(obj, exact)
    if type(node) is dict:
        return {k: _json(v, exact) for k, v in node.items()}
    return [_json(v, exact) for v in node] if type(node) is list else node


def _rows(node, exact: bool, prefix: str, lines: list[str]) -> None:
    """Append a "key<TAB>value" line per leaf under a dict or list node: keys
    in sorted order and list positions joined by ".", None printed empty."""
    for k, v in sorted(node.items()) if type(node) is dict else enumerate(node):
        v = _node(v, exact)
        if type(v) is dict or type(v) is list:
            _rows(v, exact, f"{prefix}{k}.", lines)
        else:
            lines.append(f"{prefix}{k}".rstrip(".") + "\t" + ("" if v is None else str(v)))


def tsv(header, lines) -> str:
    """Tab-separated text: the header's fields, then each line."""
    return "\n".join(["\t".join(header), *lines]) + "\n"


def emit_report(result: dict, fmt: str, exact: bool = False) -> str:
    """Deterministic, byte-stable rendering of a result tree (a dict), in one
    walk."""
    if fmt == "json":
        return json.dumps(_json(result, exact), sort_keys=True, indent=2) + "\n"
    lines: list[str] = []
    _rows(_node(result, exact), exact, "", lines)
    return tsv(("key", "value"), lines)
