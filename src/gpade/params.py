"""Parameter validation and the integer data derived from the series inputs.

The toolkit works with m+1 positive rationals alpha_0, ..., alpha_m where the
upper parameters alpha_1, ..., alpha_m must be pairwise non-congruent mod 1.
All the integers the downstream modules need (reduced numerators and
denominators, the pairing integers d_j with s0*s_j = d_j*v_j, their lcms and
maxima) are derived once here and frozen.  `load_params` reads its file on
every call and parses each distinct (text, path) once per process: a bounded
memo shares the immutable `GParams`, so reports on one file in one process
parse it once, and an edited file is parsed again.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import IntegerDifference, InvariantViolation, NonPositiveAlpha
from .arith import p_valuation

__all__ = [
    "GParams",
    "derive_params",
    "padic_domain_check",
    "parse_int",
    "parse_fraction",
    "parse_params",
    "load_params",
    "DomainCheck",
]


class GParams(NamedTuple):
    """Immutable bundle of the series parameters and all derived integers.

    Indexing convention: r/s cover j = 0..m (alpha_j = r_j/s_j reduced);
    u/v cover j = 1..m via alpha_j + alpha_0 = u_j/v_j reduced; d_j is the
    positive integer with s0*s_j = d_j*v_j.  s, v, d are lcms over j = 1..m,
    dtilde = d/(d, s0), and R, S, U, V are maxima over j = 1..m.
    """

    m: int
    alpha: tuple[Fraction, ...]
    r: tuple[int, ...]
    s: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]
    d: tuple[int, ...]
    s_lcm: int
    v_lcm: int
    d_lcm: int
    dtilde: int
    R: int
    S: int
    U: int
    V: int

    @property
    def s0(self) -> int:
        return self.s[0]

    @property
    def r0(self) -> int:
        return self.r[0]


def derive_params(alphas: Sequence[Fraction]) -> GParams:
    """Validate the parameter list and derive every integer the toolkit uses.

    Raises NonPositiveAlpha for nonpositive entries and IntegerDifference(i, j)
    when alpha_i - alpha_j is an integer for some 1 <= i < j <= m.  The
    constraint deliberately does not involve alpha_0.
    """
    alphas = tuple(Fraction(a) for a in alphas)
    if len(alphas) < 2:
        raise ValueError("need alpha_0 and at least one upper parameter")
    m = len(alphas) - 1
    for a in alphas:
        if a <= 0:
            raise NonPositiveAlpha(f"alpha = {a} must be positive")
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            diff = alphas[i] - alphas[j]
            if diff.denominator == 1:
                raise IntegerDifference(i, j, diff)

    r = tuple(a.numerator for a in alphas)
    s = tuple(a.denominator for a in alphas)
    sums = [alphas[j] + alphas[0] for j in range(1, m + 1)]
    u = tuple(q.numerator for q in sums)
    v = tuple(q.denominator for q in sums)
    d = []
    for j in range(1, m + 1):
        prod = s[0] * s[j]
        if prod % v[j - 1]:
            raise InvariantViolation(f"v_{j} does not divide s0*s_{j}")
        d.append(prod // v[j - 1])
    d = tuple(d)

    s_lcm = lcm(*s[1:])
    v_lcm = lcm(*v)
    d_lcm = lcm(*d)
    return GParams(
        m=m,
        alpha=alphas,
        r=r,
        s=s,
        u=u,
        v=v,
        d=d,
        s_lcm=s_lcm,
        v_lcm=v_lcm,
        d_lcm=d_lcm,
        dtilde=d_lcm // gcd(d_lcm, s[0]),
        R=max(r[1:]),
        S=max(s[1:]),
        U=max(u),
        V=max(v),
    )


class DomainCheck(NamedTuple):
    ok: bool
    delta_2p: int
    delta_p: int


def padic_domain_check(gp: GParams, p: int, beta: Fraction) -> DomainCheck:
    """Check |beta|_p < 2^(-delta(2,p)) * |s|_p, the p-adic convergence domain.

    delta(2,p) is 1 exactly when p = 2 and the lcm s of the upper-parameter
    denominators is even; delta_p flags whether p divides s at all.
    """
    if p < 2:
        raise InvariantViolation(f"domain check needs a prime p, got {p}")
    beta = Fraction(beta)
    if beta == 0:
        raise ValueError("domain check requires beta != 0")
    s = gp.s_lcm
    delta_2p = 1 if (p == 2 and s % 2 == 0) else 0
    delta_p = 1 if s % p == 0 else 0
    # |beta|_p < 2^(-delta(2,p)) * |s|_p  <=>  v_p(beta) > v_p(s) + delta(2,p)
    ok = p_valuation(beta, p) > p_valuation(Fraction(s), p) + delta_2p
    return DomainCheck(ok, delta_2p, delta_p)


# ---------------------------------------------------------------------------
# Numbers in text.  int() and Fraction() refuse more than 4300 digits (the
# interpreter's guard on int-to-str conversion); Decimal has no such limit and
# converts exactly, so the two parsers below accept what int() and Fraction()
# accept, of any length.
# ---------------------------------------------------------------------------

_DIGITS = r"\d+(?:_\d+)*"
_INT_TEXT = re.compile(rf"\s*[+-]?{_DIGITS}\s*")
_RATIONAL_TEXT = re.compile(
    rf"\s*[+-]?(?:{_DIGITS}/{_DIGITS}|(?=\.?\d)(?:{_DIGITS})?(?:\.(?:{_DIGITS})?)?(?:[eE][+-]?{_DIGITS})?)\s*"
)


def parse_int(text: str) -> int:
    """int(text), for a decimal integer literal of any length."""
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(Decimal(text))


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), for a literal 'a/b' or a decimal of any length."""
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    num, _, den = text.partition("/")
    if den:
        return Fraction(int(Decimal(num)), int(Decimal(den)))
    return Fraction(Decimal(text))


# ---------------------------------------------------------------------------
# Parameter files: "m = 2", "alpha0 = 1/2", ..., comments start with '#'.
# ---------------------------------------------------------------------------


def parse_params(text: str, source: str = "<params>") -> GParams:
    entries: dict[str, Fraction] = {}
    m_declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        try:
            if key == "m":
                m_declared = parse_int(val)
            elif key.startswith("alpha"):
                entries[key] = parse_fraction(val)
            else:
                raise ValueError(f"unknown key {key!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    if m_declared is None:
        raise ValueError(f"{source}: missing 'm = <int>' line")
    alphas = []
    for j in range(m_declared + 1):
        key = f"alpha{j}"
        if key not in entries:
            raise ValueError(f"{source}: missing '{key} = <num>/<den>'")
        alphas.append(entries[key])
    extra = set(entries) - {f"alpha{j}" for j in range(m_declared + 1)}
    if extra:
        raise ValueError(f"{source}: unexpected keys {sorted(extra)}")
    return derive_params(alphas)


def load_params(path: str) -> GParams:
    """The parameters in the file at path: read on every call, parsed once
    per process for each distinct (text, path)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_file(fh.read(), path)


_parse_file = lru_cache(maxsize=64)(parse_params)
