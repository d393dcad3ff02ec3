"""The certified log and exp on Fractions, kept as a test reference.

`interval.log_interval` and `exp_interval` now memoize a private kernel on the
integer pair (num, den, prec) in lowest terms, reduce the argument of log in
int, read the ends of an enclosure as int pairs, and divide each exp term by
k after the shift.  The functions here are the former route, copied as it
was: each public function is memoized on its Fraction argument, log reduces
x = 2^e m with Fraction arithmetic and hands t = (m - 1)/(m + 1) to the
atanh series as a Fraction, and `log_iv`/`exp_iv` read the ends as reduced
Fractions.  Every enclosure of the new route must equal the one here, tuple
for tuple.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from gpade.errors import InvariantViolation
from gpade.interval import Interval

_GUARD_BITS = 32


def _grid(lo: int, hi: int, den: int) -> Interval:
    g = gcd(lo, hi, den)
    return tuple.__new__(Interval, (lo, hi, den) if g == 1 else (lo // g, hi // g, den // g))


def _rounded(lo: int, hi: int, den: int, bits: int) -> Interval:
    return _grid((lo << bits) // den, -((-hi << bits) // den), 1 << bits)


def _span(x: Interval, y: Interval) -> Interval:
    if x[2] == y[2]:
        return _grid(x[0], y[1], x[2])
    return _grid(x[0] * y[2], y[1] * x[2], x[2] * y[2])


def _atanh_series(t: Fraction, prec: int) -> Interval:
    # 2*atanh(t) for 0 <= t < 1/2, with an explicit geometric tail bound.
    if not 0 <= t < Fraction(1, 2):
        raise InvariantViolation(f"atanh series needs 0 <= t < 1/2, got {t}")
    if t == 0:
        return Interval.point(0)
    w = prec + _GUARD_BITS
    n, d = t.numerator, t.denominator
    lo = (n << w) // d
    hi = -((-n << w) // d)
    lo2 = lo * lo
    s_lo, x, k = 0, lo, 0
    while x:
        s_lo += x // (2 * k + 1)
        x = (x * lo2) >> (2 * w)
        k += 1
    hi2 = hi * hi
    s_hi, y, k = 0, hi, 0
    while y >= 2 * k + 1:
        s_hi += -(-y // (2 * k + 1))
        y = -((-y * hi2) >> (2 * w))
        k += 1
    s_hi += 2 * -(-y // (2 * k + 1))
    return _rounded(s_lo, s_hi, 1 << (w - 1), prec + 8)


@lru_cache(maxsize=None)
def _log2_interval(prec: int) -> Interval:
    return _atanh_series(Fraction(1, 3), prec)


@lru_cache(maxsize=None)
def log_interval(x: Fraction, prec: int = 128) -> Interval:
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a nonpositive rational")
    if x == 1:
        return Interval.point(0)
    if x < 1:
        return -log_interval(1 / x, prec)
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    e = k - (n < d << k)
    m = x / (1 << e)
    if not 1 <= m < 2:
        raise InvariantViolation(f"log reduction left mantissa {m} outside [1, 2)")
    wp = prec + max(16, e.bit_length() + 8)
    t = (m - 1) / (m + 1)
    body = _atanh_series(t, wp)
    total = body + _log2_interval(wp) * e
    return total.rounded(prec)


def log_iv(iv: Interval, prec: int = 128) -> Interval:
    return _span(log_interval(iv.lo, prec), log_interval(iv.hi, prec))


def _exp_core(n: int, d: int, prec: int) -> tuple[int, int]:
    # exp(n/d) for 0 <= n/d <= 1/2 on the 2^-(prec+8) grid
    if not 0 <= 2 * n <= d:
        raise InvariantViolation(f"exp series needs 0 <= x <= 1/2, got {n}/{d}")
    w = prec + _GUARD_BITS
    one = 1 << w
    lo = (n << w) // d
    hi = -((-n << w) // d)
    s_lo, a, k = one, one, 1
    while True:
        a = (a * lo) // (k << w)
        if not a:
            break
        s_lo += a
        k += 1
    s_hi, b, k = one, one, 1
    while True:
        b = -((-b * hi) // (k << w))
        if b <= 1:
            break
        s_hi += b
        k += 1
    s_hi += 2 * b
    shift = _GUARD_BITS - 8
    return s_lo >> shift, -((-s_hi) >> shift)


@lru_cache(maxsize=None)
def exp_interval(x: Fraction, prec: int = 128) -> Interval:
    x = Fraction(x)
    n, d = abs(x.numerator), x.denominator
    if n == 0:
        return Interval.point(1)
    j = (-(-2 * n // d) - 1).bit_length()
    wp = prec + 4 * j + 24
    lo, hi = _exp_core(n, d << j, wp)
    grid = wp + 8
    for _ in range(j):
        s = 2 * grid - wp
        lo, hi = (lo * lo) >> s, -((-hi * hi) >> s)
        grid = wp
    s = grid - prec
    lo, hi = lo >> s, -((-hi) >> s)
    if x > 0:
        return Interval.of(lo, hi, 1 << prec)
    bits = prec + (hi >> prec).bit_length() + 7
    one = 1 << (prec + bits)
    return Interval.of(one // hi, -(-one // lo), 1 << bits)


def exp_iv(iv: Interval, prec: int = 128) -> Interval:
    return _span(exp_interval(iv.lo, prec), exp_interval(iv.hi, prec))
