"""Rational enclosures on integer grids, and the certified log, exp and
root kernels that produce them.

An `Interval` [lo_num/den, hi_num/den] keeps its two ends over one positive
denominator, normalized by one gcd as `arith.Grid` is, so equal enclosures
are equal tuples.  Its arithmetic is integer arithmetic with outward
rounding.  The kernels sum their series in fixed point on plain ints and
hand the integers straight to the grid; log and exp take a rational as an
int pair, memoized on (n, d, prec) in lowest terms (an int is (n, 1), an
enclosure's end is reduced by one gcd).  `arith` re-exports every name.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from typing import NamedTuple

from .errors import InvariantViolation

__all__ = [
    "Interval",
    "log_interval",
    "log_iv",
    "exp_interval",
    "exp_iv",
    "integer_nth_root",
    "nth_root_iv",
]


# ---------------------------------------------------------------------------
# Enclosures
# ---------------------------------------------------------------------------


_new = tuple.__new__


def _grid(lo: int, hi: int, den: int) -> "Interval":
    # [lo/den, hi/den] for lo <= hi and den > 0, normalized by one gcd, short den and hi - lo first
    g = gcd(den, hi - lo, lo)
    return _new(Interval, (lo, hi, den) if g == 1 else (lo // g, hi // g, den // g))


def _rounded(lo: int, hi: int, den: int, bits: int) -> "Interval":
    # [lo/den, hi/den] widened to the 2^-bits grid, lower end floored
    return _grid((lo << bits) // den, -((-hi << bits) // den), 1 << bits)


class Interval(NamedTuple):
    """A rational enclosure [lo_num/den, hi_num/den] of a real number, on the
    integer grid of one denominator den > 0.

    Like `Grid`, it is normalized so that gcd(lo_num, hi_num, den) = 1, so
    equal enclosures are equal tuples with equal hashes.  `lo` and `hi` read
    the ends as reduced Fractions.  Every operation is integer arithmetic on
    the grid: an int operand enters as is, a Fraction as a point; results
    ordered by construction are not re-checked.  All operations round
    outward, so any Interval produced here certifiably contains the exact
    real it stands for.  `of` builds one from its two ends and rejects an
    empty enclosure; `point` builds [q, q].
    """

    lo_num: int
    hi_num: int
    den: int

    @classmethod
    def of(cls, lo, hi, den: int = 1) -> "Interval":
        """[lo/den, hi/den] for rationals lo <= hi and an integer den > 0,
        normalized; integers lo and hi stay integers throughout."""
        if not (isinstance(lo, int) and isinstance(hi, int)):
            lo, hi = Fraction(lo), Fraction(hi)
            d = lcm(lo.denominator, hi.denominator)
            lo, hi, den = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), den * d
        if lo > hi:
            raise InvariantViolation("empty interval: lo > hi")
        return _grid(lo, hi, den)

    @classmethod
    def point(cls, q) -> "Interval":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _new(cls, (q.numerator, q.numerator, q.denominator))

    @property
    def lo(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def hi(self) -> Fraction:
        return Fraction(self[1], self[2])

    def __add__(self, other):
        a, b, d = self
        if isinstance(other, int):  # gcd(a + k d, b + k d, d) = gcd(a, b, d) = 1
            k = other * d
            return _new(Interval, (a + k, b + k, d))
        c, e, f = other if isinstance(other, Interval) else Interval.point(other)
        if d == f:
            return _grid(a + c, b + e, d)
        return _grid(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self
        return _new(Interval, (-b, -a, d))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b, d = self
        if isinstance(other, int):
            # gcd(a, b) is prime to d, so g = gcd(k, d) normalizes k [a, b] / d
            g = gcd(other, d)
            k, d = other // g, d // g
            return _new(Interval, (a * k, b * k, d) if k >= 0 else (b * k, a * k, d))
        c, e, f = other if isinstance(other, Interval) else Interval.point(other)
        if a >= 0 and c >= 0:
            return _grid(a * c, b * e, d * f)
        ends = (a * c, a * e, b * c, b * e)
        return _grid(min(ends), max(ends), d * f)

    __rmul__ = __mul__

    def inv(self) -> "Interval":
        a, b, d = self
        if a <= 0 <= b:
            raise ZeroDivisionError("interval straddles zero")
        # [d/b, d/a] on the grid a b > 0, whichever side of zero [a, b] is
        return _grid(d * a, d * b, a * b)

    def __truediv__(self, other):
        if isinstance(other, int) and other:
            # gcd(a, b) is prime to d, so g = gcd(a, b, k) normalizes [a, b] / (d k)
            a, b, d = self
            g = gcd(a, b, other)
            a, b, k = a // g, b // g, other // g
            return _new(Interval, (a, b, d * k) if k > 0 else (-b, -a, -d * k))
        o = other if isinstance(other, Interval) else Interval.point(other)
        return self * o.inv()

    def pow_int(self, n: int) -> "Interval":
        """[lo^n, hi^n], defined only for a nonnegative enclosure and n >= 0."""
        a, b, d = self
        if a < 0 or n < 0:
            raise InvariantViolation(f"pow_int needs lo >= 0 and n >= 0, got lo = {self.lo}, n = {n}")
        # monotone on [0, inf); no prime divides a^n, b^n and d^n when none divides a, b and d
        return _new(Interval, (a**n, b**n, d**n))

    def rounded(self, bits: int) -> "Interval":
        return _rounded(*self, bits)

    def hi_up(self, bits: int) -> Fraction:
        """The upper end rounded up to the 2^-bits grid."""
        return Fraction(-((-self[1] << bits) // self[2]), 1 << bits)

    def max_with(self, other: "Interval") -> "Interval":
        a, b, d = self
        c, e, f = other
        if d == f:
            return _grid(max(a, c), max(b, e), d)
        return _grid(max(a * f, c * d), max(b * f, e * d), d * f)


# ---------------------------------------------------------------------------
# Certified log / exp / roots over rationals
# ---------------------------------------------------------------------------


# The series below are summed in W-bit fixed point on plain ints, W = prec +
# _GUARD_BITS: a value v stands for v / 2^W.  The lower sum floors every
# product and quotient and the upper sum ceils them, so each sum bounds the
# exact series from its side; the upper sum adds a geometric tail bound.
# A kernel's floors (n << W) // d depend only on n/d, reduced or not.
_GUARD_BITS = 32


def _atanh_series(n: int, d: int, prec: int) -> Interval:
    # 2*atanh(n/d) for 0 <= n/d < 1/2, with an explicit geometric tail bound.
    if not 0 <= 2 * n < d:
        raise InvariantViolation(f"atanh series needs 0 <= t < 1/2, got {n}/{d}")
    w = prec + _GUARD_BITS
    lo = (n << w) // d  # lo / 2^W <= t
    hi = -((-n << w) // d)  # hi / 2^W >= t, and hi <= 2^(W-1)
    # lower: floored terms of the increasing series at lo / 2^W
    lo2 = lo * lo
    s_lo, x, k = 0, lo, 0
    while x:
        s_lo += x // (2 * k + 1)
        x = (x * lo2) >> (2 * w)
        k += 1
    # upper: ceiled terms at u = hi / 2^W <= 1/2, y >= 2^W u^(2k+1); once
    # y / (2k+1) is below one unit, the tail sum_{j>=k} u^(2j+1)/(2j+1) <=
    # u^(2k+1) / ((2k+1)(1 - u^2)) is at most 2 ceil(y / (2k+1)) units
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
    # log 2 = 2*atanh(1/3)
    return _atanh_series(1, 3, prec)


@lru_cache(maxsize=None)
def _log(n: int, d: int, prec: int) -> Interval:
    # log(n/d), the memo of `log_interval` and `log_iv`, keyed on lowest terms
    if n <= 0:
        raise ValueError("log of a nonpositive rational")
    if n < d:
        return -_log(d, n, prec)
    # write n/d = 2^e m with m in [1, 2): with k = bl(n) - bl(d) >= 0, n/d lies
    # in (2^(k-1), 2^(k+1)), so e = k or k - 1, settled by one comparison; then
    # t = (m - 1)/(m + 1) = (n - D)/(n + D) with D = d 2^e, and n = d gives 0
    k = n.bit_length() - d.bit_length()
    e = k - (n < d << k)
    D = d << e
    wp = prec + max(16, e.bit_length() + 8)
    total = _atanh_series(n - D, n + D, wp) + _log2_interval(wp) * e
    return total.rounded(prec)


def _exp_core(n: int, d: int, prec: int) -> tuple[int, int]:
    # exp(n/d) for 0 <= n/d <= 1/2 (d > 0, the pair need not be reduced) by
    # Taylor series with a tail bound: integers (lo, hi) with lo / 2^(prec+8)
    # <= exp(n/d) <= hi / 2^(prec+8)
    if not 0 <= 2 * n <= d:
        raise InvariantViolation(f"exp series needs 0 <= x <= 1/2, got {n}/{d}")
    w = prec + _GUARD_BITS
    one = 1 << w
    lo = (n << w) // d
    hi = -((-n << w) // d)  # hi <= 2^(W-1)
    # lower: floored terms a_k = a_(k-1) * lo / (k 2^W), as floor(floor(x / 2^W) / k)
    s_lo, a, k = one, one, 1
    while True:
        a = ((a * lo) >> w) // k
        if not a:
            break
        s_lo += a
        k += 1
    # upper: ceiled terms, likewise; for k >= 1 the term ratio hi / ((k+1) 2^W)
    # is at most 1/4, so once b <= 1 the terms from k on sum to at most 4b/3 units
    s_hi, b, k = one, one, 1
    while True:
        b = -(((-b * hi) >> w) // k)
        if b <= 1:
            break
        s_hi += b
        k += 1
    s_hi += 2 * b
    shift = _GUARD_BITS - 8
    return s_lo >> shift, -((-s_hi) >> shift)


@lru_cache(maxsize=None)
def _exp(num: int, d: int, prec: int) -> Interval:
    # exp(num/d), the memo of `exp_interval` and `exp_iv`, keyed on lowest terms
    n = abs(num)
    if n == 0:
        return Interval.point(1)
    # exp|x| = exp(r)^(2^j) with r = n / (d 2^j) <= 1/2; the kernel's result
    # is on the 2^-(wp+8) grid and each square lands on the 2^-wp grid, the
    # lower end floored and the upper end ceiled
    j = (-(-2 * n // d) - 1).bit_length()
    wp = prec + 4 * j + 24
    lo, hi = _exp_core(n, d << j, wp)
    grid = wp + 8
    for _ in range(j):
        s = 2 * grid - wp
        lo, hi = (lo * lo) >> s, -((-hi * hi) >> s)
        grid = wp
    s = grid - prec
    lo, hi = lo >> s, -((-hi) >> s)  # exp|x| in [lo, hi] / 2^prec
    if num > 0:
        return Interval.of(lo, hi, 1 << prec)
    # exp(x) = 1 / exp|x|; keep relative precision: small values need a
    # finer absolute grid, 2^-(prec + floor(log2 exp|x|.hi) + 8)
    bits = prec + (hi >> prec).bit_length() + 7
    one = 1 << (prec + bits)
    return Interval.of(one // hi, -(-one // lo), 1 << bits)


def _span(kernel, iv: Interval, prec: int = 128) -> Interval:
    # [kernel(lo).lo, kernel(hi).hi] for an increasing kernel, each end of iv
    # read as an int pair reduced by one gcd: `log_iv` and `exp_iv`
    a, b, d = iv
    g, h = gcd(a, d), gcd(b, d)
    x, y = kernel(a // g, d // g, prec), kernel(b // h, d // h, prec)
    if x[2] == y[2]:
        return _grid(x[0], y[1], x[2])
    return _grid(x[0] * y[2], y[1] * x[2], x[2] * y[2])


log_iv = partial(_span, _log)
exp_iv = partial(_span, _exp)


def log_interval(x, prec: int = 128) -> Interval:
    """Certified enclosure of the natural log of a positive int or Fraction."""
    return _log(x.numerator, x.denominator, prec)


def exp_interval(x, prec: int = 128) -> Interval:
    """Certified enclosure of exp(x) for an int or Fraction x."""
    return _exp(x.numerator, x.denominator, prec)


def nth_root_iv(iv: Interval, k: int, prec: int = 128) -> Interval:
    """Certified enclosure of the k-th root of a positive enclosure."""
    lo, hi, den = iv
    if lo <= 0:
        raise ValueError("nth root requires a positive interval")
    scale = k * prec
    lo_int = (lo << scale) // den
    hi_int = -((-hi << scale) // den)
    r_lo = integer_nth_root(lo_int, k)
    r_hi = integer_nth_root(hi_int, k)
    if r_hi**k < hi_int:
        r_hi += 1
    return Interval.of(r_lo, r_hi, 1 << prec)


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration on integers."""
    if n < 0 or k < 1:
        raise ValueError("integer_nth_root requires n >= 0, k >= 1")
    if k == 1 or n < 2:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x
