"""Exact arithmetic primitives.

Everything here is exact: rationals are `fractions.Fraction`, integers are
unbounded, and every irrational quantity is represented by a rational
enclosure [lo, hi] with outward (directed) rounding.  No floating point is
used anywhere in the computation paths.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .errors import FactorizationLimit, InvariantViolation

__all__ = [
    "Fraction",
    "FactoredInteger",
    "Interval",
    "Grid",
    "primes_upto",
    "MR_LIMIT",
    "is_prime",
    "factorize",
    "prime_divisors",
    "pochhammer",
    "legendre_nu",
    "floor_log",
    "p_valuation",
    "epsilon_interval",
    "log_interval",
    "log_iv",
    "exp_interval",
    "exp_iv",
    "nth_root_iv",
    "dyadic_up",
    "dyadic_down",
    "integer_nth_root",
    "digits10",
    "floor_log10_ratio",
    "product_le",
    "poly_eval",
    "cleared",
    "cleared_eval",
]


# ---------------------------------------------------------------------------
# Primes: one shared sieve, grown on demand and only ever appended to.
# ---------------------------------------------------------------------------

_primes: list[int] = [2, 3, 5, 7, 11, 13]
_sieved_upto = 13


def _grow_sieve(limit: int) -> None:
    # sieve the segment (_sieved_upto, limit] by the primes up to sqrt(limit),
    # which are sieved first
    global _sieved_upto
    if limit <= _sieved_upto:
        return
    _grow_sieve(isqrt(limit))
    lo = _sieved_upto + 1
    flags = bytearray([1]) * (limit + 1 - lo)
    for p in _primes:
        if p * p > limit:
            break
        start = max(p * p, -(-lo // p) * p) - lo
        flags[start::p] = bytes(len(range(start, len(flags), p)))
    _primes.extend(compress(range(lo, limit + 1), flags))
    _sieved_upto = limit


def primes_upto(n: int) -> list[int]:
    """All primes p <= n, ascending."""
    if n > _sieved_upto:
        _grow_sieve(max(2 * _sieved_upto, n))
    return _primes[: bisect_right(_primes, n)]


# Miller-Rabin over the first 13 primes decides primality exactly below this
# bound, the least odd composite that is a strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981
_TRIAL_LIMIT = 10**7  # factorize divides out the primes up to this bound, at most


def is_prime(n: int) -> bool:
    """Whether n is certified prime: exact below MR_LIMIT, never above."""
    if n >= MR_LIMIT or n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in _MR_BASES)


def _primes_read_upto(limit: int):
    """The primes up to limit, ascending, doubling the shared sieve only when
    the caller reads past it."""
    i = 0
    while True:
        while i < len(_primes):
            if _primes[i] > limit:
                return
            yield _primes[i]
            i += 1
        if _sieved_upto >= limit:
            return
        _grow_sieve(min(2 * _sieved_upto, limit))


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...), primes ascending.

    Trial division by the primes up to min(sqrt n, 10^7) stops once the part
    left is 1 or certified prime by `is_prime`; a part left above 10^14 that
    is not certified prime raises `FactorizationLimit`.  The sieve grows only
    as far as the division reads.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    m = n
    for p in [] if is_prime(n) else _primes_read_upto(min(isqrt(n), _TRIAL_LIMIT)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                e += 1
                m //= p
            out.append((p, e))
            if is_prime(m):
                break
    if m > _TRIAL_LIMIT**2 and not is_prime(m):
        raise FactorizationLimit(f"cannot factor {m}: no prime factor up to {_TRIAL_LIMIT}, and not certified prime")
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


# ---------------------------------------------------------------------------
# Elementary exact operations
# ---------------------------------------------------------------------------


def pochhammer(x: Fraction, n: int) -> Fraction:
    """Rising factorial x(x+1)...(x+n-1), with the empty product equal to 1.

    With x = s/t in lowest terms the product is prod_{k<n} (s + k t) / t^n,
    formed in int and reduced once.
    """
    if n < 0:
        raise ValueError("pochhammer requires n >= 0")
    s, t = x.numerator, x.denominator
    acc = 1
    for k in range(n):
        acc *= s + k * t
    return Fraction(acc, t**n)


def poly_eval(coeffs, t):
    """The polynomial with coefficients coeffs[0], coeffs[1], ... at t (Horner).

    Integer coefficients at an integer t stay in int.  At a rational point
    use `cleared_eval`, which needs no gcd per step.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class Grid(NamedTuple):
    """Rationals nums[k] / den over one common denominator den > 0, normalized
    so that gcd(den, *nums) = 1.  Then den is the lcm of the reduced
    denominators, so two grids hold the same rationals exactly when they are
    equal as tuples.  `values` is the one way back to reduced Fractions."""

    den: int
    nums: tuple[int, ...]

    @classmethod
    def of(cls, den: int, nums) -> "Grid":
        """The grid of the rationals nums[k] / den, for den > 0."""
        g = gcd(den, *nums)
        return cls(den, tuple(nums)) if g == 1 else cls(den // g, tuple(x // g for x in nums))

    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)


def cleared(xs) -> Grid:
    """The grid of the rationals xs: the lcm L of their denominators and the
    integers L*x, which have no common factor with L."""
    L = lcm(*(x.denominator for x in xs))
    return Grid(L, tuple(x.numerator * (L // x.denominator) for x in xs))


def cleared_eval(grid: Grid, a: int, b: int) -> tuple[int, int]:
    """The integers (H, L) with f(a/b) = H / (L * b^n), for integers a and
    b != 0 and the polynomial f of degree n on `grid` = (L, c): its
    coefficients are c_k / L, with gcd(L, *c) = 1, so L is the lcm of their
    reduced denominators.

    H is the sum of c_k a^k b^(n-k), by homogeneous Horner in int.
    """
    L, c = grid
    acc = c[-1]
    bpow = 1
    for ck in reversed(c[:-1]):
        bpow *= b
        acc = acc * a + ck * bpow
    return acc, L


def legendre_nu(p: int, n: int) -> int:
    """Valuation of n! at the prime p: sum of floor(n / p^t) over t >= 1.

    By convention the value at n = 0 is 0 (empty sum).
    """
    if n < 0:
        raise ValueError("legendre_nu requires n >= 0")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def floor_log(p: int, x: Fraction | int) -> int:
    """Largest t >= 0 with p^t <= x, decided by exact comparison.

    Only defined for x >= 1; callers never need the negative branch.
    """
    x = Fraction(x)
    if x < 1:
        raise ValueError("floor_log requires x >= 1")
    n = x.numerator // x.denominator  # p^t <= x exactly when p^t <= floor(x)
    t = 0
    power = p
    while power <= n:
        t += 1
        power *= p
    return t


def p_valuation(q: Fraction, p: int) -> int:
    """Exponent v with |q|_p = p^(-v), for q != 0 and a prime p."""
    if p < 2:
        raise InvariantViolation(f"p-adic valuation needs a prime p, got {p}")
    q = Fraction(q)
    if q == 0:
        raise ValueError("p-adic valuation of zero is +infinity")

    def _v(n: int) -> int:
        # p, p^2, p^4, ... while they divide n; then strip each p^(2^k) at most
        # once, largest first: O(log v) big divisions in place of v
        powers = [p]
        while n % powers[-1] == 0:
            powers.append(powers[-1] * powers[-1])
        v = 0
        for k in range(len(powers) - 2, -1, -1):
            quot, rem = divmod(n, powers[k])
            if rem == 0:
                n, v = quot, v + (1 << k)
        return v

    num = abs(q.numerator)
    if num % p == 0:
        return _v(num)
    return -_v(q.denominator)


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


# ---------------------------------------------------------------------------
# Factored positive integers
# ---------------------------------------------------------------------------


class _FactoredFields(NamedTuple):
    value: int
    factors: tuple[tuple[int, int], ...]


class FactoredInteger(_FactoredFields):
    """A positive integer together with its prime factorization.

    Invariants: primes strictly increasing, exponents >= 1, and the product
    of p^e equals `value` (checked on construction).
    """

    __slots__ = ()

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]):
        prod = 1
        last = 1
        for p, e in factors:
            if p <= last or e < 1:
                raise ValueError("factors must have ascending primes, e >= 1")
            last = p
            prod *= p**e
        if prod != value or value < 1:
            raise ValueError("factorization does not match value")
        return tuple.__new__(cls, (value, factors))

    @classmethod
    def one(cls) -> "FactoredInteger":
        return cls(1, ())

    @classmethod
    def from_exponents(cls, pairs: Iterable[tuple[int, int]]) -> "FactoredInteger":
        """The product of p^e over (p, e) pairs; a repeated prime's exponents add."""
        exps: dict[int, int] = {}
        for p, e in pairs:
            exps[p] = exps.get(p, 0) + e
        items = tuple(sorted((p, e) for p, e in exps.items() if e > 0))
        val = 1
        for p, e in items:
            val *= p**e
        return cls(val, items)

    @classmethod
    def of(cls, n: int) -> "FactoredInteger":
        return cls(n, factorize(n)) if n > 1 else cls.one()

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        return FactoredInteger.from_exponents(self.factors + other.factors)

    def format_factors(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors)


# ---------------------------------------------------------------------------
# Directed rounding: dyadics and rational enclosures
# ---------------------------------------------------------------------------


def floor_log10_ratio(n: int, d: int) -> int:
    """floor(log10(n/d)) for positive integers n, d.

    The bit lengths put log10(n/d) within log10(2) of the estimate, so one
    power of ten and a few multiplications by 10 settle it: num/den stays
    (n/d) / 10^e and ends in [1, 10).  The pair need not be reduced.
    """
    if n <= 0 or d <= 0:
        raise ValueError("floor_log10_ratio requires n, d > 0")
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    p = 10 ** abs(e)
    num, den = (n, d * p) if e >= 0 else (n * p, d)
    while num < den:
        num *= 10
        e -= 1
    den *= 10
    while num >= den:
        den *= 10
        e += 1
    return e


def digits10(n: int) -> int:
    """Number of decimal digits of |n|, without converting n to a string."""
    return floor_log10_ratio(abs(n), 1) + 1 if n else 1


def product_le(a: int, b: int, c: int, d: int) -> bool:
    """a*b <= c*d for integers a, b, c, d >= 0, multiplied out only on a near-tie.

    A product of nonzero factors with bit lengths la and lb lies in
    [2^(la+lb-2), 2^(la+lb)), so bit-length sums two or more apart decide.
    """
    left = a.bit_length() + b.bit_length()
    right = c.bit_length() + d.bit_length()
    if a and b and c and d and abs(left - right) >= 2:
        return left < right
    return a * b <= c * d


def dyadic_up(x: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2^-bits that is >= x."""
    x = Fraction(x)
    n = x.numerator << bits
    d = x.denominator
    return Fraction(-((-n) // d), 1 << bits)


def dyadic_down(x: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2^-bits that is <= x."""
    x = Fraction(x)
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


class _IntervalFields(NamedTuple):
    lo: Fraction
    hi: Fraction


class Interval(_IntervalFields):
    """A rational enclosure [lo, hi] of a real number.

    All operations round outward, so any Interval produced here certifiably
    contains the exact real it stands for.
    """

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise InvariantViolation("empty interval: lo > hi")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def point(cls, q) -> "Interval":
        q = Fraction(q)
        return cls(q, q)

    def __add__(self, other):
        o = other if isinstance(other, Interval) else Interval.point(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = other if isinstance(other, Interval) else Interval.point(other)
        return self + (-o)

    def __mul__(self, other):
        o = other if isinstance(other, Interval) else Interval.point(other)
        if self.lo >= 0 and o.lo >= 0:
            return Interval(self.lo * o.lo, self.hi * o.hi)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(cands), max(cands))

    __rmul__ = __mul__

    def inv(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        o = other if isinstance(other, Interval) else Interval.point(other)
        return self * o.inv()

    def pow_int(self, n: int) -> "Interval":
        """[lo^n, hi^n], defined only for a nonnegative enclosure and n >= 0."""
        if self.lo < 0 or n < 0:
            raise InvariantViolation(f"pow_int needs lo >= 0 and n >= 0, got lo = {self.lo}, n = {n}")
        # monotone on [0, inf); Fraction ** int skips the gcd of a product
        return Interval(Fraction(self.lo) ** n, Fraction(self.hi) ** n)

    def rounded(self, bits: int) -> "Interval":
        return Interval(dyadic_down(self.lo, bits), dyadic_up(self.hi, bits))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))


# ---------------------------------------------------------------------------
# Certified log / exp / roots over rationals
# ---------------------------------------------------------------------------


# The series below are summed in W-bit fixed point on plain ints, W = prec +
# _GUARD_BITS: a value v stands for v / 2^W.  The lower sum floors every
# product and quotient and the upper sum ceils them, so each sum bounds the
# exact series from its side; the upper sum adds a geometric tail bound.
_GUARD_BITS = 32


def _atanh_series(t: Fraction, prec: int) -> Interval:
    # 2*atanh(t) for 0 <= t < 1/2, with an explicit geometric tail bound.
    if not 0 <= t < Fraction(1, 2):
        raise InvariantViolation(f"atanh series needs 0 <= t < 1/2, got {t}")
    if t == 0:
        return Interval.point(0)
    w = prec + _GUARD_BITS
    n, d = t.numerator, t.denominator
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
    return Interval(Fraction(s_lo, 1 << (w - 1)), Fraction(s_hi, 1 << (w - 1))).rounded(prec + 8)


@lru_cache(maxsize=None)
def _log2_interval(prec: int) -> Interval:
    # log 2 = 2*atanh(1/3)
    return _atanh_series(Fraction(1, 3), prec)


@lru_cache(maxsize=None)
def log_interval(x: Fraction, prec: int = 128) -> Interval:
    """Certified enclosure of the natural log of a positive rational."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a nonpositive rational")
    if x == 1:
        return Interval.point(0)
    if x < 1:
        return -log_interval(1 / x, prec)
    # write x = 2^e * m with m in [1, 2); here x > 1 so e >= 0
    e = max(x.numerator.bit_length() - x.denominator.bit_length(), 0)
    if (1 << e) > x:
        e -= 1
    m = x / (1 << e)
    if m >= 2:
        e += 1
        m /= 2
    if not 1 <= m < 2:
        raise InvariantViolation(f"log reduction left mantissa {m} outside [1, 2)")
    wp = prec + max(16, e.bit_length() + 8)
    t = (m - 1) / (m + 1)  # in [0, 1/3)
    body = _atanh_series(t, wp)
    total = body + _log2_interval(wp) * e
    return total.rounded(prec)


def log_iv(iv: Interval, prec: int = 128) -> Interval:
    return Interval(log_interval(iv.lo, prec).lo, log_interval(iv.hi, prec).hi)


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
    # lower: floored terms a_k = a_(k-1) * lo / (k 2^W)
    s_lo, a, k = one, one, 1
    while True:
        a = (a * lo) // (k << w)
        if not a:
            break
        s_lo += a
        k += 1
    # upper: ceiled terms; for k >= 1 the term ratio hi / ((k+1) 2^W) is at
    # most 1/4, so once b <= 1 the terms from k on sum to at most 4b/3 units
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
    """Certified enclosure of exp(x) for rational x."""
    x = Fraction(x)
    n, d = abs(x.numerator), x.denominator
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
    if x > 0:
        return Interval(Fraction(lo, 1 << prec), Fraction(hi, 1 << prec))
    # exp(x) = 1 / exp|x|; keep relative precision: small values need a
    # finer absolute grid, 2^-(prec + floor(log2 exp|x|.hi) + 8)
    bits = prec + (hi >> prec).bit_length() + 7
    one = 1 << (prec + bits)
    return Interval(Fraction(one // hi, 1 << bits), Fraction(-(-one // lo), 1 << bits))


def exp_iv(iv: Interval, prec: int = 128) -> Interval:
    return Interval(exp_interval(iv.lo, prec).lo, exp_interval(iv.hi, prec).hi)


def nth_root_iv(iv: Interval, k: int, prec: int = 128) -> Interval:
    """Certified enclosure of the k-th root of a positive enclosure."""
    if iv.lo <= 0:
        raise ValueError("nth root requires a positive interval")
    scale = 1 << (k * prec)
    lo_int = (iv.lo.numerator * scale) // iv.lo.denominator
    hi_int = -((-iv.hi.numerator * scale) // iv.hi.denominator)
    r_lo = integer_nth_root(lo_int, k)
    r_hi = integer_nth_root(hi_int, k)
    if r_hi**k < hi_int:
        r_hi += 1
    return Interval(Fraction(r_lo, 1 << prec), Fraction(r_hi, 1 << prec))


@lru_cache(maxsize=None)
def epsilon_interval(n: int, prec: int = 128) -> Interval:
    """Enclosure of the product over primes p | n of p^(1/(p-1))."""
    if n < 1:
        raise ValueError("epsilon is defined for n >= 1")
    acc = Interval.point(1)
    for p in prime_divisors(n):
        acc = acc * nth_root_iv(Interval.point(p), p - 1, prec + 8)
    return acc.rounded(prec)

