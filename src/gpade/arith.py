"""Exact arithmetic primitives.

Everything here is exact: integers are unbounded, and rationals are
`fractions.Fraction` or, on the hot paths, integers over one common
denominator.  The coefficients of a polynomial lie on a `Grid` (den, nums),
and every irrational quantity is an `Interval` (lo_num, hi_num, den), the
rational enclosure [lo_num/den, hi_num/den] with outward (directed)
rounding.  Both are normalized by one gcd, so equal values are equal tuples.
`Interval` and the certified log, exp and root kernels live in `interval`
and are re-exported here.  The one exact-elimination kernel lives here
too: `certify_nonsingular` proves determinants nonzero by their residues
modulo a prime and falls back to `bareiss_eliminate` only on a zero
residue.  Its rows are windows of a few integer sequences, each packed once
into one integer of 8-byte residue columns (`_Packed` proves that no column
carries).  `power_le` decides c x^e <= y^f from `BoundedPower` bounds.  The
package's one float seeds `floor_log`, the largest t with p^t <= n/d, which
`power_le` then decides: it never reaches a claim.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, log, prod
from struct import Struct
from typing import NamedTuple

from .errors import FactorizationLimit, InvariantViolation, SingularSystem
from .interval import Interval, exp_interval, exp_iv, integer_nth_root, log_interval, log_iv, nth_root_iv

__all__ = [
    "Fraction", "FactoredInteger", "Interval", "Grid", "primes_upto", "MR_LIMIT", "is_prime", "factorize",
    "prime_divisors", "pochhammer", "legendre_nu", "floor_log", "lcm_exponents", "p_valuation", "epsilon_interval",
    "log_interval", "log_iv", "exp_interval", "exp_iv", "nth_root_iv", "integer_nth_root", "digits10", "product_le",
    "BoundedPower", "power_le", "cleared_eval", "RANK_PRIME", "RANK_COLUMNS", "bareiss_eliminate",
    "certify_nonsingular",
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
    return Fraction(prod(range(s, s + n * t, t)), t**n)


class Grid(NamedTuple):
    """Rationals nums[k] / den over one common denominator den > 0, normalized
    so that gcd(den, *nums) = 1.  Then den is the lcm of the reduced
    denominators, so two grids hold the same rationals exactly when they are
    equal as tuples."""

    den: int
    nums: tuple[int, ...]

    @classmethod
    def of(cls, den: int, nums) -> "Grid":
        """The grid of the rationals nums[k] / den, for den > 0."""
        g = gcd(den, *nums)
        return cls(den, tuple(nums)) if g == 1 else cls(den // g, tuple(x // g for x in nums))


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


def floor_log(p: int, n: int, d: int = 1) -> int:
    """The largest t with p^t <= n/d, for integers p >= 2 and n >= d >= 1;
    the pair need not be reduced.

    A float estimate of log(n/d) / log(p) seeds t, and `power_le` decides
    it: t steps down until p^t <= n/d, then up while p^(t+1) <= n/d.
    """
    if not (type(p) is type(n) is type(d) is int and p >= 2 and 1 <= d <= n):
        raise ValueError(f"floor_log needs integers p >= 2 and n >= d >= 1, got {p}, {n}, {d}")
    t = int((log(n) - log(d)) / log(p))
    while t and not power_le(p, t, n, 1, d):
        t -= 1
    while power_le(p, t + 1, n, 1, d):
        t += 1
    return t


def lcm_exponents(x: int, coprime_to: int = 1) -> list[tuple[int, int]]:
    """The pairs (p, floor_log(p, x)) over the primes p <= x that do not
    divide coprime_to: lcm(1..x) factored, without those primes.  A prime
    p > sqrt(x) has exponent 1, so `floor_log` is called only for p*p <= x."""
    return [(p, floor_log(p, x) if p * p <= x else 1) for p in primes_upto(x) if coprime_to % p]


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
# Decimal size, product and power comparisons, and the epsilon constants
# ---------------------------------------------------------------------------


def digits10(n: int) -> int:
    """Number of decimal digits of |n|, without converting n to a string.

    The bit length puts log10 |n| within log10(2) of the estimate e, so one
    power of ten and a few multiplications by 10 settle floor(log10 |n|).
    """
    n = abs(n)
    if n == 0:
        return 1
    e = (n.bit_length() - 1) * 30103 // 100000
    p = 10**e
    while n < p:
        n *= 10
        e -= 1
    p *= 10
    while n >= p:
        p *= 10
        e += 1
    return e + 1


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


_POWER_BITS = 256  # the leading bits a BoundedPower keeps of its bounds


class BoundedPower:
    """The power n^e (n >= 1, e >= 0) of a size not worth forming on every use.

    Square-and-multiply, each step rounded to _POWER_BITS leading bits, down
    for `lo` and up for `hi`, gives lo * 2^s <= n^e <= hi * 2^s; n^0 is 1 * 2^0.
    """

    def __init__(self, n: int, e: int):
        self.n, self.e = n, e
        (lo, s_lo), (hi, s_hi) = _rounded_power(n, e, False), _rounded_power(n, e, True)
        self.s = min(s_lo, s_hi)
        self.lo, self.hi = lo << (s_lo - self.s), hi << (s_hi - self.s)

    def settle(self, reader):
        """reader(p, s) at p * 2^s = n^e, for a reader monotone in p * 2^s:
        its answer at both bounds when they agree, else at the exact power."""
        answer = reader(self.lo, self.s)
        if answer == reader(self.hi, self.s):
            return answer
        return reader(self.n**self.e, 0)


def _rounded_power(n: int, e: int, up: bool) -> tuple[int, int]:
    """(p, s) with p * 2^s <= n^e (>= when up) and p of at most _POWER_BITS bits."""
    p, s = 1, 0
    for bit in bin(e)[2:]:
        p, s = p * p, 2 * s
        if bit == "1":
            p *= n
        t = p.bit_length() - _POWER_BITS
        if t > 0:
            p, s = (-(-p >> t) if up else p >> t), s + t
    return p, s


def power_le(x: int, e: int, y: int, f: int, c: int = 1) -> bool:
    """c * x^e <= y^f for integers c, x, y >= 1 and e, f >= 0: directly when
    both powers have at most _POWER_BITS bits, else by a settle over y^f nested
    in one over x^e (`BoundedPower`; each reader is monotone), exact on a near-tie."""
    if e < 0 or f < 0:
        raise InvariantViolation(f"power_le needs exponents >= 0, got {e} and {f}")
    if e * x.bit_length() <= _POWER_BITS and f * y.bit_length() <= _POWER_BITS:
        return c * x**e <= y**f
    X, Y = BoundedPower(x, e), BoundedPower(y, f)
    return X.settle(lambda p, s: Y.settle(lambda q, t: c * p << s - min(s, t) <= q << t - min(s, t)))


@lru_cache(maxsize=None)
def epsilon_interval(n: int, prec: int = 128) -> Interval:
    """Enclosure of the product over primes p | n of p^(1/(p-1))."""
    if n < 1:
        raise ValueError("epsilon is defined for n >= 1")
    acc = Interval.point(1)
    for p in prime_divisors(n):
        acc = acc * nth_root_iv(Interval.point(p), p - 1, prec + 8)
    return acc.rounded(prec)


# ---------------------------------------------------------------------------
# Exact elimination: fraction-free determinants, nonsingularity by residue
# ---------------------------------------------------------------------------

# the largest prime below 2^20, and the most columns a packed row may have:
# with them no column of `_Packed` reaches 2^64
RANK_PRIME = 2**20 - 3
RANK_COLUMNS = 2**24


def bareiss_eliminate(rows: list[list[int]]) -> int:
    """The determinant of the leading n x n block of an integer matrix with n
    rows, by fraction-free (Bareiss) forward elimination; columns past the
    n-th are ignored.

    For column k, the first row r >= k with M[r][k] != 0 is swapped into row
    k.  In every row r below it, M[r][c] becomes
    (M[k][k] M[r][c] - M[r][k] M[k][c]) / prev for k < c < n, where prev is
    the previous pivot (1 before the first step).  Every division is exact,
    and the determinant is the last pivot up to the swaps' sign, or 0 when
    some column has no nonzero pivot.
    """
    n = len(rows)
    M = [row[:n] for row in rows]
    prev, sign = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        pk, a = M[k][k + 1 :], M[k][k]
        for row in M[k + 1 :]:
            row[k + 1 :] = [(a * x - row[k] * y) // prev for x, y in zip(row[k + 1 :], pk)]
        prev = a
    return sign * prev


class _Packed(NamedTuple):
    """Rows of n residues modulo p, each packed into one integer, 8 bytes a
    column, least significant first, so that one big-integer product and sum
    update every column at once; `row` packs and unpacks n columns at once.

    No column carries into the next.  A column starts below p, and each basis
    row a row is reduced against adds a residue below p times one of its
    columns, also below p, so at most (p - 1)^2.  The basis rows one row
    meets (the shared ones, then its own system's) have distinct pivot
    columns, so there are at most n of them, and every column stays below
    p + n (p - 1)^2.  For p = RANK_PRIME = 2^20 - 3 and n <= RANK_COLUMNS =
    2^24 that is at most p + 2^24 (2^20 - 4)^2 = 2^64 - 2^47 + 2^28 + 2^20 - 3
    < 2^64, which 8 bytes hold; `certify_nonsingular` refuses a larger n."""

    p: int
    n: int
    row: Struct

    def pack(self, xs) -> int:
        return int.from_bytes(self.row.pack(*xs), "little")

    def residues(self, X: int) -> list[int]:
        p = self.p
        return [x % p for x in self.row.unpack(X.to_bytes(8 * self.n, "little"))]

    def reduce(self, basis: list[tuple[int, int]], X: int) -> int:
        """X plus the multiples of the echelon basis rows that clear it at
        their pivot columns.  A basis row (c, T) holds the negated residues of
        a row that is 1 at column c and 0 at the pivot columns of the rows
        before it, so one pass in order clears every pivot column."""
        p, mask = self.p, (1 << 64) - 1
        for c, T in basis:
            X += (X >> 64 * c & mask) % p * T
        return X

    def extend(self, basis: list[tuple[int, int]], rows: list[int]) -> bool:
        """Append each packed row, reduced against the basis, to it; False as
        soon as one reduces to zero, when the rows are dependent modulo p."""
        p = self.p
        for X in rows:
            x = self.residues(self.reduce(basis, X))
            c = next(compress(range(self.n), x), None)
            if c is None:
                return False
            inv = p - pow(x[c], -1, p)
            basis.append((c, self.pack([v * inv % p for v in x])))
        return True


def certify_nonsingular(
    seqs: list[list[int]], shared: list[tuple[int, int]], others: list[tuple[int, int]], systems: list[list[int]]
) -> None:
    """Prove that each square integer system -- the rows `shared`, then
    others[o] for each o in one of the index lists `systems`, all of one
    size n -- has a nonzero determinant, or raise SingularSystem.  A row
    (s, t) is the window seqs[s][t : t + n] of one of the integer sequences
    `seqs`: shifts of one sequence for a Toeplitz block, or one sequence per
    row at offset 0 for a general matrix.

    A nonzero residue of the determinant modulo the prime RANK_PRIME proves
    it nonzero (cf. Abbott, Bronstein & Mulders, ISSAC 1999).  Each sequence's
    residues are packed once (`_Packed`), and a row is a shift and mask of
    that one integer.  The shared rows are brought to echelon form modulo
    the prime once and every other row is reduced against them once, so each
    system finishes only its own rows.  A zero residue (for every system,
    when the shared rows are dependent modulo the prime) is settled by the
    exact `bareiss_eliminate` on the windows.  More than RANK_COLUMNS
    columns, or a window past its sequence's end, is refused (ValueError)
    before anything is packed.
    """
    n = len(shared) + len(systems[0])
    if n > RANK_COLUMNS:
        raise ValueError(f"{n} columns exceed the {RANK_COLUMNS} a packed row holds")
    if any(t < 0 or t + n > len(seqs[s]) for s, t in shared + others):
        raise ValueError("a row's window runs past its sequence")
    p = RANK_PRIME
    packed, mask = _Packed(p, n, Struct(f"<{n}Q")), (1 << 64 * n) - 1
    ints = [int.from_bytes(Struct(f"<{len(seq)}Q").pack(*[x % p for x in seq]), "little") for seq in seqs]

    def window(row: tuple[int, int]) -> int:
        s, t = row
        return ints[s] >> 64 * t & mask

    basis: list[tuple[int, int]] = []
    full = packed.extend(basis, [window(row) for row in shared])
    reduced = [packed.reduce(basis, window(row)) for row in others] if full else []
    for k, system in enumerate(systems):
        if full and packed.extend([], [reduced[o] for o in system]):
            continue
        rows = shared + [others[o] for o in system]
        if bareiss_eliminate([list(seqs[s][t : t + n]) for s, t in rows]) == 0:
            raise SingularSystem(f"integer system {k} has determinant 0")
