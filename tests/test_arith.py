import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path
from struct import Struct
from typing import NamedTuple
from unittest import mock

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gpade import arith
from gpade.arith import (
    MR_LIMIT,
    RANK_COLUMNS,
    RANK_PRIME,
    FactoredInteger,
    Grid,
    Interval,
    bareiss_eliminate,
    certify_nonsingular,
    cleared_eval,
    digits10,
    epsilon_interval,
    exp_interval,
    factorize,
    floor_log,
    integer_nth_root,
    is_prime,
    lcm_exponents,
    legendre_nu,
    log_interval,
    log_iv,
    nth_root_iv,
    p_valuation,
    pochhammer,
    power_le,
    primes_upto,
    product_le,
)
from gpade.interval import _atanh_series, _exp_core, _log2_interval
from gpade.errors import CertificationError, FactorizationLimit, InvariantViolation, SingularSystem
from gpade.report import fmt_ratio, fmt_real

from reference_series import cleared, grid_values

LOG2_LO = F("0.6931471805599453094172321214581")
LOG2_HI = F("0.6931471805599453094172321214582")


def test_pochhammer_examples():
    assert pochhammer(F(3, 7), 0) == 1
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert pochhammer(F(2), 3) == 24


@settings(max_examples=150, deadline=None)
@given(st.integers(-(10**6), 10**6), st.integers(1, 10**6), st.integers(0, 30))
@example(-7, 1, 10)  # crosses zero: the product is 0
@example(5, 6, 0)
def test_pochhammer_matches_running_fraction_product(num, den, n):
    x = F(num, den)
    acc = F(1)
    for k in range(n):
        acc *= x + k
    assert pochhammer(x, n) == acc


def test_pochhammer_splitting_identity():
    rng = random.Random(3)
    for _ in range(50):
        x = F(rng.randint(1, 20), rng.randint(1, 9))
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


def test_legendre_examples_and_factorial_valuations():
    assert legendre_nu(2, 4) == 3
    assert legendre_nu(3, 9) == 4
    assert legendre_nu(7, 0) == 0
    for n in range(201):
        f = math.factorial(n)
        for p in (2, 3, 5, 7):
            v = 0
            m = f
            while m and m % p == 0:
                v += 1
                m //= p
            assert legendre_nu(p, n) == v


def reference_floor_log(p: int, n: int, d: int = 1) -> int:
    """The largest t with d p^t <= n: square p while d p^(2^k) <= n, then
    multiply the squares back in, largest first, while they fit."""
    squares = [p]
    while d * squares[-1] <= n:
        squares.append(squares[-1] ** 2)
    t, acc = 0, d
    for k in range(len(squares) - 2, -1, -1):
        if acc * squares[k] <= n:
            acc, t = acc * squares[k], t + (1 << k)
    return t


def test_floor_log():
    assert floor_log(2, 9) == 3
    assert floor_log(3, 1) == 0
    assert floor_log(5, 24) == 1
    assert floor_log(2, 9, 2) == 2
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 11])
        n, d = rng.randint(1, 10**6), rng.randint(1, 100)
        if n < d:
            n, d = d, n
        t = floor_log(p, n, d)
        assert d * p**t <= n < d * p ** (t + 1)
        assert t == reference_floor_log(p, n, d)


# x around every prime square up to 10^4, where lcm_exponents switches from
# floor_log to exponent 1, plus every x up to 300 and 10^4 itself
LCM_XS = sorted({*range(1, 301), *(p * p + k for p in primes_upto(100) for k in (-1, 0, 1)), 10**4})


@pytest.mark.parametrize("coprime_to", [1, 6, 35, 30030, 9973])
def test_lcm_exponents_match_floor_log_per_prime(coprime_to):
    for x in LCM_XS:
        expected = [(p, floor_log(p, x)) for p in primes_upto(x) if coprime_to % p != 0]
        assert lcm_exponents(x, coprime_to) == expected, x
    assert lcm_exponents(10**4) == [(p, floor_log(p, 10**4)) for p in primes_upto(10**4)]


@settings(max_examples=200, deadline=None)
@given(x=st.integers(1, 10**4), coprime_to=st.integers(1, 10**6))
def test_lcm_exponents_at_random_points(x, coprime_to):
    assert lcm_exponents(x, coprime_to) == [(p, floor_log(p, x)) for p in primes_upto(x) if coprime_to % p != 0]


def test_floor_log_refuses_arguments_outside_its_domain():
    for args in [(2, 1, 2), (2, 0), (2, 5, 0), (2, 5, -1), (1, 8), (0, 8), (-2, 8), (2, F(9)), (2, 9.0), (F(2), 9)]:
        with pytest.raises(ValueError):
            floor_log(*args)


_FLOOR_LOG_BASES = [2, 3, 5, 10, 2**61 - 1, 5**879]


@st.composite
def floor_log_args(draw):
    """(p, n, d) with n/d random, or d p^t and its neighbours, up to 10^5
    bits, with d small or large and the pair sharing a factor or not."""
    p = draw(st.sampled_from(_FLOOR_LOG_BASES))
    d = draw(st.one_of(st.just(1), st.integers(1, 10**6), st.integers(1, 2**40000)))
    if draw(st.booleans()):
        n = draw(st.one_of(st.integers(d, 100 * d), st.integers(d, 2**100000)))
    else:
        t = draw(st.integers(0, 60000 // p.bit_length()))
        n = max(d, d * p**t + draw(st.sampled_from([-1, 0, 1])))
    g = draw(st.one_of(st.just(1), st.integers(2, 10**6), st.integers(2, 2**1000)))
    return p, n * g, d * g


@settings(max_examples=150, deadline=None)
@given(args=floor_log_args(), bits=st.sampled_from([2, 256]))
@example(args=(2, 1, 1), bits=256)
@example(args=(10, 10**100, 1), bits=2)
@example(args=(10, 10**100 - 1, 1), bits=2)
@example(args=(5**879, 5 ** (879 * 100), 3), bits=256)  # n/d just below p^100
@example(args=(2**61 - 1, (2**61 - 1) ** 40 * 7 + 1, 7), bits=2)
def test_floor_log_matches_loop_reference(args, bits):
    p, n, d = args
    with mock.patch.object(arith, "_POWER_BITS", bits):
        assert floor_log(p, n, d) == reference_floor_log(p, n, d)


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from(_FLOOR_LOG_BASES),
    t=st.integers(0, 200),
    nudge=st.sampled_from([-1, 0, 1]),
    d=st.integers(2, 10**30),
    off=st.sampled_from([-7, 0, 7]),
)
def test_floor_log_corrects_any_seed(p, t, nudge, d, off):
    # a seed off by up to 7 either way (clamped at 0) gives the same t: the
    # patched log makes (log n - log d) / log p the wrong t plus one half
    n = max(d + 1, d * p**t + nudge)
    assume(p not in (n, d))
    true_t = reference_floor_log(p, n, d)
    fake = {n: max(0, true_t + off) + 0.5, d: 0.0, p: 1.0}
    with mock.patch.object(arith, "log", fake.__getitem__):
        assert floor_log(p, n, d) == true_t


def reference_p_valuation(q: F, p: int) -> int:
    """v_p(q), one factor of p stripped per step."""
    n, v = (q.numerator, 1) if q.numerator % p == 0 else (q.denominator, -1)
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return v * count


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 101]),
    st.integers(0, 5000),
    st.integers(1, 10**40),
    st.integers(1, 10**40),
    st.booleans(),
    st.booleans(),
)
@example(101, 5000, 1, 1, False, False)
@example(2, 4096, 3, 1, True, True)
@example(5, 1, 1, 7, True, False)
def test_p_valuation_matches_one_step_loop(p, v, a, b, in_denominator, negative):
    # cofactors a and b made prime to p, so that v_p(q) = +-v exactly
    a, b = a * p + 1, b * p + p - 1
    num, den = (a, b * p**v) if in_denominator else (a * p**v, b)
    q = F(-num if negative else num, den)
    assert p_valuation(q, p) == reference_p_valuation(q, p) == (-v if in_denominator else v)


def test_p_valuation():
    assert p_valuation(F(12), 2) == 2
    assert p_valuation(F(5, 9), 3) == -2
    assert p_valuation(F(1), 97) == 0
    for p in (1, 0, -2):
        with pytest.raises(InvariantViolation):
            p_valuation(F(12), p)
    with pytest.raises(ValueError):
        p_valuation(F(0), 2)
    rng = random.Random(11)
    for _ in range(60):
        q1 = F(rng.randint(1, 10**4), rng.randint(1, 10**4))
        q2 = F(rng.randint(1, 10**4), rng.randint(1, 10**4))
        for p in (2, 3, 5):
            assert p_valuation(q1 * q2, p) == p_valuation(q1, p) + p_valuation(q2, p)


def test_epsilon_examples():
    one = epsilon_interval(1, 96)
    assert one.hi >= 1 and one.hi - 1 < F(1, 10**20)
    two = epsilon_interval(2, 96)
    assert two.hi >= 2 and two.hi - 2 < F(1, 10**20)
    twelve = epsilon_interval(12, 96)
    two_sqrt3 = 2 * F("1.7320508075688772935274463415058")
    assert twelve.hi >= two_sqrt3
    assert twelve.hi - two_sqrt3 < F(1, 10**6)


def test_epsilon_bound_vs_higher_precision():
    # the certified bound dominates a 10x-precision evaluation and is close
    for n in (2, 6, 12, 30, 360, 2310):
        ub = epsilon_interval(n, 64).hi
        tight = epsilon_interval(n, 640)
        assert ub >= tight.lo
        assert ub - tight.hi <= F(1, 2 ** (64 - 4))


def test_primes_and_factorize():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []
    assert factorize(12600) == ((2, 3), (3, 2), (5, 2), (7, 1))
    assert factorize(1) == ()
    assert factorize(97) == ((97, 1),)


def test_factorize_beyond_the_trial_limit():
    P = 10**16 + 61  # prime, certified by Miller-Rabin
    assert factorize(P) == ((P, 1),)
    assert factorize(2 * 3**5 * P) == ((2, 1), (3, 5), (P, 1))
    assert factorize(9999991 * P) == ((9999991, 1), (P, 1))  # the largest prime below 10^7
    q = 10000019  # the least prime above 10^7: trial division does not reach it
    with pytest.raises(FactorizationLimit, match="cannot factor"):
        factorize(q * q)
    # prime, but Miller-Rabin over 13 bases certifies nothing above MR_LIMIT
    assert 2**127 - 1 > MR_LIMIT and not is_prime(2**127 - 1)


def test_sieve_grows_by_segments(monkeypatch):
    # from the initial sieve, each growth sieves only the new segment
    monkeypatch.setattr(arith, "_primes", [2, 3, 5, 7, 11, 13])
    monkeypatch.setattr(arith, "_sieved_upto", 13)
    for n in (14, 100, 101, 5000, 5001, 200000):
        assert primes_upto(n) == list(sympy.primerange(2, n + 1))
        assert arith._primes == list(sympy.primerange(2, arith._sieved_upto + 1))
    assert factorize(199999 * 10007) == ((10007, 1), (199999, 1))


def test_factorize_sieves_only_as_far_as_it_reads():
    # the cofactor left after dividing out 2 is certified prime, so a fresh
    # process reads one prime and must not sieve towards sqrt(n) or 10^7
    code = (
        "from gpade import arith\n"
        "assert arith.factorize(2 * (10**16 + 61)) == ((2, 1), (10**16 + 61, 1))\n"
        "print(arith._sieved_upto)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10**4


def test_factored_integer():
    fi = FactoredInteger.of(840)
    assert fi.factors == ((2, 3), (3, 1), (5, 1), (7, 1))
    assert fi.format_factors() == "2^3*3*5*7"
    assert (fi * FactoredInteger.of(15)).value == 12600
    assert FactoredInteger.from_exponents([(3, 2), (2, 1), (5, 0), (2, 2)]).factors == ((2, 3), (3, 2))
    with pytest.raises(ValueError):
        FactoredInteger(10, ((2, 1),))


def test_log_enclosures():
    l2 = log_interval(F(2), 128)
    assert l2.lo <= LOG2_HI and l2.hi >= LOG2_LO
    assert l2.hi - l2.lo < F(1, 2**120)
    assert log_interval(F(1), 200) == Interval.point(0)
    neg = log_interval(F(1, 2), 96)
    assert neg.lo <= -LOG2_LO <= neg.hi or neg.lo <= -LOG2_HI <= neg.hi
    rng = random.Random(7)
    for _ in range(40):
        q = F(rng.randint(1, 10**9), rng.randint(1, 10**9))
        iv = log_interval(q, 80)
        assert math.isclose(float(iv.lo), math.log(q), rel_tol=1e-12, abs_tol=1e-15)
        assert iv.lo <= iv.hi


def test_series_domain_checked_under_optimize():
    # a raised error, not an assert, so `python -O` keeps the check
    with pytest.raises(CertificationError):
        _atanh_series(1, 2, 64)


def test_exp_enclosures():
    e1 = exp_interval(F(1), 128)
    assert e1.lo <= F("2.7182818284590452353602874713527")
    assert e1.hi >= F("2.7182818284590452353602874713526")
    rng = random.Random(13)
    for _ in range(40):
        q = F(rng.randint(-350, 650)) + F(rng.randint(0, 999), 1000)
        iv = exp_interval(q, 96)
        assert math.isclose(float(iv.lo), math.exp(q), rel_tol=1e-9)
        assert iv.lo > 0 and float((iv.hi - iv.lo) / iv.lo) < 2**-80


def test_exp_log_roundtrip():
    for q in (F(5, 3), F(30), F(-7, 2)):
        iv = log_iv(exp_interval(q, 160), 160)
        assert iv.lo <= q <= iv.hi


def test_nth_roots():
    r = nth_root_iv(Interval.point(F(3)), 2, 128)
    assert r.lo <= F("1.7320508075688772935274463415059")
    assert r.hi >= F("1.7320508075688772935274463415058")
    for n, k in ((10, 3), (81, 4), (12345, 5)):
        iv = nth_root_iv(Interval.point(F(n)), k, 96)
        assert iv.lo**k <= n <= iv.hi**k
    assert integer_nth_root(63, 2) == 7
    assert integer_nth_root(64, 2) == 8
    assert integer_nth_root(10**60, 5) == 10**12
    assert integer_nth_root(10**60 - 1, 5) == 10**12 - 1


def dyadic_down(x: F, bits: int) -> F:
    """Largest multiple of 2^-bits that is <= x."""
    return F((x.numerator << bits) // x.denominator, 1 << bits)


def dyadic_up(x: F, bits: int) -> F:
    """Smallest multiple of 2^-bits that is >= x."""
    return -dyadic_down(-x, bits)


def test_dyadic_rounding():
    x = F(1, 3)
    iv = Interval.point(x).rounded(8)
    assert iv == Interval.of(dyadic_down(x, 8), dyadic_up(x, 8))
    assert iv.lo <= x <= iv.hi and iv.hi - iv.lo == F(1, 256) and iv.den == 256
    assert Interval.point(F(5, 4)).rounded(2) == Interval.point(F(5, 4))
    assert Interval.of(-1, 2, 3).rounded(4) == Interval.of(-6, 11, 16)
    assert Interval.point(F(1, 3)).hi_up(8) == dyadic_up(x, 8)


def test_formatting():
    assert fmt_real(F(0)) == "0"
    assert fmt_real(F(1, 3), 6) == "0.333333"
    assert fmt_real(F(-22, 7), 6) == "-3.142857"
    big = F(17) ** 5000
    assert fmt_real(big, 8).endswith(f"e+{reference_floor_log10(big)}")
    assert fmt_real(1 / big, 8).endswith(f"e{reference_floor_log10(1 / big):+d}")
    assert digits10(10**100) == 101
    assert digits10(10**100 - 1) == 100
    assert digits10(0) == 1


# ---------------------------------------------------------------------------
# Integer kernels against the former Fraction code: decimal rendering,
# evaluation at a/b and products of intervals
# ---------------------------------------------------------------------------


def reference_digits10(n: int) -> int:
    n = abs(n)
    if n == 0:
        return 1
    est = max(0, (n.bit_length() * 30103) // 100000 - 1)
    while 10 ** (est + 1) <= n:
        est += 1
    return est + 1


def reference_floor_log10(q: F) -> int:
    e = reference_digits10(q.numerator) - reference_digits10(q.denominator)
    while F(10) ** e > q:
        e -= 1
    while F(10) ** (e + 1) <= q:
        e += 1
    return e


def reference_fmt_real(q: F, sig: int = 18) -> str:
    # the former rendering by Fraction products and quotients
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    q = abs(q)
    e = reference_floor_log10(q)
    if -6 <= e <= 24:
        scaled = int(q * 10**sig)
        whole, frac = divmod(scaled, 10**sig)
        return f"{sign}{whole}.{str(frac).zfill(sig)}"
    mant = int(q / F(10) ** e * 10 ** (sig - 1))
    ms = str(mant)[:sig]
    return f"{sign}{ms[0]}.{ms[1:]}e{e:+d}"


def _digits_up_to(n: int):
    # small terms and terms of up to n decimal digits
    return st.one_of(st.integers(1, 10**6), st.integers(1, 10**n))


@st.composite
def signed_rationals(draw, n):
    sign = draw(st.sampled_from([1, -1]))
    return sign * F(draw(_digits_up_to(n)), draw(_digits_up_to(n)))


@st.composite
def powers_of_ten(draw):
    # exact powers of ten and their neighbours, including the switch between
    # fixed point (-6 <= e <= 24) and mantissa notation
    k = draw(st.one_of(st.sampled_from([-7, -6, 0, 24, 25]), st.integers(-6000, 6000)))
    nudge = draw(st.sampled_from([-1, 0, 1])) * F(1, 10 ** (abs(k) + 45))
    return draw(st.sampled_from([1, -1])) * (F(10) ** k + nudge)


@settings(max_examples=150, deadline=None)
@given(q=st.one_of(signed_rationals(6000), powers_of_ten()), sig=st.integers(6, 40))
@example(q=F(1, 10**6), sig=6)
@example(q=F(10**6 - 1, 10**12), sig=6)
@example(q=F(10**24), sig=40)
@example(q=F(10**25 - 1), sig=40)
def test_fmt_real_matches_fraction_reference(q, sig):
    assert fmt_real(q, sig) == reference_fmt_real(q, sig)
    if q:
        # floor(log10 |q|) by floor_log: for |q| < 1 it is -ceil(log10(d/n))
        n, d = abs(q.numerator), q.denominator
        if n >= d:
            e = floor_log(10, n, d)
        else:
            u = floor_log(10, d, n)
            e = -u - (n * 10**u != d)
        assert e == reference_floor_log10(abs(q))


@settings(max_examples=150, deadline=None)
@given(
    q=st.one_of(signed_rationals(3000), powers_of_ten()),
    g=st.one_of(st.integers(1, 10), st.integers(1, 10**3000)),
    sig=st.integers(6, 40),
)
@example(q=F(1, 10**6), g=10**9, sig=6)  # fixed point, smallest exponent
@example(q=F(-(10**25 - 1)), g=7, sig=40)  # fixed point, largest exponent
@example(q=F(10**25), g=2**100, sig=30)  # mantissa, k < 0
@example(q=F(3, 10**40), g=12, sig=40)  # mantissa, k >= 0
@example(q=F(0), g=5, sig=6)
def test_fmt_ratio_is_reduction_free(q, g, sig):
    # any common multiple (n g, d g) renders as the reduced rational does
    assert fmt_ratio(q.numerator * g, q.denominator * g, sig) == fmt_real(q, sig)


def exact_fmt_ratio(n: int, d: int, sig: int) -> str:
    # the renderer from the full operands, as before the leading-bits bracket
    if n == 0:
        return "0"
    sign = "-" if n < 0 else ""
    n = abs(n)
    e = reference_floor_log10(F(n, d))
    if -6 <= e <= 24:
        whole, frac = divmod(n * 10**sig // d, 10**sig)
        return f"{sign}{whole}.{str(frac).zfill(sig)}"
    k = sig - 1 - e
    ms = str(n * 10**k // d if k >= 0 else n // (d * 10**-k))
    return f"{sign}{ms[0]}.{ms[1:]}e{e:+d}"


@st.composite
def long_ratios(draw):
    """(n, d) of 300 to 20000 bits: random pairs, and values on a rendering
    boundary (c * 10^j, or just below it) or the reciprocal of one."""
    d = draw(st.integers(2**299, 2**20000))
    kind = draw(st.sampled_from(["random", "boundary", "below", "reciprocal"]))
    if kind == "random":
        n = draw(st.integers(2**299, 2**20000))
    else:
        c = draw(st.integers(1, 10**40)) * 10 ** draw(st.integers(0, 3000))
        n = d * c - (kind == "below")
        if kind == "reciprocal":
            n, d = d, n + 1
    return draw(st.sampled_from([1, -1])) * n, d


@settings(max_examples=300, deadline=None)
@given(pair=long_ratios(), sig=st.integers(6, 40))
@example(pair=(10**400 * 3**700 - 1, 3**700), sig=40)  # the bracket straddles 10^400
@example(pair=(-(3**700), 3**700 * 10**30), sig=6)  # exactly 10^-30
def test_fmt_ratio_matches_exact_renderer(pair, sig):
    assert fmt_ratio(*pair, sig) == exact_fmt_ratio(*pair, sig)


def test_fmt_ratio_renders_a_near_tie_exactly(monkeypatch):
    # 10^400 - 1/3^700: the leading bits bracket both 9.99...e+399 and
    # 1.00...e+400, so the full operands decide
    from gpade import report

    calls = []
    positive = report._fmt_positive
    monkeypatch.setattr(report, "_fmt_positive", lambda n, *rest: calls.append(n) or positive(n, *rest))
    n, d = 10**400 * 3**700 - 1, 3**700
    assert fmt_ratio(n, d, 40) == "9." + "9" * 39 + "e+399"
    assert calls[-1] == n and len(calls) == 3
    calls.clear()
    assert fmt_ratio(n // 7, d, 40) == exact_fmt_ratio(n // 7, d, 40)
    assert len(calls) == 2  # 10^400 / 7 is settled by the bracket


def test_fmt_ratio_forms_one_large_power_of_ten(monkeypatch):
    # the bracket ends and the exact rendering share the powers of ten of one
    # rendering: at about 4000 digits of exponent, one large power in all
    from gpade import report

    tables = []
    positive = report._fmt_positive
    monkeypatch.setattr(report, "_fmt_positive", lambda n, d, sig, pows: tables.append(pows) or positive(n, d, sig, pows))
    for n, d in ((10**4000 * 3**700 - 1, 3**700), (3**700, 10**4000 * 3**700 + 1)):
        assert fmt_ratio(n, d, 30) == exact_fmt_ratio(n, d, 30)
        assert len(tables) == 3 and all(t is tables[0] for t in tables)
        assert len([j for j in tables[0] if j > 100]) == 1
        tables.clear()


@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(st.one_of(st.integers(0, 2**70), st.integers(0, 2**3000)), min_size=4, max_size=4),
    nudge=st.integers(-2, 2),
)
@example(xs=[0, 5, 1, 1], nudge=0)
@example(xs=[2**64, 3, 2**65, 1], nudge=0)  # equal bit-length sums: multiplied out
def test_product_le_matches_products(xs, nudge):
    a, b, c, d = xs
    assert product_le(a, b, c, d) == (a * b <= c * d)
    # near-ties: c * d within 2 of a * b
    if a * b + nudge >= 0:
        assert product_le(a, b, a * b + nudge, 1) == (nudge >= 0)


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(st.integers(1, 40), st.integers(1, 2**70)),
    e=st.integers(0, 60),
    c=st.one_of(st.just(1), st.integers(1, 2**40)),
    nudge=st.integers(-1, 1),
    bits=st.sampled_from([2, 6, 256]),
)
@example(x=3, e=60, c=1, nudge=0, bits=256)  # a tie past 256 bits: settled exactly
def test_power_le_matches_powers_near_ties(x, e, c, nudge, bits):
    # y^f - c x^e in {-1, 0, 1}, in both directions, with f = 1
    y = c * x**e + nudge
    with mock.patch.object(arith, "_POWER_BITS", bits):
        if y >= 1:
            assert power_le(x, e, y, 1, c) == (nudge >= 0)
            assert power_le(y, 1, x, e, c) == (c * y <= x**e)


@settings(max_examples=300, deadline=None)
@given(
    x=st.integers(2, 2**40),
    k=st.integers(1, 4),
    f=st.integers(0, 40),
    de=st.integers(-1, 1),
    dc=st.sampled_from([None, -1, 0, 1]),
    bits=st.sampled_from([2, 6, 256]),
)
def test_power_le_matches_powers_of_one_base(x, k, f, de, dc, bits):
    # y = x^k: c x^e against x^(k f) with e = k f + de, or c = x + dc and one
    # factor x fewer, every pair within a factor x of a tie
    c, e = (1, k * f + de) if dc is None else (x + dc, k * f + de - 1)
    if e >= 0:
        with mock.patch.object(arith, "_POWER_BITS", bits):
            assert power_le(x, e, x**k, f, c) == (c * x**e <= x ** (k * f))


def test_power_le_settles_a_near_tie_exactly(monkeypatch):
    # 3^1000 against (3^10)^100 and 3^1000 -+ 1: the 256-bit bounds overlap,
    # so the outer settle reads the exact power; a factor 3 apart they decide
    fallbacks = []
    settle = arith.BoundedPower.settle

    def counting(self, reader):
        calls = []
        answer = settle(self, lambda p, s: calls.append(s) or reader(p, s))
        fallbacks.append(len(calls) == 3)
        return answer

    monkeypatch.setattr(arith.BoundedPower, "settle", counting)
    for x, e, y, f, expected in [
        (3, 1000, 3**10, 100, True),
        (3, 1000, 3**1000 - 1, 1, False),
        (3**1000 + 1, 1, 3, 1000, False),
    ]:
        fallbacks.clear()
        assert power_le(x, e, y, f) is expected
        assert fallbacks[-1]  # the outer settle, the last to finish
    fallbacks.clear()
    assert power_le(3, 1000, 3**10, 101) and power_le(3, 1001, 3**10, 100, 2) is False
    assert not any(fallbacks)


def test_power_le_refuses_a_negative_exponent():
    # bin(-3)[2:] is "b11": a negative exponent would read as a wrong bound
    for e, f in ((-1, 1), (1, -1), (-3, -3)):
        with pytest.raises(InvariantViolation):
            power_le(2, e, 3, f)


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(-(10**6000), 10**6000), st.integers(-(10**6), 10**6)), k=st.integers(0, 6000))
def test_digits10_matches_decimal_and_reference(n, k):
    for x in (n, 10**k, 10**k - 1, -(10**k)):
        expected = Decimal(x).adjusted() + 1 if x else 1
        assert digits10(x) == expected == reference_digits10(x)


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4), min_size=1, max_size=30),
    a=st.integers(-(10**12), 10**12),
    b=st.integers(1, 10**12),
)
@example(coeffs=[F(1, 3), F(-2, 5), F(7, 4)], a=-3, b=6)
def test_cleared_eval_matches_fraction_horner(coeffs, a, b):
    grid = cleared(coeffs)
    h, L = cleared_eval(grid, a, b)
    value = F(0)
    for c in reversed(coeffs):
        value = value * F(a, b) + c
    assert L == grid.den == math.lcm(*(c.denominator for c in coeffs))
    assert F(h, L * b ** (len(coeffs) - 1)) == value


@settings(max_examples=150, deadline=None)
@given(
    nums=st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=12),
    den=st.integers(1, 10**30),
    g=st.integers(1, 10**6),
)
@example(nums=[0, 0], den=7, g=3)  # all zero: the grid (1, (0, 0))
def test_grid_is_normalized_and_tuple_equal(nums, den, g):
    values = tuple(F(x, den) for x in nums)
    grid = Grid.of(den * g, [x * g for x in nums])
    assert grid.den > 0 and math.gcd(grid.den, *grid.nums) == 1
    assert grid_values(grid) == values
    assert grid == Grid.of(den, nums) == cleared(values)


def _as_reference(x):
    return x if isinstance(x, ReferenceInterval) else ReferenceInterval(F(x), F(x))


class ReferenceInterval(NamedTuple):
    """The former Interval: Fraction ends and every operation on Fractions,
    an int or Fraction operand taken as a point."""

    lo: F
    hi: F

    def __add__(self, other):
        o = _as_reference(other)
        return ReferenceInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_reference(other))

    def __mul__(self, other):
        o = _as_reference(other)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return ReferenceInterval(min(cands), max(cands))

    __rmul__ = __mul__

    def inv(self):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return ReferenceInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _as_reference(other).inv()

    def pow_int(self, n):
        return ReferenceInterval(self.lo**n, self.hi**n)

    def rounded(self, bits):
        return ReferenceInterval(dyadic_down(self.lo, bits), dyadic_up(self.hi, bits))

    def max_with(self, other):
        return ReferenceInterval(max(self.lo, other.lo), max(self.hi, other.hi))


def reference_of(iv: Interval) -> ReferenceInterval:
    """The ends of a normalized Interval, checked to be on its reduced grid."""
    assert type(iv) is Interval and iv.den > 0 and iv.lo_num <= iv.hi_num
    assert math.gcd(*iv) == 1
    return ReferenceInterval(iv.lo, iv.hi)


@st.composite
def intervals(draw, nonnegative):
    low = 0 if nonnegative else -50
    ends = st.one_of(st.just(F(0)), st.fractions(min_value=low, max_value=50, max_denominator=1000))
    lo, hi = sorted((draw(ends), draw(ends)))
    return Interval.of(lo, hi)


@settings(max_examples=100, deadline=None)
@given(x=st.one_of(intervals(True), intervals(False)), y=st.one_of(intervals(True), intervals(False)))
@example(x=Interval.of(F(0), F(0)), y=Interval.of(F(0), F(3)))
@example(x=Interval.of(F(0), F(2)), y=Interval.of(F(-1), F(0)))
def test_interval_product_matches_four_candidates(x, y):
    assert reference_of(x * y) == reference_of(x) * reference_of(y)


any_intervals = st.one_of(intervals(True), intervals(False))


@settings(max_examples=200, deadline=None)
@given(
    x=any_intervals,
    y=any_intervals,
    k=st.one_of(st.integers(-30, 30), st.integers(-(10**30), 10**30)),
    q=st.fractions(min_value=-50, max_value=50, max_denominator=1000),
    n=st.integers(0, 12),
    bits=st.integers(0, 40),
)
@example(x=Interval.of(F(-3), F(-1, 2)), y=Interval.of(F(-5, 7), F(-1, 3)), k=-6, q=F(-2, 9), n=3, bits=5)
@example(x=Interval.of(F(1, 6), F(3, 4)), y=Interval.of(F(1, 6), F(3, 4)), k=0, q=F(0), n=0, bits=0)
def test_interval_operations_match_fraction_reference(x, y, k, q, n, bits):
    rx, ry = reference_of(x), reference_of(y)
    for o, ro in ((y, ry), (k, k), (q, q)):
        assert reference_of(x + o) == rx + ro
        assert reference_of(o + x) == ro + rx
        assert reference_of(x - o) == rx - ro
        assert reference_of(x * o) == rx * ro
        assert reference_of(o * x) == ro * rx
        if ro == 0 or isinstance(ro, ReferenceInterval) and ro.lo <= 0 <= ro.hi:
            with pytest.raises(ZeroDivisionError):
                x / o
        else:
            assert reference_of(x / o) == rx / ro
    assert reference_of(-x) == -rx
    if rx.lo <= 0 <= rx.hi:
        with pytest.raises(ZeroDivisionError):
            x.inv()
    else:
        assert reference_of(x.inv()) == rx.inv()
    if rx.lo >= 0:
        assert reference_of(x.pow_int(n)) == rx.pow_int(n)
    assert reference_of(x.rounded(bits)) == rx.rounded(bits)
    assert reference_of(x.max_with(y)) == rx.max_with(ry)
    assert reference_of(Interval.point(q)) == ReferenceInterval(q, q)
    # tuple equality is value equality
    assert (x == y) == (rx == ry) and (x == y) <= (hash(x) == hash(y))


@settings(max_examples=100, deadline=None)
@given(
    lo=st.integers(-(10**6), 10**6),
    width=st.integers(0, 10**6),
    den=st.integers(1, 10**6),
    g=st.integers(1, 10**6),
)
@example(lo=0, width=0, den=7, g=3)  # the point 0: (0, 0, 1)
def test_interval_is_normalized_and_tuple_equal(lo, width, den, g):
    ends = (F(lo, den), F(lo + width, den))
    iv = Interval.of(lo * g, (lo + width) * g, den * g)
    assert iv == Interval.of(lo, lo + width, den) == Interval.of(*ends)
    assert hash(iv) == hash(Interval.of(*ends))
    assert reference_of(iv) == ends
    assert Interval.of(F(lo, g), F(lo + width, g), den) == Interval.of(lo, lo + width, den * g)


def test_interval_arithmetic():
    a = Interval.of(F(1), F(2))
    b = Interval.of(F(-3), F(4))
    prod = a * b
    assert prod.lo == -6 and prod.hi == 8
    quot = a / a
    assert quot.lo <= 1 <= quot.hi
    assert a.pow_int(3) == Interval.of(F(1), F(8))
    assert a.pow_int(0) == Interval.point(1)
    # pow_int is defined for nonnegative enclosures and exponents only
    with pytest.raises(InvariantViolation):
        Interval.of(F(-1, 2), F(3)).pow_int(2)
    with pytest.raises(InvariantViolation):
        Interval.point(F(2)).pow_int(-1)
    with pytest.raises(ZeroDivisionError):
        b.inv()


@settings(max_examples=80, deadline=None)
@given(
    lo=st.fractions(min_value=0, max_value=50, max_denominator=10**6),
    width=st.fractions(min_value=0, max_value=50, max_denominator=10**6),
    n=st.integers(0, 40),
)
def test_pow_int_nonnegative_matches_repeated_products(lo, width, n):
    iv = Interval.of(lo, lo + width)
    ref = Interval.point(1)
    for _ in range(n):
        ref = ref * iv
    assert iv.pow_int(n) == ref


# ---------------------------------------------------------------------------
# Fixed-point log/exp kernels: mpmath oracle and the former Fraction series
# ---------------------------------------------------------------------------


def reference_atanh_series(t: F, prec: int) -> ReferenceInterval:
    # the former Fraction kernel: 2*atanh(t) for 0 <= t < 1/2
    total = F(0)
    term = t
    tt = t * t
    k = 0
    eps = F(1, 1 << (prec + 8))
    while term / (2 * k + 1) > eps:
        total += term / (2 * k + 1)
        term *= tt
        k += 1
        if k % 8 == 0:
            total = dyadic_down(total, prec + 16)
    tail = term / (1 - tt)
    return ReferenceInterval(2 * total, 2 * (total + tail + eps)).rounded(prec + 8)


def reference_exp_core(x: F, prec: int) -> ReferenceInterval:
    # the former Fraction kernel: exp(x) for 0 <= x <= 1/2
    total = F(1)
    term = F(1)
    k = 0
    eps = F(1, 1 << (prec + 8))
    while True:
        k += 1
        term = term * x / k
        if term <= eps:
            break
        total += term
        if k % 8 == 0:
            total = dyadic_down(total, prec + 16)
    return ReferenceInterval(total, total + 2 * term + eps).rounded(prec + 8)


def oracle(fn, q: F, prec: int) -> F:
    # fn(q) from mpmath at 4x the precision (at least 128 bits), as the exact
    # rational value of the binary float mpmath returns
    with mpmath.workprec(4 * max(prec, 32)):
        value = fn(mpmath.mpf(q.numerator) / q.denominator)
    man, exp = value.man_exp  # of |value|
    return (-1 if value < 0 else 1) * F(man) * F(2) ** exp


def _small_or_huge(max_bits):
    # small integers and the thousands-of-bits ones `log_iv` produces
    return st.one_of(st.integers(1, 10**6), st.integers(1, 1 << max_bits))


@st.composite
def unit_rationals(draw, max_bits, half_open):
    """Rationals in [0, 1/2) (half_open) or [0, 1/2] with big or small terms."""
    den = draw(_small_or_huge(max_bits).filter(lambda d: d >= 2))
    num = draw(st.integers(0, (den - 1) // 2 if half_open else den // 2))
    return F(num, den)


@st.composite
def positive_rationals(draw, max_bits):
    return F(draw(_small_or_huge(max_bits)), draw(_small_or_huge(max_bits)))


@settings(max_examples=40, deadline=None)
@given(t=unit_rationals(2048, half_open=True), prec=st.integers(1, 96))
@example(t=F(1, 3), prec=64)
@example(t=F(1, 2) - F(1, 1 << 2000), prec=96)
@example(t=F(1, 1 << 2000), prec=8)
def test_atanh_kernel_encloses_and_is_no_wider(t, prec):
    iv = _atanh_series(t.numerator, t.denominator, prec)
    ref = reference_atanh_series(t, prec)
    assert iv.lo <= oracle(lambda v: 2 * mpmath.atanh(v), t, prec) <= iv.hi
    assert iv.hi - iv.lo <= ref.hi - ref.lo


@settings(max_examples=40, deadline=None)
@given(x=unit_rationals(2048, half_open=False), prec=st.integers(1, 96))
@example(x=F(1, 2), prec=96)
@example(x=F(0), prec=32)
@example(x=F(1, 1 << 2000), prec=8)
def test_exp_kernel_encloses_and_is_no_wider(x, prec):
    lo, hi = _exp_core(x.numerator, x.denominator, prec)
    iv = Interval.of(lo, hi, 1 << (prec + 8))
    ref = reference_exp_core(x, prec)
    assert iv.lo <= oracle(mpmath.exp, x, prec) <= iv.hi
    assert iv.hi - iv.lo <= ref.hi - ref.lo


@settings(max_examples=60, deadline=None)
@given(x=positive_rationals(4096), prec=st.integers(1, 512))
@example(x=F(2), prec=512)
@example(x=F((1 << 4000) + 1, 1 << 4000), prec=256)
def test_log_interval_encloses(x, prec):
    iv = log_interval(x, prec)
    assert iv.lo <= oracle(mpmath.log, x, prec) <= iv.hi


@settings(max_examples=60, deadline=None)
@given(
    x=st.one_of(
        st.fractions(min_value=-60, max_value=60, max_denominator=10**6),
        st.builds(lambda n, d: F(n % (60 * d), d) * (-1) ** n, _small_or_huge(3000), _small_or_huge(3000)),
    ),
    prec=st.integers(1, 512),
)
@example(x=F(1, 2), prec=512)
@example(x=F(-7, 2), prec=1)
def test_exp_interval_encloses(x, prec):
    iv = exp_interval(x, prec)
    assert iv.lo <= oracle(mpmath.exp, x, prec) <= iv.hi


# ---------------------------------------------------------------------------
# log/exp identity: the enclosures equal those of the former Interval-based
# reduction, endpoint for endpoint
# ---------------------------------------------------------------------------


def reference_exp_interval(x: F, prec: int) -> ReferenceInterval:
    # the former reduction: r = x / 2^j as a reduced Fraction, the kernel's
    # enclosure on the 2^-(wp+8) grid, then j Interval squares each rounded
    # outward to the 2^-wp grid; the series kernel is shared (its own test is
    # test_exp_kernel_encloses_and_is_no_wider)
    x = F(x)
    if x < 0:
        iv = reference_exp_interval(-x, prec).inv()
        shift = max(0, reference_floor_log(2, iv.lo.denominator, iv.lo.numerator)) if iv.lo < 1 else 0
        return iv.rounded(prec + shift + 8)
    if x == 0:
        return ReferenceInterval(F(1), F(1))
    j = 0
    r = x
    while r > F(1, 2):
        r /= 2
        j += 1
    wp = prec + 4 * j + 24
    lo, hi = _exp_core(r.numerator, r.denominator, wp)
    acc = ReferenceInterval(F(lo, 1 << (wp + 8)), F(hi, 1 << (wp + 8)))
    for _ in range(j):
        acc = (acc * acc).rounded(wp)
    return acc.rounded(prec)


def reference_log_interval(x: F, prec: int) -> ReferenceInterval:
    x = F(x)
    if x == 1:
        return ReferenceInterval(F(0), F(0))
    if x < 1:
        return -reference_log_interval(1 / x, prec)
    e = max(x.numerator.bit_length() - x.denominator.bit_length(), 0)
    if (1 << e) > x:
        e -= 1
    m = x / (1 << e)
    if m >= 2:
        e += 1
        m /= 2
    wp = prec + max(16, e.bit_length() + 8)
    t = (m - 1) / (m + 1)
    total = reference_of(_atanh_series(t.numerator, t.denominator, wp)) + reference_of(_log2_interval(wp)) * e
    return total.rounded(prec)


@settings(max_examples=80, deadline=None)
@given(
    x=st.one_of(
        st.fractions(min_value=-60, max_value=60, max_denominator=10**6),
        st.builds(lambda n, d: F(n % (60 * d), d) * (-1) ** n, _small_or_huge(3000), _small_or_huge(3000)),
    ),
    prec=st.integers(1, 512),
)
@example(x=F(0), prec=1)
@example(x=F(-7, 2), prec=1)
@example(x=F(1, 2), prec=512)
@example(x=F(-1, 1 << 2000), prec=8)
@example(x=F(-59), prec=512)
def test_exp_interval_matches_reference_endpoints(x, prec):
    iv, ref = exp_interval(x, prec), reference_exp_interval(x, prec)
    assert (iv.lo, iv.hi) == (ref.lo, ref.hi)


@settings(max_examples=80, deadline=None)
@given(
    x=st.one_of(positive_rationals(4096), st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6)),
    prec=st.integers(1, 512),
)
@example(x=F(1), prec=1)
@example(x=F(1, 3), prec=512)
@example(x=F((1 << 4000) + 1, 1 << 4000), prec=256)
def test_log_interval_matches_reference_endpoints(x, prec):
    iv, ref = log_interval(x, prec), reference_log_interval(x, prec)
    assert (iv.lo, iv.hi) == (ref.lo, ref.hi)


def test_empty_interval_is_an_invariant_violation():
    # an empty enclosure is a defect, reported as a failed check (exit 1),
    # not as bad input
    with pytest.raises(InvariantViolation, match="empty interval"):
        Interval.of(F(1), F(0))
    with pytest.raises(InvariantViolation, match="empty interval"):
        Interval.of(1, 0, 7)
    assert not issubclass(InvariantViolation, ValueError)
    point = Interval.of(F(1), F(1))
    assert point.hi - point.lo == 0


def certified(seqs, shared, others, systems):
    """The verdict of `certify_nonsingular`: True, or False when it raises."""
    try:
        certify_nonsingular(seqs, shared, others, systems)
    except SingularSystem:
        return False
    return True


def bareiss_verdicts(seqs, shared, others, systems):
    """Whether each system's exact determinant, over the sliced windows, is nonzero."""
    n = len(shared) + len(systems[0])
    rows = [[list(seqs[s][t : t + n]) for s, t in shared + [others[o] for o in system]] for system in systems]
    return [bareiss_eliminate(system) != 0 for system in rows]


def matches_bareiss(seqs, shared, others, systems):
    expected = bareiss_verdicts(seqs, shared, others, systems)
    assert [certified(seqs, shared, others, [system]) for system in systems] == expected
    assert certified(seqs, shared, others, systems) == all(expected)


@st.composite
def nonsingularity_instances(draw):
    """(seqs, shared, others, systems) of a general matrix, one sequence per
    row at offset 0: n x n systems of s < n shared rows and n - s other rows
    each, rows carrying a right-hand side.  Small entries make singular
    systems common, and a row multiplied by the prime (then added to another)
    makes a determinant that is a nonzero multiple of it."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(0, n - 1))
    row = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    rows = draw(st.lists(row, min_size=n, max_size=n + 3))
    if draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = [RANK_PRIME * draw(st.integers(1, 3)) * x for x in rows[r]]
        t = draw(st.integers(0, len(rows) - 1))
        if t != r:
            rows[t] = [x + y for x, y in zip(rows[t], rows[r])]
    windows = [(k, 0) for k in range(len(rows))]
    pick = st.permutations(range(len(rows) - s)).map(lambda order: list(order[: n - s]))
    return rows, windows[:s], windows[s:], draw(st.lists(pick, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(nonsingularity_instances())
# determinant RANK_PRIME: a zero residue, settled exactly
@example(([[RANK_PRIME, 0, 1], [0, 1, 2]], [], [(0, 0), (1, 0)], [[0, 1]]))
# a shared row that is 0 modulo the prime: every system falls back
@example(
    ([[RANK_PRIME, 2 * RANK_PRIME, 5], [1, 0, 0], [0, 1, 0], [2, 4, 1]], [(0, 0)], [(1, 0), (2, 0), (3, 0)], [[0], [1], [2]])
)
# an own row that reduces to 0 modulo the prime but not exactly
@example(([[1, 2, 0], [1, 2 + RANK_PRIME, 3], [0, 1, 1]], [(0, 0)], [(1, 0), (2, 0)], [[0], [1]]))
# proportional own rows: singular
@example(([[2, 1, 1, 3], [4, 2, 5, 1], [0, 1, 1, 1], [0, 3, 3, 5]], [(0, 0)], [(1, 0), (2, 0), (3, 0)], [[0, 1], [1, 2]]))
def test_certify_nonsingular_matches_bareiss(instance):
    matches_bareiss(*instance)


@st.composite
def window_instances(draw):
    """(seqs, shared, others, systems) of Toeplitz windows: every row is n
    consecutive entries of one of 1-3 sequences at a random offset.  Small
    entries and repeated windows make singular systems common; a sequence
    multiplied by the prime, or one equal to another modulo the prime but
    not exactly, makes determinants that are nonzero multiples of it."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(0, n - 1))
    k = draw(st.integers(1, 3))
    length = n + draw(st.integers(0, 4))
    seqs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=length, max_size=length), min_size=k, max_size=k))
    r = draw(st.integers(0, k - 1))
    twist = draw(st.sampled_from(["none", "scaled", "shifted"]))
    if twist == "scaled":
        seqs[r] = [RANK_PRIME * draw(st.integers(1, 3)) * x for x in seqs[r]]
    elif twist == "shifted":
        u = draw(st.integers(0, k - 1))
        seqs[r] = [x + RANK_PRIME * draw(st.integers(-1, 1)) for x in seqs[u]]
    window = st.tuples(st.integers(0, k - 1), st.integers(0, length - n))
    shared = draw(st.lists(window, min_size=s, max_size=s))
    others = draw(st.lists(window, min_size=n - s, max_size=n - s + 3))
    pick = st.permutations(range(len(others))).map(lambda order: list(order[: n - s]))
    return seqs, shared, others, draw(st.lists(pick, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(window_instances())
# Toeplitz windows [1, 1], [1, p + 1] of one sequence: determinant RANK_PRIME
@example(([[1, 1, RANK_PRIME + 1]], [], [(0, 0), (0, 1)], [[0, 1]]))
# two sequences equal modulo the prime, one shared window: every residue is 0
@example(([[1, 2, 3, 5], [1 + RANK_PRIME, 2, 3, 5]], [(0, 1)], [(0, 0), (1, 0), (1, 2)], [[0], [1], [2]]))
# the same window twice: singular
@example(([[0, 1, 2, 4], [3, 1, 1, 1]], [(1, 1)], [(0, 1), (1, 1), (0, 2)], [[0], [1], [2]]))
def test_certify_nonsingular_on_windows_matches_bareiss(instance):
    matches_bareiss(*instance)


def test_certify_nonsingular_falls_back_on_a_zero_residue(monkeypatch):
    # det = 2 RANK_PRIME: the residue is 0, the exact determinant is not, and
    # the verdict is that of the exact determinant
    calls = []
    monkeypatch.setattr(arith, "bareiss_eliminate", lambda rows: calls.append(rows) or bareiss_eliminate(rows))
    rows = [[RANK_PRIME, 0, 0], [1, 2, 0], [0, 3, 1]]
    general = [(0, 0), (1, 0), (2, 0)]
    assert bareiss_eliminate(rows) == 2 * RANK_PRIME
    certify_nonsingular(rows, [], general, [[0, 1, 2]])
    assert calls == [rows]
    # a nonzero residue needs no exact determinant
    certify_nonsingular([[3, 0, 0], [1, 2, 0], [0, 3, 1]], [], general, [[0, 1, 2]])
    assert len(calls) == 1
    # every residue is 0 modulo 1: each system is settled exactly, on its
    # windows of one sequence
    monkeypatch.setattr(arith, "RANK_PRIME", 1)
    seqs = [[0, 1, 2, 0, 5], [3, 1, 2, 3, 4]]
    certify_nonsingular(seqs, [(0, 2)], [(0, 1), (1, 0), (1, 1)], [[0, 1], [1, 2]])
    assert calls[1:] == [[[2, 0, 5], [1, 2, 0], [3, 1, 2]], [[2, 0, 5], [3, 1, 2], [1, 2, 3]]]
    with pytest.raises(SingularSystem):
        certify_nonsingular([[0, 1, 1, 1], [0, 2, 2, 7]], [], [(0, 0), (1, 0)], [[0, 1]])


def test_certify_nonsingular_rejects_singular_systems():
    # own rows proportional after the shared step: only the second system
    seqs = [[2, 1, 1, 3], [4, 2, 5, 1], [0, 1, 1, 1], [0, 3, 3, 5]]
    others = [(1, 0), (2, 0), (3, 0)]
    certify_nonsingular(seqs, [(0, 0)], others, [[0, 1], [0, 2]])
    with pytest.raises(SingularSystem, match="system 1"):
        certify_nonsingular(seqs, [(0, 0)], others, [[0, 1], [1, 2]])
    # dependent shared rows make every system singular: two windows of
    # [1, 2, 4, 8], proportional since the sequence is geometric
    with pytest.raises(SingularSystem, match="system 0"):
        certify_nonsingular([[1, 2, 4, 8], [0, 0, 1, 1]], [(0, 0), (0, 1)], [(1, 0), (1, 1)], [[0], [1]])
    # a zero column in a square matrix without a right-hand side
    with pytest.raises(SingularSystem):
        certify_nonsingular([[0, 5], [0, 7]], [], [(0, 0), (1, 0)], [range(2)])


def test_certify_nonsingular_refuses_more_columns_than_the_bound(monkeypatch):
    # p + n (p - 1)^2 < 2^64 up to the bound: no packed column carries
    assert is_prime(RANK_PRIME) and RANK_PRIME + RANK_COLUMNS * (RANK_PRIME - 1) ** 2 < 2**64
    # the bound is checked before any sequence is packed
    formats = []
    monkeypatch.setattr(arith, "Struct", lambda fmt: formats.append(fmt) or Struct(fmt))
    monkeypatch.setattr(arith, "RANK_COLUMNS", 2)
    with pytest.raises(ValueError, match="3 columns exceed the 2"):
        certify_nonsingular([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(0, 0)], [(1, 0), (2, 0)], [[0, 1]])
    # so is every window's end
    with pytest.raises(ValueError, match="past its sequence"):
        certify_nonsingular([[1, 0, 1]], [], [(0, 0), (0, 2)], [[0, 1]])
    assert formats == []
    certify_nonsingular([[1, 0], [0, 1]], [], [(0, 0), (1, 0)], [[0, 1]])
    assert formats
