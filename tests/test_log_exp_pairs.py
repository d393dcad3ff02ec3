"""log and exp on integer pairs: every enclosure equals the Fraction route's.

`reference_constants` keeps the former Fraction-keyed log and exp.  The
tests here compare the two routes tuple for tuple, on Fractions, on ints and
on enclosures whose tuples need not be normalized, and check that every
argument reaches the kernel memo as one pair in lowest terms.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_constants as ref
from gpade import interval
from gpade.interval import Interval, exp_interval, exp_iv, log_interval, log_iv

PRECS = st.sampled_from((64, 96, 128, 192, 256, 333))
PARTS = st.one_of(st.integers(1, 10**6), st.integers(1, 1 << 400))
EXPONENTS = st.integers(-400, 400)


def near_powers_of_two(exponents):
    """2^e and 2^e (1 + 2^-100): the ends of the mantissa range of log."""
    return st.one_of(
        exponents.map(lambda e: F(2) ** e),
        exponents.map(lambda e: F(2) ** e * (1 + F(1, 1 << 100))),
    )


POSITIVE = st.one_of(st.builds(F, PARTS, PARTS), near_powers_of_two(EXPONENTS), st.just(F(1)))


@st.composite
def bounded(draw):
    """Rationals with |x| <= 1000 and parts of up to about 400 bits, of
    either sign, and 0."""
    den = draw(PARTS)
    return F(draw(st.integers(-1000 * den, 1000 * den)), den)


@st.composite
def enclosures(draw, positive):
    """Intervals [lo, hi] / den, positive or with ends in [-1000, 1000], as the
    normalized tuple or scaled by a common factor that `Interval.of` would
    cancel."""
    den = draw(PARTS)
    lo = draw(st.integers(1, 1 << 400) if positive else st.integers(-1000 * den, 1000 * den))
    hi = lo + draw(st.integers(0, (1 << 400) if positive else 1000 * den - lo))
    k = draw(st.sampled_from((1, 2, 6, 1 << 100, 3**50)))
    return Interval(lo * k, hi * k, den * k) if draw(st.booleans()) else Interval.of(lo, hi, den)


@settings(max_examples=150, deadline=None)
@given(x=st.one_of(POSITIVE, PARTS), prec=PRECS)
@example(x=F(1), prec=64)
@example(x=1, prec=333)
@example(x=F(1, 1 << 400), prec=128)
@example(x=F((1 << 500) + (1 << 400), 1 << 100), prec=192)
def test_log_interval_equals_the_fraction_route(x, prec):
    assert log_interval(x, prec) == ref.log_interval(F(x), prec)


@settings(max_examples=150, deadline=None)
@given(
    x=st.one_of(
        bounded(),
        st.integers(-1000, 1000),
        st.builds(lambda x, sign: sign * x, near_powers_of_two(st.integers(-400, 8)), st.sampled_from((1, -1))),
    ),
    prec=PRECS,
)
@example(x=F(0), prec=64)
@example(x=0, prec=333)
@example(x=F(-1000), prec=333)
@example(x=F(1000), prec=256)
@example(x=F(-1, 1 << 400), prec=96)
@example(x=F(1, 2), prec=128)
def test_exp_interval_equals_the_fraction_route(x, prec):
    assert exp_interval(x, prec) == ref.exp_interval(F(x), prec)


@settings(max_examples=100, deadline=None)
@given(iv=enclosures(positive=True), prec=PRECS)
@example(iv=Interval(4, 9, 6), prec=64)
@example(iv=Interval(6, 6, 6), prec=128)
def test_log_iv_equals_the_fraction_route(iv, prec):
    assert log_iv(iv, prec) == ref.log_iv(iv, prec)


@settings(max_examples=100, deadline=None)
@given(iv=enclosures(positive=False), prec=PRECS)
@example(iv=Interval(-9, -4, 6), prec=64)
@example(iv=Interval(0, 0, 5), prec=96)
@example(iv=Interval(-3000, 3000, 3), prec=333)
def test_exp_iv_equals_the_fraction_route(iv, prec):
    assert exp_iv(iv, prec) == ref.exp_iv(iv, prec)


def _hits(kernel, call):
    """(hits, misses) that `call` adds to the kernel's memo."""
    before = kernel.cache_info()
    call()
    after = kernel.cache_info()
    return after.hits - before.hits, after.misses - before.misses


def test_reduced_ends_share_the_kernel_entries():
    prec = 77  # a precision no other caller asks for
    log_interval(F(2, 3), prec), log_interval(F(3, 2), prec), log_interval(F(6), prec)
    assert _hits(interval._log, lambda: log_iv(Interval.of(4, 9, 6), prec)) == (2, 0)
    assert _hits(interval._log, lambda: log_interval(6, prec)) == (1, 0)
    exp_interval(F(-3, 2), prec), exp_interval(F(-2, 3), prec), exp_interval(F(-6), prec)
    assert _hits(interval._exp, lambda: exp_iv(Interval.of(-9, -4, 6), prec)) == (2, 0)
    assert _hits(interval._exp, lambda: exp_interval(-6, prec)) == (1, 0)
    # an unnormalized tuple reads the same reduced ends
    assert _hits(interval._log, lambda: log_iv(Interval(8, 18, 12), prec)) == (2, 0)


@pytest.mark.parametrize("call", [
    lambda: log_interval(0),
    lambda: log_interval(F(-1, 3)),
    lambda: log_iv(Interval.of(0, 1)),
    lambda: log_iv(Interval.of(-2, 3, 4)),
])
def test_log_of_a_nonpositive_rational_is_rejected(call):
    with pytest.raises(ValueError, match="nonpositive"):
        call()
