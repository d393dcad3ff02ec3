import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade.errors import IntegerDifference, InvariantViolation, NonPositiveAlpha
from gpade.params import derive_params, load_params, padic_domain_check, parse_fraction, parse_int, parse_params

from conftest import pick_alphas


def test_basic_derivation():
    gp = derive_params([F(1), F(1, 2)])
    assert gp.m == 1
    assert (gp.r, gp.s) == ((1, 1), (1, 2))
    assert gp.u == (3,) and gp.v == (2,) and gp.d == (1,)
    assert gp.s_lcm == 2 and gp.v_lcm == 2 and gp.d_lcm == 1 and gp.dtilde == 1
    assert (gp.R, gp.S, gp.U, gp.V) == (1, 2, 3, 2)


def test_integer_difference_rejected():
    with pytest.raises(IntegerDifference) as exc:
        derive_params([F(1, 2), F(1, 3), F(4, 3)])
    assert (exc.value.i, exc.value.j) == (1, 2)


def test_constraint_skips_leading_parameter():
    # only the upper parameters are constrained; equality with alpha_0 is fine
    gp = derive_params([F(1), F(1)])
    assert gp.m == 1


def test_nonpositive_rejected():
    with pytest.raises(NonPositiveAlpha):
        derive_params([F(1), F(-1, 2)])
    with pytest.raises(NonPositiveAlpha):
        derive_params([F(0), F(1, 2)])


def test_pairing_identity_and_divisibility():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.choice([1, 2, 3])
        gp = derive_params(pick_alphas(rng, m))
        for j in range(1, m + 1):
            assert gp.d[j - 1] * gp.v[j - 1] == gp.s0 * gp.s[j]
            assert gcd(gp.r[j], gp.s[j]) == 1
            assert gcd(gp.u[j - 1], gp.v[j - 1]) == 1
        assert gp.s_lcm % gp.dtilde == 0
        # re-deriving from the stored list is idempotent
        assert derive_params(gp.alpha) == gp


def test_domain_check_examples():
    gp = derive_params([F(1), F(1, 2)])
    ok, d2p, dp = padic_domain_check(gp, 2, F(8, 3))
    assert ok and d2p == 1 and dp == 1
    gp1 = derive_params([F(1), F(1)])
    assert padic_domain_check(gp1, 3, F(3)) == (True, 0, 0)
    assert padic_domain_check(gp, 2, F(2, 3)).ok is False
    # at p = 2 with s even the bound tightens by one: v_2(4) = 2 is not > 1 + 1
    assert padic_domain_check(gp, 2, F(4, 3)) == (False, 1, 1)
    with pytest.raises(ValueError):
        padic_domain_check(gp, 2, F(0))
    for p in (1, 0, -2):
        with pytest.raises(InvariantViolation):
            padic_domain_check(gp, p, F(8, 3))


def test_parse_and_load(params_file):
    text = "# demo\nm = 1\nalpha0 = 1\nalpha1 = 1/2  # half\n"
    gp = parse_params(text)
    assert gp == derive_params([F(1), F(1, 2)])
    path = params_file(text)
    assert load_params(path) == gp


def test_load_params_memo_follows_the_file(params_file):
    # the file is read on every call: the same text under the same path is
    # parsed once, an edited file is parsed again, and equal texts under two
    # paths give equal parameters
    half, third = "m = 1\nalpha0 = 1\nalpha1 = 1/2\n", "m = 1\nalpha0 = 1\nalpha1 = 1/3\n"
    path = params_file(half)
    gp = load_params(path)
    assert load_params(path) is gp
    params_file(third)
    assert load_params(path) == derive_params([F(1), F(1, 3)])
    params_file(half)
    assert load_params(path) == gp
    assert load_params(params_file(half, "other.params")) == gp


@pytest.mark.parametrize(
    "text, message",
    [
        ("m = 1\nalpha0 = 1\nalpha1 = x\n", "{path}:3: "),
        ("m = 1\nalpha0 = 1\n", "{path}: missing 'alpha1"),
        ("m = 1\nalpha0 = 1\nalpha1 = 0\n", "alpha = 0 must be positive"),
    ],
)
def test_load_params_errors_repeat(params_file, text, message):
    # a malformed file raises the same error on every call (a parse error
    # names its path), and none of it is remembered once the file is mended
    path = params_file(text)
    for _ in range(2):
        with pytest.raises((ValueError, NonPositiveAlpha)) as info:
            load_params(path)
        assert str(info.value).startswith(message.format(path=path))
    params_file("m = 1\nalpha0 = 1\nalpha1 = 1/2\n")
    assert load_params(path) == derive_params([F(1), F(1, 2)])


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


# short texts over the characters of both grammars (at most 7 characters, so
# an exponent stays below 10^5)
@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789_./+-eE \t", max_size=7))
@example("1/0")
@example(" -3/4 ")
@example("1_000.5e-2")
@example("1 /2")
@example("nan")
@example("\u0663/2")
def test_parsers_accept_what_int_and_fraction_accept(text):
    assert _outcome(parse_int, text) == _outcome(int, text)
    assert _outcome(parse_fraction, text) == _outcome(F, text)


def test_parsers_take_any_number_of_digits():
    # int() and Fraction() refuse these beyond 4300 digits
    n = 10**5000 - 3
    digits = "9" * 4999 + "7"
    assert parse_int(f" -{digits}") == -n
    assert parse_fraction(f"1/{digits}") == F(1, n)
    assert parse_fraction(f"-{digits}/2") == F(-n, 2)
    assert parse_fraction(f"0.{digits}") == F(n, 10**5000)
    gp = parse_params(f"m = 1\nalpha0 = {digits}/2\nalpha1 = 1/{digits}\n")
    assert gp.alpha == (F(n, 2), F(1, n))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("alpha0 = 1\n", "missing 'm"),
        ("m = 1\nalpha0 = 1\n", "missing 'alpha1"),
        ("m = 1\nalpha0 = 1\nalpha1 = 1/2\nalpha2 = 3\n", "unexpected keys"),
        ("m = x\n", ":1:"),
        ("m = 1\nalpha0 = 1\nnoise\n", ":3:"),
        ("m = 1\nalpha0 = 1/0\nalpha1 = 1\n", ":2:"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ValueError) as exc:
        parse_params(text)
    assert fragment in str(exc.value)


def test_pool_respects_constraint():
    # guard on the test pool itself: every distinct pair differs non-integrally
    rng = random.Random(1)
    for _ in range(30):
        alphas = pick_alphas(rng, 3)
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert (alphas[i] - alphas[j]).denominator != 1
