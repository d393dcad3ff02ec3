import functools
import math
import time
from fractions import Fraction
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gpade.arith
import gpade.realapprox
from gpade.arith import (
    BoundedPower,
    FactoredInteger,
    Interval,
    cleared_eval,
    digits10,
    epsilon_interval,
    exp_iv,
    log_interval,
    log_iv,
)
from gpade.denom import ThetaMode
from gpade.envelope import Envelope, series_terms
from gpade.errors import (
    CertificationError,
    DomainViolation,
    HypothesisFailure,
    InvariantViolation,
    PrecisionInsufficient,
)
from gpade.pade import ApproxShape, build_family
from gpade.params import GParams, derive_params
from gpade.realapprox import (
    _nearest_integer,
    audit_restricted,
    c_of_vartheta,
    eval_phi_real,
    make_restricted_instance,
    restricted_constants,
    restricted_d1,
    restricted_d2,
    restricted_threshold,
    smallest_admissible_b,
)
from gpade.realseries import rows_at
from gpade.report import Check, abbrev, emit_report, entry, fmt_real, full_digits, int_str, rational, tagged_bound

from conftest import ALPHA_POOL
from reference_series import grid_values, reference_phi_coeffs


@pytest.fixture(scope="module")
def gp11():
    return derive_params([F(1), F(1)])


def closed_form(z: F, prec: int = 300):
    # phi(z) = -log(1 - z)/z for the harmonic specialization
    iv = log_interval(1 - z, prec)
    lo, hi = -iv.hi / z, -iv.lo / z
    return (lo, hi) if lo <= hi else (hi, lo)


def test_enclosure_two_log_two(gp11):
    enc = eval_phi_real(gp11, F(1, 2), 60)
    l2 = log_interval(F(2), 256)
    assert enc.lo <= 2 * l2.lo and 2 * l2.hi <= enc.hi
    assert enc.hi - enc.lo <= F(1, 2**50)


def test_enclosure_at_zero(gp11):
    assert eval_phi_real(gp11, F(0), 7) == Interval.point(F(1))


def test_enclosure_width_formula():
    gp = derive_params([F(1), F(1, 2)])
    enc = eval_phi_real(gp, F(1, 4), 40)
    assert enc.hi - enc.lo == F(1, 4) ** 41 * F(4, 3)


def test_enclosure_contains_closed_form(gp11):
    for z in (F(1, 2), F(-1, 2), F(1, 4), F(-1, 4), F(1, 8)):
        enc = eval_phi_real(gp11, z, 80)
        lo, hi = closed_form(z)
        assert enc.lo <= hi and enc.hi >= lo
        mid = (lo + hi) / 2
        assert enc.lo <= mid <= enc.hi


def test_enclosure_rejects_large_point(gp11):
    with pytest.raises(DomainViolation):
        eval_phi_real(gp11, F(3, 2), 10)


def test_enclosure_target_guard():
    # a target of 2^-(3*10^6) at z = 1/2 asks for more than 200000 terms
    with pytest.raises(PrecisionInsufficient):
        series_terms(F(1, 2), Envelope(F(1), 1, 2 ** (3 * 10**6), 1))
    # the audit's hypothesis on b keeps |z| <= 1/2; a larger point is a defect
    with pytest.raises(InvariantViolation):
        series_terms(F(3, 4), Envelope(F(1), 1, 2**10, 1))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 2**300), e=st.integers(0, 3000), bits=st.sampled_from([2, 6, 64, 256]))
def test_bounded_power_brackets_the_power(n, e, bits):
    with mock.patch.object(gpade.arith, "_POWER_BITS", bits):
        pw = BoundedPower(n, e)
    assert pw.lo << pw.s <= n**e <= pw.hi << pw.s
    if bits == 256:  # squaring doubles the relative gap: about e * 2^-255 in the end
        assert (pw.hi - pw.lo) << 200 <= pw.lo
    # a monotone reader: the bit length of the power, settled or computed
    assert pw.settle(lambda p, s: (p << s).bit_length()) == (n**e).bit_length()


def test_vartheta_threshold():
    assert c_of_vartheta(F(2)) == 6
    # by definition of the threshold, the inequality holds onward and the
    # preceding index fails it
    for n in range(6, 40):
        assert (n + 1) ** 2 <= 2**n
    assert 6**2 > 2**5
    assert c_of_vartheta(F(3)) == 2
    # with every probe sent through 2-bit power bounds: (n+1)^2 = 3^n at
    # n = 2, where they overlap and the exact powers decide
    with mock.patch.object(gpade.arith, "_POWER_BITS", 2):
        assert c_of_vartheta(F(3)) == 2
    with pytest.raises(ValueError):
        c_of_vartheta(F(1))


def test_vartheta_threshold_near_one_is_fast():
    # the bounded powers bracket the crossover: no power of 5001/5000 near
    # n = 116684 (about 1.4 million bits) is formed
    t0 = time.perf_counter()
    assert c_of_vartheta(F(5001, 5000)) == 116684
    assert time.perf_counter() - t0 < 0.5


def reference_c_of_vartheta(vartheta, limit):
    """The crossover by a plain scan over n = 0..limit, one Fraction power
    step at a time; None past the limit."""
    power = F(1)
    for n in range(limit + 1):
        if (n + 1) ** 2 <= power and (n + 2) ** 2 < (n + 1) ** 2 * vartheta:
            return n
        power *= vartheta
    return None


@settings(max_examples=150, deadline=None)
@given(
    vartheta=st.fractions(min_value=1, max_value=9, max_denominator=60).filter(lambda x: x > 1),
    limit=st.sampled_from([0, 1, 5, 6, 7, 40, 300, 2000]),
    power_bits=st.sampled_from([2, gpade.arith._POWER_BITS]),
)
def test_vartheta_threshold_matches_scan(vartheta, limit, power_bits):
    # the galloping search finds the scan's crossover, and raises exactly
    # when the scan runs past its limit, also when nearly every probe of the
    # power condition goes through bounds on the powers (power_bits = 2)
    expected = reference_c_of_vartheta(vartheta, limit)
    with (
        mock.patch.object(gpade.realapprox, "_SCAN_LIMIT", limit),
        mock.patch.object(gpade.arith, "_POWER_BITS", power_bits),
    ):
        if expected is None:
            with pytest.raises(ValueError, match="scan limit"):
                c_of_vartheta(vartheta)
        else:
            assert c_of_vartheta(vartheta) == expected


def test_constants_harmonic_case(gp11):
    mode = ThetaMode.sharp()
    rc = restricted_constants(gp11, mode, F(2))
    assert rc.a1_variant == "leading_parameter_one"
    assert math.isclose(float(rc.a1.lo), 2**0.25 * math.exp(3 * 1.26), rel_tol=1e-12)
    assert math.isclose(float(rc.a2.lo), 4 * math.exp(8 * 1.26), rel_tol=1e-12)
    assert rc.mode.c_theta == 2 and rc.c_vartheta == 6
    assert float(rc.a1.hi) < 52.2  # keeps the admissible b near 2e10


def test_constants_variants():
    mode = ThetaMode.sharp()
    gp_int = derive_params([F(2), F(1, 2)])
    rc = restricted_constants(gp_int, mode, F(2))
    assert rc.a1_variant == "integer_leading_parameter"
    assert math.isclose(float(rc.a1.lo), 8**0.25 * math.exp(3 * 1.26 * 2), rel_tol=1e-12)
    gp_frac = derive_params([F(1, 2), F(1, 3)])
    rc2 = restricted_constants(gp_frac, mode, F(2))
    assert rc2.a1_variant == "general"
    with pytest.raises(ValueError):
        restricted_constants(derive_params([F(1), F(1, 2), F(1, 3)]), mode, F(2))


def test_paper_mode_threshold_value():
    assert ThetaMode.paper().c_theta == 2


def test_threshold_and_instance(gp11):
    mode = ThetaMode.sharp()
    rc = restricted_constants(gp11, mode, F(2))
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    assert 2 * 10**10 < b < 2.1 * 10**10
    m0, detail = restricted_threshold(rc, 1, b, 1, F(0))
    assert 21 <= float(m0.hi) < 21.001
    # the binding entry is the start-size one: (1 + max{c, c', 4})/2 = 3.5
    entries = [float(e.hi) for e in detail["entries"]]
    assert max(entries) == pytest.approx(3.5)
    assert entries[0] == pytest.approx(3.4, abs=0.1)


def test_threshold_hypothesis_failures(gp11):
    mode = ThetaMode.sharp()
    rc = restricted_constants(gp11, mode, F(2))
    with pytest.raises(HypothesisFailure):
        restricted_threshold(rc, 1, 100, 1, F(0))
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    with pytest.raises(HypothesisFailure):
        restricted_threshold(rc, 1, b, b + 1, F(1))  # B > b^t
    with pytest.raises(HypothesisFailure):
        restricted_threshold(rc, 0, b, 1, F(0))


def test_large_t_dominates(gp11):
    mode = ThetaMode.sharp()
    rc = restricted_constants(gp11, mode, F(2))
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    m0_small, _ = restricted_threshold(rc, 1, b, 1, F(0))
    m0_large, detail = restricted_threshold(rc, 1, b, 1, F(40))
    assert m0_large.lo > m0_small.hi
    # the (4t+1)/2 entry carries the maximum for large t
    assert detail["entries"][1].lo == F(4 * 40 + 1, 2)


def test_specialized_clearing_integers(gp11):
    # for unit parameters both integers are plain prime blocks
    d1 = restricted_d1(gp11, 3, 7)
    assert d1.value == math.lcm(*range(1, 10))  # p^floor(log_p 9) over p <= 9
    d2 = restricted_d2(gp11, 7)
    assert d2.value == math.lcm(*range(1, 10))  # u + v*n0 = 9


def test_instance_assembly(gp11):
    mode = ThetaMode.sharp()
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    inst = make_restricted_instance(gp11, a=1, b=b, B=1, t=F(0), mode=mode, vartheta=F(2))
    assert inst.M == 22  # ceil of the certified threshold (just above 21)
    assert 3 <= float(inst.x.lo) < 3.001
    assert inst.n1 == inst.h and inst.n0 == int(inst.x.lo * inst.h)
    assert inst.n0 - inst.n1 + 1 >= inst.M


def test_audit_hypothesis_failure(gp11):
    mode = ThetaMode.sharp()
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    with pytest.raises(HypothesisFailure):
        make_restricted_instance(gp11, a=1, b=100, B=1, t=F(0), mode=mode, vartheta=F(2))
    inst = make_restricted_instance(gp11, a=1, b=b, B=1, t=F(0), mode=mode, vartheta=F(2), M=5)
    with pytest.raises(HypothesisFailure):
        audit_restricted(inst)


def test_audit_integer_leading_parameter_end_to_end():
    # a different parameter set, a bounded extra factor and a negative point
    gp = derive_params([F(2), F(1, 2)])
    mode = ThetaMode.sharp()
    b = smallest_admissible_b(gp, 1, mode, F(2))
    rep = audit_restricted(
        make_restricted_instance(gp, a=1, b=b, B=7, t=F(1, 2), mode=mode, vartheta=F(2))
    )
    assert rep["final_verdict"] == "all checks passed"
    b3 = smallest_admissible_b(gp, -3, mode, F(2))
    rep3 = audit_restricted(
        make_restricted_instance(gp, a=-3, b=b3, B=1, t=F(0), mode=mode, vartheta=F(2))
    )
    assert rep3["final_verdict"] == "all checks passed"


def test_audit_integrality_is_a_real_check(gp11, monkeypatch):
    # without D1 the scaled Q_i(beta) are not integers: the checks must fail
    # and show b^n1 Q_i(beta), computed here by Fraction Horner
    mode = ThetaMode.sharp()
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    inst = make_restricted_instance(gp11, a=1, b=b, B=1, t=F(0), mode=mode, vartheta=F(2))
    assert audit_restricted(inst)["final_verdict"] == "all checks passed"
    monkeypatch.setattr(gpade.realapprox, "restricted_d1", lambda gp, n1, n0: FactoredInteger.one())
    checks = {c.name: c for c in audit_restricted(inst)["checks"]}
    fam = build_family(gp11, ApproxShape(n=(inst.n1,), n0=inst.n0))
    for i in (0, 1):
        value = F(0)
        for c in reversed(grid_values(fam.q[i])):
            value = value * F(1, b) + c
        scaled = value * b**inst.n1
        assert scaled.denominator != 1
        assert checks[f"integrality_scaled_q_{i}"].failed
        assert checks[f"integrality_scaled_q_{i}"].lhs == f"{scaled.numerator}/{scaled.denominator}"


def test_audit_p_integrality_is_a_real_check(gp11, monkeypatch):
    # without D2 the scaled P_i1(beta) are not integers: the checks must fail
    # and show D1 b^(n0+1) P_i1(beta), computed here from P_i1's coefficients
    mode = ThetaMode.sharp()
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    inst = make_restricted_instance(gp11, a=1, b=b, B=1, t=F(0), mode=mode, vartheta=F(2))
    monkeypatch.setattr(gpade.realapprox, "restricted_d2", lambda gp, n0: FactoredInteger.one())
    checks = {c.name: c for c in audit_restricted(inst)["checks"]}
    fam = build_family(gp11, ApproxShape(n=(inst.n1,), n0=inst.n0))
    d1 = restricted_d1(gp11, inst.n1, inst.n0).value
    for i in (0, 1):
        hp, lp = cleared_eval(fam.p_coeffs(i, 1), 1, b)
        scaled = F(d1 * b ** (inst.n0 + 1) * hp, lp * b ** fam.shape.Nij(i, 1))
        assert scaled.denominator != 1
        assert checks[f"integrality_scaled_p_{i}"].failed
        assert checks[f"integrality_scaled_p_{i}"].lhs == f"{scaled.numerator}/{scaled.denominator}"


def reference_rows(gp, n1, n0, a, b, T, clear):
    """The enclosure ends and each row's (Q_i(beta), v, remainder) by the
    cancellation formulas: P_i1(beta) from P_i1's coefficients (the product
    series), phi_1's partial sum term by term, and the remainder as
    max |x Q_i(beta) - P_i1(beta)| over the two ends x."""
    beta = F(a, b)
    s_T = sum(cf * beta**t for t, cf in enumerate(reference_phi_coeffs(gp, 1, T)))
    tail = abs(beta) ** (T + 1) / (1 - abs(beta))
    ends = (s_T, s_T + tail) if beta > 0 or (T + 1) % 2 == 0 else (s_T - tail, s_T)
    family = build_family(gp, ApproxShape(n=(n1,), n0=n0))
    rows = []
    for i in (0, 1):
        hq, lq = cleared_eval(family.q[i], a, b)
        hp, lp = cleared_eval(family.p_coeffs(i, 1), a, b)
        q_val, p_val = F(hq, lq * b**n1), F(hp, lp * b ** (n0 + i))
        v = clear * b ** (n0 + 1) * p_val
        rem = max(abs(x * q_val - p_val) for x in ends)
        rows.append((hq, v, rem))
    return ends, rows


@settings(max_examples=40, deadline=None)
@given(
    alphas=st.tuples(st.sampled_from(ALPHA_POOL), st.sampled_from(ALPHA_POOL)),
    n1=st.integers(1, 40),
    extra=st.integers(0, 80),
    a=st.integers(-40, 40).filter(bool),
    b=st.integers(41, 10**12),
    g=st.integers(1, 6),
    dT=st.integers(-120, 120),
    cleared=st.booleans(),
)
@example(alphas=(F(1), F(1)), n1=21, extra=42, a=-3, b=14590540195783, g=1, dT=49, cleared=True)  # T + 1 = 92
@example(alphas=(F(1), F(1)), n1=29, extra=58, a=-3, b=14590540195783, g=1, dT=66, cleared=True)  # T + 1 = 125
@example(alphas=(F(2), F(1, 2)), n1=3, extra=4, a=5, b=77, g=4, dT=-3, cleared=False)  # T = 1 < c_0 = 4
@example(alphas=(F(1), F(1, 2)), n1=5, extra=4, a=1, b=50, g=2, dT=1, cleared=True)  # T = c_1 = 5
def test_rows_match_the_cancellation_formulas(alphas, n1, extra, a, b, g, dT, cleared):
    # m = 1 at beta = a g / (b g): the tails and the cofactor division give
    # the same rationals as the full-length products, for T on both sides of
    # c_i = n0 - n1 + i and either parity of T + 1, integral or not
    gp = derive_params(list(alphas))
    n0 = n1 + extra % (2 * n1 + 1)
    T = max(0, n0 - n1 + dT)
    clear = restricted_d1(gp, n1, n0).value * restricted_d2(gp, n0).value if cleared else 1 + abs(a)
    shape = ApproxShape(n=(n1,), n0=n0)
    qs = [build_family(gp, shape).q[i] for i in (0, 1)]
    (lo, hi, den), rows = rows_at(gp, qs, n0, a * g, b * g, T, clear)
    ends, ref = reference_rows(gp, n1, n0, a * g, b * g, T, clear)
    assert den > 0 and (F(lo, den), F(hi, den)) == ends
    for (hq, v, (rn, rd)), (hq_ref, v_ref, rem_ref) in zip(rows, ref):
        assert hq == hq_ref
        assert v == v_ref and type(v) is (int if v_ref.denominator == 1 else Fraction)
        assert rd > 0 and F(rn, rd) == rem_ref


def reference_nearest(lo, hi, den):
    """floor(x + 1/2) for x = lo/den and hi/den, or None when they differ."""
    n_lo, n_hi = (math.floor(F(x, den) + F(1, 2)) for x in (lo, hi))
    return n_lo if n_lo == n_hi else None


def test_nearest_integer_falls_back_when_the_bracket_straddles():
    # lo/den = 7.5 +- 1/(2 den): the leading bits bracket 7.5 itself, so only
    # the exact quotients decide
    den, bits = 2**200 + 1, 4
    t = den.bit_length() - bits - 64
    for lo, nearest in (((15 * den + 1) // 2, 8), ((15 * den - 1) // 2, 7)):
        nl, dl = lo >> t, den >> t
        assert math.floor(F(nl, dl + 1) + F(1, 2)) == 7 and F(nl + 1, dl) > F(15, 2)
        assert _nearest_integer(lo, lo, den, bits) == nearest
    with pytest.raises(PrecisionInsufficient, match="nearest integer undecided"):
        _nearest_integer((15 * den - 1) // 2, (15 * den + 1) // 2, den, bits)
    # far from a half-integer the bracket decides; both ends must round alike
    assert _nearest_integer(7 * den, 7 * den + den // 3, den, bits) == 7
    with pytest.raises(PrecisionInsufficient):
        _nearest_integer(7 * den, 7 * den + den, den, bits)


@settings(max_examples=300, deadline=None)
@given(
    x=st.integers(-(2**200), 2**200),
    width=st.integers(0, 2**140),
    den=st.integers(1, 2**260),
    bits=st.integers(0, 80),
)
@example(x=2**199 + 2**198, width=0, den=2**199, bits=2)  # exactly 3/2: halves round up
def test_nearest_integer_matches_exact_rounding(x, width, den, bits):
    expected = reference_nearest(x, x + width, den)
    if expected is None:
        with pytest.raises(PrecisionInsufficient):
            _nearest_integer(x, x + width, den, bits)
    else:
        assert _nearest_integer(x, x + width, den, bits) == expected


def test_cleared_combinations_in_full_only_under_exact(gp11):
    # the audit abbreviates W_i unless asked for every digit; the report
    # abbreviates long digit strings again, with a sign-counting rule that parts
    # from int_str's only at a negative W of 40 digits, and prints the same
    for w in (0, -7, 10**39, -(10**39), 10**40 - 1, -(10**40 - 1), 10**40, -(10**40), -(3**300)):
        assert abbrev(int_str(w, False), False) == abbrev(full_digits(w), False)
    mode = ThetaMode.sharp()
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    inst = make_restricted_instance(gp11, a=1, b=b, B=1, t=F(0), mode=mode, vartheta=F(2))
    full, short = (
        next(c for c in audit_restricted(inst, exact)["checks"] if c.name == "cleared_combination_nonzero")
        for exact in (True, False)
    )
    assert full.lhs.lstrip("-").isdigit() and full.rhs.lstrip("-").isdigit()
    assert (short.lhs, short.rhs) == (abbrev(full.lhs, False), abbrev(full.rhs, False))
    assert short.lhs != full.lhs


# ---------------------------------------------------------------------------
# The audit on unreduced integer pairs against its former Interval/Fraction body
# ---------------------------------------------------------------------------

TRUNCATION_CAP = 200_000


def reference_floor_log2_ratio(q: int, p: int) -> int:
    """floor(log2(q/p)) for integers q > p >= 1, without big powers."""
    e = q.bit_length() - p.bit_length()
    if (p << e) > q:
        e -= 1
    return e


def reference_phi_enclosure_for_target(gp: GParams, z: Fraction, target: Fraction) -> tuple[Interval, int]:
    """Enclosure of phi(z) with width <= target.

    The truncation order is read off bit lengths: with |z| <= 2^-L and
    2^-G <= target*(1-|z|), any T >= G/L gives tail |z|^(T+1)/(1-|z|) below
    the target.  Points with |z| > 1/2 fall back to exact stepping.
    """
    az = abs(z)
    goal = target * (1 - az)
    L = reference_floor_log2_ratio(az.denominator, az.numerator)
    if L >= 1:
        G = max(1, goal.denominator.bit_length() - goal.numerator.bit_length() + 1)
        T = -(-G // L)
        if T > TRUNCATION_CAP:
            raise PrecisionInsufficient("tail target unreachably small")
        return eval_phi_real(gp, z, T), T
    tail = az / (1 - az)
    T = 0
    while tail > target:
        T += 1
        tail *= az
        if T > TRUNCATION_CAP:
            raise PrecisionInsufficient("tail target unreachably small")
    return eval_phi_real(gp, z, T), T


def reference_audit_restricted(inst):
    """The former audit body on Interval/Fraction products, and the nearest
    integer to B b^M phi it found."""
    gp = inst.gp
    rc = inst.constants
    prec = rc.precision
    a, b, B, M = inst.a, inst.b, inst.B, inst.M
    beta = Fraction(a, b)
    if not 0 < abs(beta) < 1:
        raise DomainViolation("evaluation point must satisfy 0 < |a/b| < 1")
    th = rc.mode.theta
    checks: list[Check] = []

    # hypotheses (certified): b-size, B-size, and M >= M0
    hyp_b = Fraction(b) >= (rc.a1 * abs(a)).pow_int(6).hi
    hyp_B = B ** inst.t.denominator <= b**inst.t.numerator
    if not (hyp_b and hyp_B):
        raise HypothesisFailure("size hypotheses on (b, B) fail")
    if Fraction(M) < inst.m0.hi:
        raise HypothesisFailure(f"M = {M} is below the certified threshold {fmt_real(inst.m0.hi, 6)}")
    checks.append(entry("b_at_least_sixth_power", True, True, b, rational((rc.a1 * abs(a)).pow_int(6).hi)))
    checks.append(entry("M_at_least_threshold", True, True, M, fmt_real(inst.m0.hi, 6)))

    n1, n0 = inst.n1, inst.n0
    Nt = n0 + n1
    checks.append(entry("x_at_least_3", True, inst.x.lo >= 3, fmt_real(inst.x.lo, 10), "3"))
    checks.append(entry("exponent_gap", True, n0 - n1 + 1 >= M, n0 - n1 + 1, M))

    # the block-size constraints behind the choice of h
    log_b = log_interval(Fraction(b), prec)
    log_a2a = log_iv(rc.a2 * abs(a), prec)
    h_req = 12 * log_a2a / log_b
    checks.append(entry("h_vs_12log", True, Fraction(inst.h) >= h_req.hi, inst.h, fmt_real(h_req.hi, 6)))
    checks.append(
        entry("h_vs_4t", True, inst.h * inst.t.denominator >= 4 * inst.t.numerator, inst.h, rational(4 * inst.t))
    )
    m_over = Fraction(M) / (inst.x.lo - 1)
    checks.append(entry("h_vs_M_over_xm1", True, Fraction(inst.h) >= m_over, inst.h, fmt_real(m_over, 6)))
    h_min = max(rc.mode.c_theta, rc.c_vartheta, 4)
    checks.append(entry("h_vs_thresholds", True, inst.h >= h_min, inst.h, h_min))

    # family and specialized clearing integers
    shape = ApproxShape(n=(n1,), n0=n0)
    family = build_family(gp, shape)
    d1 = restricted_d1(gp, n1, n0)
    d2 = restricted_d2(gp, n0)
    # Q_i has degree n1 and P_i1 degree N_i1 <= n0 + 1: Q_i(a/b) = hq / (lq b^n1)
    # and P_i1(a/b) = hp / (lp b^N_i1), and the scaled values D1 b^n1 Q_i(beta)
    # and D1 D2 b^(n0+1) P_i1(beta) must be integers
    q_at, p_at, ui, vi = [], [], [], []
    for i in (0, 1):
        hq, lq = cleared_eval(family.q[i], a, b)
        hp, lp = cleared_eval(family.p_coeffs(i, 1), a, b)
        deg_p = shape.Nij(i, 1)
        q_at.append(Fraction(hq, lq * b**n1))
        p_at.append(Fraction(hp, lp * b**deg_p))
        u = d1.value * hq
        v = d1.value * d2.value * b ** (n0 + 1 - deg_p) * hp
        ok_u = u % lq == 0
        ok_v = v % lp == 0
        uval = u // lq if ok_u else Fraction(u, lq)
        vval = v // lp if ok_v else Fraction(v, lp)
        checks.append(entry(f"integrality_scaled_q_{i}", True, ok_u, rational(uval) if not ok_u else "", ""))
        checks.append(entry(f"integrality_scaled_p_{i}", True, ok_v, rational(vval) if not ok_v else "", ""))
        ui.append(uval)
        vi.append(vval)

    # coefficient envelope and the |z| < 1 evaluation bounds
    e1 = (
        n1
        * exp_iv(th * (2 * gp.r0 + gp.u[0]), prec)
        * (Interval.point(Fraction(gp.d_lcm, gp.s0)) * epsilon_interval(gp.s_lcm, prec)).pow_int(n1)
        * exp_iv(th * (2 * gp.s0 * n1 + gp.v[0] * Nt), prec)
    )
    gate_n1 = n1 >= rc.mode.c_theta
    amax = max(abs(cf) for i in (0, 1) for cf in grid_values(family.q[i]))
    checks.append(entry("coeff_envelope", gate_n1, amax <= e1.hi, rational(amax), fmt_real(e1.hi, 6)))
    qbound = (e1 / (1 - abs(beta))).hi
    qmax = max(abs(q) for q in q_at)
    checks.append(entry("denom_poly_envelope", gate_n1, qmax <= qbound, rational(qmax), fmt_real(qbound, 6)))

    # (working precision for the series value) target: a tenth of the final RHS
    rhs_iv = (Fraction(B) * Fraction(b) ** M * (rc.a1.pow_int(18) * abs(a) ** 17).pow_int(M)).inv()
    enc, terms_used = reference_phi_enclosure_for_target(gp, beta, rhs_iv.lo / 10)
    width = enc.hi - enc.lo
    checks.append(entry("enclosure_width", True, width <= rhs_iv.lo / 10, fmt_real(width, 40), fmt_real(rhs_iv.lo / 10, 40)))

    # remainder envelope at the evaluation point
    rbound = ((n1 + 1) * e1 * Interval.point(abs(beta)).pow_int(Nt + 1) / (1 - abs(beta))).hi
    rem_vals = []
    for i in (0, 1):
        rem = enc * q_at[i] - p_at[i]
        rem_vals.append(max(abs(rem.lo), abs(rem.hi)))
        checks.append(entry(f"remainder_envelope_{i}", gate_n1, rem_vals[i] <= rbound, fmt_real(rem_vals[i], 30), fmt_real(rbound, 30)))

    # the scaled product inequality driving the lower bound
    lhs25 = (
        rc.a2
        * abs(a)
        * (Interval.point(rc.vartheta * gp.d_lcm * gp.s0) * epsilon_interval(gp.s0, prec) * epsilon_interval(gp.v_lcm, prec)).pow_int(n1)
        * Fraction(gp.dtilde) ** n0
        * epsilon_interval(gp.s_lcm, prec).pow_int(Nt)
        * exp_iv(th * (2 * gp.s0 * n1 + (gp.s_lcm + gp.v_lcm) * n0 + gp.v_lcm * Nt), prec)
        * Fraction(abs(a)) ** Nt
        * B
        / Fraction(b) ** n1
    )
    checks.append(entry("scaled_product_le_1", True, lhs25.hi <= 1, fmt_real(lhs25.hi, 12), "1"))

    # smallness of B*|R_i| against 1/(2 D1 D2 b^(n0+1))
    half_clear = Fraction(1, 2 * d1.value * d2.value * b ** (n0 + 1))
    for i in (0, 1):
        checks.append(
            entry(f"remainder_small_{i}", True, B * rem_vals[i] <= half_clear, fmt_real(B * rem_vals[i], 40), fmt_real(half_clear, 40))
        )

    # candidate numerator: nearest integer to B*b^M*phi unless overridden
    scale = B * b**M
    lo_s, hi_s = enc.lo * scale, enc.hi * scale
    n_lo = (2 * lo_s.numerator + lo_s.denominator) // (2 * lo_s.denominator)
    n_hi = (2 * hi_s.numerator + hi_s.denominator) // (2 * hi_s.denominator)
    if n_lo != n_hi:
        raise PrecisionInsufficient("nearest integer undecided; raise the truncation")
    nearest = n_lo
    n_used = inst.candidate_n if inst.candidate_n is not None else nearest

    # the cleared combination W_i: nonzero for some row, divisible by b^M
    witness = None
    w_vals = []
    for i in (0, 1):
        w = n_used * d2.value * b ** (n0 - n1 + 1) * int(ui[i]) - B * b**M * int(vi[i])
        w_vals.append(w)
        if w != 0 and witness is None:
            witness = i
    checks.append(entry("cleared_combination_nonzero", True, witness is not None, full_digits(w_vals[0]), full_digits(w_vals[1])))
    if witness is not None and n0 - n1 + 1 >= M:
        checks.append(
            entry("cleared_combination_divisible", True, w_vals[witness] % b**M == 0, f"i={witness}", f"b^{M}")
        )

    # scaled distance bound at the witness row:
    # |Q_i(beta)| * |n - B b^M phi| >= b^M / (2 D1 D2 b^(n0+1))
    if witness is not None:
        qv = abs(q_at[witness])
        dist_abs_lo = max(Fraction(0), n_used - hi_s, lo_s - n_used)
        lhs_lower = qv * dist_abs_lo
        rhs24 = Fraction(b**M, 2 * d1.value * d2.value * b ** (n0 + 1))
        checks.append(entry("scaled_distance_bound", True, lhs_lower >= rhs24, fmt_real(lhs_lower, 30), fmt_real(rhs24, 30)))

    # the final lower bound, decided against the enclosure
    target = Fraction(n_used, scale)
    dist_lo = max(Fraction(0), enc.lo - target, target - enc.hi)
    final_ok = dist_lo >= rhs_iv.hi
    checks.append(
        entry(
            "final_lower_bound",
            True,
            final_ok,
            fmt_real(dist_lo, 40),
            fmt_real(rhs_iv.hi, 40),
        )
    )

    failed = [c.name for c in checks if c.failed]
    verdict = "all checks passed" if not failed else f"FAILED: {', '.join(failed)}"
    return {
        "constants": {
            "a1": tagged_bound(rc.a1.hi, 12, "upper", prec),
            "a1_variant": rc.a1_variant,
            "a2": tagged_bound(rc.a2.hi, 12, "upper", prec),
            "x": tagged_bound(inst.x.lo, 10, "lower", prec),
            "h": inst.h,
            "n0": n0,
            "n1": n1,
            "M": M,
            "M0": tagged_bound(inst.m0.hi, 10, "upper", prec),
            "D1": full_digits(d1.value),
            "D2": full_digits(d2.value),
            "E1": tagged_bound(e1.hi, 8, "upper", prec),
            "candidate_n_digits": digits10(n_used),
            "nearest_n_used": inst.candidate_n is None,
            "series_terms": terms_used,
        },
        "checks": checks,
        "final_verdict": verdict,
    }, nearest


AUDIT_PARAMS = {"unit": (F(1), F(1)), "int2": (F(2), F(1)), "half": (F(1), F(1, 2))}
# theta = 1/10 is below every certified mode: the coefficient envelope and the
# remainder checks then fail for some instances
AUDIT_MODES = {"sharp": ThetaMode.sharp(), "thin": ThetaMode.custom(F(1, 10), 2)}


@functools.lru_cache(maxsize=None)
def smallest_b(key: str, a: int, mode: str) -> int:
    return smallest_admissible_b(derive_params(list(AUDIT_PARAMS[key])), a, AUDIT_MODES[mode], F(2))


def outcome(audit, inst):
    try:
        return audit(inst)
    except CertificationError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(sorted(AUDIT_PARAMS)),
    mode=st.sampled_from(sorted(AUDIT_MODES)),
    a=st.sampled_from([1, -1, 3, -3]),
    offset=st.integers(0, 40),
    Bt=st.sampled_from([(1, F(0)), (7, F(1, 2))]),
    extra_M=st.integers(0, 15),
    shift=st.one_of(st.none(), st.integers(-3, 3)),
    a1_one=st.booleans(),
)
def test_audit_matches_fraction_reference(key, mode, a, offset, Bt, extra_M, shift, a1_one):
    gp = derive_params(list(AUDIT_PARAMS[key]))
    b = smallest_b(key, a, mode) + offset
    b += math.gcd(a, b) != 1  # keeps a/b reduced: b + 1 is prime to 3 when b is not
    B, t = Bt
    assume(B**t.denominator <= b**t.numerator)  # B <= b^t fails for the small bases of theta = 1/10
    inst = make_restricted_instance(gp, a=a, b=b, B=B, t=t, mode=AUDIT_MODES[mode], vartheta=F(2))
    inst = make_restricted_instance(
        gp, a=a, b=b, B=B, t=t, mode=AUDIT_MODES[mode], vartheta=F(2), M=inst.M + extra_M
    )
    if a1_one:
        # a1 = 1 shrinks the envelope 1/(B b^M (a1^18 |a|^17)^M) below the
        # true distance, so the final bound and the remainder checks can fail
        inst = inst._replace(constants=inst.constants._replace(a1=Interval.point(F(1))))
    if shift is not None:
        # every integer n obeys the bound; a shifted candidate changes the
        # distances and the cleared combinations
        _, nearest = reference_audit_restricted(inst)
        inst = inst._replace(candidate_n=nearest + shift)
    expected = outcome(lambda i: reference_audit_restricted(i)[0], inst)
    # the reference renders the cleared combinations in full, as --exact does;
    # without it the audit abbreviates them as the printed report would
    assert outcome(lambda i: audit_restricted(i, exact=True), inst) == expected
    if isinstance(expected, dict):
        assert emit_report(audit_restricted(inst), "json") == emit_report(expected, "json")
