import math
from fractions import Fraction as F

import pytest

import gpade.realapprox
from gpade.arith import FactoredInteger, Interval, log_interval
from gpade.denom import ThetaMode
from gpade.errors import DomainViolation, HypothesisFailure
from gpade.pade import ApproxShape, build_family
from gpade.params import derive_params
from gpade.realapprox import (
    audit_restricted,
    c_of_vartheta,
    epsilon_corollary,
    eval_phi_real,
    make_restricted_instance,
    restricted_constants,
    restricted_d1,
    restricted_d2,
    restricted_threshold,
    smallest_admissible_b,
)


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
    assert enc.width <= F(1, 2**50)


def test_enclosure_at_zero(gp11):
    assert eval_phi_real(gp11, F(0), 7) == Interval.point(F(1))


def test_enclosure_width_formula():
    gp = derive_params([F(1), F(1, 2)])
    enc = eval_phi_real(gp, F(1, 4), 40)
    assert enc.width == F(1, 4) ** 41 * F(4, 3)


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


def test_enclosure_target_guard(gp11):
    from gpade.errors import PrecisionInsufficient
    from gpade.realapprox import _phi_enclosure_for_target

    with pytest.raises(PrecisionInsufficient):
        _phi_enclosure_for_target(gp11, F(1, 2), F(1, 2 ** (3 * 10**6)))


def test_vartheta_threshold():
    assert c_of_vartheta(F(2)) == 6
    # by definition of the threshold, the inequality holds onward and the
    # preceding index fails it
    for n in range(6, 40):
        assert (n + 1) ** 2 <= 2**n
    assert 6**2 > 2**5
    assert c_of_vartheta(F(3)) <= 6
    with pytest.raises(ValueError):
        c_of_vartheta(F(1))


def test_constants_harmonic_case(gp11):
    mode = ThetaMode.sharp()
    rc = restricted_constants(gp11, mode, F(2))
    assert rc.a1_variant == "leading_parameter_one"
    assert math.isclose(float(rc.a1.lo), 2**0.25 * math.exp(3 * 1.26), rel_tol=1e-12)
    assert math.isclose(float(rc.a2.lo), 4 * math.exp(8 * 1.26), rel_tol=1e-12)
    assert rc.c_theta == 2 and rc.c_vartheta == 6
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
    assert rc2.a1.lo == rc2.a1_general.lo
    with pytest.raises(ValueError):
        restricted_constants(derive_params([F(1), F(1, 2), F(1, 3)]), mode, F(2))


def test_paper_mode_threshold_value():
    assert ThetaMode.paper().c_theta == 2


def test_threshold_and_instance(gp11):
    mode = ThetaMode.sharp()
    rc = restricted_constants(gp11, mode, F(2))
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    assert 2 * 10**10 < b < 2.1 * 10**10
    m0, detail = restricted_threshold(gp11, rc, 1, b, 1, F(0))
    assert 21 <= float(m0.hi) < 21.001
    # the binding entry is the start-size one: (1 + max{c, c', 4})/2 = 3.5
    entries = [float(e.hi) for e in detail["entries"]]
    assert max(entries) == pytest.approx(3.5)
    assert entries[0] == pytest.approx(3.4, abs=0.1)


def test_threshold_hypothesis_failures(gp11):
    mode = ThetaMode.sharp()
    rc = restricted_constants(gp11, mode, F(2))
    with pytest.raises(HypothesisFailure):
        restricted_threshold(gp11, rc, 1, 100, 1, F(0))
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    with pytest.raises(HypothesisFailure):
        restricted_threshold(gp11, rc, 1, b, b + 1, F(1))  # B > b^t
    with pytest.raises(HypothesisFailure):
        restricted_threshold(gp11, rc, 0, b, 1, F(0))


def test_large_t_dominates(gp11):
    mode = ThetaMode.sharp()
    rc = restricted_constants(gp11, mode, F(2))
    b = smallest_admissible_b(gp11, 1, mode, F(2))
    m0_small, _ = restricted_threshold(gp11, rc, 1, b, 1, F(0))
    m0_large, detail = restricted_threshold(gp11, rc, 1, b, 1, F(40))
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


def test_epsilon_corollary(gp11):
    mode = ThetaMode.sharp()
    rc = restricted_constants(gp11, mode, F(2))
    # at the minimal admissible b the power hypothesis cannot hold for any
    # exponent below one (b is roughly the 6th power, 18 > 6)
    b_min = smallest_admissible_b(gp11, 1, mode, F(2))
    weak = epsilon_corollary(rc, 1, b_min, 1, 22, F(9, 10))
    assert weak["power_hypothesis"] is False and weak["bound_transfers"] is None
    # a much larger b turns the bound into a genuine power saving
    big_b = 10**40
    strong = epsilon_corollary(rc, 1, big_b, 1, 30, F(9, 10))
    assert strong["power_hypothesis"] is True
    assert strong["bound_transfers"] is True
    with pytest.raises(ValueError):
        epsilon_corollary(rc, 1, big_b, 1, 30, F(3, 2))


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
        for c in reversed(fam.q[i]):
            value = value * F(1, b) + c
        scaled = value * b**inst.n1
        assert scaled.denominator != 1
        assert checks[f"integrality_scaled_q_{i}"].failed
        assert checks[f"integrality_scaled_q_{i}"].lhs == f"{scaled.numerator}/{scaled.denominator}"
