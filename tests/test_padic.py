import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade.denom import ThetaMode
from gpade.errors import DomainViolation, IntegerDifference
from gpade.padic import (
    _tail_floor,
    _truncation_order,
    LinearFormInstance,
    audit_linear_form,
    eval_all_phi,
    eval_phi_padic,
    global_relation_constant,
    linear_form_valuation,
    probe_global_relation,
    select_block_degrees,
)
from gpade.params import derive_params

from conftest import ALPHA_POOL


@pytest.fixture(scope="module")
def gp11():
    return derive_params([F(1), F(1)])


@pytest.fixture(scope="module")
def gph():
    return derive_params([F(1), F(1, 2)])


def test_enclosure_unit_value(gp11):
    enc = eval_phi_padic(gp11, 1, F(3), 3, 8)
    assert enc.valuation_offset == 0
    assert enc.k >= 8
    assert enc.unit_residue % 3 == 1


def test_enclosure_vanishing_value(gp11):
    # the 2-adic value at 2 is genuinely zero; every precision stays silent
    for k in (8, 32, 64):
        enc = eval_phi_padic(gp11, 1, F(2), 2, k)
        assert enc.below_precision
        assert enc.valuation_offset >= k


def test_enclosure_at_zero(gp11):
    enc = eval_phi_padic(gp11, 1, F(0), 5, 10)
    assert enc.valuation_offset == 0 and enc.unit_residue == 1 and enc.k == 10


def test_enclosure_monotone(gp11, gph):
    cases = [(gp11, F(3), 3), (gp11, F(9, 2), 3), (gph, F(8, 3), 2), (gph, F(16, 5), 2)]
    for gp, beta, p in cases:
        small = eval_phi_padic(gp, 1, beta, p, 6)
        big = eval_phi_padic(gp, 1, beta, p, 24)
        if small.below_precision:
            assert big.below_precision or big.valuation_offset >= small.valuation_offset
        else:
            assert big.valuation_offset == small.valuation_offset
            assert big.unit_residue % p**small.k == small.unit_residue


def test_enclosure_domain_violation(gph):
    with pytest.raises(DomainViolation):
        eval_phi_padic(gph, 1, F(2, 3), 2, 8)


def test_linear_form_examples(gp11):
    enc3 = eval_phi_padic(gp11, 1, F(3), 3, 16)
    lf = linear_form_valuation((enc3,), (0, 1))
    assert lf.exact and lf.valuation == 0
    enc2 = eval_phi_padic(gp11, 1, F(2), 2, 32)
    lf2 = linear_form_valuation((enc2,), (0, 1))
    assert not lf2.exact and lf2.precision_exponent >= 32
    lf3 = linear_form_valuation((enc3,), (1, 0))
    assert lf3.exact and lf3.valuation == 0
    with pytest.raises(ValueError):
        linear_form_valuation((enc3,), (0, 0))


def test_block_degree_selection():
    inst = LinearFormInstance(ell=(5, 4), tau=F(1, 2), delta=F(1, 20))
    assert inst.h == (5, 4) and inst.htilde == 20
    sel = select_block_degrees(inst, 8)
    assert (sel.shape.n0, sel.shape.n) == (1, (1,))
    assert not any(sel.clamped)
    assert sel.checks["ntilde_within_budget"] and sel.checks["n0_within_budget"]


def test_block_degree_clamping():
    inst = LinearFormInstance(ell=(1, 1), tau=F(1, 2), delta=F(0))
    sel = select_block_degrees(inst, 8)
    assert all(sel.clamped) and sel.shape.n0 == 1 and sel.shape.n == (1,)
    # enormous point: every degree clamps
    inst2 = LinearFormInstance(ell=(9, 7, 3), tau=F(1, 3), delta=F(0))
    sel2 = select_block_degrees(inst2, 10**9)
    assert all(sel2.clamped)
    with pytest.raises(DomainViolation):
        select_block_degrees(inst, 1)


def test_ratio_hypothesis_example():
    # tau = 1/2, delta = 1/20, m = 1: 0.5 > 4 * 0.05 * 2 = 0.4
    inst = LinearFormInstance(ell=(1, 1), tau=F(1, 2), delta=F(1, 20))
    assert inst.tau > 4 * inst.delta * (1 + 2 * inst.tau)


def test_audit_hand_instance(gph):
    inst = LinearFormInstance(ell=(1, 1), tau=F(1, 2), delta=F(1, 20))
    rep = audit_linear_form(gph, F(8, 3), 2, inst, ThetaMode.paper())
    assert rep["hypotheses"]["ratio_condition"] is True
    assert rep["hypotheses"]["all_met"] is False  # the point is far too small
    assert rep["height_threshold"]["htilde_reaches_threshold"] is False
    assert rep["shape"]["clamped"] == [True, True]
    assert rep["witness_index"] == 0
    assert rep["witness"]["lambda"] == "58800"
    assert rep["witness"]["lambda_valuation"] == 4
    assert rep["dominance_holds"] is True
    assert rep["final_bound"]["applicable"] is False
    assert rep["specialization"]["epsilon"] == "1"
    json.dumps(rep)


def test_audit_deterministic(gph):
    inst = LinearFormInstance(ell=(5, -4), tau=F(1, 2), delta=F(1, 20))
    r1 = audit_linear_form(gph, F(8, 3), 2, inst, ThetaMode.paper())
    r2 = audit_linear_form(gph, F(8, 3), 2, inst, ThetaMode.paper())
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_audit_witness_valuations(gph):
    # exact cleared combinations for the three probe forms at beta = 8/3
    expected = {(1, 1): ("58800", 4), (5, -4): ("785400", 3), (7, 3): ("630000", 4)}
    for ell, (lam, v) in expected.items():
        inst = LinearFormInstance(ell=ell, tau=F(1, 2), delta=F(1, 20))
        rep = audit_linear_form(gph, F(8, 3), 2, inst, ThetaMode.paper())
        assert rep["witness"]["lambda"] == lam
        assert rep["witness"]["lambda_valuation"] == v
        assert rep["dominance_holds"] is True
        assert rep["chain_consistency"] in (True, None)


def test_threshold_at_power_point(gph):
    # at a = 2^190 the height threshold is dominated by the |a|-dependent
    # term of Ntilde_1: log H0 ~ (Ntilde_1 + 2) * 190*log2 / 2 with
    # Ntilde_1 ~ log 2 + 4*190*log 2 (the point divides the prime)
    import math

    inst = LinearFormInstance(ell=(1, 1), tau=F(1, 2), delta=F(1, 20))
    rep = audit_linear_form(gph, F(2) ** 190, 2, inst, ThetaMode.paper())
    la = 190 * math.log(2)
    nt1 = math.log(2) + 4 * la
    expect = max((nt1 + 2) * la / 2, 16 * la)
    lo, hi = rep["height_threshold"]["log_h0_upper"].strip("[]").split(", ")
    assert math.isclose(float(hi), expect, rel_tol=1e-9)
    # hypotheses hold except the archimedean size, which needs |a| ~ e^400
    assert rep["hypotheses"]["point_padic_small"] is True
    assert rep["hypotheses"]["point_archimedean_large"] is False
    assert rep["height_threshold"]["htilde_reaches_threshold"] is False
    assert rep["dominance_holds"] is True


def test_global_relation_constant(gph):
    gr = global_relation_constant(gph, ThetaMode.paper())
    # the explicit threshold: 2 + 2*(9 + log 8)
    assert abs(float(gr["log_C"]) - 24.158883083359672) < 1e-12
    assert gr["crosscheck_abs_diff_upper"] < F(1, 2**100)


def test_global_probe_vanishing(gp11):
    pr = probe_global_relation(gp11, 2, (0, 1), k=64)
    assert pr["certified_nonzero_at"] == []
    assert pr["per_prime"][0]["status"] == "below_precision"
    assert pr["per_prime"][0]["exponent"] >= 64
    assert "inconclusive" in pr["verdict"]


def test_global_probe_nonzero(gp11):
    pr = probe_global_relation(gp11, 3, (0, 1), k=16)
    assert pr["certified_nonzero_at"] == [3]
    assert pr["per_prime"][0]["valuation"] == 0
    assert "no global relation" in pr["verdict"]


def test_global_probe_validation(gp11, gph):
    with pytest.raises(ValueError):
        probe_global_relation(gp11, 1, (0, 1))
    with pytest.raises(DomainViolation):
        probe_global_relation(gph, 2, (0, 1))  # gcd(a, s) must be 1


def test_composite_point_probe(gp11):
    # a = 6 probes both p = 2 and p = 3 and certifies at 3
    pr = probe_global_relation(gp11, 6, (0, 1), k=24)
    assert [r["p"] for r in pr["per_prime"]] == [2, 3]
    assert 3 in pr["certified_nonzero_at"]


def test_multi_series_enclosures():
    gp = derive_params([F(1), F(1, 2), F(1, 3)])
    encs = eval_all_phi(gp, F(8, 5), 2, 12)
    assert len(encs) == 2
    for enc in encs:
        assert enc.below_precision or enc.k >= 12
    lf = linear_form_valuation(encs, (1, 2, -3))
    assert lf.exact or lf.precision_exponent is not None


def test_enclosure_boundary_growth_rate():
    # alpha = (1/3, 2/3) at p = 3: the clearing factor carries one power of 3
    # and term valuations grow at exactly the borderline rate 1/2
    from gpade.arith import p_valuation
    from reference_series import reference_phi_coeffs

    gp = derive_params([F(1, 3), F(2, 3)])
    assert gp.dtilde == 3
    beta = F(9)
    enc = eval_phi_padic(gp, 1, beta, 3, 24)
    assert enc.k >= 1 and enc.unit_residue % 3 != 0
    # a much deeper partial sum is an independent oracle for the residue
    deep = sum(cf * beta**n for n, cf in enumerate(reference_phi_coeffs(gp, 1, 400)))
    assert p_valuation(deep, 3) == enc.valuation_offset
    num, den = deep.numerator, deep.denominator
    num //= 3**enc.valuation_offset
    mod = 3**enc.k
    assert num * pow(den, -1, mod) % mod == enc.unit_residue


def test_audit_two_series():
    gp = derive_params([F(1), F(1, 2), F(1, 3)])
    for ell in [(1, 1, 1), (3, -2, 5), (0, 1, -1)]:
        inst = LinearFormInstance(ell=ell, tau=F(1, 2), delta=F(1, 24))
        rep = audit_linear_form(gp, F(16, 5), 2, inst, ThetaMode.paper())
        assert rep["dominance_holds"] is True
        assert rep["chain_consistency"] is True
        assert rep["witness"]["lambda"] != "0"


def test_audit_three_series():
    gp = derive_params([F(1, 2), F(1, 3), F(3, 4), F(1, 5)])
    inst = LinearFormInstance(ell=(2, -1, 1, 3), tau=F(1, 3), delta=F(1, 50))
    rep = audit_linear_form(gp, F(49, 3), 7, inst, ThetaMode.sharp())
    assert rep["dominance_holds"] is True
    assert rep["chain_consistency"] is True
    assert rep["valuations"]["lambda"] == rep["witness"]["lambda_valuation"]


def test_audit_builds_no_numerator(monkeypatch, gph):
    # the audit reads the rows at beta from the Q_i grids and one split of
    # each phi_j: no family and no product-series coefficient, also while
    # it deepens its truncation (form (5, 3) on half.params deepens once)
    def refuse(*args, **kwargs):
        raise AssertionError("the p-adic audit formed product-series coefficients")

    for module in [m for name, m in sys.modules.items() if name.startswith("gpade.")]:
        for name in ("build_family", "series_product_coeffs"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    inst = LinearFormInstance(ell=(5, 3), tau=F(1, 2), delta=F(1, 20))
    rep = audit_linear_form(gph, F(8, 3), 2, inst, ThetaMode.paper())
    assert rep["dominance_holds"] is True
    trio = derive_params([F(1), F(1, 2), F(1, 3)])
    inst = LinearFormInstance(ell=(3, -2, 5), tau=F(1, 2), delta=F(1, 24))
    assert audit_linear_form(trio, F(16, 5), 2, inst, ThetaMode.paper())["dominance_holds"] is True


def reference_truncation_order(gp, p, q, target):
    """The former scan: T from 3 up, one `_tail_floor` per step."""
    T = 3
    while _tail_floor(gp, p, q, T + 1) < target:
        T += 1
    return T


@settings(max_examples=300, deadline=None)
@given(
    alphas=st.lists(st.sampled_from(ALPHA_POOL), min_size=2, max_size=4, unique=True),
    p=st.sampled_from([2, 3, 5, 7, 11, 101]),
    q=st.fractions(min_value=F(1, 2), max_value=6, max_denominator=12),
    target=st.integers(-5, 600),
)
@example(alphas=[F(1), F(1, 2)], p=2, q=F(1, 2), target=600)  # the slowest rate: the runs of k matter most
def test_truncation_order_matches_the_scan(alphas, p, q, target):
    # the run-by-run search returns the scan's T wherever floor_log(p, U + V n) steps
    try:
        gp = derive_params(alphas)
    except IntegerDifference:
        return
    assert _truncation_order(gp, p, q, target) == reference_truncation_order(gp, p, q, target)


def reference_block_degrees(inst, a):
    """The former degree search: t counted up one power at a time."""
    A, tn, td = abs(a), inst.tau.numerator, inst.tau.denominator
    out = []
    for hj in inst.h:
        rhs = hj**td * inst.htilde**tn
        t = 0
        while A ** ((t + 1) * td) <= rhs:
            t += 1
        out.append(max(1, t))
    return out


@settings(max_examples=100, deadline=None)
@given(
    ell=st.lists(st.integers(-(10**40), 10**40), min_size=2, max_size=4).filter(any),
    a=st.integers(2, 10**6),
    tau=st.fractions(min_value=F(1, 7), max_value=3, max_denominator=7),
)
@example(ell=[8, 8**5], a=8, tau=F(1))  # h_j Htilde^tau an exact power of a
def test_block_degrees_match_the_step_search(ell, a, tau):
    inst = LinearFormInstance(ell=tuple(ell), tau=tau, delta=F(0))
    sel = select_block_degrees(inst, a)
    assert [sel.shape.n0, *sel.shape.n] == reference_block_degrees(inst, a)
