"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The random sweeps share one seeded 200-config pool (session fixtures).
"""

import json
import random
import time
from fractions import Fraction as F

from gpade.arith import log_interval
from gpade.denom import (
    ThetaMode,
    check_remainder_padic,
    check_size_bounds,
    make_cert,
    verify_integrality,
)
from gpade.pade import ApproxShape, build_family, build_q, family_det, oracle_solve, phi_coeffs, verify_order
from gpade.padic import (
    LinearFormInstance,
    audit_linear_form,
    global_relation_constant,
    probe_global_relation,
)
from gpade.params import derive_params
from gpade.realapprox import (
    audit_restricted,
    eval_phi_real,
    make_restricted_instance,
    smallest_admissible_b,
)

from conftest import pick_alphas
from reference_solve import reference_oracle_solve


def _line(num, label, ok, t0):
    dt = time.time() - t0
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({dt:.1f}s)")
    return ok, dt


def verify_phis(gp, sh):
    """phi_j's grids through order Ntilde + 1, one per series, as `verify`
    forms them."""
    return tuple(phi_coeffs(gp, j, sh.Ntilde + 1) for j in range(1, gp.m + 1))


def test_criterion_01_order_of_vanishing(acc_families):
    t0 = time.time()
    ok = all(
        not any(w.nums) for gp, sh, fam in acc_families for w in verify_order(sh, fam.q, verify_phis(gp, sh)).values()
    )
    ok, dt = _line(1, "order of vanishing on 200 random configs", ok, t0)
    assert ok and dt < 60


def test_criterion_02_oracle_equivalence(acc_families):
    t0 = time.time()
    ok = True
    for gp, sh, fam in acc_families:
        # the reference solves the order conditions exactly; the certificate
        # must accept every closed-form row
        ok = ok and reference_oracle_solve(gp, sh) == fam.q
        phis = verify_phis(gp, sh)
        ok = ok and oracle_solve(sh, fam.q, phis, verify_order(sh, fam.q, phis)) == (True,) * (gp.m + 1)
    ok, dt = _line(2, "closed form equals exact solve on 200 configs", ok, t0)
    assert ok and dt < 60


def test_criterion_03_determinant_monomial(acc_families):
    t0 = time.time()
    ok = True
    for gp, sh, fam in acc_families:
        phis = verify_phis(gp, sh)
        exponent, omega = family_det(sh, fam.q, phis, verify_order(sh, fam.q, phis))
        ok = ok and exponent == sh.N + sum(sh.Nj) + gp.m and omega != 0
    gp, sh = derive_params([F(1), F(1, 2)]), ApproxShape(n=(1,), n0=1)
    qs = build_q(gp, sh, (0, 1))
    phis = verify_phis(gp, sh)
    ok = ok and family_det(sh, qs, phis, verify_order(sh, qs, phis)) == (3, F(4, 75))
    ok, dt = _line(3, "determinant is the predicted monomial", ok, t0)
    assert ok and dt < 30


def test_criterion_04_integrality(acc_families, acc_certs):
    t0 = time.time()
    ok = all(verify_integrality(fam, cert)["passed"] for (_, _, fam), cert in zip(acc_families, acc_certs))
    gp = derive_params([F(1), F(1, 2)])
    sh = ApproxShape(n=(1,), n0=1)
    cert = make_cert(gp, sh, ThetaMode.paper())
    ok = ok and (cert.d1.value, cert.d2.value, cert.d.value) == (15, 840, 12600)
    ok, dt = _line(4, "cleared coefficients are integers; D1/D2/D exact", ok, t0)
    assert ok and dt < 60


def test_criterion_05_size_bounds(acc_families, acc_certs):
    t0 = time.time()
    ok = True
    checked = 0
    for (gp, sh, fam), cert in zip(acc_families, acc_certs):
        if min(sh.n0, sh.N) < 2:
            continue
        checked += 1
        for e in check_size_bounds(fam, cert, zs=(F(2), F(8, 3), F(3))):
            ok = ok and e.passed
    ok = ok and checked >= 100
    ok, dt = _line(5, f"size bounds hold on {checked} eligible configs", ok, t0)
    assert ok and dt < 60


def _admissible_points(rng, count):
    out = []
    while len(out) < count:
        m = rng.choice([1, 2])
        gp = derive_params(pick_alphas(rng, m))
        p = rng.choice([2, 3, 5])
        s = gp.s_lcm
        vs = 0
        tmp = s
        while tmp % p == 0:
            vs += 1
            tmp //= p
        d2p = 1 if (p == 2 and s % 2 == 0) else 0
        vmin = vs + d2p + 1
        mult = rng.choice([1, 3, 7, 9, 11])
        if mult % p == 0:
            mult += 2
        a = p ** (vmin + rng.randint(0, 1)) * mult * rng.choice([1, -1])
        bden = rng.choice([1, 1, 1, 3, 7])
        if bden % p == 0 or a % bden == 0:
            bden = 1
        if abs(F(a, bden)) < 2:
            continue
        n = tuple(rng.randint(1, 3) for _ in range(m))
        n0 = rng.randint(max(n), 4)
        out.append((gp, ApproxShape(n=n, n0=n0), F(a, bden), p))
    return out


def test_criterion_06_padic_remainder_bounds():
    t0 = time.time()
    mode = ThetaMode.sharp()
    ok = True
    # the worked instance
    gp = derive_params([F(1), F(1, 2)])
    sh = ApproxShape(n=(1,), n0=1)
    fam = build_family(gp, sh)
    cert = make_cert(gp, sh, mode)
    for e in check_remainder_padic(fam, cert, F(8, 3), 2):
        ok = ok and (e.passed or not e.applicable) and not (e.name.startswith("remainder_first") and not e.passed)
    # a designed instance past the clean-bound threshold
    gp1 = derive_params([F(1), F(1)])
    sh1 = ApproxShape(n=(2,), n0=6)
    fam1 = build_family(gp1, sh1)
    cert1 = make_cert(gp1, sh1, mode)
    entries = check_remainder_padic(fam1, cert1, F(4), 2)
    ok = ok and any(e.applicable and e.name.startswith("remainder_clean") for e in entries)
    ok = ok and all(e.passed for e in entries)
    # 20 random admissible points
    rng = random.Random(606)
    for gpr, shr, beta, p in _admissible_points(rng, 20):
        famr = build_family(gpr, shr)
        certr = make_cert(gpr, shr, mode)
        for e in check_remainder_padic(famr, certr, beta, p):
            violated = e.applicable and not e.passed
            first_violated = e.name.startswith("remainder_first") and not e.passed
            ok = ok and not violated and not first_violated
    ok, dt = _line(6, "p-adic remainder bounds on worked + 20 random points", ok, t0)
    assert ok and dt < 60


def test_criterion_07_global_threshold_constant():
    t0 = time.time()
    gp = derive_params([F(1), F(1, 2)])
    gr = global_relation_constant(gp, ThetaMode.paper())
    ok = abs(float(gr["log_C"]) - 24.1589) < 1e-3
    ok = ok and gr["crosscheck_abs_diff_upper"] < F(1, 2**100)
    ok, dt = _line(7, "no-global-relation threshold log C = 24.1589(3)", ok, t0)
    assert ok and dt < 1


def test_criterion_08_global_probe_exhibit():
    t0 = time.time()
    gp = derive_params([F(1), F(1)])
    pr2 = probe_global_relation(gp, 2, (0, 1), k=64)
    ok = pr2["certified_nonzero_at"] == [] and pr2["per_prime"][0]["exponent"] >= 64
    pr3 = probe_global_relation(gp, 3, (0, 1), k=64)
    ok = ok and pr3["certified_nonzero_at"] == [3] and pr3["per_prime"][0]["valuation"] == 0
    ok, dt = _line(8, "probe: silent at the vanishing point, certifies elsewhere", ok, t0)
    assert ok and dt < 10


def test_criterion_09_linear_form_chain():
    t0 = time.time()
    gp = derive_params([F(1), F(1, 2)])
    ok = True
    reports = []
    for ell in [(1, 1), (5, -4), (7, 3)]:
        inst = LinearFormInstance(ell=ell, tau=F(1, 2), delta=F(1, 20))
        rep = audit_linear_form(gp, F(8, 3), 2, inst, ThetaMode.paper())
        reports.append(rep)
        ok = ok and rep["witness"]["lambda"] != "0"
        ok = ok and rep["dominance_holds"] is True
        ok = ok and rep["hypotheses"]["all_met"] is False
        ok = ok and rep["height_threshold"]["htilde_reaches_threshold"] is False
        ok = ok and rep["final_bound"]["applicable"] is False
    ok = ok and reports[0]["shape"]["clamped"] == [True, True]
    # determinism: a repeat run serializes identically
    rep_again = audit_linear_form(
        gp, F(8, 3), 2, LinearFormInstance(ell=(1, 1), tau=F(1, 2), delta=F(1, 20)), ThetaMode.paper()
    )
    ok = ok and json.dumps(rep_again, sort_keys=True) == json.dumps(reports[0], sort_keys=True)
    ok, dt = _line(9, "linear-form chain verified at synthetic scale", ok, t0)
    assert ok and dt < 60


def test_linear_form_bound_applies_where_the_theorem_does():
    # the paper's p-adic lower bound at instances where every hypothesis
    # holds (the golden cases padic.unit.applies.json, padic.trio.applies.json,
    # padic.unit.corollary.json and padic.quad.applies.json): m = 1, 2 and 3,
    # sharp theta mode, and the m = 1 corollary at tau = 1/4
    quad = [F(3, 2), F(1, 2), F(2, 3), F(1, 4)]
    for alphas, beta, p, ell, tau, delta in [
        ([F(1), F(1)], F(2**130), 2, (10**315 + 7, -(10**315 + 3)), F(1, 2), F(1, 20)),
        ([F(1), F(1, 2), F(1, 3)], F(5**172), 5, (10**645 + 1, -(10**645 + 7), 10**645 + 3), F(1, 2), F(1, 50)),
        ([F(1), F(1)], F(2**260), 2, (10**1300 + 7, -(10**1300 + 3)), F(1, 4), F(1, 32)),
        (quad, F(5**412), 5, (10**2280 + 1, -(10**2280 + 7), 10**2280 + 3, 10**2280 + 9), F(1, 2), F(1, 70)),
    ]:
        inst = LinearFormInstance(ell=ell, tau=tau, delta=delta)
        rep = audit_linear_form(derive_params(alphas), beta, p, inst, ThetaMode.sharp())
        assert rep["hypotheses"]["all_met"] is True
        assert rep["height_threshold"]["htilde_reaches_threshold"] is True
        assert rep["final_bound"] == {"applicable": True, "holds_numerically": True}
        assert rep["remainder_part"]["kind"] == "exact"
        assert rep["verdict"] == "combination dominates remainder part at this instance"


def test_criterion_10_restricted_end_to_end():
    t0 = time.time()
    gp = derive_params([F(1), F(1)])
    mode = ThetaMode.sharp()
    b = smallest_admissible_b(gp, 1, mode, F(2))
    inst = make_restricted_instance(gp, a=1, b=b, B=1, t=F(0), mode=mode, vartheta=F(2))
    rep = audit_restricted(inst)
    ok = rep["final_verdict"] == "all checks passed"
    final = next(c for c in rep["checks"] if c.name == "final_lower_bound")
    width = next(c for c in rep["checks"] if c.name == "enclosure_width")
    ok = ok and final.passed and width.passed
    # a far-off numerator makes the final inequality hold with room to spare
    inst_far = make_restricted_instance(
        gp, a=1, b=b, B=1, t=F(0), mode=mode, vartheta=F(2), candidate_n=10**230
    )
    rep_far = audit_restricted(inst_far)
    final_far = next(c for c in rep_far["checks"] if c.name == "final_lower_bound")
    ok = ok and final_far.passed
    ok, dt = _line(10, f"restricted bound end to end (b={b}, M={inst.M})", ok, t0)
    assert ok and dt < 300


def test_criterion_11_real_oracle():
    t0 = time.time()
    gp = derive_params([F(1), F(1)])
    enc = eval_phi_real(gp, F(1, 2), 60)
    l2 = log_interval(F(2), 256)
    ok = enc.lo <= 2 * l2.lo and 2 * l2.hi <= enc.hi
    ok = ok and enc.hi - enc.lo <= F(1, 2**50)
    ok, dt = _line(11, "real enclosure of the value at 1/2 brackets 2 log 2", ok, t0)
    assert ok and dt < 1
