import math
from fractions import Fraction as F

import pytest

from gpade.denom import (
    ThetaMode,
    bound_constants,
    cert_tsv,
    check_remainder_padic,
    check_size_bounds,
    compute_d1,
    compute_d2,
    make_cert,
    ntilde1_interval,
    remainder_padic_bound,
    scaled_integers,
    verify_integrality,
)
from gpade.arith import FactoredInteger, Interval, log_interval
from gpade.errors import DomainViolation, IntegralityViolation
from gpade.pade import ApproxShape, build_family
from gpade.params import derive_params
from gpade.realseries import phi_heads, rows_at_point
from gpade.report import entry, rational

from conftest import make_configs
from reference_series import grid_values


@pytest.fixture(scope="module")
def half():
    gp = derive_params([F(1), F(1, 2)])
    shape = ApproxShape(n=(1,), n0=1)
    fam = build_family(gp, shape)
    cert = make_cert(gp, shape, ThetaMode.paper())
    return gp, shape, fam, cert


def test_theta_modes():
    paper = ThetaMode.paper()
    assert paper.c_theta == 2 and paper.certified
    # 8 log 2 = 5.54517744447956247533785697166541...
    assert paper.theta.lo <= F("5.5451774444795624753378569716655")
    assert paper.theta.hi >= F("5.5451774444795624753378569716654")
    assert paper.theta.hi - paper.theta.lo < F(1, 2**110)
    sharp = ThetaMode.sharp()
    assert sharp.theta == paper.theta.__class__.point(F(63, 50)) and sharp.c_theta == 2
    custom = ThetaMode.parse("custom:3/2,5")
    assert custom.theta.lo == F(3, 2) and custom.c_theta == 5 and not custom.certified
    assert ThetaMode.parse("paper").label == "paper"
    assert ThetaMode.parse("custom:2,3").theta.lo == 2
    for text in ("custom:oops", "custom:-1,2", "custom:1,2", "custom:2,1"):
        with pytest.raises(ValueError, match="want custom:THETA,C"):
            ThetaMode.parse(text)
    with pytest.raises(ValueError):
        ThetaMode.parse("loose")


def test_equal_theta_modes_share_bound_constants():
    # each ThetaMode.paper() builds theta afresh, and the same value reached
    # by other operations is the same normalized tuple, so the cache keyed by
    # the mode serves them all
    gp = derive_params([F(1), F(2, 3)])
    log2 = log_interval(F(2), 128)
    modes = [ThetaMode.paper(), ThetaMode.paper(), ThetaMode("paper", log2 + log2 * 7, 2, True)]
    assert modes[0] == modes[1] == modes[2] and len({hash(x) for x in modes}) == 1
    assert len({id(bound_constants(gp, mode)) for mode in modes}) == 1
    custom = [ThetaMode.custom(F(3, 2), 5), ThetaMode.parse("custom:6/4,5")]
    assert bound_constants(gp, custom[0]) is bound_constants(gp, custom[1])
    assert bound_constants(gp, custom[0]) is not bound_constants(gp, modes[0])


def test_clearing_integers_hand_instance(half):
    gp, shape, fam, cert = half
    assert cert.d1.value == 15 and cert.d1.factors == ((3, 1), (5, 1))
    assert cert.d2.value == 840 and cert.d2.factors == ((2, 3), (3, 1), (5, 1), (7, 1))
    assert cert.d.value == 12600
    # D1 clears both denominator rows on its own
    assert (F(-5, 3) * 15).denominator == 1
    assert (F(-7, 5) * 15).denominator == 1
    # D clears the top numerator coefficient: 12600 * 4/75 = 672
    assert F(12600) * F(4, 75) == 672


def test_trivial_factors_at_unit_s0():
    gp = derive_params([F(1), F(1, 2)])
    d1 = compute_d1(gp, ApproxShape(n=(1,), n0=1))
    assert all(p != 1 for p, _ in d1.factors)
    gp2 = derive_params([F(1), F(1)])
    # everything collapses when all denominators are 1: only the prime block
    # over p <= U + V*Ntilde = 4 survives, and that product is lcm(1..4)
    d2 = compute_d2(gp2, ApproxShape(n=(1,), n0=1))
    assert d2.value == math.lcm(*range(1, 5))


def test_integrality_report(half):
    gp, shape, fam, cert = half
    rep = verify_integrality(fam, cert)
    assert rep["passed"] and rep["violations"] == []
    # dropping D2 must surface the numerator violation (15 * 4/9 not integral)
    crippled = cert._replace(d=cert.d1)
    rep2 = verify_integrality(fam, crippled)
    assert not rep2["passed"]
    assert any(v[0] == "p" for v in rep2["violations"])


def test_size_bounds_zeroed_constants_fail():
    # corrupt the certified constants to force an applicable bound failure
    gp = derive_params([F(1), F(1, 2)])
    shape = ApproxShape(n=(2,), n0=2)
    fam = build_family(gp, shape)
    cert = make_cert(gp, shape, ThetaMode.paper())
    zero = Interval.point(F(0))
    broken = cert._replace(constants=cert.constants._replace(iv=(zero,) * 9))
    failed = [e for e in check_size_bounds(fam, broken, zs=(F(2),)) if e.failed]
    assert failed and all(e.applicable and not e.passed for e in failed)
    assert failed[0].name == "log_size_D" and failed[0].status == "FAIL"


def test_integrality_random_sweep():
    mode = ThetaMode.paper()
    for gp, sh in make_configs(555, 15, n_max=4, n0_max=5):
        fam = build_family(gp, sh)
        cert = make_cert(gp, sh, mode)
        assert verify_integrality(fam, cert)["passed"]


def reference_verify_integrality(family, cert):
    """Every coefficient as a reduced Fraction, times D1 or D."""
    m = family.gp.m
    violations = []
    for i in range(m + 1):
        for k, a in enumerate(grid_values(family.q[i])):
            if (a * cert.d1.value).denominator != 1:
                violations.append(("q", i, k, rational(a)))
    for i in range(m + 1):
        for j in range(1, m + 1):
            for mu, cf in enumerate(grid_values(family.p_coeffs(i, j))):
                if (cf * cert.d.value).denominator != 1:
                    violations.append(("p", i, j, mu, rational(cf)))
    return {"passed": not violations, "violations": violations}


def reference_check_size_bounds(family, cert, zs=(F(2), F(8, 3), F(3))):
    """The size checks with every value a reduced Fraction: coefficients from
    the grids, values at z by Fraction Horner."""
    from gpade.arith import exp_interval

    def value_at(grid, z):
        acc = F(0)
        for c in reversed(grid_values(grid)):
            acc = acc * z + c
        return acc

    gp, shape, cns = family.gp, family.shape, cert.constants
    c, N, Nt = cns.mode.c_theta, shape.N, shape.Ntilde
    rhs_d = exp_interval(cns.exponent_13(shape).hi, cns.precision).hi
    out = [entry("log_size_D", min(shape.n0, N) >= c, F(cert.d.value) <= rhs_d, cert.d.value, rhs_d)]
    growth = exp_interval(cns.exponent_14(shape).hi, cns.precision).hi
    amax = max(abs(a) for grid in family.q for a in grid_values(grid))
    out.append(entry("coeff_magnitude", N >= c, amax <= N * growth, amax, N * growth))
    for z in zs:
        app_z = N >= c and abs(z) >= 2
        rhs_q = 2 * N * growth * abs(z) ** N
        lhs_q = max(abs(value_at(grid, z)) for grid in family.q)
        out.append(entry(f"denom_poly_at_{z}", app_z, lhs_q <= rhs_q, lhs_q, rhs_q))
        worst = None
        for i in range(gp.m + 1):
            for j in range(1, gp.m + 1):
                lhs_p = abs(value_at(family.p_coeffs(i, j), z))
                rhs_p = 2 * N * (N + 1) * growth * abs(z) ** (Nt - shape.n[j - 1] + 1)
                if lhs_p > rhs_p:
                    worst = (i, j, lhs_p, rhs_p)
        out.append(entry(f"numer_poly_at_{z}", app_z, worst is None, "" if worst is None else worst, ""))
    return out


def test_integrality_and_size_checks_match_fraction_reference():
    for k, (gp, sh) in enumerate(make_configs(8080, 24, n_max=4, n0_max=5)):
        fam = build_family(gp, sh)
        cert = make_cert(gp, sh, ThetaMode.sharp() if k % 2 else ThetaMode.paper())
        assert verify_integrality(fam, cert) == reference_verify_integrality(fam, cert)
        assert check_size_bounds(fam, cert) == reference_check_size_bounds(fam, cert)


def test_integrality_violations_match_fraction_reference():
    # D1 without one of its primes leaves coefficients of Q_i uncleared, and
    # D = D1 alone those of P_ij as well
    gp = derive_params([F(1, 2), F(1, 3), F(3, 4)])
    shape = ApproxShape(n=(2, 1), n0=3)
    fam = build_family(gp, shape)
    cert = make_cert(gp, shape, ThetaMode.paper())
    kinds = set()
    for p, _ in cert.d1.factors:
        d1 = FactoredInteger.from_exponents([(q, e) for q, e in cert.d1.factors if q != p])
        for d in (d1 * cert.d2, d1):
            crippled = cert._replace(d1=d1, d=d)
            rep = verify_integrality(fam, crippled)
            assert rep == reference_verify_integrality(fam, crippled)
            kinds |= {v[0] for v in rep["violations"]}
        assert not rep["passed"]
    assert kinds == {"q", "p"}


def test_failing_numerator_bound_matches_fraction_reference():
    # shrink the constants until some P_ij exceeds its bound: the check
    # renders the last failing (i, j) with its two reduced sides
    gp = derive_params([F(1), F(1, 2), F(1, 3)])
    shape = ApproxShape(n=(3, 2), n0=4)
    fam = build_family(gp, shape)
    cert = make_cert(gp, shape, ThetaMode.paper())
    zero = Interval.point(F(0))
    for shift in range(0, 400, 10):
        iv = (zero, *cert.constants.iv[1:5], Interval.point(F(-shift)), zero, zero, cert.constants.iv[8])
        shrunk = cert._replace(constants=cert.constants._replace(iv=iv))
        checks = check_size_bounds(fam, shrunk)
        numer = [e for e in checks if e.name.startswith("numer_poly") and not e.passed]
        if numer:
            break
    assert numer and numer[0].lhs.startswith("(") and "Fraction(" in numer[0].lhs
    assert checks == reference_check_size_bounds(fam, shrunk)


def test_constant_c2_value(half):
    gp, shape, fam, cert = half
    c2 = cert.constants.iv[2]
    assert math.isclose(float(c2.lo), 16 * math.log(2), rel_tol=1e-25)
    # c8 is assembled from c3, c4, c6, c7 plus 3, exactly
    cns = cert.constants
    total = cns.iv[3] + cns.iv[4] + cns.iv[6] + cns.iv[7] + 3
    assert cns.iv[8].lo == total.lo and cns.iv[8].hi == total.hi


def test_size_bounds_below_threshold_instance():
    # the n1=1, n0=2 instance sits below the c(theta) gate yet all bounds
    # hold numerically at z = 3
    gp = derive_params([F(1), F(1, 2)])
    shape = ApproxShape(n=(1,), n0=2)
    fam = build_family(gp, shape)
    cert = make_cert(gp, shape, ThetaMode.paper())
    entries = check_size_bounds(fam, cert, zs=(F(3),))
    assert all(e.passed for e in entries)
    assert all(not e.applicable for e in entries if e.name.startswith(("log_size", "coeff")))


def point_rows(fam, beta):
    """The rows of the family at beta as the p-adic audit evaluates them: from
    the Q_i grids and one split of each phi_j (`realseries.rows_at_point`)."""
    gp, shape = fam.gp, fam.shape
    heads = phi_heads(gp, shape, beta, shape.remainder_truncation)
    return rows_at_point(gp, list(fam.q), shape, beta.numerator, beta.denominator, heads)


def test_scaled_integers_hand_instance(half):
    gp, shape, fam, cert = half
    rows = point_rows(fam, F(8, 3))
    sc = scaled_integers(gp, shape, rows, cert, F(8, 3), p=2)
    assert sc.qi[0] == 113400
    with pytest.raises(DomainViolation):
        scaled_integers(gp, shape, point_rows(fam, F(3, 2)), cert, F(3, 2), p=2)
    with pytest.raises(DomainViolation):
        scaled_integers(gp, shape, point_rows(fam, F(1, 2)), cert, F(1, 2))
    # a singular stacked matrix (row 0 twice) is a failed check, never a
    # returned system
    with pytest.raises(IntegralityViolation, match="singular"):
        scaled_integers(gp, shape, [rows[0], rows[0]], cert, F(8, 3), p=2)


def test_scaled_integers_match_fraction_horner():
    # D b^Ntilde Q_i(beta) and D b^Ntilde P_ij(beta) from the point values
    # against Fraction Horner on build_family's grids, at a negative point;
    # without D the same values are not all integers
    gp = derive_params([F(1), F(1, 2), F(1, 3)])
    shape = ApproxShape(n=(2, 1), n0=3)
    fam = build_family(gp, shape)
    cert = make_cert(gp, shape, ThetaMode.paper())
    beta = F(-7, 3)

    def scaled(coeffs):
        value = F(0)
        for c in reversed(coeffs):
            value = value * beta + c
        return value * cert.d.value * beta.denominator**shape.Ntilde

    rows = point_rows(fam, beta)
    sc = scaled_integers(gp, shape, rows, cert, beta)
    for i in range(gp.m + 1):
        assert F(sc.qi[i]) == scaled(grid_values(fam.q[i]))
        assert tuple(map(F, sc.pij[i])) == tuple(scaled(grid_values(fam.p_coeffs(i, j))) for j in (1, 2))
    with pytest.raises(IntegralityViolation, match=r"scaled Q_0\(-7/3\) is not an integer"):
        scaled_integers(gp, shape, rows, cert._replace(d=FactoredInteger.one()), beta)


def test_remainder_bound_hand_instance(half):
    gp, shape, fam, cert = half
    rb = remainder_padic_bound(gp, shape, F(8, 3), 2, cert)
    assert rb.a14 == 32
    # delta(2) = 1: the prefactor |a|^4 Ntilde enters
    assert rb.a14 == 2 * gp.dtilde * 8**4 * shape.Ntilde * F(1, 2 ** (3 * (shape.Ntilde + 1)))
    assert not rb.lemma6_applicable  # Ntilde = 2 is far below the threshold
    entries = check_remainder_padic(fam, cert, F(8, 3), 2)
    for e in entries:
        assert e.passed or not e.applicable, e


def test_remainder_bound_no_s_prime():
    # p coprime to the denominator lcm: delta(p) = 0 collapses the prefactor
    gp = derive_params([F(1), F(1)])
    shape = ApproxShape(n=(1,), n0=1)
    cert = make_cert(gp, shape, ThetaMode.sharp())
    rb = remainder_padic_bound(gp, shape, F(9, 2), 3, cert)
    assert rb.a14 == 2 * gp.dtilde * F(1, 3 ** (2 * 3))


def test_clean_bound_applicable_instance():
    # sharp mode makes the threshold reachable: Ntilde = 8 >= Ntilde_1 ~ 7.6
    gp = derive_params([F(1), F(1)])
    shape = ApproxShape(n=(2,), n0=6)
    fam = build_family(gp, shape)
    cert = make_cert(gp, shape, ThetaMode.sharp())
    beta = F(4)
    rb = remainder_padic_bound(gp, shape, beta, 2, cert)
    assert rb.lemma6_applicable
    entries = check_remainder_padic(fam, cert, beta, 2)
    assert all(e.passed for e in entries)


def test_ntilde1_components(half):
    gp, shape, fam, cert = half
    nt1 = ntilde1_interval(gp, cert.constants, F(8, 3), 2)
    # dominated by c1 + c5 = theta*(m(R+S)+U) + theta*(2(r0-s0)+mU) at 8log2
    expect = 8 * math.log(2) * (1 * (1 + 2) + 3) + 8 * math.log(2) * (0 + 3)
    assert math.isclose(float(nt1.lo), expect, rel_tol=1e-12)


def test_cert_tsv(half):
    gp, shape, fam, cert = half
    text = cert_tsv(cert, check_size_bounds(fam, cert))
    lines = text.strip().split("\n")
    assert lines[0] == "quantity\tvalue\tdetail\tstatus"
    assert any(line.startswith("D1\t15\t3*5") for line in lines)
    assert any(line.startswith("c8\t") and "upper@128b" in line for line in lines)
