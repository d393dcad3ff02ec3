import random
from dataclasses import replace
from fractions import Fraction as F
from math import factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade.arith import pochhammer

from gpade.errors import IntegralityViolation, NonMonomialDeterminant, SingularSystem
from gpade.pade import (
    _solve_sharing,
    ApproxShape,
    build_family,
    build_p,
    build_q,
    build_q_generic,
    family_det,
    family_tsv,
    oracle_solve,
    oracle_solve_generic,
    phi_coeff,
    phi_coeffs,
    phi_partial_sum,
    series_product_coeffs,
    verify_order,
)
from gpade.params import derive_params

from conftest import ALPHA_POOL, make_configs, pick_alphas


@pytest.fixture(scope="module")
def half():
    gp = derive_params([F(1), F(1, 2)])
    shape = ApproxShape(n=(1,), n0=1)
    return gp, shape, build_family(gp, shape)


def test_shape_derivations():
    sh = ApproxShape(n=(2, 3), n0=4)
    assert sh.N == 5 and sh.Ntilde == 9
    assert sh.Nj == (7, 6)
    assert sh.Nij(0, 1) == 7 and sh.Nij(1, 1) == 8 and sh.Nij(2, 1) == 7
    assert sh.Nij(2, 2) == 7
    assert all(nj >= sh.N - 1 for nj in sh.Nj)
    with pytest.raises(ValueError):
        ApproxShape(n=(3,), n0=2)
    with pytest.raises(ValueError):
        ApproxShape(n=(0,), n0=1)


def test_series_specialization_is_harmonic():
    # alpha_0 = alpha_1 = 1 collapses the coefficients to 1/(n+1)
    gp = derive_params([F(1), F(1)])
    assert phi_coeffs(gp, 1, 8) == [F(1, n + 1) for n in range(9)]
    assert phi_coeff(gp, 1, 5) == F(1, 6)


def test_hand_instance_denominators(half):
    gp, shape, fam = half
    assert build_q(gp, shape, 0) == (F(-5, 3), F(1))
    assert build_q(gp, shape, 1) == (F(-7, 5), F(1))
    assert fam.q[0][-1] == 1 and fam.q[1][-1] == 1


def test_hand_instance_numerators(half):
    gp, shape, fam = half
    assert fam.p_coeffs(0, 1) == (F(-5, 3), F(4, 9))
    assert fam.p_coeffs(1, 1) == (F(-7, 5), F(8, 15), F(4, 75))
    # order-0 coefficient always equals the constant denominator coefficient
    for i in (0, 1):
        assert fam.p_coeffs(i, 1)[0] == fam.q[i][0]
    p01 = build_p(gp, shape, fam.q[0], 0, 1)
    assert p01 == fam.p_coeffs(0, 1)


def test_hand_instance_remainder(half):
    gp, shape, fam = half
    assert fam.forced_zero_coeffs(0, 1) == (F(0),)
    assert fam.remainder_coeffs(0, 1)[0] == F(-4, 105)
    assert verify_order(fam) == {(0, 1): True, (1, 1): True}


def test_perturbation_breaks_order(half):
    gp, shape, fam = half
    for i in (0, 1):
        for k in range(shape.N + 1):
            qq = list(fam.q[i])
            qq[k] += 1
            coeffs = series_product_coeffs(gp, tuple(qq), 1, fam.T)
            lo = shape.Nij(i, 1) + 1
            window = coeffs[lo : lo + shape.n[0]]
            assert any(c != 0 for c in window)


def test_oracle_matches_closed_form(half):
    gp, shape, fam = half
    solved = oracle_solve(gp, shape)
    assert solved[0] == fam.q[0]
    assert solved[1] == fam.q[1]


def test_generic_degrees_agree_with_oracle():
    # degrees beyond the standard shape: N_j = N - 1 + slack
    rng = random.Random(17)
    for _ in range(15):
        m = rng.choice([1, 2])
        gp = derive_params(pick_alphas(rng, m))
        n = tuple(rng.randint(1, 3) for _ in range(m))
        N = sum(n)
        Nlist = tuple(N - 1 + rng.randint(0, 3) for _ in range(m))
        q1 = build_q_generic(gp, n, Nlist)
        q2 = oracle_solve_generic(gp, n, Nlist)
        assert q1 == q2
        coeffs_ok = True
        for j in range(1, m + 1):
            cs = series_product_coeffs(gp, q1, j, Nlist[j - 1] + n[j - 1] + 1)
            window = cs[Nlist[j - 1] + 1 : Nlist[j - 1] + n[j - 1] + 1]
            coeffs_ok = coeffs_ok and all(c == 0 for c in window)
        assert coeffs_ok


def reference_build_q_generic(gp, n_list, N_list):
    """The closed form summed term by term: every summand rebuilt from its
    Pochhammer products and factorials (the definition, O(N^2 m) products)."""
    m, N, alpha0 = gp.m, sum(n_list), gp.alpha[0]
    a = [F(0)] * (N + 1)
    a[N] = F(1)
    denom = F(1)
    for j in range(1, m + 1):
        denom *= pochhammer(gp.alpha[j] + N_list[j - 1] - N + 1, n_list[j - 1])
    for k in range(N):
        acc = F(0)
        for ell in range(k, N):
            term = F((-1) ** (ell + 1))
            term *= pochhammer(alpha0 - 1, ell - k) / factorial(ell - k)
            term *= pochhammer(alpha0 + ell + 1, N - ell - 1) / factorial(N - ell - 1)
            for j in range(1, m + 1):
                term *= pochhammer(gp.alpha[j] + alpha0 + N_list[j - 1] - N + ell + 1, n_list[j - 1])
            acc += term
        a[N - k - 1] = acc / denom
    return tuple(a)


@st.composite
def closed_form_instances(draw):
    """(alphas, block degrees, slacks) with pairwise non-congruent upper
    parameters, m <= 3, n_j <= 5 and N_j = N - 1 + slack_j."""
    m = draw(st.integers(1, 3))
    uppers: list[F] = []
    for _ in range(m):
        pool = [c for c in ALPHA_POOL if all((c - x).denominator != 1 for x in uppers)]
        uppers.append(draw(st.sampled_from(pool)))
    alpha0 = draw(st.sampled_from(ALPHA_POOL))
    n = tuple(draw(st.integers(1, 5)) for _ in range(m))
    slack = tuple(draw(st.integers(0, 3)) for _ in range(m))
    return [alpha0] + uppers, n, slack


@settings(max_examples=60, deadline=None)
@given(closed_form_instances())
@example(([F(1), F(1, 2), F(1, 3)], (3, 2), (0, 2)))  # alpha_0 = 1: g(d) = 0 for d >= 1
@example(([F(2, 3), F(5, 2)], (1,), (0,)))  # N = 1
@example(([F(1), F(1)], (1,), (3,)))  # N = 1 and alpha_0 = 1
def test_closed_form_matches_termwise_reference(instance):
    alphas, n, slack = instance
    gp = derive_params(alphas)
    N_list = tuple(sum(n) - 1 + s for s in slack)
    assert build_q_generic(gp, n, N_list) == reference_build_q_generic(gp, n, N_list)


def reference_oracle_solve_generic(gp, n_list, N_list):
    """One row's order conditions solved on their own: the rows cleared by
    their lcm, a whole Bareiss elimination, y = det * x back-substituted."""
    N = sum(n_list)
    M = []
    for j in range(1, gp.m + 1):
        ratios = phi_coeffs(gp, j, N_list[j - 1] + n_list[j - 1])
        for mu in range(N_list[j - 1] + 1, N_list[j - 1] + n_list[j - 1] + 1):
            row = [ratios[mu - k] for k in range(N)] + [-ratios[mu - N]]
            L = lcm(*(c.denominator for c in row))
            M.append([c.numerator * (L // c.denominator) for c in row])
    prev = 1
    for k in range(N):
        piv = next(r for r in range(k, N) if M[r][k] != 0)
        M[k], M[piv] = M[piv], M[k]
        for r in range(k + 1, N):
            for c in range(k + 1, N + 1):
                M[r][c] = (M[k][k] * M[r][c] - M[r][k] * M[k][c]) // prev
            M[r][k] = 0
        prev = M[k][k]
    y = [0] * N
    for r in range(N - 1, -1, -1):
        y[r] = (prev * M[r][N] - sum(M[r][c] * y[c] for c in range(r + 1, N))) // M[r][r]
    return tuple(F(yr, prev) for yr in y) + (F(1),)


@settings(max_examples=60, deadline=None)
@given(instance=closed_form_instances(), extra=st.integers(0, 2))
@example(instance=([F(1), F(1, 2), F(1, 3), F(1, 4)], (1, 1, 1), (0, 0, 0)), extra=0)  # no shared rows
@example(instance=([F(1), F(1, 2)], (5,), (0,)), extra=2)
def test_shared_oracle_matches_per_row_solve(instance, extra):
    alphas, n, _ = instance
    gp = derive_params(alphas)
    shape = ApproxShape(n=n, n0=max(n) + extra)
    rows = oracle_solve(gp, shape)
    assert len(rows) == gp.m + 1
    for i, q in enumerate(rows):
        assert q == reference_oracle_solve_generic(gp, shape.n, shape.Nij_row(i))
        assert q == build_q(gp, shape, i)


def _satisfies(rows, x):
    return all(sum(c * xk for c, xk in zip(row, x)) == row[-1] for row in rows)


def test_shared_solve_needs_a_swap_in_the_tail():
    shared = [[2, 1, 1, 3]]
    # reduced against the shared pivot, the first row is 0 in column 1
    others = [[4, 2, 5, 1], [0, 1, 1, 1]]
    for system in ([0, 1], [1, 0]):
        (x,) = _solve_sharing(shared, others, [system])
        assert _satisfies(shared + [others[o] for o in system], x)


def test_shared_solve_without_shared_pivot_solves_each_system_whole():
    shared = [[0, 2, 1, 3], [0, 1, 4, 1]]  # no pivot in column 0
    others = [[1, 0, 0, 1], [5, 1, 1, 2], [3, 0, 1, 1]]
    systems = [[0], [1], [2]]
    solved = _solve_sharing(shared, others, systems)
    for system, x in zip(systems, solved):
        assert _satisfies(shared + [others[o] for o in system], x)
    assert solved[0] == (F(1), F(11, 7), F(-1, 7))


def test_shared_solve_singular_tail():
    shared = [[2, 1, 1, 3]]
    others = [[4, 2, 5, 1], [0, 1, 1, 1], [0, 3, 3, 5]]  # the last two: proportional coefficients
    assert len(_solve_sharing(shared, others, [[0, 1], [0, 2]])) == 2
    with pytest.raises(SingularSystem):
        _solve_sharing(shared, others, [[0, 1], [1, 2]])
    with pytest.raises(SingularSystem):
        _solve_sharing([], [[1, 2, 3], [2, 4, 5]], [[0, 1]])


@settings(max_examples=60, deadline=None)
@given(
    instance=closed_form_instances(),
    q=st.lists(st.fractions(min_value=-1000, max_value=1000, max_denominator=50), min_size=1, max_size=9),
    upto=st.integers(0, 25),
)
def test_series_product_matches_fraction_convolution(instance, q, upto):
    gp = derive_params(instance[0])
    for j in range(1, gp.m + 1):
        phi = phi_coeffs(gp, j, upto)
        naive = tuple(
            sum((q[k] * phi[mu - k] for k in range(min(len(q) - 1, mu) + 1)), F(0)) for mu in range(upto + 1)
        )
        assert series_product_coeffs(gp, tuple(q), j, upto) == naive


def reference_phi_partial_sum(gp, j, z, T):
    """The former kernel: the terms 0..T of phi_j at z added one at a time."""
    acc = F(0)
    power = F(1)
    for cf in phi_coeffs(gp, j, T):
        acc += cf * power
        power *= z
    return acc


# the p-adic audits evaluate at 8/3 and 27/2; the others cover |z| < 1 and > 1
series_points = st.one_of(
    st.sampled_from([F(8, 3), F(-8, 3), F(27, 2), F(-27, 2), F(1, 20014458431), F(-3, 7)]),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
    st.fractions(min_value=-30, max_value=30, max_denominator=100),
)


@settings(max_examples=60, deadline=None)
@given(instance=closed_form_instances(), j=st.integers(1, 3), z=series_points, T=st.integers(-1, 600))
@example(instance=([F(1), F(1, 2)], (1,), (0,)), j=1, z=F(8, 3), T=3000)
def test_partial_sum_matches_forward_sum(instance, j, z, T):
    gp = derive_params(instance[0])
    j = min(j, gp.m)
    assert phi_partial_sum(gp, j, z, T) == reference_phi_partial_sum(gp, j, z, T)


def test_partial_sum_edges():
    gp = derive_params([F(1), F(1, 2), F(1, 3)])
    assert phi_partial_sum(gp, 2, F(5, 3), 0) == 1
    assert phi_partial_sum(gp, 2, F(5, 3), -1) == 0
    assert phi_partial_sum(gp, 2, F(5, 3), -7) == 0
    assert phi_partial_sum(gp, 1, F(0), 9) == 1
    for j in (0, 3):
        with pytest.raises(ValueError, match="series index out of range"):
            phi_partial_sum(gp, j, F(1, 2), 4)


def test_determinant_hand_instance(half):
    gp, shape, fam = half
    exponent, omega = family_det(fam)
    assert exponent == 3 and omega == F(4, 75)
    assert omega == fam.p_leading(1)


def test_determinant_by_direct_polynomial_arithmetic(half):
    # independent route: expand Q0*P11 - Q1*P01 by coefficient convolution
    gp, shape, fam = half

    def poly_mul(a, b):
        out = [F(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    first = poly_mul(fam.q[0], fam.p_coeffs(1, 1))
    second = poly_mul(fam.q[1], fam.p_coeffs(0, 1))
    det = [x - y for x, y in zip(first, second + [F(0)] * (len(first) - len(second)))]
    assert det == [F(0), F(0), F(0), F(4, 75)]


def test_determinant_rejects_corruption(half):
    gp, shape, fam = half
    qq = list(list(row) for row in fam.q)
    qq[0][0] += 1
    broken = replace(fam, q=tuple(tuple(r) for r in qq))
    with pytest.raises(NonMonomialDeterminant):
        family_det(broken)


def test_numerator_degrees():
    for gp_alphas, n, n0 in [
        ([F(1), F(1, 2)], (1,), 2),
        ([F(1, 2), F(1, 3), F(3, 4)], (2, 1), 3),
    ]:
        gp = derive_params(gp_alphas)
        shape = ApproxShape(n=n, n0=n0)
        fam = build_family(gp, shape)
        for i in range(1, gp.m + 1):
            # diagonal numerator has exact degree N_i + 1
            assert fam.p_leading(i) != 0
        for i in range(gp.m + 1):
            for j in range(1, gp.m + 1):
                assert len(fam.p_coeffs(i, j)) == shape.Nij(i, j) + 1


def test_small_random_sweep():
    for gp, sh in make_configs(4242, 20, n_max=4, n0_max=5):
        fam = build_family(gp, sh)
        assert all(verify_order(fam).values())
        solved = oracle_solve(gp, sh)
        for i in range(gp.m + 1):
            assert solved[i] == fam.q[i]
            assert fam.q[i][-1] == 1  # normalized leading coefficient
        e, om = family_det(fam)
        assert e == sh.N + sum(sh.Nj) + gp.m and om != 0


def test_family_tsv(half):
    gp, shape, fam = half
    text = family_tsv(fam)
    lines = text.strip().split("\n")
    assert lines[0] == "i\tpoly\tdegree\tnumerator\tdenominator"
    assert "0\tQ\t0\t-5\t3" in lines
    assert "1\t1\t2\t4\t75" in lines
    scaled = family_tsv(fam, scale=12600)
    assert "1\t1\t2\t672\t1" in scaled.split("\n")
    with pytest.raises(IntegralityViolation):
        family_tsv(fam, scale=2)


def test_truncation_guard(half):
    gp, shape, _ = half
    with pytest.raises(ValueError):
        build_family(gp, shape, T=2)
