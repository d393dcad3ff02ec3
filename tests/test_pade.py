import random
from copy import deepcopy
from fractions import Fraction as F
from itertools import permutations, zip_longest
from math import factorial, gcd, lcm, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpade.cli
import gpade.pade
from gpade.arith import Grid, bareiss_eliminate, cleared_eval, pochhammer
from gpade.denom import ThetaMode, make_cert
from gpade.errors import IntegralityViolation, NonMonomialDeterminant, SingularSystem
from gpade.pade import (
    ApproxShape,
    build_family,
    build_q,
    build_q_generic,
    family_det,
    family_rows,
    family_tsv,
    numerator_at,
    oracle_solve,
    phi_coeffs,
    phi_merge,
    phi_split,
    series_product_coeffs,
    verify_order,
)
from gpade.params import derive_params
from gpade.realseries import phi_heads, rows_at_point, window_at

from conftest import ALPHA_POOL, make_configs, pick_alphas
from reference_series import cleared, grid_values, reference_phi_coeffs
from reference_solve import reference_oracle_solve, solve_sharing


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
    assert reference_phi_coeffs(gp, 1, 8) == [F(1, n + 1) for n in range(9)]
    L = lcm(*range(1, 10))
    assert phi_coeffs(gp, 1, 8) == Grid(L, tuple(L // (n + 1) for n in range(9)))


@settings(max_examples=150, deadline=None)
@given(
    alpha0=st.sampled_from([F(1), F(2), F(3, 2), *ALPHA_POOL]),
    alphaj=st.one_of(st.sampled_from(ALPHA_POOL), st.integers(1, 6).map(F)),
    j=st.integers(0, 2),
    lo=st.integers(0, 40),
    hi=st.integers(-1, 60),
)
@example(alpha0=F(1), alphaj=F(1, 2), j=1, lo=0, hi=30)  # telescoping: phi's coefficients are 1/(1 + 2n)
@example(alpha0=F(1), alphaj=F(1), j=1, lo=5, hi=12)  # harmonic, lo > 0
@example(alpha0=F(2), alphaj=F(3), j=1, lo=0, hi=0)  # integer parameters, one coefficient
@example(alpha0=F(3, 2), alphaj=F(1, 2), j=1, lo=7, hi=7)
@example(alpha0=F(1), alphaj=F(1), j=2, lo=0, hi=3)  # no series 2
@example(alpha0=F(1), alphaj=F(1), j=1, lo=0, hi=-1)  # hi < 0
def test_phi_window_matches_fraction_recurrence(alpha0, alphaj, j, lo, hi):
    # the running products' grid of orders 0..hi, normalized once, is the
    # Fraction recurrence's prefix cleared by its lcm, and its window lo..hi,
    # sliced as the oracle slices it, holds the recurrence's values there
    gp = derive_params([alpha0, alphaj])
    if j != 1 or hi < 0:
        with pytest.raises(ValueError, match="series index or order out of range"):
            phi_coeffs(gp, j, hi)
        return
    reference = reference_phi_coeffs(gp, j, hi)
    grid = phi_coeffs(gp, j, hi)
    assert grid == cleared(reference)
    assert grid_values(grid)[lo:] == tuple(reference[lo:])


def test_hand_instance_denominators(half):
    gp, shape, fam = half
    q0, q1 = build_q(gp, shape, (0, 1))
    assert q0 == Grid(3, (-5, 3))
    assert grid_values(q0) == (F(-5, 3), F(1))
    assert grid_values(q1) == (F(-7, 5), F(1))
    assert build_q(gp, shape, ()) == () and build_q(gp, shape, (1, 0)) == (q1, q0)
    for bad in ((2,), (0, -1)):
        with pytest.raises(ValueError):
            build_q(gp, shape, bad)
    assert grid_values(fam.q[0])[-1] == 1 and grid_values(fam.q[1])[-1] == 1


def product_window(gp, q, j, lo, hi):
    """The kernel's grid of the coefficients lo..hi of Q * phi_j, for one Q."""
    return series_product_coeffs(phi_coeffs(gp, j, hi), (q,), [(lo, hi)])[0]


def verify_phis(gp, shape):
    """phi_j's grids through order Ntilde + 1, one per series, as `verify`
    forms them."""
    return tuple(phi_coeffs(gp, j, shape.Ntilde + 1) for j in range(1, gp.m + 1))


def forced_zeros(gp, shape, qs):
    """`verify_order` on the grids qs, as `verify` calls it."""
    return verify_order(shape, qs, verify_phis(gp, shape))


def order_holds(fam):
    """verify's order_of_vanishing verdicts on the family's denominators:
    which forced-zero windows are 0."""
    return {key: not any(window.nums) for key, window in forced_zeros(fam.gp, fam.shape, fam.q).items()}


def judged(gp, shape, qs):
    """`oracle_solve` on the grids qs and their forced zeros, as `verify`
    calls it."""
    phis = verify_phis(gp, shape)
    return oracle_solve(shape, qs, phis, verify_order(shape, qs, phis))


def certified_det(fam):
    """`family_det` on the family's denominators and their forced zeros, as
    `verify` calls it; it reads no P_ij of the family."""
    phis = verify_phis(fam.gp, fam.shape)
    return family_det(fam.shape, fam.q, phis, verify_order(fam.shape, fam.q, phis))


def p_leading(fam, i):
    """The leading coefficient of the family's P_ii (order N_i + 1)."""
    return grid_values(fam.p[i][i - 1])[-1]


def test_hand_instance_numerators(half):
    gp, shape, fam = half
    assert grid_values(fam.p_coeffs(0, 1)) == (F(-5, 3), F(4, 9))
    assert grid_values(fam.p_coeffs(1, 1)) == (F(-7, 5), F(8, 15), F(4, 75))
    # order-0 coefficient always equals the constant denominator coefficient
    for i in (0, 1):
        assert grid_values(fam.p_coeffs(i, 1))[0] == grid_values(fam.q[i])[0]
    p01 = product_window(gp, fam.q[0], 1, 0, shape.Nij(0, 1))
    assert p01 == fam.p_coeffs(0, 1)


def test_hand_instance_remainder(half):
    gp, shape, fam = half
    assert grid_values(forced_zeros(gp, shape, fam.q)[0, 1]) == (F(0),)
    # the first possibly nonzero order is N_01 + n_1 + 1 = 3
    assert grid_values(product_window(gp, fam.q[0], 1, 3, 3)) == (F(-4, 105),)
    assert order_holds(fam) == {(0, 1): True, (1, 1): True}


def reference_product_coeffs(gp, q, j, T):
    """Coefficients 0..T of Q * phi_j, by the Fraction convolution."""
    phi = reference_phi_coeffs(gp, j, T)
    return [sum((q[k] * phi[mu - k] for k in range(min(len(q) - 1, mu) + 1)), F(0)) for mu in range(T + 1)]


@pytest.mark.parametrize("z", [F(8, 3), F(27, 2)])
# the `half` family, and trio (1; 1/2, 1/3), at the p-adic audits' points
@pytest.mark.parametrize("alphas, n, n0", [([F(1), F(1, 2)], (1,), 1), ([F(1), F(1, 2), F(1, 3)], (2, 1), 2)])
def test_remainder_terms_match_full_convolution(alphas, n, n0, z):
    gp = derive_params(alphas)
    shape = ApproxShape(n=n, n0=n0)
    fam = build_family(gp, shape)
    zeros = forced_zeros(gp, shape, fam.q)
    for T in (shape.remainder_truncation, shape.remainder_truncation + 9):
        for j, nj in enumerate(shape.n, 1):
            # the remainder terms c_mu z^mu, mu = N_ij + n_j + 1 .. T, of every row at once
            starts = [shape.Nij(i, j) + nj + 1 for i in range(gp.m + 1)]
            windows = series_product_coeffs(phi_coeffs(gp, j, T), fam.q, [(lo, T) for lo in starts])
            for i, (start, window) in enumerate(zip(starts, windows)):
                full = reference_product_coeffs(gp, grid_values(fam.q[i]), j, T)
                Nij = shape.Nij(i, j)
                assert tuple(full[: Nij + 1]) == grid_values(fam.p_coeffs(i, j))
                # the forced zeros, through order Ntilde + 1 on the diagonal
                assert tuple(full[Nij + 1 : start]) == grid_values(zeros[i, j]) == (0,) * nj
                terms = [cf * z**mu for mu, cf in enumerate(grid_values(window), start=start)]
                assert terms == [cf * z**mu for mu, cf in enumerate(full) if mu >= start]
                assert any(terms)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    n=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    extra=st.integers(0, 3),
    a=st.integers(-30, 30).filter(bool),
    b=st.integers(1, 10**6),
    deeper=st.booleans(),
)
@example(m=1, seed=0, n=[1, 1, 1], extra=0, a=-8, b=3, deeper=False)  # n0 = n_1: the cut 0
def test_point_values_match_product_series(m, seed, n, extra, a, b, deeper):
    # P_ij(a/b) and the remainder window sums from Q_i's grid and one split
    # of each phi_j (`realseries`), against the Fraction convolution, over
    # pool tuples with m = 1, 2, 3, both signs of a and two truncations T
    gp = derive_params(pick_alphas(random.Random(seed), m))
    shape = ApproxShape(n=tuple(n[:m]), n0=max(n[:m]) + extra)
    fam = build_family(gp, shape)
    z = F(a, b)
    T = shape.remainder_truncation + (shape.Ntilde if deeper else 0)
    heads = phi_heads(gp, shape, z, T)
    rows = rows_at_point(gp, list(fam.q), shape, z.numerator, z.denominator, heads)
    for i in range(gp.m + 1):
        assert F(*rows[i][0]) == sum(c * z**k for k, c in enumerate(grid_values(fam.q[i])))
        for j in range(1, gp.m + 1):
            full = reference_product_coeffs(gp, grid_values(fam.q[i]), j, T)
            Nij, nj = shape.Nij(i, j), shape.n[j - 1]
            assert F(*rows[i][j]) == sum(c * z**mu for mu, c in enumerate(full[: Nij + 1]))
            window = window_at(gp, fam.q[i], shape, i, j, z.numerator, z.denominator, T, heads[j - 1])
            assert window == sum(c * z**mu for mu, c in enumerate(full) if mu > Nij + nj)


def plus_one(grid, k):
    """The grid with 1 added to its coefficient k (still normalized)."""
    nums = list(grid.nums)
    nums[k] += grid.den
    return Grid(grid.den, tuple(nums))


def test_verify_order_reads_the_denominators(half):
    gp, shape, fam = half
    broken = fam._replace(q=(plus_one(fam.q[0], 0), fam.q[1]))
    assert order_holds(broken) == {(0, 1): False, (1, 1): True}


def test_perturbation_breaks_order(half):
    gp, shape, fam = half
    for i in (0, 1):
        for k in range(shape.N + 1):
            lo = shape.Nij(i, 1) + 1
            window = product_window(gp, plus_one(fam.q[i], k), 1, lo, lo + shape.n[0] - 1)
            assert any(window.nums)


def test_oracle_matches_closed_form(half):
    gp, shape, fam = half
    assert judged(gp, shape, fam.q) == (True, True)
    solved = reference_oracle_solve(gp, shape)
    assert solved == tuple(fam.q)
    assert grid_values(solved[1]) == (F(-7, 5), F(1))


def test_oracle_rejects_a_perturbed_denominator():
    # Q_i plus z^k breaks row i's order conditions for every k, and only row i's
    # verdict turns False; Q_i with a leading coefficient other than 1, or with
    # a coefficient past degree N, is not the monic solution either
    half_shape = (derive_params([F(1), F(1, 2)]), ApproxShape(n=(1,), n0=1))
    for gp, shape in [half_shape, *make_configs(77, 4, n_max=3, n0_max=4)]:
        qs = build_family(gp, shape).q
        for i in range(gp.m + 1):
            for k in range(shape.N + 1):
                broken = qs[:i] + (plus_one(qs[i], k),) + qs[i + 1 :]
                assert judged(gp, shape, broken) == tuple(r != i for r in range(gp.m + 1))
            doubled = Grid.of(qs[i].den, [2 * x for x in qs[i].nums])
            longer = Grid(qs[i].den, (*qs[i].nums, 0))
            for bad in (doubled, longer):
                assert judged(gp, shape, qs[:i] + (bad,) + qs[i + 1 :])[i] is False


def test_oracle_reads_the_forced_zeros():
    # the oracle's residual is verify_order's window: one nonzero coefficient
    # in zeros[i, j] turns only row i's verdict False
    for gp, shape in make_configs(91, 4, n_max=3, n0_max=4):
        qs = build_q(gp, shape, range(gp.m + 1))
        phis = verify_phis(gp, shape)
        zeros = verify_order(shape, qs, phis)
        for (i, j), window in zeros.items():
            for k in range(len(window.nums)):
                nums = list(window.nums)
                nums[k] = 1
                corrupted = {**zeros, (i, j): Grid(window.den, tuple(nums))}
                assert oracle_solve(shape, qs, phis, corrupted) == tuple(r != i for r in range(gp.m + 1))


def test_oracle_certifies_the_order_conditions(monkeypatch):
    # each system the oracle proves nonsingular is row i's order conditions
    # in a_0..a_(N-1), each row up to a positive factor: a window read one
    # order off would certify another matrix, most likely nonsingular too
    def primitive(row):
        g = gcd(*row)
        return tuple(x // g for x in row)

    seen = []
    monkeypatch.setattr(gpade.pade, "certify_nonsingular", lambda *args: seen.append(args))
    for gp, shape in make_configs(91, 4, n_max=3, n0_max=4):
        N = shape.N
        judged(gp, shape, build_q(gp, shape, range(gp.m + 1)))
        seqs, shared, others, systems = seen.pop()
        for i, system in enumerate(systems):
            rows = [primitive(seqs[s][t : t + N]) for s, t in shared + [others[o] for o in system]]
            expected = []
            for j, nj in enumerate(shape.n, 1):
                phi = reference_phi_coeffs(gp, j, shape.Ntilde + 1)
                for mu in range(shape.Nij(i, j) + 1, shape.Nij(i, j) + nj + 1):
                    expected.append(primitive(cleared([phi[mu - k] for k in range(N)]).nums))
            assert sorted(rows) == sorted(expected), (i, shape)


def test_generic_degrees_agree_with_oracle():
    # degrees beyond the standard shape: N_j = N - 1 + slack
    rng = random.Random(17)
    for _ in range(15):
        m = rng.choice([1, 2])
        gp = derive_params(pick_alphas(rng, m))
        n = tuple(rng.randint(1, 3) for _ in range(m))
        N = sum(n)
        Nlist = tuple(N - 1 + rng.randint(0, 3) for _ in range(m))
        (q1,) = build_q_generic(gp, n, [Nlist])
        q2 = reference_oracle_solve_generic(gp, n, Nlist)
        assert grid_values(q1) == q2
        coeffs_ok = True
        for j in range(1, m + 1):
            window = product_window(gp, q1, j, Nlist[j - 1] + 1, Nlist[j - 1] + n[j - 1])
            coeffs_ok = coeffs_ok and all(c == 0 for c in grid_values(window))
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


def reference_ratio_build_q_generic(gp, n_list, N_list):
    """The closed form with g(d) and h(l) stepped by their term ratios in
    `Fraction` (one reduction per step), each sequence cleared by the lcm of
    its denominators."""
    m, N, alpha0 = gp.m, sum(n_list), gp.alpha[0]
    denom = F(1)
    for j in range(1, m + 1):
        denom *= pochhammer(gp.alpha[j] + N_list[j - 1] - N + 1, n_list[j - 1])
    c = [gp.alpha[j] + alpha0 + N_list[j - 1] - N + 1 for j in range(1, m + 1)]
    g = [F(1)]
    for d in range(N - 1):
        g.append(g[-1] * (alpha0 - 1 + d) / (d + 1))
    h = [F(0)] * N
    h[N - 1] = F((-1) ** N)
    for cj, nj in zip(c, n_list):
        h[N - 1] *= pochhammer(cj + N - 1, nj)
    for ell in range(N - 2, -1, -1):
        ratio = -(alpha0 + ell + 1) / (N - ell - 1)
        for cj, nj in zip(c, n_list):
            ratio *= (cj + ell) / (cj + ell + nj)
        h[ell] = h[ell + 1] * ratio
    G, g_int = cleared(g)
    H, h_int = cleared(h)
    scale = denom * G * H
    a = [F(0)] * (N + 1)
    a[N] = F(1)
    for k in range(N):
        acc = sum(map(mul, g_int, h_int[k:]))
        a[N - k - 1] = F(acc * scale.denominator, scale.numerator)
    return tuple(a)


@st.composite
def closed_form_instances(draw, n_max=5):
    """(alphas, block degrees, slacks) with pairwise non-congruent upper
    parameters, m <= 3, n_j <= n_max and N_j = N - 1 + slack_j."""
    m = draw(st.integers(1, 3))
    uppers: list[F] = []
    for _ in range(m):
        pool = [c for c in ALPHA_POOL if all((c - x).denominator != 1 for x in uppers)]
        uppers.append(draw(st.sampled_from(pool)))
    alpha0 = draw(st.sampled_from(ALPHA_POOL))
    n = tuple(draw(st.integers(1, n_max)) for _ in range(m))
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
    (q,) = build_q_generic(gp, n, [N_list])
    assert grid_values(q) == reference_build_q_generic(gp, n, N_list)


@settings(max_examples=80, deadline=None)
@given(closed_form_instances(n_max=12))
@example(([F(1), F(1, 2), F(1, 3)], (3, 2), (0, 2)))  # alpha_0 = 1: g(d) = 0 for d >= 1
@example(([F(2, 3), F(5, 2)], (1,), (0,)))  # N = 1
# the shapes the benchmark workloads build: (1, 1) at N = 24 and N = 39,
# m = 2 at (12, 12) and m = 3 at (8, 8, 8)
@example(([F(1), F(1)], (24,), (1,)))
@example(([F(1), F(1)], (39,), (2,)))
@example(([F(1), F(1, 2), F(1, 3)], (12, 12), (1, 2)))
@example(([F(1), F(1, 2), F(2, 3), F(3, 4)], (8, 8, 8), (2, 1, 1)))
@example(([F(5, 3), F(1, 3), F(5, 2), F(7, 4)], (8, 8, 8), (1, 1, 1)))
def test_closed_form_matches_ratio_recurrence(instance):
    # the integer running products over one common denominator give the
    # coefficients of the Fraction term-ratio recurrence
    alphas, n, slack = instance
    gp = derive_params(alphas)
    N_list = tuple(sum(n) - 1 + s for s in slack)
    (q,) = build_q_generic(gp, n, [N_list])
    assert grid_values(q) == reference_ratio_build_q_generic(gp, n, N_list)


@st.composite
def multi_row_instances(draw, n_max=6):
    """(alphas, block degrees, target-degree tuples): like
    `closed_form_instances`, with alpha_0 = 1 half of the time, and either
    the rows 0..m of a shape or one to four tuples of N_j = N - 1 + slack_j,
    slack_j in 0..3."""
    alphas, n, _ = draw(closed_form_instances(n_max))
    if draw(st.booleans()):
        alphas[0] = F(1)
    if draw(st.booleans()):
        shape = ApproxShape(n=n, n0=max(n) + draw(st.integers(0, 3)))
        return alphas, n, [shape.Nij_row(i) for i in range(len(n) + 1)]
    slack = st.tuples(*(st.integers(0, 3) for _ in n))
    N_rows = [tuple(sum(n) - 1 + e for e in es) for es in draw(st.lists(slack, min_size=1, max_size=4))]
    return alphas, n, N_rows


@settings(max_examples=100, deadline=None)
@given(multi_row_instances())
@example(([F(1), F(1, 2)], (6,), [(5,), (6,), (9,)]))  # m = 1, N_j = N - 1, N, N + 3
@example(([F(1), F(1, 2), F(1, 3)], (9, 4), [(15, 20), (16, 20), (15, 21)]))  # trio's rows at (9, 4), n0 = 11
@example(([F(1), F(2, 3), F(1, 4), F(7, 4)], (3, 1, 2), [(5, 5, 5), (9, 8, 5)]))  # m = 3
@example(([F(5, 3), F(1, 3), F(5, 2)], (2, 3), [(4, 4), (5, 4), (4, 5), (4, 4)]))  # alpha_0 != 1, a repeated tuple
def test_multi_row_closed_form_matches_references(instance):
    # one call builds every tuple's grid; each equals the Fraction references
    # and the one-tuple call, on either route (alpha_0 = 1 or not)
    alphas, n, N_rows = instance
    gp = derive_params(alphas)
    grids = build_q_generic(gp, n, N_rows)
    assert len(grids) == len(N_rows)
    for grid, N_list in zip(grids, N_rows):
        assert normalized_values(grid) == reference_ratio_build_q_generic(gp, n, N_list)
        assert grid == build_q_generic(gp, n, [N_list])[0]
        if sum(n) <= 8:
            assert grid_values(grid) == reference_build_q_generic(gp, n, N_list)


def test_unit_alpha0_takes_the_one_term_route(monkeypatch):
    # alpha_0 = 1 needs no Pochhammer product and no correlation: with
    # pochhammer unavailable, the rows still come out, equal to the reference
    def refused(*args):
        raise AssertionError("pochhammer called on the alpha_0 = 1 route")

    gp = derive_params([F(1), F(1, 2), F(1, 3)])
    shape = ApproxShape(n=(5, 3), n0=6)
    expected = [reference_ratio_build_q_generic(gp, shape.n, shape.Nij_row(i)) for i in range(3)]
    monkeypatch.setattr(gpade.pade, "pochhammer", refused)
    assert [grid_values(q) for q in build_q(gp, shape, range(3))] == expected
    with pytest.raises(AssertionError):
        build_q(derive_params([F(3, 2), F(1, 2)]), ApproxShape(n=(2,), n0=2), (0,))


def test_closed_form_refuses_bad_target_degrees():
    gp = derive_params([F(1), F(1, 2), F(1, 3)])
    assert build_q_generic(gp, (2, 2), []) == ()
    for N_rows in ([(3,)], [(3, 3), (3, 3, 3)], [(3, 3), (2, 3)]):
        with pytest.raises(ValueError):
            build_q_generic(gp, (2, 2), N_rows)


def reference_oracle_solve_generic(gp, n_list, N_list):
    """One row's order conditions solved on their own: the rows cleared by
    their lcm, a whole Bareiss elimination, y = det * x back-substituted."""
    N = sum(n_list)
    M = []
    for j in range(1, gp.m + 1):
        ratios = reference_phi_coeffs(gp, j, N_list[j - 1] + n_list[j - 1])
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
    rows = reference_oracle_solve(gp, shape)
    assert len(rows) == gp.m + 1
    for i, q in enumerate(rows):
        assert grid_values(q) == reference_oracle_solve_generic(gp, shape.n, shape.Nij_row(i))
    assert rows == build_q(gp, shape, range(gp.m + 1))
    assert judged(gp, shape, rows) == (True,) * (gp.m + 1)


def _satisfies(rows, x):
    return all(sum(c * xk for c, xk in zip(row, x)) == row[-1] for row in rows)


def test_shared_solve_needs_a_swap_in_the_tail():
    shared = [[2, 1, 1, 3]]
    # reduced against the shared pivot, the first row is 0 in column 1
    others = [[4, 2, 5, 1], [0, 1, 1, 1]]
    for system in ([0, 1], [1, 0]):
        (x,) = solve_sharing(shared, others, [system])
        assert _satisfies(shared + [others[o] for o in system], grid_values(x))


def test_shared_solve_without_shared_pivot_solves_each_system_whole():
    shared = [[0, 2, 1, 3], [0, 1, 4, 1]]  # no pivot in column 0
    others = [[1, 0, 0, 1], [5, 1, 1, 2], [3, 0, 1, 1]]
    systems = [[0], [1], [2]]
    solved = solve_sharing(shared, others, systems)
    for system, x in zip(systems, solved):
        assert _satisfies(shared + [others[o] for o in system], grid_values(x))
    assert solved[0] == Grid(7, (7, 11, -1))


def test_shared_solve_singular_tail():
    shared = [[2, 1, 1, 3]]
    others = [[4, 2, 5, 1], [0, 1, 1, 1], [0, 3, 3, 5]]  # the last two: proportional coefficients
    assert len(solve_sharing(shared, others, [[0, 1], [0, 2]])) == 2
    with pytest.raises(SingularSystem):
        solve_sharing(shared, others, [[0, 1], [1, 2]])
    with pytest.raises(SingularSystem):
        solve_sharing([], [[1, 2, 3], [2, 4, 5]], [[0, 1]])


def reference_fraction_solve(rows):
    """x with rows[r][:-1] . x = rows[r][-1] by Gauss-Jordan elimination in
    Fraction, or None when the square system is singular."""
    n = len(rows)
    A = [[F(c) for c in row] for row in rows]
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k] != 0), None)
        if piv is None:
            return None
        A[k], A[piv] = A[piv], A[k]
        for r in range(n):
            if r != k and A[r][k] != 0:
                f = A[r][k] / A[k][k]
                A[r] = [x - f * y for x, y in zip(A[r], A[k])]
    return tuple(A[r][n] / A[r][r] for r in range(n))


@st.composite
def sharing_instances(draw):
    """(shared, others, systems): n unknowns, s < n shared rows, at least
    n - s other rows, and systems of n - s distinct other rows each; small
    entries make zero, proportional and pivotless rows common."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(0, n - 1))
    row = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    shared = draw(st.lists(row, min_size=s, max_size=s))
    others = draw(st.lists(row, min_size=n - s, max_size=n - s + 3))
    pick = st.permutations(range(len(others))).map(lambda order: list(order[: n - s]))
    return shared, others, draw(st.lists(pick, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(sharing_instances())
# an unused other row that reduces to all zeros (content 0)
@example(([[2, 1, 1, 3]], [[4, 2, 2, 6], [0, 1, 1, 1], [1, 0, 3, 2]], [[1, 2], [2, 1]]))
# proportional own rows: singular
@example(([[2, 1, 1, 3]], [[4, 2, 5, 1], [0, 1, 1, 1], [0, 3, 3, 5]], [[0, 1], [1, 2]]))
# the first own row is 0 in column 1 after the shared step: a swap in the tail
@example(([[2, 1, 1, 3]], [[4, 2, 5, 1], [0, 1, 1, 1]], [[0, 1], [1, 0]]))
# the shared rows have no pivot in column 0: every system is solved whole
@example(([[0, 2, 1, 3], [0, 1, 4, 1]], [[1, 0, 0, 1], [5, 1, 1, 2], [3, 0, 1, 1]], [[0], [1], [2]]))
def test_sharing_solve_matches_fraction_gauss(instance):
    shared, others, systems = instance
    before = deepcopy(instance)
    expected = [reference_fraction_solve(shared + [others[o] for o in system]) for system in systems]
    if None in expected:
        with pytest.raises(SingularSystem):
            solve_sharing(shared, others, systems)
    else:
        assert [grid_values(x) for x in solve_sharing(shared, others, systems)] == expected
    assert instance == before  # the inputs are left as they were


@settings(max_examples=60, deadline=None)
@given(
    instance=closed_form_instances(),
    q=st.lists(st.fractions(min_value=-1000, max_value=1000, max_denominator=50), min_size=1, max_size=9),
    upto=st.integers(0, 25),
    data=st.data(),
)
def test_series_product_matches_fraction_convolution(instance, q, upto, data):
    # one call convolves several rows over windows of their own, as the
    # family's rows and their forced zeros are
    gp = derive_params(instance[0])
    lo = data.draw(st.integers(0, upto), label="lo")
    other = data.draw(st.lists(st.fractions(-50, 50, max_denominator=20), min_size=1, max_size=5), label="other")
    bounds = data.draw(st.tuples(st.integers(0, 30), st.integers(0, 30)).map(sorted), label="other window")
    for j in range(1, gp.m + 1):
        naive = tuple(reference_product_coeffs(gp, q, j, upto))
        assert grid_values(product_window(gp, cleared(q), j, 0, upto)) == naive
        windows = [(lo, upto), tuple(bounds), (0, upto)]
        phi = phi_coeffs(gp, j, max(upto, bounds[1]))
        full, part, whole = series_product_coeffs(phi, (cleared(q), cleared(other), cleared(q)), windows)
        assert grid_values(full) == naive[lo:] and grid_values(whole) == naive
        assert grid_values(part) == tuple(reference_product_coeffs(gp, other, j, bounds[1])[bounds[0] :])


def test_series_product_refuses_a_window_past_the_series():
    # a window may end at the grid's last order T and not past it: order
    # mu > T would slice the reversed grid from a negative start and read
    # coefficients from its far end instead
    gp = derive_params([F(1), F(1, 2)])
    q = Grid(3, (-5, 3))
    phi = phi_coeffs(gp, 1, 4)
    reference = reference_product_coeffs(gp, grid_values(q), 1, 4)
    assert grid_values(series_product_coeffs(phi, (q,), [(2, 4)])[0]) == tuple(reference[2:])
    for window in [(0, 5), (4, 6), (6, 6), (0, 9)]:
        with pytest.raises(ValueError, match="a window reaches past the series' last order"):
            series_product_coeffs(phi, (q, q), [(0, 4), window])


def normalized_values(grid):
    """The values on a grid, once its normalization is checked."""
    assert grid.den > 0 and gcd(grid.den, *grid.nums) == 1
    return grid_values(grid)


@settings(max_examples=60, deadline=None)
@given(instance=closed_form_instances(), extra=st.integers(0, 2), lo=st.integers(0, 30))
@example(instance=([F(1), F(1)], (3,), (0,)), extra=0, lo=0)  # alpha_0 = alpha_1 = 1: phi's grid is lcm(1..n+1)
def test_grids_are_normalized_and_match_fraction_references(instance, extra, lo):
    # the closed form, the product series and the oracle hand out their
    # polynomials on normalized grids, equal to the Fraction references
    alphas, n, slack = instance
    gp = derive_params(alphas)
    N_list = tuple(sum(n) - 1 + s for s in slack)
    (q,) = build_q_generic(gp, n, [N_list])
    assert normalized_values(q) == reference_ratio_build_q_generic(gp, n, N_list)
    for j in range(1, gp.m + 1):
        hi = lo + sum(n) + 3
        window = product_window(gp, q, j, lo, hi)
        assert normalized_values(window) == tuple(reference_product_coeffs(gp, grid_values(q), j, hi)[lo:])
    shape = ApproxShape(n=n, n0=max(n) + extra)
    qs = reference_oracle_solve(gp, shape)
    for i, row in enumerate(qs):
        assert normalized_values(row) == reference_oracle_solve_generic(gp, shape.n, shape.Nij_row(i))
    # the rows' P_ij and forced zeros, through order Ntilde + 1 on the diagonal
    for j, (nj, phi) in enumerate(zip(shape.n, verify_phis(gp, shape)), 1):
        Nij = [shape.Nij(i, j) for i in range(gp.m + 1)]
        for windows in ([(0, N) for N in Nij], [(N + 1, N + nj) for N in Nij]):
            for row, (a, b), grid in zip(qs, windows, series_product_coeffs(phi, qs, windows)):
                assert normalized_values(grid) == tuple(reference_product_coeffs(gp, grid_values(row), j, b)[a:])


def reference_phi_partial_sum(gp, j, z, T):
    """The former kernel: the terms 0..T of phi_j at z added one at a time."""
    acc = F(0)
    power = F(1)
    for cf in reference_phi_coeffs(gp, j, T):
        acc += cf * power
        power *= z
    return acc


# the p-adic audits evaluate at 8/3 and 27/2; the others cover |z| < 1 and > 1
series_points = st.one_of(
    st.sampled_from([F(8, 3), F(-8, 3), F(27, 2), F(-27, 2), F(1, 20014458431), F(-3, 7)]),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
    st.fractions(min_value=-30, max_value=30, max_denominator=100),
)


def split_partial_sum(gp, j, z, T):
    """The terms 0..T of phi_j at z from the `phi_split` piece over [0, T)."""
    _, q, s, _ = phi_split(gp, j, z, (T,))[0]
    return F(q + s, q)


@settings(max_examples=60, deadline=None)
@given(instance=closed_form_instances(), j=st.integers(1, 3), z=series_points, T=st.integers(0, 600))
@example(instance=([F(1), F(1, 2)], (1,), (0,)), j=1, z=F(8, 3), T=3000)
def test_partial_sum_matches_forward_sum(instance, j, z, T):
    gp = derive_params(instance[0])
    j = min(j, gp.m)
    assert split_partial_sum(gp, j, z, T) == reference_phi_partial_sum(gp, j, z, T)


@settings(max_examples=40, deadline=None)
@given(
    instance=closed_form_instances(),
    j=st.integers(1, 3),
    z=series_points,
    cuts=st.lists(st.integers(0, 300), min_size=1, max_size=4).map(sorted),
)
def test_partial_sum_parts_hold_the_last_term(instance, j, z, cuts):
    # each piece over [lo, hi) carries the term ratio and the tail from lo,
    # and the pieces merge into the piece over [0, hi)
    gp = derive_params(instance[0])
    j = min(j, gp.m)
    pieces = phi_split(gp, j, z, tuple(cuts))
    assert len(pieces) == len(cuts)
    phi = reference_phi_coeffs(gp, j, cuts[-1])

    def term(t):
        return phi[t] * z**t

    for lo, hi, (p, q, s, r) in zip([0, *cuts], cuts, pieces):
        assert r > 0 and q == r * z.denominator ** (hi - lo)
        assert term(lo) * F(p, q) == term(hi)
        assert term(lo) * F(s, q) == sum((term(t) for t in range(lo + 1, hi + 1)), F(0))
    merged = (1, 1, 0, 1)
    for piece in pieces:
        merged = phi_merge(merged, piece)
    assert merged == phi_split(gp, j, z, (cuts[-1],))[0]


def reference_phi_split(gp, j, z, cuts):
    """The former kernel: every range split down to one-term leaves."""
    aj = gp.alpha[j]
    a0j = aj + gp.alpha[0]

    def split(lo, hi):
        if hi - lo == 1:
            p = (aj.numerator + lo * aj.denominator) * a0j.denominator * z.numerator
            r = (a0j.numerator + lo * a0j.denominator) * aj.denominator
            return p, r * z.denominator, p, r
        if hi <= lo:
            return 1, 1, 0, 1
        mid = (lo + hi) // 2
        return phi_merge(split(lo, mid), split(mid, hi))

    return [split(lo, hi) for lo, hi in zip((0, *cuts), cuts)]


@settings(max_examples=60, deadline=None)
@given(
    instance=closed_form_instances(),
    j=st.integers(1, 3),
    z=series_points,
    cuts=st.lists(st.integers(0, 200), max_size=5).map(sorted),
)
@example(instance=([F(1), F(1)], (1,), (0,)), j=1, z=F(1, 20014458431), cuts=(15, 16, 17, 33, 34, 600))
def test_split_matches_one_term_leaves(instance, j, z, cuts):
    # the leaf loop merges in another order; the pieces are the same integers
    gp = derive_params(instance[0])
    j = min(j, gp.m)
    assert phi_split(gp, j, z, tuple(cuts)) == reference_phi_split(gp, j, z, tuple(cuts))


def reference_numerator_value(family, i, a, b):
    """P_i1(a/b) from the coefficients of P_i1, built by the product series."""
    hp, lp = cleared_eval(family.p_coeffs(i, 1), a, b)
    return F(hp, lp * b ** family.shape.Nij(i, 1))


@settings(max_examples=40, deadline=None)
@given(
    alphas=st.tuples(st.sampled_from(ALPHA_POOL), st.sampled_from(ALPHA_POOL)),
    n1=st.integers(1, 40),
    extra=st.integers(0, 80),
    a=st.integers(-40, 40).filter(bool),
    b=st.integers(1, 10**12),
    g=st.integers(1, 12),
)
@example(alphas=(F(2), F(1, 2)), n1=1, extra=0, a=-1, b=1, g=3)  # a/b = -3/3: T - n = 0
@example(alphas=(F(1), F(1)), n1=40, extra=80, a=1, b=20014458431, g=1)  # N_11 = 3 n1 + 1
def test_numerator_value_matches_product_series(alphas, n1, extra, a, b, g):
    # m = 1: P_01 and P_11 at a g / (b g), gcd(a g, b g) >= g, with
    # n1 <= n0 <= 3 n1, so N_i1 = n0 + i runs up to 3 n1 + 1
    gp = derive_params(list(alphas))
    shape = ApproxShape(n=(n1,), n0=n1 + extra % (2 * n1 + 1))
    family = build_family(gp, shape)
    for i in (0, 1):
        T = shape.Nij(i, 1)
        head = phi_split(gp, 1, F(a, b), (T - n1,))[0]
        num, hq, acc, G = numerator_at(gp, family.q[i], 1, a * g, b * g, T, head)
        assert G > 0
        assert F(num, head[1] * family.q[i].den * (b * g) ** n1 * G) == reference_numerator_value(family, i, a * g, b * g)
        assert hq == cleared_eval(family.q[i], a * g, b * g)[0]


def test_partial_sum_edges():
    gp = derive_params([F(1), F(1, 2), F(1, 3)])
    assert phi_split(gp, 2, F(5, 3), (0,)) == [(1, 1, 0, 1)]  # the terms 0..0 sum to 1
    assert phi_split(gp, 2, F(5, 3), ()) == []
    assert phi_split(gp, 2, F(5, 3), (3, 3))[1] == (1, 1, 0, 1)
    assert split_partial_sum(gp, 1, F(0), 9) == 1
    for j in (0, 3):
        with pytest.raises(ValueError, match="series index out of range"):
            phi_split(gp, j, F(1, 2), (4,))


def test_determinant_hand_instance(half):
    gp, shape, fam = half
    exponent, omega = certified_det(fam)
    assert exponent == 3 and omega == F(4, 75)
    assert omega == p_leading(fam, 1)


def reference_family_det(family):
    """(e, omega) of `family_det` by the multipoint route: the determinant has
    degree <= e, so its values at the e + 1 points t = +-1..+-k (2k >= e + 1)
    fix it, and it must equal omega t^e at each of them."""

    def horner(coeffs, t):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    gp, shape = family.gp, family.shape
    exponent = shape.N + sum(shape.Nj) + gp.m
    omega = F(1)
    for i in range(1, gp.m + 1):
        omega *= p_leading(family, i)
    if omega == 0:
        raise NonMonomialDeterminant("vanishing leading coefficient")
    # each row cleared by the lcm L_i of its grids' denominators; each cleared
    # polynomial split as f(+-t) = even(t^2) +- t odd(t^2)
    rows = []
    target = omega
    for i in range(gp.m + 1):
        polys = [family.q[i], *family.p[i]]
        L = lcm(*(den for den, _ in polys))
        cleared_polys = [[c * (L // den) for c in nums] for den, nums in polys]
        rows.append([(f[0::2], f[1::2]) for f in cleared_polys])
        target *= L
    for t in range(1, exponent // 2 + 2):
        halves = [[(horner(even, t * t), t * horner(odd, t * t)) for even, odd in row] for row in rows]
        for point, sign in ((t, 1), (-t, -1)):
            det = bareiss_eliminate([[e + sign * o for e, o in row] for row in halves])
            if det * target.denominator != target.numerator * point**exponent:
                raise NonMonomialDeterminant(f"determinant deviates from monomial at t={point}")
    return exponent, omega


@settings(max_examples=40, deadline=None)
@given(instance=closed_form_instances(n_max=4), n0=st.integers(1, 5))
@example(instance=([F(1), F(1, 2)], (1,), (0,)), n0=1)  # the `half` family
def test_family_det_matches_multipoint_reference(instance, n0):
    alphas, n, _ = instance
    gp = derive_params(alphas)
    fam = build_family(gp, ApproxShape(n=n, n0=max(n0, *n)))
    assert certified_det(fam) == reference_family_det(fam)


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def leibniz_det(matrix, mul, one):
    """The determinant of a square matrix by its permutation expansion, for
    entries with the product `mul`, the unit `one`, + and unary -."""
    n = len(matrix)
    total = None
    for perm in permutations(range(n)):
        term = one
        for r, c in enumerate(perm):
            term = mul(term, matrix[r][c])
        if sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)) % 2:
            term = -term
        total = term if total is None else total + term
    return total


class Poly(tuple):
    """A polynomial of Fractions with + and unary - for `leibniz_det`."""

    def __add__(self, other):
        return Poly(a + b for a, b in zip_longest(self, other, fillvalue=0))

    def __neg__(self):
        return Poly(-a for a in self)


def family_det_poly(family):
    """The coefficients of det(Q_i, P_i1, ..., P_im), trailing zeros dropped."""
    matrix = [[Poly(grid_values(g)) for g in (family.q[i], *family.p[i])] for i in range(family.gp.m + 1)]
    det = list(leibniz_det(matrix, lambda a, b: Poly(poly_mul(a, b)), Poly([F(1)])))
    while det and det[-1] == 0:
        det.pop()
    return det


def test_determinant_by_direct_polynomial_arithmetic():
    # independent route: expand the determinant over permutations by
    # coefficient convolution
    for alphas, n, n0 in [
        ([F(1), F(1, 2)], (1,), 1),  # the `half` family: Q0 P11 - Q1 P01
        ([F(1), F(1, 2), F(1, 3)], (1, 1), 1),
        ([F(1, 2), F(1, 3), F(3, 4)], (2, 1), 3),
        ([F(5, 3), F(2, 5), F(7, 4)], (2, 2), 2),
    ]:
        fam = build_family(derive_params(alphas), ApproxShape(n=n, n0=n0))
        exponent, omega = certified_det(fam)
        assert family_det_poly(fam) == [F(0)] * exponent + [omega]


def with_row(fam, i, q):
    """The family with row i rebuilt from the denominator q: Q_i = q and P_ij
    the series q * phi_j through order N_ij, as `build_family` forms them."""
    prow = tuple(product_window(fam.gp, q, j, 0, fam.shape.Nij(i, j)) for j in range(1, fam.gp.m + 1))
    return fam._replace(q=fam.q[:i] + (q,) + fam.q[i + 1 :], p=fam.p[:i] + (prow,) + fam.p[i + 1 :])


def det_at_one(fam):
    """The determinant at t = 1, by the permutation expansion."""
    return leibniz_det([[sum(grid_values(g)) for g in (fam.q[i], *fam.p[i])] for i in range(fam.gp.m + 1)], mul, F(1))


def det_gap(fam):
    """det(1) - omega: 0 where the value at t = 1 holds."""
    return det_at_one(fam) - prod(p_leading(fam, k) for k in range(1, fam.gp.m + 1))


def balanced_row(fam, i, q_at):
    """The family with row i rebuilt (`with_row`) from the denominator
    q_at(c1, c2), at some (c1, c2) != (0, 0) where det(1) still equals omega.
    q_at is affine with q_at(0, 0) = Q_i, so `det_gap` is linear in (c1, c2)."""

    def row(c1, c2):
        return with_row(fam, i, q_at(F(c1), F(c2)))

    a, b = det_gap(row(1, 0)), det_gap(row(0, 1))
    return row(b, -a) if a or b else row(1, 0)


def test_determinant_rejects_corruption():
    # family_det proves the monomial from deg Q_i <= N, the forced zeros
    # through order Ntilde and the value at t = 1, with P_ij defined as
    # Q_i * phi_j through N_ij.  Perturb Q_i at degree 0 and at its top
    # degree: the verdict is the expanded determinant's.  Corrupt each
    # forced zero it reads; then break each check alone while the others hold
    for alphas, n, n0, exponent in [
        ([F(1), F(1, 2)], (1,), 1, 3),
        ([F(1), F(1, 2)], (1,), 2, 4),
        ([F(1, 2), F(1, 3), F(3, 4)], (2, 1), 3, 14),
        ([F(3, 2), F(1, 2), F(2, 3), F(1, 4)], (1, 2, 1), 2, 21),
    ]:
        gp = derive_params(alphas)
        m, shape = gp.m, ApproxShape(n=n, n0=n0)
        fam = build_family(gp, shape)
        assert certified_det(fam)[0] == exponent
        for i, degree in [(0, 0), (0, shape.N), (m, 0), (m, shape.N)]:
            perturbed = with_row(fam, i, plus_one(fam.q[i], degree))
            omega = prod(p_leading(perturbed, k) for k in range(1, m + 1))
            if family_det_poly(perturbed) == [F(0)] * exponent + [omega]:
                assert certified_det(perturbed) == (exponent, omega)
            else:
                with pytest.raises(NonMonomialDeterminant):
                    certified_det(perturbed)
        phis = verify_phis(gp, shape)
        zeros = verify_order(shape, fam.q, phis)
        read = [(i, j) for i, j in zeros if shape.Nij(i, j) < shape.Ntilde]
        assert len(read) == (m + 1) * m - sum(nj == 1 for nj in n)
        for i, j in read:
            corrupted = {**zeros, (i, j): plus_one(zeros[i, j], shape.Ntilde - shape.Nij(i, j) - 1)}
            with pytest.raises(NonMonomialDeterminant, match=f"phi_j is not 0 .* at i={i}, j={j}"):
                family_det(shape, fam.q, phis, corrupted)

        if n == (1,):
            # deg Q_i <= N alone: Q_1 + c1 z^(N+1) + c2 z^(N+2) and P_11 its
            # series through N_11 = Ntilde, no monomial (row 1's window is
            # order Ntilde + 1 alone, which the witness does not read)
            corrupted = balanced_row(fam, 1, lambda c1, c2: cleared([*grid_values(fam.q[1]), c1, c2]))
            assert det_gap(corrupted) == 0 and order_holds(corrupted)[0, 1]
            assert len(family_det_poly(corrupted)) > exponent + 1
            with pytest.raises(NonMonomialDeterminant, match="Q_1 exceeds its degree bound"):
                certified_det(corrupted)
        # the forced zeros alone: Q_0 + c1 + c2 z, its own P_0j, no monomial
        corrupted = balanced_row(
            fam, 0, lambda c1, c2: cleared([x + c for x, c in zip_longest(grid_values(fam.q[0]), (c1, c2), fillvalue=0)])
        )
        assert det_gap(corrupted) == 0 and not all(order_holds(corrupted).values())
        assert family_det_poly(corrupted) != [F(0)] * exponent + [det_at_one(corrupted)]
        with pytest.raises(NonMonomialDeterminant, match="phi_j"):
            certified_det(corrupted)
        # the value at t = 1 alone: Q_0 doubled doubles P_0j and the monomial
        double = Grid.of(fam.q[0].den, [2 * x for x in fam.q[0].nums])
        with pytest.raises(NonMonomialDeterminant, match="t=1"):
            certified_det(fam._replace(q=(double, *fam.q[1:])))


def test_oracle_verdicts_survive_the_exact_fallback(monkeypatch):
    # modulo 1 every residue is 0, so every system is settled by Bareiss, and
    # the verdicts are those of the modular certificate
    configs = make_configs(4242, 6, n_max=3, n0_max=4)
    families = [(gp, sh, build_family(gp, sh).q) for gp, sh in configs]
    verdicts = [
        (judged(gp, sh, qs), judged(gp, sh, (plus_one(qs[0], 0), *qs[1:]))) for gp, sh, qs in families
    ]
    calls = []
    monkeypatch.setattr(gpade.arith, "RANK_PRIME", 1)
    monkeypatch.setattr(gpade.arith, "bareiss_eliminate", lambda rows: calls.append(rows) or bareiss_eliminate(rows))
    for (gp, sh, qs), (good, broken) in zip(families, verdicts):
        assert good == (True,) * (gp.m + 1) and broken == (False, *good[1:])
        assert judged(gp, sh, qs) == good
        assert judged(gp, sh, (plus_one(qs[0], 0), *qs[1:])) == broken
    assert len(calls) == 2 * sum(gp.m + 1 for gp, _, _ in families)


def test_family_det_evaluates_one_point(monkeypatch):
    # the series witness leaves one unknown, det(1): one elimination per call
    calls = []
    monkeypatch.setattr(gpade.pade, "bareiss_eliminate", lambda rows: calls.append(rows) or bareiss_eliminate(rows))
    for gp, sh in make_configs(4242, 6, n_max=4, n0_max=5):
        before = len(calls)
        certified_det(build_family(gp, sh))
        assert len(calls) == before + 1


@pytest.mark.parametrize("params, n, n0", [("half", (2,), 3), ("trio", (2, 1), 2), ("quad", (1, 2, 1), 2)])
def test_verify_forms_no_numerator(monkeypatch, capsys, params, n, n0):
    # `verify` builds no family.  It forms each phi_j once, through order
    # Ntilde + 1, and hands that grid on: the kernel forms only the forced
    # zeros N_ij+1..N_ij+n_j of each Q_i*phi_j, each once, in one call per
    # series; family_det reads P_ij(1) from the grid's partial sums, and the
    # oracle reads the grid and the forced zeros.  Neither forms a phi_j
    # grid or a product, and the oracle, on this nonsingular family, forms no
    # exact determinant
    kernel, phi = gpade.pade.series_product_coeffs, gpade.pade.phi_coeffs
    formed, grids, kernel_series, inside = {}, [], [], []

    def refuse(*args):
        raise AssertionError("verify built the family")

    def refuse_inside(*args):
        raise AssertionError(f"{inside[-1]} formed a phi_j grid, a product or an exact determinant")

    def counting_phi(gp, j, hi):
        if inside:
            refuse_inside()
        grids.append((j, hi, phi(gp, j, hi)))
        return grids[-1][2]

    def watched(name, reader):
        def run(*args):
            inside.append(name)
            try:
                return reader(*args)
            finally:
                inside.pop()

        return run

    def recording_kernel(grid, qs, windows):
        if inside:
            refuse_inside()
        # the grid verify formed for series j, not a copy
        j = next(j for j, _, made in grids if made is grid)
        kernel_series.append(j)
        for i, (lo, hi) in enumerate(windows):
            formed.setdefault((i, j), []).extend(range(lo, hi + 1))
        return kernel(grid, qs, windows)

    for module in (gpade.cli, gpade.pade):
        monkeypatch.setattr(module, "build_family", refuse)
        monkeypatch.setattr(module, "phi_coeffs", counting_phi)
    monkeypatch.setattr(gpade.pade, "series_product_coeffs", recording_kernel)
    monkeypatch.setattr(gpade.cli, "oracle_solve", watched("oracle_solve", gpade.cli.oracle_solve))
    monkeypatch.setattr(gpade.cli, "family_det", watched("family_det", gpade.cli.family_det))
    monkeypatch.setattr(gpade.arith, "bareiss_eliminate", refuse_inside)
    path = str(Path(__file__).parent / "golden" / "params" / f"{params}.params")
    argv = ["verify", "--params", path, "--n", ",".join(map(str, n)), "--n0", str(n0)]
    assert gpade.cli.main(argv) == 0 and "PASS" in capsys.readouterr().out
    shape, m = ApproxShape(n=n, n0=n0), len(n)
    assert [(j, hi) for j, hi, _ in grids] == [(j, shape.Ntilde + 1) for j in range(1, m + 1)]
    assert kernel_series == list(range(1, m + 1))
    assert sorted(formed) == [(i, j) for i in range(m + 1) for j in range(1, m + 1)]
    for (i, j), orders in formed.items():
        Nij = shape.Nij(i, j)
        assert orders == list(range(Nij + 1, Nij + n[j - 1] + 1)), (i, j)


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
            assert p_leading(fam, i) != 0
        for i in range(gp.m + 1):
            for j in range(1, gp.m + 1):
                assert len(fam.p_coeffs(i, j).nums) == shape.Nij(i, j) + 1


def test_small_random_sweep():
    for gp, sh in make_configs(4242, 20, n_max=4, n0_max=5):
        qs = build_q(gp, sh, range(gp.m + 1))
        phis = verify_phis(gp, sh)
        zeros = verify_order(sh, qs, phis)
        assert not any(any(window.nums) for window in zeros.values())
        assert oracle_solve(sh, qs, phis, zeros) == (True,) * (gp.m + 1)
        solved = reference_oracle_solve(gp, sh)
        for i in range(gp.m + 1):
            assert solved[i] == qs[i]
            assert grid_values(qs[i])[-1] == 1  # normalized leading coefficient
        e, om = family_det(sh, qs, phis, zeros)
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
    with pytest.raises(IntegralityViolation, match="^scale 2 does not clear coefficient -5/3$"):
        family_tsv(fam, scale=2)


def test_family_rows_read_the_grids_as_reduced_fractions():
    # the dump reads each grid (L, c) in int; the rows must be those of the
    # reduced Fractions c_k / L, and with D as the scale those of c_k D / L
    for gp, shape in make_configs(34, 12):
        fam = build_family(gp, shape)
        D = make_cert(gp, shape, ThetaMode.sharp()).d.value
        for scale in (None, D):
            expected = [
                (i, label, k, str(v.numerator), str(v.denominator))
                for i in range(gp.m + 1)
                for label, grid in [("Q", fam.q[i]), *((str(j), g) for j, g in enumerate(fam.p[i], 1))]
                for k, v in enumerate(x * (scale or 1) for x in grid_values(grid))
            ]
            assert list(family_rows(fam, scale)) == expected

