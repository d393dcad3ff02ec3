"""Simultaneous rational approximation (second kind) of the series family.

For parameters gp and a block-degree shape this module constructs, in exact
rational arithmetic, the m+1 rows of approximants: a common denominator
polynomial Q_i of degree N and numerators P_ij such that Q_i * phi_j - P_ij
vanishes to order N_ij + n_j + 1 at the origin.  Row i uses the shifted
degrees N_ij = N_j + delta_ij.

The denominators come from their closed-form coefficients, every row of a
shape in one pass (`build_q`).  When alpha_0 = 1 or m = 1 each coefficient
is one hypergeometric term, as for a reversed Jacobi-Pineiro or Jacobi
polynomial (Van Assche & Coussement, J. Comput. Appl. Math. 127, 2001;
Szego, Orthogonal Polynomials, (4.21.2)); otherwise it is an integer
correlation of two hypergeometric sequences.  `oracle_solve` certifies them
against the order conditions: each Q_i meets its N equations exactly, since
their left sides are the forced zeros of Q_i * phi_j, and their matrix,
whose rows are windows of phi_j's coefficients, is nonsingular
(`arith.certify_nonsingular`), so Q_i is the unique monic solution.  No
second construction is formed.

The family (`build_family`) holds Q_i and P_ij, for the reports that print
or check every coefficient.  `verify` forms no P_ij.  The forced zeros of
Q_i * phi_j end by order N_ij + n_j <= Ntilde + 1, so `verify` forms phi_j
once through Ntilde + 1 (`phi_coeffs`) for `verify_order` (the forced zeros,
by `series_product_coeffs`), `oracle_solve` (its equations' rows) and
`family_det` (P_ij(1) from partial sums).  The audits read no coefficient
past Q_i: they evaluate the rows at a point from Q_i's grid and one split
of phi_j (`phi_split`, `numerator_at`, and `realseries`).

Every polynomial is built once as an integer grid (`arith.Grid`): a positive
common denominator and a tuple of integer numerators with no factor common
to all of them, so equal polynomials are equal tuples.  One kernel,
`_hyper_grid`, walks a sequence from its term ratio straight onto its grid,
with no gcd over it: phi_j's coefficients, each one-term Q_i and both
sequences of a correlation.  The correlations and the product series (which
convolves numerators on the grid of Q times that of phi_j) normalize once.
A reduced Fraction is formed only where a report prints one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, prod
from operator import mul
from typing import NamedTuple

from .arith import Grid, bareiss_eliminate, certify_nonsingular, pochhammer
from .errors import IntegralityViolation, InvariantViolation, NonMonomialDeterminant
from .params import GParams
from .report import full_digits, tsv

__all__ = [
    "ApproxShape",
    "PadeFamily",
    "phi_coeffs",
    "phi_split",
    "phi_merge",
    "build_q",
    "build_q_generic",
    "series_product_coeffs",
    "numerator_at",
    "build_family",
    "verify_order",
    "oracle_solve",
    "family_det",
    "family_rows",
    "family_tsv",
]


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


class _ShapeFields(NamedTuple):
    n: tuple[int, ...]
    n0: int


class ApproxShape(_ShapeFields):
    """Block degrees n_1..n_m plus the free degree n0 >= max n_j.

    Fixes N_j = N + n0 - n_j, so every N_j >= N - 1 automatically and the
    shifted per-row degrees are N_ij = N_j + delta_ij.
    """

    __slots__ = ()

    def __new__(cls, n: tuple[int, ...], n0: int):
        if not n or any(k < 1 for k in n):
            raise ValueError("block degrees must be positive")
        if n0 < max(n):
            raise ValueError("n0 must be >= max n_j")
        return tuple.__new__(cls, (n, n0))

    @property
    def m(self) -> int:
        return len(self.n)

    @property
    def N(self) -> int:
        return sum(self.n)

    @property
    def Ntilde(self) -> int:
        return self.N + self.n0

    @property
    def Nj(self) -> tuple[int, ...]:
        return tuple(self.Ntilde - nj for nj in self.n)

    def Nij(self, i: int, j: int) -> int:
        """Shifted degree for row i, series j (1-based j)."""
        return self.Ntilde - self.n[j - 1] + (i == j)

    def Nij_row(self, i: int) -> tuple[int, ...]:
        return tuple(self.Nij(i, j) for j in range(1, self.m + 1))

    @property
    def det_exponent(self) -> int:
        """e = N + sum N_j + m = m (Ntilde + 1) of det(Q_i, P_ij) = omega z^e."""
        return self.m * (self.Ntilde + 1)

    @property
    def remainder_truncation(self) -> int:
        """Ntilde + max n_j + 2: the order at which the p-adic remainder
        readers first truncate, past every row's first remainder order."""
        return self.Ntilde + max(self.n) + 2


# ---------------------------------------------------------------------------
# Series coefficients
# ---------------------------------------------------------------------------

Piece = tuple[int, int, int, int]  # a `phi_split` piece (P, Q, S, R)
# `phi_split` sums ranges of at most this many terms by a loop, where the
# operands are still short and a call and a merge per term would cost more
# than the products (8 to 32 terms time alike, 16 slightly best)
_LEAF_TERMS = 16


def _hyper_grid(ps: Iterable[int], qs: Iterable[int]) -> Grid:
    """The grid of t_0 = 1, t_(k+1) = t_k p_k / q_k for integers p_k and
    q_k > 0, read from `ps` and `qs` twice, with no gcd over the grid.

    Pass 1 keeps b = t_k S, S the lcm of the reduced denominators of
    t_0..t_k.  When b p_k = x q_k + r with r != 0, t_(k+1) S has the reduced
    denominator q_k / gcd(r, q_k), so S grows by that factor and b becomes
    b p_k / gcd(r, q_k).  The final S is L, the lcm of every reduced
    denominator: the largest power of a prime in L is that of some t_k's
    reduced denominator, so it does not divide t_k L, and gcd(L, *nums) = 1.
    Pass 2 steps b_0 = L, b_(k+1) = b_k p_k / q_k by exact divisions; a
    remainder there raises InvariantViolation.
    """
    S = b = 1
    for p, q in zip(ps, qs):
        b, r = divmod(b * p, q)
        if r:  # b p / g = b f + r / g for the b = (b p) // q just formed
            g = gcd(r, q)
            f = q // g
            S *= f
            b = b * f + r // g
    b = S
    nums = [b]
    append = nums.append
    for p, q in zip(ps, qs):
        b, r = divmod(b * p, q)
        if r:
            raise InvariantViolation(f"a term ratio {p}/{q} left a remainder on the grid over {S}")
        append(b)
    return Grid(S, tuple(nums))


def phi_coeffs(gp: GParams, j: int, hi: int) -> Grid:
    """The grid of phi_j's coefficients of orders 0..hi (hi >= 0).

    With alpha_j = a/b and alpha_0 + alpha_j = c/d in lowest terms (`GParams`'
    r_j/s_j and u_j/v_j) and g = gcd(b, d), the term ratio is
    (d/g)(a + kb) / ((b/g)(c + kd)): two progressions with the one step
    bd/g > 0, walked by `_hyper_grid`.
    """
    if not (1 <= j <= gp.m and hi >= 0):
        raise ValueError("series index or order out of range")
    a, b, c, d = gp.r[j], gp.s[j], gp.u[j - 1], gp.v[j - 1]
    g = gcd(b, d)
    w, x, y = b // g * d, d // g * a, b // g * c
    return _hyper_grid(range(x, x + hi * w, w), range(y, y + hi * w, w))


def phi_split(gp: GParams, j: int, z: Fraction, cuts: tuple[int, ...]) -> list[Piece]:
    """Binary-splitting pieces (P, Q, S, R) of phi_j at z over [0, c_1),
    [c_1, c_2), ... for cuts 0 <= c_1 <= c_2 <= ...

    Consecutive terms have the ratio (alpha_j + n) z / (alpha_j + alpha_0 + n)
    = p(n) / q(n) with integers p(n) and q(n) = r(n) * z.denominator.  Over a
    range [lo, hi) of n, P = prod p(n), Q = prod q(n), R = prod r(n) > 0 and
    the sum S / Q of the running products p(lo)...p(k) / q(lo)...q(k) are
    integers: the term of order hi is the term of order lo times P / Q, and
    the terms of orders lo+1..hi add up to the term of order lo times S / Q.
    An empty range is (1, 1, 0, 1), and adjacent pieces merge by `phi_merge`
    (binary splitting, Haible & Papanikolaou 1998), which is associative, so
    ranges of up to `_LEAF_TERMS` terms are summed by a loop with the same
    result.  One split serves every partial sum through a cut and every tail
    between two cuts.
    """
    if not 1 <= j <= gp.m:
        raise ValueError("series index out of range")
    z = Fraction(z)
    a, b, c, d = gp.r[j], gp.s[j], gp.u[j - 1], gp.v[j - 1]  # alpha_j = a/b, alpha_j + alpha_0 = c/d
    # p(n) = pn + n pd and r(n) = rn + n rd
    pn, pd = a * d * z.numerator, b * d * z.numerator
    rn, rd = c * b, d * b
    zd = z.denominator

    def split(lo: int, hi: int) -> Piece:
        if hi - lo > _LEAF_TERMS:
            mid = (lo + hi) // 2
            return phi_merge(split(lo, mid), split(mid, hi))
        # a short range: one-term pieces merged in order onto the empty piece
        P, Q, S, R = 1, 1, 0, 1
        for n in range(lo, hi):
            p, r = pn + n * pd, rn + n * rd
            q = r * zd
            P, Q, S, R = P * p, Q * q, S * q + P * p, R * r
        return P, Q, S, R

    return [split(lo, hi) for lo, hi in zip((0, *cuts), cuts)]


def phi_merge(x: Piece, y: Piece) -> Piece:
    """The `phi_split` piece over [lo, hi) from those over [lo, mid) and [mid, hi)."""
    p1, q1, s1, r1 = x
    p2, q2, s2, r2 = y
    return p1 * p2, q1 * q2, s1 * q2 + p1 * s2, r1 * r2


# ---------------------------------------------------------------------------
# Closed-form denominator coefficients
# ---------------------------------------------------------------------------


def build_q_generic(gp: GParams, n_list: tuple[int, ...], N_rows: Iterable[tuple[int, ...]]) -> tuple[Grid, ...]:
    """The grids of the closed-form coefficients a_0..a_N of the common
    denominator Q, one for each tuple of target degrees N_j >= N - 1 in
    `N_rows` (N = sum of the n_j).  a_N = 1.

    The summand of a_{N-k-1} factors as g(l-k) * h(l), summed over k <= l < N
    and divided by prod_j (alpha_j + e_j)_{n_j}, with e_j = N_j - N + 1 >= 0,

        g(d) = (alpha_0 - 1)_d / d!,
        h(l) = (-1)^(l+1) (alpha_0 + l + 1)_{N-l-1} / (N-l-1)! * prod_j (c_j + l)_{n_j},
        c_j  = alpha_j + alpha_0 + e_j.

    Each sequence is walked by its term ratio (`_hyper_grid`).  Series j's
    factors there are a + x b for consecutive x >= 0 from the tuple's e_j
    plus an offset, with a/b = alpha_j or alpha_j + alpha_0 in lowest terms
    (`GParams`' r_j/s_j and u_j/v_j): each tuple takes them as one progression
    `range(a + x b, ..., b)`, step b > 0, and so do the other factors.

    One term (alpha_0 = 1, or m = 1): from a_N = 1, for l = -1..N-2,

        a_(N-l-2) / a_(N-l-1) = -(N-l-1)/(l+2) * prod_j (c_j + l + n_j) / (alpha_j + e_j + l + 1).

    At alpha_0 = 1, g(d) = 0 for d >= 1, so a_{N-k-1} is h(k) over the
    Pochhammer product, which is h(-1); h(k+1)/h(k) is the ratio above, as
    c_j + k = alpha_j + e_j + k + 1.  At m = 1 the closed form solves the
    row's order conditions (`oracle_solve` certifies them): the orders
    N_1 + 1..N_1 + N of Q phi_1 vanish.  phi_1's coefficient of order t is
    int_0^1 x^t w(x) dx for w(x) = x^(alpha_1-1) (1-x)^(alpha_0-1) /
    B(alpha_1, alpha_0), so q(x) = x^N Q(1/x) = sum_i a_(N-i) x^i is
    orthogonal to x^i for i < N under the weight x^(e_1) w(x) > 0 on (0, 1).
    Then q is unique up to a factor, of degree N and with its zeros in
    (0, 1), so q(0) != 0: it is the shifted Jacobi polynomial
    P_N^(alpha_1 + e_1 - 1, alpha_0 - 1)(1 - 2x), that is (Szego, Orthogonal
    Polynomials, (4.21.2)) 2F1(-N, N + alpha_0 + alpha_1 + e_1 - 1;
    alpha_1 + e_1; x), whose term ratio at x^(l+1) is the ratio above.

    Otherwise (m >= 2, alpha_0 != 1) g and h / h(0) are one walk each,

        g(d+1) / g(d) = (alpha_0 - 1 + d) / (d + 1),
        h(l+1) / h(l) = -(N-l-1) / (alpha_0 + l + 1) * prod_j (c_j + l + n_j) / (c_j + l),

    on grids (G, g_d) and (H, h_l); with the one integer fraction
    sigma = h(0) / prod_j (alpha_j + e_j)_{n_j} per tuple, each coefficient
    is one correlation over one common denominator, normalized once:

        a_{N-k-1} = sigma * sum_{k<=l<N} g_(l-k) h_l / (G H).
    """
    m = gp.m
    N_rows = [tuple(Ns) for Ns in N_rows]
    if len(n_list) != m or any(len(Ns) != m for Ns in N_rows):
        raise ValueError("need one block degree and one target degree per series")
    N = sum(n_list)
    if any(Nj < N - 1 for Ns in N_rows for Nj in Ns):
        raise ValueError("closed form requires N_j >= N - 1")
    shifts = [[Nj - N + 1 for Nj in Ns] for Ns in N_rows]

    def walks(ps: range, qs: range, tops, bottoms: list) -> list[Grid]:
        # per tuple, the walk of ps[k] prod_j (a + (e_j + o + k) b) over the
        # same for qs and `bottoms`, with (a, b, o) series j's entry of `tops`
        def times(base: range, spec, es) -> list[int]:
            for e, (a, b, o) in zip(es, spec):
                x = a + (e + o) * b
                base = map(mul, base, range(x, x + len(ps) * b, b))
            return list(base)

        return [_hyper_grid(times(ps, tops, es), times(qs, bottoms, es)) for es in shifts]

    a0j = list(zip(gp.u, gp.v, n_list))  # alpha_j + alpha_0 = u_j/v_j
    if m == 1 or gp.r0 == gp.s0:
        bp, bq = prod(gp.s[1:]), prod(gp.v)
        c = gcd(bp, bq)
        bp, bq = bp // c, bq // c
        tops = [(u, v, nj - 1) for u, v, nj in a0j]
        grids = walks(range(-N * bp, 0, bp), range(bq, (N + 1) * bq, bq), tops, list(zip(gp.r[1:], gp.s[1:], [0] * m)))
        return tuple(Grid(L, t[::-1]) for L, t in grids)

    u, v = gp.r0, gp.s0  # alpha_0 = u/v
    G, g = _hyper_grid(range(u - v, u + (N - 2) * v, v), range(v, N * v, v))
    h0 = pochhammer(Fraction(u + v, v), N - 1)  # alpha_0 + 1 = (u + v)/v; h(0) = -h0 / (N-1)! * prod_j (c_j)_{n_j}
    # (x/b)_n = prod(range(x, x + n b, b)) / b^n: the powers are the same for every tuple
    num0 = -h0.numerator * prod(sj**nj for sj, nj in zip(gp.s[1:], n_list))
    den0 = h0.denominator * factorial(N - 1) * G * prod(vj**nj for vj, nj in zip(gp.v, n_list))
    out = []
    ps, qs = range(-(N - 1) * v, 0, v), range(u + v, u + N * v, v)
    for (H, h), es in zip(walks(ps, qs, a0j, [(uj, vj, 0) for uj, vj, _ in a0j]), shifts):
        num, den = num0, den0 * H
        for rj, sj, (uj, vj, nj), e in zip(gp.r[1:], gp.s[1:], a0j, es):
            num *= prod(range(uj + e * vj, uj + (e + nj) * vj, vj))
            den *= prod(range(rj + e * sj, rj + (e + nj) * sj, sj))
        c = gcd(num, den)
        sums = [sum(map(mul, g, h[k:])) * (num // c) for k in range(N - 1, -1, -1)]
        out.append(Grid.of(den // c, [*sums, den // c]))
    return tuple(out)


def build_q(gp: GParams, shape: ApproxShape, rows: Iterable[int]) -> tuple[Grid, ...]:
    """The grids of the denominator coefficients of the rows i in `rows`
    (0 <= i <= m), in one pass (`build_q_generic`)."""
    rows = tuple(rows)
    if not all(0 <= i <= gp.m for i in rows):
        raise ValueError("row index out of range")
    return build_q_generic(gp, shape.n, [shape.Nij_row(i) for i in rows])


def series_product_coeffs(phi: Grid, qs: tuple[Grid, ...], windows: list[tuple[int, int]]) -> tuple[Grid, ...]:
    """The grids of the coefficients lo..hi of Q * phi, one for each grid of
    a denominator Q in `qs` and its window (lo, hi) in `windows`, from the
    grid `phi` of a series' coefficients of orders 0..T (`phi_coeffs`).  A
    window past order T raises ValueError.  Each convolution of numerators
    lies on the grid Dq Dr of its Q and of phi, normalized once.
    """
    Dr, r_int = phi
    end = len(r_int) - 1
    if any(hi > end for _, hi in windows):
        raise ValueError("a window reaches past the series' last order")
    r_rev = r_int[::-1]  # r_rev[end - mu + k] = the series' coefficient mu - k
    return tuple(
        Grid.of(Dq * Dr, [sum(map(mul, q_int, r_rev[end - mu :])) for mu in range(lo, hi + 1)])
        for (Dq, q_int), (lo, hi) in zip(qs, windows)
    )


def numerator_at(gp: GParams, q: Grid, j: int, a: int, b: int, T: int, head: Piece) -> tuple[int, ...]:
    """Integers (num, H, acc, G), G > 0, with num / (Q' L b^n G) the value at
    a/b (b > 0) of the coefficients 0..T >= n = deg Q of Q * phi_j, P_ij(a/b)
    for T = N_ij, and H / (L b^n) = Q(a/b) for the grid (L, c) of Q, the H of
    `cleared_eval`; `head` is the `phi_split` piece (P, Q', S, R) of phi_j at
    a/b over [0, T - n).

    The value is Q(a/b) S_(T-n) + P / Q' * acc / (L b^n G): S_(T-n) =
    (Q' + S) / Q' is phi_j's partial sum through T - n, P / Q' its term of
    order T - n, and Q_r(a/b) = H_r / (L b^r) is Q's prefix of degree r:
    H_r = H_(r-1) b + c_r a^r, and H = H_n.  The n tail terms close by a
    backward Horner over the ratio (alpha_j + t) a / ((alpha_j + alpha_0 + t) b)
    of the terms of orders t + 1 and t: after order t the sum is
    acc / (L b^(T-t) G), G the product of the ratio denominators so far, and
    the tail is the term of order T - n times it.
    """
    L, c = q
    n = len(c) - 1
    H, apow = [c[0]], 1
    for ck in c[1:]:
        apow *= a
        H.append(H[-1] * b + ck * apow)
    p, sq, s, _ = head
    rj, sj, uj, vj = gp.r[j], gp.s[j], gp.u[j - 1], gp.v[j - 1]  # alpha_j = rj/sj, alpha_j + alpha_0 = uj/vj
    acc, G = 0, 1
    for t in range(T - 1, T - n - 1, -1):
        acc = (rj + t * sj) * vj * a * (H[T - 1 - t] * G + acc)
        G *= (uj + t * vj) * sj
    return H[n] * (sq + s) * G + p * acc, H[n], acc, G


# ---------------------------------------------------------------------------
# The assembled family
# ---------------------------------------------------------------------------


class PadeFamily(NamedTuple):
    gp: GParams
    shape: ApproxShape
    q: tuple[Grid, ...]  # (m+1) grids of denominator coeffs
    p: tuple[tuple[Grid, ...], ...]  # p[i][j-1] = P_ij through order N_ij

    def p_coeffs(self, i: int, j: int) -> Grid:
        return self.p[i][j - 1]


def build_family(gp: GParams, shape: ApproxShape) -> PadeFamily:
    """Construct all m+1 rows: Q_i and every numerator P_ij, the product
    series Q_i*phi_j through order N_ij."""
    if gp.m != shape.m:
        raise ValueError("shape and parameters disagree on m")
    rows = range(gp.m + 1)
    qrows = build_q(gp, shape, rows)
    phis = [phi_coeffs(gp, j, shape.Nij(j, j)) for j in range(1, gp.m + 1)]
    cols = [series_product_coeffs(phi, qrows, [(0, shape.Nij(i, j)) for i in rows]) for j, phi in enumerate(phis, 1)]
    return PadeFamily(gp=gp, shape=shape, q=qrows, p=tuple(zip(*cols)))


def verify_order(shape: ApproxShape, qs: tuple[Grid, ...], phis: tuple[Grid, ...]) -> dict[tuple[int, int], Grid]:
    """The grid of the coefficients N_ij + 1 .. N_ij + n_j <= Ntilde + 1 of
    Q_i*phi_j for the grids qs[i] of Q_i and phis[j - 1] of phi_j through
    order Ntilde + 1, which the order conditions force to zero: row i meets
    them on series j exactly when that window's numerators are all 0."""
    out = {}
    for j, (nj, phi) in enumerate(zip(shape.n, phis), 1):
        windows = [(shape.Nij(i, j) + 1, shape.Nij(i, j) + nj) for i in range(shape.m + 1)]
        out.update(((i, j), w) for i, w in enumerate(series_product_coeffs(phi, qs, windows)))
    return out


# ---------------------------------------------------------------------------
# The oracle: a certificate from the order conditions
# ---------------------------------------------------------------------------


def oracle_solve(shape: ApproxShape, qs: tuple[Grid, ...], phis: tuple[Grid, ...], zeros: dict) -> tuple[bool, ...]:
    """Whether each grid qs[i] holds the denominator of row i, certified from
    the order conditions; phis are phi_j's grids through order Ntilde + 1 and
    zeros = `verify_order(shape, qs, phis)`, the forced zeros of Q_i * phi_j.

    Row i's conditions on series j are the orders N_ij+1..N_ij+n_j, and
    N_ij = N_j + [i = j].  So the orders N_j+2..N_j+n_j of every series
    (N - m equations) are common to all rows.  Row 0 adds order N_j+1 of
    every series; row i takes order N_i+n_i+1 of series i in place of N_i+1.
    The order-mu equation is sum_k phi_(mu-k) a_k = 0 over k <= N; with
    a_N = 1 the N equations have one solution when their matrix in
    a_0..a_(N-1) is nonsingular, which `arith.certify_nonsingular` proves
    for all m+1 rows at once or raises SingularSystem.  Its rows are windows
    of phi_j's coefficients, so each series is read and packed once.  A grid
    (L, c) with N + 1 numerators and c_N = L then holds that solution exactly
    when it meets the equations: their left sides are its coefficients
    N_ij+1..N_ij+n_j of Q_i * phi_j, so every window zeros[i, j] is all 0.
    """
    N, m = shape.N, shape.m
    # phi_j's orders Nj+2-N..Nj+nj+1, last first, so that the window at offset
    # t is the equation of order Nj+nj+1-t (a positive factor on a row does
    # not move the rank); `others` hold orders Nj+1, then Nj+nj+1, per series
    seqs = [phi.nums[Nj + 2 - N : Nj + nj + 2][::-1] for nj, Nj, phi in zip(shape.n, shape.Nj, phis)]
    shared = [(s, t) for s, nj in enumerate(shape.n) for t in range(nj - 1, 0, -1)]
    others = [*enumerate(shape.n), *((s, 0) for s in range(m))]
    systems = [[m + j if j == i - 1 else j for j in range(m)] for i in range(m + 1)]
    certify_nonsingular(seqs, shared, others, systems)
    return tuple(
        len(c) == N + 1 and c[N] == L and not any(any(zeros[i, j].nums) for j in range(1, m + 1))
        for i, (L, c) in enumerate(qs)
    )


# ---------------------------------------------------------------------------
# The stacked determinant
# ---------------------------------------------------------------------------


def family_det(shape: ApproxShape, qs: tuple[Grid, ...], phis: tuple[Grid, ...], zeros: dict) -> tuple[int, Fraction]:
    """Certify that det(Q_i, P_i1, ..., P_im) = omega * z^e for the grids qs
    of Q_i, with P_ij *defined* as Q_i * phi_j through order N_ij: deg P_ij
    <= N_ij by definition, and no P_ij is formed.  phis are phi_j's grids
    through order N_jj or further, zeros = `verify_order(shape, qs, phis)`.
    Returns (e, omega), e = `ApproxShape.det_exponent` and omega the product
    of the leading P_ii coefficients, in four steps:
    1. deg Q_i <= N by the grids' lengths: deg det <= e;
    2. the orders N_ij + 1 .. Ntilde of Q_i * phi_j, zeros[i, j] but the
       diagonal's order Ntilde + 1, are 0;
    3. so R_ij = Q_i phi_j - P_ij vanishes to order Ntilde + 1, and
       det(Q, P) = (-1)^m det(Q, R) (column j minus phi_j times column 0)
       to order e, whatever phi_j is; with 1, det = c z^e;
    4. c = det(1) must equal omega.
    With phi_j's grid (D_j, f) and Q_i's (L_i, c), L_i D_j P_ij(1) is the sum
    of c_k (f_0 + ... + f_(N_ij - k)), from phi_j's partial sums, and L_i D_i
    times P_ii's leading coefficient that of c_k f_(N_ii - k).  A failed step,
    or omega = 0, raises NonMonomialDeterminant.
    """
    sums = [list(accumulate(f)) for _, f in phis]
    # rows at t = 1 times L_i, columns times D_j: det(1) prod(L_i) prod(D_j)
    rows, target, omega = [], prod(D for D, _ in phis), Fraction(1)
    for i, (L, c) in enumerate(qs):
        if len(c) > shape.N + 1:
            raise NonMonomialDeterminant(f"Q_{i} exceeds its degree bound")
        n, rev, row = len(c) - 1, c[::-1], [sum(c)]
        for j, s in enumerate(sums, 1):
            Nij = shape.Nij(i, j)
            if any(zeros[i, j].nums[: shape.Ntilde - Nij]):
                raise NonMonomialDeterminant(f"Q_i * phi_j is not 0 at orders N_ij+1..Ntilde at i={i}, j={j}")
            row.append(sum(map(mul, rev, s[Nij - n : Nij + 1])))
            if i == j:  # P_ii's leading coefficient
                omega *= Fraction(sum(map(mul, rev, phis[i - 1].nums[Nij - n : Nij + 1])), L * phis[i - 1].den)
        rows.append(row)
        target *= L
    if omega == 0:
        raise NonMonomialDeterminant("vanishing leading coefficient")
    target *= omega
    if bareiss_eliminate(rows) * target.denominator != target.numerator:
        raise NonMonomialDeterminant("determinant at t=1 differs from omega")
    return shape.det_exponent, omega


# ---------------------------------------------------------------------------
# Dump format
# ---------------------------------------------------------------------------


def family_rows(family: PadeFamily, scale: int | None = None) -> Iterator[tuple]:
    """One row per coefficient: i, poly, degree, numerator, denominator.

    `poly` is "Q" for the common denominator and the series index otherwise;
    numerator and denominator are digit strings, read off each grid (L, c)
    in int: c_k/g over L/g with g = gcd(c_k, L).  With `scale` given, each
    coefficient is c_k scale / L, which must be an integer: a `scale` that
    leaves one non-integral raises `IntegralityViolation`.
    """
    for i in range(family.gp.m + 1):
        for label, (L, c) in (("Q", family.q[i]), *((str(j), g) for j, g in enumerate(family.p[i], 1))):
            for deg, ck in enumerate(c):
                if scale is None:
                    g = gcd(ck, L)
                    yield i, label, deg, full_digits(ck // g), full_digits(L // g)
                    continue
                num, rem = divmod(ck * scale, L)
                if rem:
                    raise IntegralityViolation(f"scale {scale} does not clear coefficient {Fraction(ck, L)}")
                yield i, label, deg, full_digits(num), "1"


FAMILY_FIELDS = ("i", "poly", "degree", "numerator", "denominator")


def family_tsv(family: PadeFamily, scale: int | None = None) -> str:
    """The rows of `family_rows` as TSV under a header line."""
    return tsv(FAMILY_FIELDS, (f"{i}\t{p}\t{k}\t{n}\t{d}" for i, p, k, n, d in family_rows(family, scale)))
