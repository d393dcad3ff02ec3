"""Simultaneous rational approximation (second kind) of the series family.

For parameters gp and a block-degree shape this module constructs, in exact
rational arithmetic, the m+1 rows of approximants: a common denominator
polynomial Q_i of degree N and numerators P_ij such that Q_i * phi_j - P_ij
vanishes to order N_ij + n_j + 1 at the origin.  Row i uses the shifted
degrees N_ij = N_j + delta_ij.

Two independent construction routes are provided: the closed-form
coefficients (`build_q`) and a fraction-free exact linear solve of the order
conditions (`oracle_solve`).  They must agree coefficientwise; tests and the
verification CLI exercise both.

The closed form, the product series and the determinant check clear common
denominators once and then work on plain integers; the oracle keeps its own
route from the series coefficients into the Bareiss elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .arith import cleared, pochhammer, poly_eval
from .errors import IntegralityViolation, InvariantViolation, NonMonomialDeterminant, SingularSystem
from .params import GParams
from .report import full_digits

__all__ = [
    "ApproxShape",
    "PadeFamily",
    "phi_coeff",
    "phi_coeffs",
    "phi_partial_sum",
    "phi_partial_sum_parts",
    "build_q",
    "build_q_generic",
    "build_p",
    "series_product_coeffs",
    "build_family",
    "verify_order",
    "oracle_solve",
    "oracle_solve_generic",
    "bareiss_eliminate",
    "family_det",
    "family_tsv",
]


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxShape:
    """Block degrees n_1..n_m plus the free degree n0 >= max n_j.

    Fixes N_j = N + n0 - n_j, so every N_j >= N - 1 automatically and the
    shifted per-row degrees are N_ij = N_j + delta_ij.
    """

    n: tuple[int, ...]
    n0: int

    def __post_init__(self):
        if not self.n or any(k < 1 for k in self.n):
            raise ValueError("block degrees must be positive")
        if self.n0 < max(self.n):
            raise ValueError("n0 must be >= max n_j")

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
        return self.Nj[j - 1] + (1 if i == j else 0)

    def Nij_row(self, i: int) -> tuple[int, ...]:
        return tuple(self.Nij(i, j) for j in range(1, self.m + 1))


# ---------------------------------------------------------------------------
# Series coefficients
# ---------------------------------------------------------------------------

_ratio_cache: dict[tuple[GParams, int], list[Fraction]] = {}


def phi_coeff(gp: GParams, j: int, n: int) -> Fraction:
    """n-th series coefficient of the j-th function (1-based j)."""
    return phi_coeffs(gp, j, n)[n]


def phi_coeffs(gp: GParams, j: int, upto: int) -> list[Fraction]:
    """Coefficients 0..upto of phi_j, computed incrementally and cached."""
    if not 1 <= j <= gp.m:
        raise ValueError("series index out of range")
    key = (gp, j)
    seq = _ratio_cache.setdefault(key, [Fraction(1)])
    aj = gp.alpha[j]
    a0j = gp.alpha[j] + gp.alpha[0]
    while len(seq) <= upto:
        n = len(seq) - 1
        seq.append(seq[-1] * (aj + n) / (a0j + n))
    return seq[: upto + 1]


def phi_partial_sum(gp: GParams, j: int, z: Fraction, T: int) -> Fraction:
    """Exact sum of the terms 0..T of phi_j at z (see `phi_partial_sum_parts`)."""
    num, q, _ = phi_partial_sum_parts(gp, j, z, T)
    return Fraction(num, q)


def phi_partial_sum_parts(gp: GParams, j: int, z: Fraction, T: int) -> tuple[int, int, int]:
    """Integers (N, Q, R) with the sum of the terms 0..T of phi_j at z equal to
    N / Q, not reduced, and Q = R * z.denominator^T with R > 0.

    Consecutive terms have the ratio (alpha_j + n) z / (alpha_j + alpha_0 + n)
    = p(n) / q(n) with integers p(n) and q(n) = r(n) * z.denominator.  Over a
    range of n, P = prod p(n), Q = prod q(n), R = prod r(n) and the sum S / Q
    of the running products p(lo)...p(k) / q(lo)...q(k) are integers; two
    halves merge as (P1 P2, Q1 Q2, S1 Q2 + P1 S2, R1 R2), and over
    n = 0..T-1 the partial sum is (Q + S) / Q (binary splitting, Haible &
    Papanikolaou 1998).
    """
    if not 1 <= j <= gp.m:
        raise ValueError("series index out of range")
    if T < 0:
        return 0, 1, 1
    if T == 0:
        return 1, 1, 1
    z = Fraction(z)
    aj = gp.alpha[j]
    a0j = aj + gp.alpha[0]
    pc = a0j.denominator * z.numerator

    def split(lo: int, hi: int) -> tuple[int, int, int, int]:
        if hi - lo == 1:
            p = (aj.numerator + lo * aj.denominator) * pc
            r = (a0j.numerator + lo * a0j.denominator) * aj.denominator
            return p, r * z.denominator, p, r
        mid = (lo + hi) // 2
        p1, q1, s1, r1 = split(lo, mid)
        p2, q2, s2, r2 = split(mid, hi)
        return p1 * p2, q1 * q2, s1 * q2 + p1 * s2, r1 * r2

    _, q, s, r = split(0, T)
    return q + s, q, r


# ---------------------------------------------------------------------------
# Closed-form denominator coefficients
# ---------------------------------------------------------------------------


def build_q_generic(gp: GParams, n_list: tuple[int, ...], N_list: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Closed-form coefficients a_0..a_N of the common denominator Q for
    arbitrary degrees N_j >= N - 1 (N = sum of the n_j).  a_N = 1.

    The summand of a_{N-k-1} factors as g(l-k) * h(l), summed over k <= l < N
    and divided by prod_j (alpha_j + N_j - N + 1)_{n_j}, with

        g(d) = (alpha_0 - 1)_d / d!,
        h(l) = (-1)^(l+1) (alpha_0 + l + 1)_{N-l-1} / (N-l-1)! * prod_j (c_j + l)_{n_j},
        c_j  = alpha_j + alpha_0 + N_j - N + 1.

    Both sequences follow from their term ratios; cleared by the lcm of their
    denominators, every coefficient is one integer correlation.
    """
    m = gp.m
    if len(n_list) != m or len(N_list) != m:
        raise ValueError("need one block degree and one target degree per series")
    N = sum(n_list)
    if any(Nj < N - 1 for Nj in N_list):
        raise ValueError("closed form requires N_j >= N - 1")
    alpha0 = gp.alpha[0]
    # the product's denominator does not involve the summation index
    denom = Fraction(1)
    for j in range(1, m + 1):
        denom *= pochhammer(gp.alpha[j] + N_list[j - 1] - N + 1, n_list[j - 1])
    c = [gp.alpha[j] + alpha0 + N_list[j - 1] - N + 1 for j in range(1, m + 1)]
    g = [Fraction(1)]
    for d in range(N - 1):
        g.append(g[-1] * (alpha0 - 1 + d) / (d + 1))
    # h(N-1) has empty Pochhammer and factorial parts; step down by h(l)/h(l+1)
    h = [Fraction(0)] * N
    h[N - 1] = Fraction((-1) ** N)
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
    a = [Fraction(0)] * (N + 1)
    a[N] = Fraction(1)
    for k in range(N):
        acc = sum(map(mul, g_int, h_int[k:]))
        a[N - k - 1] = Fraction(acc * scale.denominator, scale.numerator)
    return tuple(a)


def build_q(gp: GParams, shape: ApproxShape, i: int) -> tuple[Fraction, ...]:
    """Denominator coefficients for row i of the family (0 <= i <= m)."""
    if not 0 <= i <= gp.m:
        raise ValueError("row index out of range")
    return build_q_generic(gp, shape.n, shape.Nij_row(i))


def series_product_coeffs(gp: GParams, q: tuple[Fraction, ...], j: int, upto: int) -> tuple[Fraction, ...]:
    """Coefficients 0..upto of Q * phi_j for a denominator Q given by `q`."""
    Dq, q_int = cleared(q)
    Dr, r_int = cleared(phi_coeffs(gp, j, upto))
    r_rev = r_int[::-1]  # r_rev[upto - mu + k] = r_int[mu - k]
    D = Dq * Dr
    return tuple(Fraction(sum(map(mul, q_int, r_rev[upto - mu :])), D) for mu in range(upto + 1))


def build_p(gp: GParams, shape: ApproxShape, q: tuple[Fraction, ...], i: int, j: int) -> tuple[Fraction, ...]:
    """Numerator coefficients of P_ij (degree <= N_ij), from row i's Q."""
    return series_product_coeffs(gp, q, j, shape.Nij(i, j))


# ---------------------------------------------------------------------------
# The assembled family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadeFamily:
    gp: GParams
    shape: ApproxShape
    T: int
    q: tuple[tuple[Fraction, ...], ...]  # (m+1) rows of denominator coeffs
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]  # c[i][j-1] = Q_i*phi_j to T

    def p_coeffs(self, i: int, j: int) -> tuple[Fraction, ...]:
        return self.c[i][j - 1][: self.shape.Nij(i, j) + 1]

    def forced_zero_coeffs(self, i: int, j: int) -> tuple[Fraction, ...]:
        lo = self.shape.Nij(i, j) + 1
        return self.c[i][j - 1][lo : lo + self.shape.n[j - 1]]

    def remainder_coeffs(self, i: int, j: int) -> tuple[Fraction, ...]:
        """Series coefficients of Q_i*phi_j - P_ij from the first possibly
        nonzero order up to the truncation T (order offset Nij+n_j+1)."""
        return self.c[i][j - 1][self.shape.Nij(i, j) + self.shape.n[j - 1] + 1 :]

    def p_leading(self, i: int) -> Fraction:
        """Leading coefficient of P_ii (order N_i + 1); nonzero by theory."""
        return self.c[i][i - 1][self.shape.Nij(i, i)]


def build_family(gp: GParams, shape: ApproxShape, T: int | None = None) -> PadeFamily:
    """Construct all m+1 rows with product series computed through order T.

    The default truncation T = Ntilde + max(n_j) + 2 is the smallest order
    exposing both the forced zero window and the first nonzero remainder
    coefficient for every row.
    """
    if gp.m != shape.m:
        raise ValueError("shape and parameters disagree on m")
    if T is None:
        T = shape.Ntilde + max(shape.n) + 2
    min_T = max(shape.Nij(i, j) + shape.n[j - 1] + 1 for i in range(gp.m + 1) for j in range(1, gp.m + 1))
    if T < min_T:
        raise ValueError(f"truncation T={T} below first remainder order {min_T}")
    qrows = tuple(build_q(gp, shape, i) for i in range(gp.m + 1))
    ctab = tuple(
        tuple(series_product_coeffs(gp, qrows[i], j, T) for j in range(1, gp.m + 1))
        for i in range(gp.m + 1)
    )
    return PadeFamily(gp=gp, shape=shape, T=T, q=qrows, c=ctab)


def verify_order(family: PadeFamily) -> dict[tuple[int, int], bool]:
    """Exact check of the defining order conditions for every (i, j):
    the coefficients of Q_i*phi_j in the window (N_ij, N_ij + n_j] vanish."""
    out = {}
    for i in range(family.gp.m + 1):
        for j in range(1, family.gp.m + 1):
            out[(i, j)] = all(c == 0 for c in family.forced_zero_coeffs(i, j))
    return out


# ---------------------------------------------------------------------------
# Independent oracle: exact fraction-free solve of the order conditions
# ---------------------------------------------------------------------------


def _bareiss_steps(M: list[list[int]], cols: range, pivot_rows: int, prev: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) steps over the columns `cols` of the integer
    rows M, in place.

    For column k, the first row r in k..pivot_rows-1 with M[r][k] != 0 is
    swapped into row k.  In every row r below it, M[r][c] becomes
    (M[k][k] M[r][c] - M[r][k] M[k][c]) / prev for c > k, where prev is the
    previous pivot (the argument `prev` before the first step), and M[r][k]
    becomes 0.  Returns the last pivot and the sign of the row permutation;
    the pivot is 0 when some column has no nonzero pivot.
    """
    sign = 1
    for k in cols:
        piv = next((r for r in range(k, pivot_rows) if M[r][k] != 0), None)
        if piv is None:
            return 0, sign
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        pk = M[k]
        a = pk[k]
        for r in range(k + 1, len(M)):
            row = M[r]
            b = row[k]
            for c in range(k + 1, len(row)):
                row[c] = (a * row[c] - b * pk[c]) // prev
            row[k] = 0
        prev = a
    return prev, sign


def bareiss_eliminate(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix with
    n rows and at least n columns; columns past the n-th (a right-hand side)
    are carried along.

    Returns the upper-triangular rows and the determinant of the leading
    n x n block, which is 0 (with the rows only partly eliminated) when some
    column has no nonzero pivot.  Every division is exact.
    """
    M = [row[:] for row in rows]
    det, sign = _bareiss_steps(M, range(len(M)), len(M), 1)
    return M, sign * det


def _solve_sharing(
    shared: list[list[int]], others: list[list[int]], systems: list[list[int]]
) -> list[tuple[Fraction, ...]]:
    """Exact solutions x of several square integer systems, one for each index
    list in `systems`: the rows `shared`, then others[o] for each o in the
    list.  A row holds the coefficients and then the right-hand side.

    The shared rows are eliminated once, with pivots taken from them only,
    and every other row is reduced against those pivots once.  By Sylvester's
    identity an entry left after k fraction-free steps is a (k+1)-minor of the
    k pivot rows and its own row, so a reduced row does not depend on the rows
    reduced beside it.  Each system then finishes its last columns with its
    own reduced rows, carrying on from the shared rows' last pivot.  If the
    shared rows have no pivot in some column, every system is solved whole,
    with an empty shared set.  A system whose own rows leave a column without
    pivot is singular, since any nonzero pivot is a valid Bareiss choice.

    Each solution is back-substituted as y = det * x in integers: by Cramer's
    rule every y_r is an integer, so each division is exact.
    """
    s = len(shared)
    M = [row[:] for row in shared + others]
    prev, _ = _bareiss_steps(M, range(s), s, 1)
    if prev == 0:
        whole = [[*range(s), *(s + o for o in system)] for system in systems]
        return _solve_sharing([], shared + others, whole)
    out = []
    for system in systems:
        U = M[:s] + [M[s + o][:] for o in system]
        n = len(U)
        det, _ = _bareiss_steps(U, range(s, n), n, prev)
        if det == 0:
            raise SingularSystem("the order conditions do not determine the denominator")
        y = [0] * n
        for r in range(n - 1, -1, -1):
            acc = det * U[r][n] - sum(map(mul, U[r][r + 1 : n], y[r + 1 :]))
            y[r], rem = divmod(acc, U[r][r])
            if rem:
                raise InvariantViolation("back-substitution left a remainder: det * x is not integral")
        out.append(tuple(Fraction(yr, det) for yr in y))
    return out


def _order_row(ratios: list[Fraction], mu: int, N: int) -> list[int]:
    """The order-mu condition on Q * phi for the unknowns a_0..a_{N-1}, with
    a_N = 1 moved to the right-hand side, cleared by the lcm of its
    denominators (`ratios` holds phi's coefficients through order mu)."""
    row = [ratios[mu - k] for k in range(N)] + [-ratios[mu - N]]
    L = lcm(*(c.denominator for c in row))
    return [c.numerator * (L // c.denominator) for c in row]


def oracle_solve_generic(gp: GParams, n_list: tuple[int, ...], N_list: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Denominator coefficients obtained by solving the order conditions
    directly: one homogeneous equation per forced-zero coefficient, with the
    leading coefficient pinned to 1.  Independent of the closed form.
    """
    N = sum(n_list)
    rows: list[list[int]] = []
    for j, (nj, Nj) in enumerate(zip(n_list, N_list), start=1):
        ratios = phi_coeffs(gp, j, Nj + nj)
        rows += [_order_row(ratios, mu, N) for mu in range(Nj + 1, Nj + nj + 1)]
    return _solve_sharing([], rows, [list(range(len(rows)))])[0] + (Fraction(1),)


def oracle_solve(gp: GParams, shape: ApproxShape) -> tuple[tuple[Fraction, ...], ...]:
    """Denominator coefficients of all m+1 rows, each solved from its order
    conditions as in `oracle_solve_generic`, by one shared elimination.

    Row i's conditions on series j are the orders N_ij+1..N_ij+n_j, and
    N_ij = N_j + [i = j].  So the orders N_j+2..N_j+n_j of every series
    (N - m equations) are common to all rows.  Row 0 adds order N_j+1 of
    every series; row i takes order N_i+n_i+1 of series i in place of N_i+1.
    """
    N, m = shape.N, shape.m
    shared: list[list[int]] = []
    low: list[list[int]] = []
    high: list[list[int]] = []
    for j, (nj, Nj) in enumerate(zip(shape.n, shape.Nj), start=1):
        ratios = phi_coeffs(gp, j, Nj + nj + 1)
        shared += [_order_row(ratios, mu, N) for mu in range(Nj + 2, Nj + nj + 1)]
        low.append(_order_row(ratios, Nj + 1, N))
        high.append(_order_row(ratios, Nj + nj + 1, N))
    systems = [[m + j if j == i - 1 else j for j in range(m)] for i in range(m + 1)]
    return tuple(x + (Fraction(1),) for x in _solve_sharing(shared, low + high, systems))


# ---------------------------------------------------------------------------
# The stacked determinant
# ---------------------------------------------------------------------------


def family_det(family: PadeFamily) -> tuple[int, Fraction]:
    """Certify that det(Q_i, P_i1, ..., P_im) is the monomial omega * z^e.

    Returns (e, omega) with e = N + sum N_j + m and omega the product of the
    leading P_ii coefficients.  The certification evaluates the determinant
    at e+1 points; since its degree is at most e by row/column degree counts,
    agreement at e+1 points proves the polynomial identity.  Any mismatch
    raises NonMonomialDeterminant.
    """
    gp, shape = family.gp, family.shape
    exponent = shape.N + sum(shape.Nj) + gp.m
    omega = Fraction(1)
    for i in range(1, gp.m + 1):
        omega *= family.p_leading(i)
    if omega == 0:
        raise NonMonomialDeterminant("vanishing leading coefficient")
    # clear row i (Q_i and every P_ij) by the lcm L_i of its coefficient
    # denominators: the integer determinant at t is det(t) * prod(L_i)
    rows = []
    target = omega
    for i in range(gp.m + 1):
        polys = [family.q[i]] + [family.p_coeffs(i, j) for j in range(1, gp.m + 1)]
        L = lcm(*(cf.denominator for poly in polys for cf in poly))
        rows.append([[cf.numerator * (L // cf.denominator) for cf in poly] for poly in polys])
        target *= L
    for t in range(1, exponent + 2):
        det = bareiss_eliminate([[poly_eval(poly, t) for poly in row] for row in rows])[1]
        if det * target.denominator != target.numerator * t**exponent:
            raise NonMonomialDeterminant(f"determinant deviates from monomial at t={t}")
    return exponent, omega


# ---------------------------------------------------------------------------
# Dump format
# ---------------------------------------------------------------------------


def family_tsv(family: PadeFamily, scale: int | None = None) -> str:
    """One coefficient per row: (i, poly, degree, numerator, denominator).

    `poly` is "Q" for the common denominator and the series index otherwise.
    With `scale` given, coefficients are multiplied by it first; they must
    then be integers, and a `scale` that leaves one non-integral raises
    `IntegralityViolation`.
    """
    lines = ["i\tpoly\tdegree\tnumerator\tdenominator"]

    def emit(i: int, label: str, coeffs):
        for deg, cf in enumerate(coeffs):
            val = cf * scale if scale is not None else cf
            if scale is not None and val.denominator != 1:
                raise IntegralityViolation(f"scale {scale} does not clear coefficient {cf}")
            lines.append(f"{i}\t{label}\t{deg}\t{full_digits(val.numerator)}\t{full_digits(val.denominator)}")

    for i in range(family.gp.m + 1):
        emit(i, "Q", family.q[i])
        for j in range(1, family.gp.m + 1):
            emit(i, str(j), family.p_coeffs(i, j))
    return "\n".join(lines) + "\n"
