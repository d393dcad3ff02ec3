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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .arith import pochhammer, poly_eval
from .errors import NonMonomialDeterminant, SingularSystem
from .params import GParams
from .report import full_digits

__all__ = [
    "ApproxShape",
    "PadeFamily",
    "phi_coeff",
    "phi_coeffs",
    "phi_partial_sum",
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
    """Exact sum of the terms 0..T of phi_j at z, accumulated forward."""
    acc = Fraction(0)
    power = Fraction(1)
    for cf in phi_coeffs(gp, j, T):
        acc += cf * power
        power *= z
    return acc


# ---------------------------------------------------------------------------
# Closed-form denominator coefficients
# ---------------------------------------------------------------------------


def build_q_generic(gp: GParams, n_list: tuple[int, ...], N_list: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Closed-form coefficients a_0..a_N of the common denominator Q for
    arbitrary degrees N_j >= N - 1 (N = sum of the n_j).  a_N = 1."""
    m = gp.m
    if len(n_list) != m or len(N_list) != m:
        raise ValueError("need one block degree and one target degree per series")
    N = sum(n_list)
    if any(Nj < N - 1 for Nj in N_list):
        raise ValueError("closed form requires N_j >= N - 1")
    alpha0 = gp.alpha[0]
    a = [Fraction(0)] * (N + 1)
    a[N] = Fraction(1)
    # the product's denominator does not involve the summation index
    denom = Fraction(1)
    for j in range(1, m + 1):
        denom *= pochhammer(gp.alpha[j] + N_list[j - 1] - N + 1, n_list[j - 1])
    for k in range(N):
        acc = Fraction(0)
        for ell in range(k, N):
            term = Fraction((-1) ** (ell + 1))
            term *= pochhammer(alpha0 - 1, ell - k) / factorial(ell - k)
            term *= pochhammer(alpha0 + ell + 1, N - ell - 1) / factorial(N - ell - 1)
            for j in range(1, m + 1):
                term *= pochhammer(gp.alpha[j] + alpha0 + N_list[j - 1] - N + ell + 1, n_list[j - 1])
            acc += term
        a[N - k - 1] = acc / denom
    return tuple(a)


def build_q(gp: GParams, shape: ApproxShape, i: int) -> tuple[Fraction, ...]:
    """Denominator coefficients for row i of the family (0 <= i <= m)."""
    if not 0 <= i <= gp.m:
        raise ValueError("row index out of range")
    return build_q_generic(gp, shape.n, shape.Nij_row(i))


def series_product_coeffs(gp: GParams, q: tuple[Fraction, ...], j: int, upto: int) -> tuple[Fraction, ...]:
    """Coefficients 0..upto of Q * phi_j for a denominator Q given by `q`."""
    ratios = phi_coeffs(gp, j, upto)
    N = len(q) - 1
    out = []
    for mu in range(upto + 1):
        acc = Fraction(0)
        for k in range(min(N, mu) + 1):
            acc += q[k] * ratios[mu - k]
        out.append(acc)
    return tuple(out)


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


def bareiss_eliminate(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix with
    n rows and at least n columns; columns past the n-th (a right-hand side)
    are carried along.

    Returns the upper-triangular rows and the determinant of the leading
    n x n block, which is 0 (with the rows only partly eliminated) when some
    column has no nonzero pivot.  Every division is exact.
    """
    n = len(rows)
    M = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k] != 0), None)
        if piv is None:
            return M, 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for r in range(k + 1, n):
            for cidx in range(k + 1, len(M[r])):
                M[r][cidx] = (M[k][k] * M[r][cidx] - M[r][k] * M[k][cidx]) // prev
            M[r][k] = 0
        prev = M[k][k]
    return M, sign * prev


def oracle_solve_generic(gp: GParams, n_list: tuple[int, ...], N_list: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Denominator coefficients obtained by solving the order conditions
    directly: one homogeneous equation per forced-zero coefficient, with the
    leading coefficient pinned to 1.  Independent of the closed form."""
    m = gp.m
    N = sum(n_list)
    rows: list[list[int]] = []
    for j in range(1, m + 1):
        ratios = phi_coeffs(gp, j, N_list[j - 1] + n_list[j - 1])
        for mu in range(N_list[j - 1] + 1, N_list[j - 1] + n_list[j - 1] + 1):
            coeffs = [ratios[mu - k] for k in range(N)]  # unknowns a_0..a_{N-1}
            rhs = -ratios[mu - N]
            den = lcm(rhs.denominator, *(c.denominator for c in coeffs))
            rows.append([int(c * den) for c in coeffs] + [int(rhs * den)])
    M, det = bareiss_eliminate(rows)
    if det == 0:
        raise SingularSystem("the order conditions do not determine the denominator")
    n = len(M)
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = Fraction(M[r][n])
        for cidx in range(r + 1, n):
            acc -= M[r][cidx] * x[cidx]
        x[r] = acc / M[r][r]
    return tuple(x) + (Fraction(1),)


def oracle_solve(gp: GParams, shape: ApproxShape, i: int) -> tuple[Fraction, ...]:
    return oracle_solve_generic(gp, shape.n, shape.Nij_row(i))


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
    for t in range(1, exponent + 2):
        tq = Fraction(t)
        # clear each row by the lcm of its denominators: det scales by their product
        mat = []
        scale = 1
        for i in range(gp.m + 1):
            row = [poly_eval(family.q[i], tq)]
            row += [poly_eval(family.p_coeffs(i, j), tq) for j in range(1, gp.m + 1)]
            den = lcm(*(x.denominator for x in row))
            mat.append([x.numerator * (den // x.denominator) for x in row])
            scale *= den
        if bareiss_eliminate(mat)[1] != omega * tq**exponent * scale:
            raise NonMonomialDeterminant(f"determinant deviates from monomial at t={t}")
    return exponent, omega


# ---------------------------------------------------------------------------
# Dump format
# ---------------------------------------------------------------------------


def family_tsv(family: PadeFamily, scale: int | None = None) -> str:
    """One coefficient per row: (i, poly, degree, numerator, denominator).

    `poly` is "Q" for the common denominator and the series index otherwise.
    With `scale` given, coefficients are multiplied by it first (they must
    then be integers, i.e. `scale` must clear all denominators).
    """
    lines = ["i\tpoly\tdegree\tnumerator\tdenominator"]

    def emit(i: int, label: str, coeffs):
        for deg, cf in enumerate(coeffs):
            val = cf * scale if scale is not None else cf
            if scale is not None and val.denominator != 1:
                raise ValueError(f"scale {scale} does not clear coefficient {cf}")
            lines.append(f"{i}\t{label}\t{deg}\t{full_digits(val.numerator)}\t{full_digits(val.denominator)}")

    for i in range(family.gp.m + 1):
        emit(i, "Q", family.q[i])
        for j in range(1, family.gp.m + 1):
            emit(i, str(j), family.p_coeffs(i, j))
    return "\n".join(lines) + "\n"
