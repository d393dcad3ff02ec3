"""The Pade rows at a rational point beta = a/b, as both audits read them.

Each audit evaluates the rows from the grids of the Q_i and one binary split
of each phi_j at beta (`pade.phi_split`), cut where the partial sums it needs
end; `pade.numerator_at` then closes each value with n = deg Q_i tail terms.
No coefficient of a numerator P_ij and no other coefficient of a product
series Q_i * phi_j is formed.

The restricted audit (m = 1, `rows_at`) reads phi_1 at beta three ways: as
an enclosure through the series truncation T, inside P_01(beta) and
P_11(beta), and in the two remainders x Q_i(beta) - P_i1(beta) at the ends x
of that enclosure; no partial sum is formed twice, and no remainder is the
difference of two nearly equal full-length products.

The p-adic audit (any m, `phi_heads`, `rows_at_point`, `window_at`) reads
V_t = sum_(mu <= t) [Q_i phi_j]_mu beta^mu: P_ij(beta) = V_(N_ij), and its
remainder window, the orders N_ij + n_j + 1 through T, is V_T - V_(N_ij +
n_j).  The window subtracts V at the last forced zero, not P_ij(beta), so it
does not rest on the forced zeros being zero: that is `pade.verify_order`'s
claim.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate

from .arith import Grid
from .pade import ApproxShape, Piece, numerator_at, phi_merge, phi_split
from .params import GParams

__all__ = ["phi_real_ends", "rows_at", "phi_heads", "truncated_at", "rows_at_point", "window_at"]


def phi_real_ends(z: Fraction, T: int, piece: Piece) -> tuple[int, int, int]:
    """The ends of `realapprox.eval_phi_real` as integers (lo, hi, den), not
    reduced, from the `phi_split` piece of phi_1 at z over [0, T): the
    enclosure is [lo/den, hi/den]."""
    _, q, s, r = piece
    # with |z| = an/zd and q = r zd^T, the tail bound is an^(T+1) r / (q (zd - an))
    an, zd = abs(z.numerator), z.denominator
    acc = (q + s) * (zd - an)
    tail = an ** (T + 1) * r
    den = q * (zd - an)
    if z > 0 or (T + 1) % 2 == 0:
        return acc, acc + tail, den
    return acc - tail, acc, den


def rows_at(gp: GParams, qs: list[Grid], n0: int, a: int, b: int, T: int, clear: int) -> tuple:
    """The enclosure ends (lo, hi, den) of phi_1 at beta = a/b (b > 0) through
    order T, and for each row i of the grids qs of Q_0 and Q_1 (degree n1)
    the triple (hq, v, rem): Q_i(beta) = hq / (L_i b^n1) for the grid (L_i, c)
    of Q_i, v = clear b^(n0+1) P_i1(beta), an int when it is an integer and a
    Fraction otherwise, and rem = (num, den), the larger |x Q_i(beta) -
    P_i1(beta)| at the two ends x.

    phi_1 is split at T and at c_i = N_i1 - n1 = n0 - n1 + i, the order
    through which `numerator_at` takes its partial sum S_c: P_i1(beta) =
    Q_i(beta) S_c + term_c acc / (L_i b^n1 G).  With S_T the partial sum
    through T,

        x Q_i - P_i1 = (x - S_T) Q_i + Q_i (S_T - S_c) - term_c acc / (L_i b^n1 G),

    and for T >= c the piece (P, Q, S, R) over [c, T) gives S_T - S_c =
    term_c S / Q, so the last two terms are term_c (Q_i S / Q - acc /
    (L_i b^n1 G)): the head's term times a difference of short tails.  For
    T < c the piece over [T, c) gives S_T - S_c = -term_T S / Q and
    term_c = term_T P / Q.

    P_i1(beta) has the denominator R L_i G bd^c b^n1, with R that of the
    piece over [0, c) and bd = b / g the reduced denominator of beta; since
    b^(n0+1) / (bd^c b^n1) = b^(1-i) g^c, v takes one division by R L_i G.
    """
    z = Fraction(a, b)
    an, bd = abs(z.numerator), z.denominator
    n1 = len(qs[0].nums) - 1
    cuts = sorted({n0 - n1, n0 - n1 + 1, T})
    pieces = phi_split(gp, 1, z, tuple(cuts))
    bounds = [0, *cuts]

    def span(u: int, v: int) -> Piece:
        return reduce(phi_merge, pieces[bounds.index(u) : bounds.index(v)], (1, 1, 0, 1))

    full = span(0, T)
    lo, hi, den = phi_real_ends(z, T, full)
    s_T = (full[1] + full[2]) * (bd - an)  # S_T = s_T / den
    rows = []
    for i, q in enumerate(qs):
        c = n0 - n1 + i
        ahead = T >= c
        head, mid = span(0, min(c, T)), span(min(c, T), max(c, T))
        prefix = head if ahead else phi_merge(head, mid)  # the piece over [0, c)
        hp, hq, acc, G = numerator_at(gp, q, 1, a, b, n0 + i, prefix)
        num, vden = clear * b ** (1 - i) * (b // bd) ** c * hp, prefix[3] * q.den * G
        vq, vr = divmod(num, vden)
        # x Q_i - P_i1 over den L_i b^n1 G e, with e = 1 for T >= c and the Q
        # of the piece over [T, c) otherwise: the head's term times the
        # tails' difference X, plus (x - S_T) Q_i
        pm, qm, sm, _ = mid
        X, e = (hq * sm * G - acc * qm, 1) if ahead else (-hq * sm * G - acc * pm, qm)
        t_num, hge = head[0] * X * (bd - an), hq * G * e
        rem = max(abs(t_num + hge * (lo - s_T)), abs(t_num + hge * (hi - s_T)))
        rows.append((hq, vq if vr == 0 else Fraction(num, vden), (rem, den * q.den * b**n1 * G * e)))
    return (lo, hi, den), rows


def phi_heads(gp: GParams, shape: ApproxShape, z: Fraction, T: int) -> list[dict[int, Piece]]:
    """For each series j, the `phi_split` pieces of phi_j at z over [0, c),
    keyed by c, for c = n0 - n_j, n0 - n_j + 1, n0, n0 + 1 and T - N.

    These are the heads `truncated_at` reads for row i: c = N_ij - N for
    P_ij, c = N_ij + n_j - N for the last forced zero, both for i != j and
    for i = j, and c = T - N for the truncation T > N.  Every cut is >= 0,
    since n0 >= max n_j, and one split of phi_j gives them all.
    """
    out = []
    for j, nj in enumerate(shape.n, start=1):
        cuts = sorted({shape.n0 - nj, shape.n0 - nj + 1, shape.n0, shape.n0 + 1, T - shape.N})
        out.append(dict(zip(cuts, accumulate(phi_split(gp, j, z, tuple(cuts)), phi_merge))))
    return out


def truncated_at(
    gp: GParams, q: Grid, j: int, a: int, b: int, t: int, heads: dict[int, Piece]
) -> tuple[int, int, int]:
    """Integers (num, den, hq), den > 0: V_t = num / den is the value at a/b
    (b > 0) of the coefficients 0..t of Q * phi_j, and Q(a/b) = hq / (L b^n)
    for the grid (L, c) of Q of degree n <= t.  `heads` holds phi_j's piece
    at a/b over [0, t - n) (`phi_heads`)."""
    n = len(q.nums) - 1
    head = heads[t - n]
    num, hq, _, G = numerator_at(gp, q, j, a, b, t, head)
    return num, head[1] * q.den * b**n * G, hq


def rows_at_point(
    gp: GParams, qs: list[Grid], shape: ApproxShape, a: int, b: int, heads: list[dict[int, Piece]]
) -> list[list[tuple[int, int]]]:
    """For each row i of the grids qs of Q_0..Q_m, the values [Q_i(a/b),
    P_i1(a/b), ..., P_im(a/b)] as integer pairs (num, den), den > 0:
    P_ij(a/b) = V_(N_ij) (`truncated_at`)."""
    rows = []
    for i, q in enumerate(qs):
        ps = [truncated_at(gp, q, j, a, b, shape.Nij(i, j), heads[j - 1]) for j in range(1, gp.m + 1)]
        rows.append([(ps[0][2], q.den * b ** (len(q.nums) - 1)), *(pv[:2] for pv in ps)])
    return rows


def window_at(
    gp: GParams, q: Grid, shape: ApproxShape, i: int, j: int, a: int, b: int, T: int, heads: dict[int, Piece]
) -> Fraction:
    """The terms of orders N_ij + n_j + 1 through T of Q_i * phi_j at a/b,
    summed: V_T - V_s with s = N_ij + n_j, for the grid q of Q_i."""
    s = shape.Nij(i, j) + shape.n[j - 1]
    (nt, dt, _), (ns, ds, _) = (truncated_at(gp, q, j, a, b, t, heads) for t in (T, s))
    return Fraction(nt, dt) - Fraction(ns, ds)
