"""phi_1 at a real point beta = a/b, as the restricted audit reads it (m = 1).

The audit reads phi_1 at beta three ways: as an enclosure through the
series truncation T, inside P_01(beta) and P_11(beta), and in the two
remainders x Q_i(beta) - P_i1(beta) at the ends x of that enclosure.  All of
them come from one binary split of phi_1 at beta (`pade.phi_split`), cut
where the rows' partial sums end and at T: no partial sum is formed twice,
and no remainder is the difference of two nearly equal full-length products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .arith import Grid
from .pade import Piece, numerator_at, phi_merge, phi_split
from .params import GParams

__all__ = ["phi_real_ends", "rows_at"]


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
