"""The right-hand side of the restricted approximation bound, kept symbolic.

The restricted audit certifies |phi(a/b) - n/(B b^M)| >= 1/(B b^M (a1^18
|a|^17)^M).  At an end x = n / 2^k of a1 that envelope is 2^(18Mk) divided by
B b^M |a|^(17M) n^(18M), and n^(18M) is by far its longest part: at
beta = 10^-40 (M = 136) a 328000-bit integer, for a value that needs about
32000.  An `arith.BoundedPower` keeps 256-bit bounds on such a power
instead.  Every question the audit asks of the envelope (a comparison, a
rendering, the series truncation it implies) is answered at both bounds, and
the power is formed in full only when the two answers differ.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import BoundedPower, floor_log, product_le
from .errors import InvariantViolation, PrecisionInsufficient
from .report import fmt_ratio

__all__ = ["Envelope", "series_terms"]

_TRUNCATION_CAP = 200_000  # the largest series truncation order a target may ask for


class Envelope:
    """1/(scale * (x^18 |a|^17)^M) at an end x of a1, as 2^shift / (c * n^(18M)).

    The ends of a1 are dyadic, x = n / 2^k with n odd when k > 0, so x^(18M)
    is one power of n and a shift; that power is a `BoundedPower`.
    """

    def __init__(self, end: Fraction, a: int, scale: int, M: int):
        n, d = end.numerator, end.denominator
        k = d.bit_length() - 1
        if d != 1 << k:
            raise InvariantViolation("the ends of a1 must be dyadic")
        self.shift, self.c, self.power = 18 * M * k, scale * abs(a) ** (17 * M), BoundedPower(n, 18 * M)

    def _settle(self, read):
        # read(vn, vd) of a reader monotone in the value vn / vd
        def reader(p: int, s: int):
            j = min(s, self.shift)
            return read(1 << (self.shift - j), (self.c * p) << (s - j))

        return self.power.settle(reader)

    def holds_above(self, num: int, den: int) -> bool:
        """num/den <= the envelope, for num >= 0 and den > 0."""
        return self._settle(lambda vn, vd: product_le(num, vd, den, vn))

    def holds_below(self, num: int, den: int) -> bool:
        """num/den >= the envelope, for num >= 0 and den > 0."""
        return self._settle(lambda vn, vd: product_le(den, vn, num, vd))

    def render(self, sig: int) -> str:
        """`fmt_ratio` of the envelope."""
        return self._settle(lambda vn, vd: fmt_ratio(vn, vd, sig))


def series_terms(z: Fraction, target: Envelope) -> int:
    """The truncation order T that holds the width of the enclosure of phi(z)
    (`realapprox.eval_phi_real`) below target.

    T is read off the bit lengths of the goal target*(1-|z|) in lowest terms
    but for a power of two, which adds to both bit lengths alike.  With
    |z| <= 2^-L and 2^-G <= goal, any T >= G/L gives tail |z|^(T+1)/(1-|z|)
    below the target.  Defined for 0 < |z| <= 1/2: the audit's hypothesis
    b >= (a1|a|)^6 gives |z| <= a1^-6, and every form of a1 exceeds 2^(1/4).
    """
    an, zd = abs(z.numerator), z.denominator
    if not 0 < 2 * an <= zd:
        raise InvariantViolation(f"the series target needs 0 < |z| <= 1/2, got {z}")
    L = floor_log(2, zd, an)
    # goal = (2^shift / g1) ((zd - an) / g2) over (c n^e / g2) (zd / g1), with
    # g1 = gcd(2^shift, zd) and g2 = gcd(zd - an, c n^e), read off n^e mod (zd - an)
    pw, m = target.power, zd - an
    g1 = 1 << min(target.shift, (zd & -zd).bit_length() - 1)  # zd & -zd: the power of 2 in zd
    g2 = gcd(m, target.c % m * pow(pw.n, pw.e, m))
    gn_bits = target.shift - g1.bit_length() + 1 + (m // g2).bit_length()
    cz = target.c * (zd // g1)

    def terms(p: int, s: int) -> int:
        # the bit length of the floor of c p 2^s (zd/g1) / g2, the goal's
        # denominator at n^e = p 2^s: with j = bitlen(g2) the quotient of
        # cz p 2^j by g2 is at least 1, and the other s - j factors of 2 add
        # exactly s - j to its bit length
        j = min(s, g2.bit_length())
        gd_bits = ((cz * p << j) // g2).bit_length() + s - j
        return -(-max(1, gd_bits - gn_bits + 1) // L)

    T = pw.settle(terms)
    if T > _TRUNCATION_CAP:
        raise PrecisionInsufficient("tail target unreachably small")
    return T
