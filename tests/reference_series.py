"""The series coefficients by the Fraction recurrence, kept as a test reference.

`pade.phi_coeffs` hands out a window of phi_j's coefficients as one integer
grid built from running products of the term ratio.  The reference here is
the former route: each coefficient is the previous one times the ratio
(alpha_j + n) / (alpha_0 + alpha_j + n), reduced as a `Fraction`, and
`cleared` puts a list of Fractions on one grid by the lcm of their
denominators, and `grid_values` reads a grid back as reduced Fractions.
"""

from fractions import Fraction
from math import lcm

from gpade.arith import Grid


def reference_phi_coeffs(gp, j, upto):
    """Coefficients 0..upto of phi_j as reduced Fractions."""
    aj, a0j = gp.alpha[j], gp.alpha[j] + gp.alpha[0]
    seq = [Fraction(1)]
    for n in range(upto):
        seq.append(seq[-1] * (aj + n) / (a0j + n))
    return seq


def cleared(xs) -> Grid:
    """The grid of the rationals xs: the lcm L of their denominators and the
    integers L*x, which have no common factor with L."""
    L = lcm(*(x.denominator for x in xs))
    return Grid(L, tuple(x.numerator * (L // x.denominator) for x in xs))


def grid_values(grid: Grid) -> tuple[Fraction, ...]:
    """The rationals on a grid (den, nums), each a reduced Fraction."""
    return tuple(Fraction(x, grid.den) for x in grid.nums)
