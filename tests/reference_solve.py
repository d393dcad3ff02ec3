"""The exact oracle solve of the order conditions, kept as a test reference.

`verify` certifies each closed-form denominator against its order conditions
(`pade.oracle_solve`: exact forced zeros and a nonsingular matrix) instead of
solving them.  The solver here is the former route, which solves every row's
N x N system exactly by one shared primitive-row elimination, so the tests
can compare the closed form with an independent solution.
"""

from math import gcd
from operator import mul

from gpade.arith import Grid
from gpade.errors import SingularSystem

from reference_series import cleared, reference_phi_coeffs


def primitive_steps(M, cols, pivot_rows):
    """Primitive-row elimination over the columns `cols` of the integer rows
    M, in place.

    For column k, the first row r in k..pivot_rows-1 with M[r][k] != 0 is
    swapped into row k.  Every row r below it with b = M[r][k] != 0 becomes
    the primitive part (the row divided by the gcd of its entries) of
    (a/g) M[r] - (b/g) M[k], where a = M[k][k] and g = gcd(a, b).  Returns
    False, with the rows only partly eliminated, when some column has no
    nonzero pivot.
    """
    for k in cols:
        piv = next((r for r in range(k, pivot_rows) if M[r][k] != 0), None)
        if piv is None:
            return False
        M[k], M[piv] = M[piv], M[k]
        tail = M[k][k + 1 :]
        a = M[k][k]
        for row in M[k + 1 :]:
            b = row[k]
            if b == 0:
                continue
            g = gcd(a, b)
            ag, bg = a // g, b // g
            new = [ag * x - bg * y for x, y in zip(row[k + 1 :], tail)]
            content = gcd(*new)
            if content > 1:
                new = [x // content for x in new]
            row[k:] = [0, *new]
    return True


def solve_sharing(shared, others, systems):
    """The grids of the exact solutions x of several square integer systems,
    one for each index list in `systems`: the rows `shared`, then others[o]
    for each o in the list.  A row holds the coefficients and then the
    right-hand side.

    The shared rows are eliminated once by primitive-row steps, with pivots
    taken from them only, and every other row is reduced against those
    pivots once.  A reduced row is the row of the Schur complement of the
    pivot block, up to a factor, as the Bareiss row at the same step is, so
    no entry exceeds the Bareiss minor in its place.  Each system then
    finishes its last columns with its own reduced rows.  If the shared rows
    have no pivot in some column, every system is solved whole.  A system
    whose own rows leave a column without pivot is singular and raises
    SingularSystem.

    Each solution is back-substituted as x = X / D over a running common
    denominator D, the lcm of the reduced denominators of the entries found
    so far, so (D, X) ends as its grid.
    """
    s = len(shared)
    M = [row[:] for row in shared + others]
    if not primitive_steps(M, range(s), s):
        whole = [[*range(s), *(s + o for o in system)] for system in systems]
        return solve_sharing([], shared + others, whole)
    out = []
    for system in systems:
        U = M[:s] + [M[s + o][:] for o in system]
        n = len(U)
        if not primitive_steps(U, range(s, n), n):
            raise SingularSystem("the order conditions do not determine the denominator")
        X, D = [0] * n, 1
        for r in range(n - 1, -1, -1):
            # x_r = xn / xd in lowest terms, xd > 0
            xn, xd = D * U[r][n] - sum(map(mul, U[r][r + 1 : n], X[r + 1 :])), D * U[r][r]
            g = gcd(xn, xd) if xd > 0 else -gcd(xn, xd)
            xn, xd = xn // g, xd // g
            # D grows to the lcm of D and xd
            scale = xd // gcd(D, xd)
            if scale != 1:
                X[r + 1 :] = [xc * scale for xc in X[r + 1 :]]
                D *= scale
            X[r] = xn * (D // xd)
        out.append(Grid(D, tuple(X)))
    return out


def reference_oracle_solve(gp, shape):
    """The grids of the denominators of all m+1 rows, each solved from its
    order conditions with a_N = 1 moved to the right-hand side, by one shared
    elimination (`solve_sharing`).  Row i's conditions on series j are the
    orders N_ij+1..N_ij+n_j: the orders N_j+2..N_j+n_j are shared, row 0
    adds order N_j+1 of every series, and row i takes order N_i+n_i+1 of
    series i in place of N_i+1."""
    N, m = shape.N, shape.m
    shared, low, high = [], [], []

    def order_row(ratios, mu):
        return list(cleared([ratios[mu - k] for k in range(N)] + [-ratios[mu - N]]).nums)

    for j, (nj, Nj) in enumerate(zip(shape.n, shape.Nj), start=1):
        ratios = reference_phi_coeffs(gp, j, Nj + nj + 1)
        shared += [order_row(ratios, mu) for mu in range(Nj + 2, Nj + nj + 1)]
        low.append(order_row(ratios, Nj + 1))
        high.append(order_row(ratios, Nj + nj + 1))
    systems = [[m + j if j == i - 1 else j for j in range(m)] for i in range(m + 1)]
    return tuple(Grid(D, (*X, D)) for D, X in solve_sharing(shared, low + high, systems))
