"""Denominator-clearing integers, integrality certificates and size bounds.

Two explicit positive integers D1 (clearing the denominator-polynomial
coefficients) and D2 (clearing the numerator-polynomial coefficients) are
assembled from prime valuations; their product D clears the whole family.
The module also carries the certified constants c1..c8 controlling log D and
the coefficient magnitudes, the scaled integer system at a rational point,
and the p-adic remainder bounds.

Every bound exposed here is re-checkable: the check_* functions compare an
exactly computed left-hand side against a directed-rounded (upper) right-hand
side, and report rather than assume.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .arith import (
    FactoredInteger,
    Interval,
    certify_nonsingular,
    cleared_eval,
    epsilon_interval,
    exp_interval,
    exp_iv,
    lcm_exponents,
    legendre_nu,
    log_interval,
    log_iv,
    p_valuation,
    prime_divisors,
    product_le,
)
from .errors import DomainViolation, IntegralityViolation, SingularSystem
from .pade import ApproxShape, PadeFamily, phi_coeffs, series_product_coeffs
from .params import GParams, padic_domain_check
from .report import Check, entry, fmt_ratio, fmt_real, full_digits, rational, tsv

__all__ = [
    "ThetaMode",
    "SizeConstants",
    "DenominatorCert",
    "ScaledSystem",
    "RemainderBound",
    "compute_d1",
    "compute_d2",
    "make_cert",
    "bound_constants",
    "verify_integrality",
    "check_size_bounds",
    "scaled_integers",
    "ntilde1_interval",
    "remainder_padic_bound",
    "check_remainder_padic",
    "cert_tsv",
]


# ---------------------------------------------------------------------------
# Prime-count modes
# ---------------------------------------------------------------------------


class ThetaMode(NamedTuple):
    """A constant theta > 1 with a certified threshold c(theta) such that the
    prime count satisfies pi(x) <= theta * x / log x for all x >= c(theta).

    Modes:
      * paper: theta = 8 log 2 with c = 2.
      * sharp: theta = 1.26 with c = 2, backed by the classical explicit
        estimate pi(x) < 1.25506 x / log x valid for all x > 1.
      * custom: any rational theta > 1 with a caller-supplied threshold
        c >= 2; flagged uncertified since no table is consulted.  `parse`
        enforces those ranges; `custom` does not, since the global-relation
        constant builds its limit mode custom(1, 0).
    """

    label: str
    theta: Interval
    c_theta: int
    certified: bool

    @classmethod
    def paper(cls, prec: int = 128) -> "ThetaMode":
        return cls("paper", log_interval(2, prec) * 8, 2, True)

    @classmethod
    def sharp(cls) -> "ThetaMode":
        return cls("sharp", Interval.point(Fraction(63, 50)), 2, True)

    @classmethod
    def custom(cls, theta: Fraction, c_theta: int, label: str = "custom") -> "ThetaMode":
        return cls(label, Interval.point(Fraction(theta)), c_theta, False)

    @classmethod
    def parse(cls, text: str, prec: int = 128) -> "ThetaMode":
        if text == "paper":
            return cls.paper(prec)
        if text == "sharp":
            return cls.sharp()
        if text.startswith("custom:"):
            body = text[len("custom:") :]
            try:
                theta_s, c_s = body.split(",")
                theta, c_theta = Fraction(theta_s), int(c_s)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad theta mode {text!r}; want custom:THETA,C") from None
            if theta <= 1 or c_theta < 2:
                raise ValueError(f"bad theta mode {text!r}; want custom:THETA,C with THETA > 1, C >= 2")
            return cls.custom(theta, c_theta)
        raise ValueError(f"unknown theta mode {text!r}")


# ---------------------------------------------------------------------------
# The clearing integers
# ---------------------------------------------------------------------------


def compute_d1(gp: GParams, shape: ApproxShape) -> FactoredInteger:
    """First clearing integer: multiplies every denominator-polynomial
    coefficient of the family into an integer."""
    N, n0 = shape.N, shape.n0
    pairs = [(p, e * (2 * N - 1)) for p, e in FactoredInteger.of(gp.s0).factors]
    pairs += [(p, legendre_nu(p, N - 1)) for p in prime_divisors(gp.s0)]  # 0 when N = 1
    for j in range(1, gp.m + 1):
        pairs += [(p, legendre_nu(p, shape.n[j - 1])) for p in prime_divisors(gp.v[j - 1])]
        x = gp.r[j] + (n0 + 1) * gp.s[j]
        pairs += lcm_exponents(x, gp.s[j])
    return FactoredInteger.from_exponents(pairs)


def compute_d2(gp: GParams, shape: ApproxShape) -> FactoredInteger:
    """Second clearing integer: together with D1 it clears the numerator
    polynomials (all product-series coefficients up to their degrees)."""
    Nt = shape.Ntilde
    base = gp.d_lcm // gcd(gp.d_lcm, gp.s0)
    pairs = [(p, e * Nt) for p, e in FactoredInteger.of(base).factors]
    pairs += [(p, legendre_nu(p, Nt)) for p in prime_divisors(gp.s_lcm)]
    x = gp.U + gp.V * Nt
    pairs += lcm_exponents(x)
    return FactoredInteger.from_exponents(pairs)


# ---------------------------------------------------------------------------
# Certified constants
# ---------------------------------------------------------------------------


class SizeConstants(NamedTuple):
    """Directed upper enclosures of the eight log-scale size constants."""

    mode: ThetaMode
    precision: int
    iv: tuple[Interval, ...]  # index 0 unused; 1..8 meaningful

    def upper(self, k: int) -> Fraction:
        """The upper end of c_k rounded up to the 2^-precision grid."""
        return self.iv[k].hi_up(self.precision)

    def exponent_13(self, shape: ApproxShape) -> Interval:
        return self.iv[1] + self.iv[2] * shape.n0 + self.iv[3] * shape.N + self.iv[4] * shape.Ntilde

    def exponent_14(self, shape: ApproxShape) -> Interval:
        return self.iv[5] + self.iv[6] * shape.N + self.iv[7] * shape.Ntilde


@lru_cache(maxsize=None)
def bound_constants(gp: GParams, mode: ThetaMode, prec: int = 128) -> SizeConstants:
    """The constants c1..c8 as certified enclosures, memoized on their exact
    arguments.

    c1 = theta*(m(R+S)+U)            c2 = m*theta*S
    c3 = log(s0^2 eps(s0) eps(v))    c4 = theta*V + log(dtilde*eps(s))
    c5 = theta*(2(r0-s0)+m*U)        c6 = 2*theta*s0 + log(d*eps(s)/s0)
    c7 = m*theta*V                   c8 = c3+c4+c6+c7+3
    """
    th = mode.theta
    m = gp.m
    eps_s0 = epsilon_interval(gp.s0, prec)
    eps_s = epsilon_interval(gp.s_lcm, prec)
    eps_v = epsilon_interval(gp.v_lcm, prec)
    c1 = th * (m * (gp.R + gp.S) + gp.U)
    c2 = th * (m * gp.S)
    c3 = log_iv(Interval.point(gp.s0**2) * eps_s0 * eps_v, prec)
    c4 = th * gp.V + log_iv(Interval.point(gp.dtilde) * eps_s, prec)
    c5 = th * (2 * (gp.r0 - gp.s0) + m * gp.U)
    c6 = th * (2 * gp.s0) + log_iv(Interval.point(Fraction(gp.d_lcm, gp.s0)) * eps_s, prec)
    c7 = th * (m * gp.V)
    c8 = c3 + c4 + c6 + c7 + 3
    dummy = Interval.point(0)
    return SizeConstants(mode=mode, precision=prec, iv=(dummy, c1, c2, c3, c4, c5, c6, c7, c8))


class DenominatorCert(NamedTuple):
    """D1, D2, D = D1*D2 for a concrete (gp, shape), plus size constants."""

    d1: FactoredInteger
    d2: FactoredInteger
    d: FactoredInteger
    constants: SizeConstants


def make_cert(gp: GParams, shape: ApproxShape, mode: ThetaMode, prec: int = 128) -> DenominatorCert:
    d1 = compute_d1(gp, shape)
    d2 = compute_d2(gp, shape)
    return DenominatorCert(d1=d1, d2=d2, d=d1 * d2, constants=bound_constants(gp, mode, prec))


# ---------------------------------------------------------------------------
# Integrality
# ---------------------------------------------------------------------------


def verify_integrality(family: PadeFamily, cert: DenominatorCert) -> dict:
    """Check that D1*a_ik and D*c_ij_mu are integers for all in-range indices.

    On a grid (L, c), d clears c_k / L when L divides d c_k, and clears the
    whole grid when L divides d, since gcd(L, *c) = 1.  Returns
    {"passed": bool, "violations": [...]}, listing each failing coefficient
    (empty on success).
    """
    gp = family.gp
    d1 = cert.d1.value
    d = cert.d.value
    violations = []
    for i, (L, nums) in enumerate(family.q):
        if d1 % L:
            violations += [("q", i, k, rational(Fraction(c, L))) for k, c in enumerate(nums) if d1 * c % L]
    for i in range(gp.m + 1):
        for j in range(1, gp.m + 1):
            L, nums = family.p_coeffs(i, j)
            if d % L:
                violations += [("p", i, j, mu, rational(Fraction(c, L))) for mu, c in enumerate(nums) if d * c % L]
    return {"passed": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# Magnitude bound checks (exact LHS vs upper-rounded RHS)
# ---------------------------------------------------------------------------


def check_size_bounds(
    family: PadeFamily,
    cert: DenominatorCert,
    zs: tuple[Fraction, ...] = (Fraction(2), Fraction(8, 3), Fraction(3)),
) -> list[Check]:
    """Verify the certified log-size bounds on the concrete family.

    Gated by the mode's threshold: the D-bound needs min(n0, N) >= c(theta),
    the coefficient bound and the |z| >= 2 evaluation bounds need
    N >= c(theta).  LHS values are exact rationals, each polynomial's value
    at z = a/b an unreduced pair (H, L b^n) from `cleared_eval` on its grid;
    RHS values are upper dyadic bounds, so a PASS certifies the inequality
    as stated, and each is an integer pair over the grid gn / gd of the
    growth factor exp(c5 + c6 N + c7 Ntilde).  Comparisons cross-multiply
    and rendering goes through `fmt_ratio`; only a failing (i, j) is
    reported as reduced Fractions.
    """
    gp, shape = family.gp, family.shape
    cns = cert.constants
    prec = cns.precision
    c = cns.mode.c_theta
    N, n0, Nt = shape.N, shape.n0, shape.Ntilde
    out = []

    app_d = min(n0, N) >= c
    _, dn, dd = exp_interval(cns.exponent_13(shape).hi, prec)
    out.append(entry("log_size_D", app_d, cert.d.value * dd <= dn, cert.d.value, fmt_ratio(dn, dd)))

    # each right side is an exact product of positive upper endpoints
    _, gn, gd = exp_interval(cns.exponent_14(shape).hi, prec)
    app_a = N >= c
    # the largest |a| / L over the grids (L, a) of the Q_i
    an, ad = 0, 1
    for L, nums in family.q:
        top = max(map(abs, nums))
        if top * ad > an * L:
            an, ad = top, L
    ok_a = product_le(an, gd, N * gn, ad)
    out.append(entry("coeff_magnitude", app_a, ok_a, fmt_ratio(an, ad), fmt_ratio(N * gn, gd)))

    for z in zs:
        z = Fraction(z)
        a, b = z.numerator, z.denominator
        app_z = N >= c and abs(z) >= 2
        # 2 N growth |z|^N
        bN = b**N
        rq_n, rq_d = 2 * N * gn * abs(a) ** N, gd * bN
        # |Q_i(z)| = |H| / (L b^N); qn / qd is the largest
        qn, qd = 0, 1
        for grid in family.q:
            h, L = cleared_eval(grid, a, b)
            d = L * bN
            if not product_le(abs(h), qd, qn, d):
                qn, qd = abs(h), d
        ok_q = product_le(qn, rq_d, rq_n, qd)
        out.append(entry(f"denom_poly_at_{z}", app_z, ok_q, fmt_ratio(qn, qd), fmt_ratio(rq_n, rq_d)))
        pmax_ok = True
        worst = None
        # 2 N (N + 1) growth |z|^(Ntilde - n_j + 1)
        rhs_p = [(2 * N * (N + 1) * gn * abs(a) ** e, gd * b**e) for e in (Nt - nj + 1 for nj in shape.n)]
        for i in range(gp.m + 1):
            for j, (rn, rd) in enumerate(rhs_p, start=1):
                grid = family.p_coeffs(i, j)
                h, L = cleared_eval(grid, a, b)
                pd = L * b ** (len(grid.nums) - 1)
                if not product_le(abs(h), rd, rn, pd):
                    pmax_ok = False
                    worst = (i, j, Fraction(abs(h), pd), Fraction(rn, rd))
        out.append(entry(f"numer_poly_at_{z}", app_z, pmax_ok, "" if pmax_ok else worst, ""))
    return out


# ---------------------------------------------------------------------------
# Scaled integer system at a rational point
# ---------------------------------------------------------------------------


class ScaledSystem(NamedTuple):
    """The integers D*b^Ntilde*Q_i(beta) and D*b^Ntilde*P_ij(beta), whose
    stacked (m+1) x (m+1) integer matrix is nonsingular."""

    qi: tuple[int, ...]
    pij: tuple[tuple[int, ...], ...]


def scaled_integers(
    gp: GParams,
    shape: ApproxShape,
    rows: list[list[tuple[int, int]]],
    cert: DenominatorCert,
    beta: Fraction,
    p: int | None = None,
) -> ScaledSystem:
    """Clear the values of the family at beta = a/b (reduced, |beta| >= 2):
    rows[i] holds Q_i(beta), P_i1(beta), ..., P_im(beta) as integer pairs
    (num, den), den > 0 (`realseries.rows_at_point`).

    With a prime supplied, the p-adic smallness condition on the numerator is
    enforced as well; DomainViolation reports whichever precondition fails.
    The integer matrix is certified nonsingular by `certify_nonsingular`.
    """
    beta = Fraction(beta)
    if beta == 0 or abs(beta) < 2:
        raise DomainViolation(f"need |beta| >= 2, got {beta}")
    if p is not None:
        chk = padic_domain_check(gp, p, Fraction(beta.numerator))
        if not chk.ok:
            raise DomainViolation(f"|{beta.numerator}|_{p} does not meet the smallness condition")
    scale = cert.d.value * beta.denominator**shape.Ntilde

    def scaled(value: tuple[int, int], name: str) -> int:
        num, den = value
        v = scale * num
        if v % den:
            raise IntegralityViolation(f"scaled {name}({beta}) is not an integer")
        return v // den

    ints = [[scaled(v, f"P_{i}{k}" if k else f"Q_{i}") for k, v in enumerate(row)] for i, row in enumerate(rows)]
    try:
        certify_nonsingular(ints, [], [(k, 0) for k in range(len(ints))], [range(len(ints))])
    except SingularSystem:
        raise IntegralityViolation("scaled system matrix is singular") from None
    return ScaledSystem(qi=tuple(row[0] for row in ints), pij=tuple(tuple(row[1:]) for row in ints))


def ntilde1_interval(gp: GParams, cns: SizeConstants, beta: Fraction, p: int) -> Interval:
    """Threshold on Ntilde past which the clean remainder bound applies:
    max{(m+1)c(theta), c1+c5, log(2*dtilde) + 4*delta(p)*log|a|}."""
    a = abs(Fraction(beta).numerator)
    delta_p = 1 if gp.s_lcm % p == 0 else 0
    t1 = Interval.point((gp.m + 1) * cns.mode.c_theta)
    t2 = cns.iv[1] + cns.iv[5]
    t3 = log_interval(2 * gp.dtilde, cns.precision)
    if delta_p:
        t3 = t3 + 4 * log_interval(a, cns.precision)
    return t1.max_with(t2).max_with(t3)


class RemainderBound(NamedTuple):
    a14: Fraction
    lemma6_upper: Fraction
    lemma6_applicable: bool


def remainder_padic_bound(
    gp: GParams, shape: ApproxShape, beta: Fraction, p: int, cert: DenominatorCert
) -> RemainderBound:
    """The two certified p-adic bounds on the cleared remainder at beta.

    The first (always valid under the domain condition) is
    2*dtilde*|a|^(4 delta(p)) * Ntilde^delta(p) * |a|_p^(Ntilde+1); the second
    is exp(2*Ntilde)*|a|_p^(Ntilde+1), valid once Ntilde >= Ntilde_1.
    """
    beta = Fraction(beta)
    chk = padic_domain_check(gp, p, Fraction(beta.numerator))
    if not chk.ok:
        raise DomainViolation(f"|{beta.numerator}|_{p} does not meet the smallness condition")
    a = beta.numerator
    va = p_valuation(Fraction(a), p)
    Nt = shape.Ntilde
    dp = chk.delta_p
    abs_a_p = Fraction(1, p ** (va * (Nt + 1)))
    a14 = 2 * gp.dtilde * Fraction(abs(a)) ** (4 * dp) * Fraction(Nt) ** dp * abs_a_p
    applicable = Fraction(Nt) >= ntilde1_interval(gp, cert.constants, beta, p).hi
    lemma6 = exp_iv(Interval.point(2 * Nt), cert.constants.precision).hi * abs_a_p
    return RemainderBound(a14=a14, lemma6_upper=lemma6, lemma6_applicable=applicable)


def check_remainder_padic(family: PadeFamily, cert: DenominatorCert, beta: Fraction, p: int) -> list[Check]:
    """Check the truncated cleared remainders against the p-adic bounds.

    For every (i, j): the exact p-adic absolute value of
    D * (Q_i*phi_j - P_ij)(beta), truncated after the order
    `ApproxShape.remainder_truncation`, and of each of its terms, must respect the
    first bound; and the second bound when its threshold is met.
    """
    gp, shape = family.gp, family.shape
    beta = Fraction(beta)
    rb = remainder_padic_bound(gp, shape, beta, p, cert)
    d = cert.d.value
    zn, zd = beta.numerator, beta.denominator
    # the terms c_mu beta^mu from each product's first possibly nonzero order on
    starts = [[shape.Nij(i, j) + nj + 1 for i in range(gp.m + 1)] for j, nj in enumerate(shape.n, 1)]
    T = shape.remainder_truncation
    phis = [phi_coeffs(gp, j, T) for j in range(1, gp.m + 1)]
    cols = [series_product_coeffs(phi, family.q, [(lo, T) for lo in los]) for phi, los in zip(phis, starts)]
    out = []
    for i in range(gp.m + 1):
        for j in range(1, gp.m + 1):
            start, (den, nums) = starts[j - 1][i], cols[j - 1][i]
            terms = [Fraction(d * c * zn**mu, den * zd**mu) for mu, c in enumerate(nums, start=start)]
            total = sum(terms, Fraction(0))
            vals = [Fraction(1, p**p_valuation(t, p)) if t != 0 else Fraction(0) for t in terms]
            vtot = Fraction(1, p**p_valuation(total, p)) if total != 0 else Fraction(0)
            ok_terms = all(v <= rb.a14 for v in vals)
            ok_total = vtot <= rb.a14
            out.append(entry(f"remainder_first_bound_{i}_{j}", True, ok_terms and ok_total, vtot, rb.a14))
            ok6 = vtot <= rb.lemma6_upper and all(v <= rb.lemma6_upper for v in vals)
            out.append(
                entry(f"remainder_clean_bound_{i}_{j}", rb.lemma6_applicable, ok6, vtot, rb.lemma6_upper)
            )
    return out


# ---------------------------------------------------------------------------
# Certificate dump
# ---------------------------------------------------------------------------


def cert_tsv(cert: DenominatorCert, checks: list[Check]) -> str:
    cns = cert.constants
    clearing = (("D1", cert.d1), ("D2", cert.d2), ("D", cert.d))
    lines = [f"{label}\t{full_digits(fi.value)}\t{fi.format_factors()}\t-" for label, fi in clearing]
    lines += [f"c{k}\t{fmt_real(cns.upper(k), 24)}\tupper@{cns.precision}b\t-" for k in range(1, 9)]
    lines += [f"{e.name}\t{e.lhs}\t{e.rhs}\t{e.status}" for e in checks]
    return tsv(("quantity", "value", "detail", "status"), lines)
