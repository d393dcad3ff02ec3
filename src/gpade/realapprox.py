"""Restricted rational approximation of the real series value (m = 1).

Audits the explicit lower bound for |phi(a/b) - n/(B*b^M)| over denominators
of the shape B*b^M.  All constants are certified enclosures, the series value
is enclosed with an explicit geometric tail bound, and every inequality in
the chain is either decided exactly or with directed rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import (
    FactoredInteger,
    Interval,
    digits10,
    epsilon_interval,
    exp_iv,
    lcm_exponents,
    legendre_nu,
    log_interval,
    log_iv,
    nth_root_iv,
    power_le,
    prime_divisors,
    product_le,
)
from .denom import ThetaMode, compute_d1
from .envelope import Envelope, series_terms
from .errors import DomainViolation, HypothesisFailure, PrecisionInsufficient
from .pade import ApproxShape, build_q, phi_split
from .params import GParams
from .realseries import phi_real_ends, rows_at
from .report import Check, entry, fmt_ratio, fmt_real, full_digits, int_str, rational, tagged_bound

__all__ = [
    "RestrictedConstants",
    "RestrictedInstance",
    "eval_phi_real",
    "c_of_vartheta",
    "restricted_constants",
    "restricted_threshold",
    "smallest_admissible_b",
    "make_restricted_instance",
    "audit_restricted",
]


def eval_phi_real(gp: GParams, z: Fraction, T: int) -> Interval:
    """Partial sum of T+1 terms of phi_1 plus the tail bound |z|^(T+1)/(1-|z|).

    Every series coefficient lies in (0, 1] and the coefficients decrease, so
    for z > 0 the tail is a positive amount below the bound, and for z < 0
    the series is alternating and the tail has the sign of the first omitted
    term.  Either way the enclosure has width exactly the tail bound.
    """
    z = Fraction(z)
    if abs(z) >= 1:
        raise DomainViolation("real evaluation needs |z| < 1")
    if T < 0:
        raise DomainViolation("real evaluation needs T >= 0")
    lo, hi, den = phi_real_ends(z, T, phi_split(gp, 1, z, (T,))[0])
    return Interval.of(lo, hi, den)


_SCAN_LIMIT = 200000  # the largest n that c_of_vartheta searches for the crossover


def _first_from(holds, n: int) -> int | None:
    """Least k in [n, _SCAN_LIMIT] with holds(k), for a `holds` that stays
    true once true there; None when it fails at _SCAN_LIMIT.  Gallops up in
    doubling steps, then bisects the last step."""
    lo, step = n, 1
    while not holds(n):
        if n >= _SCAN_LIMIT:
            return None
        lo, n, step = n + 1, min(n + step, _SCAN_LIMIT), 2 * step
    while lo < n:  # holds(n), and no k below lo holds
        mid = (lo + n) // 2
        if holds(mid):
            n = mid
        else:
            lo = mid + 1
    return n


def c_of_vartheta(vartheta: Fraction) -> int:
    """Smallest n* with (n+1)^2 <= vartheta^n for every n >= n*.

    Certified by the ratio test: the least n* with (n*+1)^2 <= vartheta^n*
    and (n*+2)^2 < (n*+1)^2 * vartheta.  Once the ratio condition holds, the
    squared-ratio factor only shrinks, so it holds for every larger n and
    induction carries the power inequality onward.  Both conditions are thus
    monotone where they are searched, and each first n is found by galloping
    and bisection.  A probe of the power condition is `arith.power_le` on
    (n+1)^2 * den^n <= num^n, which forms the powers only on a near-tie.
    """
    vartheta = Fraction(vartheta)
    if vartheta <= 1:
        raise ValueError("need vartheta > 1")
    num, den = vartheta.numerator, vartheta.denominator
    n = _first_from(lambda k: (k + 2) ** 2 * den < (k + 1) ** 2 * num, 0)
    if n is not None:
        n = _first_from(lambda k: power_le(den, k, num, k, (k + 1) ** 2), n)
    if n is None:
        raise ValueError("crossover not found below the scan limit")
    return n


class RestrictedConstants(NamedTuple):
    mode: ThetaMode
    vartheta: Fraction
    c_vartheta: int
    a1: Interval
    a1_variant: str
    a2: Interval
    precision: int


def restricted_constants(
    gp: GParams, mode: ThetaMode, vartheta: Fraction, prec: int = 128
) -> RestrictedConstants:
    """The two envelope constants of the restricted-approximation bound.

    a1 has three forms: general, integer leading parameter, and leading
    parameter equal to 1; the most specific applicable form is selected
    (it is also the smallest).  a2 is the single general form.
    """
    if gp.m != 1:
        raise ValueError("restricted approximation is stated for m = 1")
    vartheta = Fraction(vartheta)
    if vartheta <= 1:
        raise ValueError("need vartheta > 1")
    th = mode.theta
    s0, r0 = gp.s0, gp.r0
    r, s = gp.r[1], gp.s[1]
    u, v = gp.u[0], gp.v[0]
    eps_s = epsilon_interval(gp.s_lcm, prec)
    if r0 == 1 and s0 == 1:
        a1 = nth_root_iv(Interval.point(Fraction(2)), 4, prec) * exp_iv(th * (3 * s), prec)
        variant = "leading_parameter_one"
    elif s0 == 1:
        a1 = nth_root_iv(Interval.point(4 * vartheta), 4, prec) * exp_iv(th * (3 * s), prec)
        variant = "integer_leading_parameter"
    else:
        base = Interval.point(vartheta * gp.d_lcm * s0) * epsilon_interval(s0, prec) * epsilon_interval(gp.v_lcm, prec)
        a1 = nth_root_iv(base, 4, prec) * gp.dtilde * eps_s * exp_iv(th * (Fraction(s0, 2) + s + 2 * v), prec)
        variant = "general"
    a2 = 4 * gp.dtilde * eps_s * exp_iv(th * (r + s + 2 * r0 + 2 * u), prec)
    return RestrictedConstants(
        mode=mode,
        vartheta=vartheta,
        c_vartheta=c_of_vartheta(vartheta),
        a1=a1.rounded(prec),
        a1_variant=variant,
        a2=a2.rounded(prec),
        precision=prec,
    )


def _b_size_bound(rc: RestrictedConstants, a: int) -> Fraction:
    """The upper end of (a1*|a|)^6 (a1 is positive): b is certified
    admissible when b >= it."""
    return (rc.a1.hi * abs(a)) ** 6


def smallest_admissible_b(gp: GParams, a: int, mode: ThetaMode, vartheta: Fraction, prec: int = 128) -> int:
    """Least integer b certified to satisfy b >= (a1*|a|)^6."""
    bound = _b_size_bound(restricted_constants(gp, mode, vartheta, prec), a)
    return -((-bound.numerator) // bound.denominator)  # ceil


def restricted_threshold(rc: RestrictedConstants, a: int, b: int, B: int, t: Fraction) -> tuple[Interval, dict]:
    """The explicit starting exponent M0, as an enclosure, plus its pieces.

    M0 = (log b / log(a1|a|)) * max{ 6 log(a2|a|)/log b + 1/2, (4t+1)/2,
          (log b / log(a1|a|))/4, (1 + max{c(theta), c(vartheta), 4})/2 }.

    Raises HypothesisFailure if b < (a1|a|)^6 (certified) or B > b^t (exact).
    """
    t = Fraction(t)
    prec = rc.precision
    if a == 0 or b < 1 or B < 1 or t < 0:
        raise HypothesisFailure("need a != 0, b >= 1, B >= 1, t >= 0")
    hyp_b = b >= _b_size_bound(rc, a)
    hyp_B = power_le(B, t.denominator, b, t.numerator)
    if not hyp_b:
        raise HypothesisFailure(f"b = {b} is not certified >= (a1*|a|)^6")
    if not hyp_B:
        raise HypothesisFailure(f"B = {B} exceeds b^t")
    log_b = log_interval(b, prec)
    log_a1a = log_iv(rc.a1 * abs(a), prec)
    ratio = log_b / log_a1a
    log_a2a = log_iv(rc.a2 * abs(a), prec)
    parts = [
        6 * log_a2a / log_b + Fraction(1, 2),
        Interval.point(Fraction(4 * t.numerator + t.denominator, 2 * t.denominator)),
        ratio / 4,
        Interval.point(Fraction(1 + max(rc.mode.c_theta, rc.c_vartheta, 4), 2)),
    ]
    biggest = parts[0]
    for pc in parts[1:]:
        biggest = biggest.max_with(pc)
    m0 = ratio * biggest
    detail = {
        "ratio_log": ratio,
        "entries": parts,
        "m0": m0,
    }
    return m0, detail


class RestrictedInstance(NamedTuple):
    gp: GParams
    constants: RestrictedConstants
    a: int
    b: int
    B: int
    t: Fraction
    M: int
    candidate_n: int | None
    x: Interval
    h: int
    n0: int
    n1: int
    m0: Interval


def make_restricted_instance(
    gp: GParams,
    a: int,
    b: int,
    B: int,
    t: Fraction,
    mode: ThetaMode,
    vartheta: Fraction,
    M: int | None = None,
    candidate_n: int | None = None,
    prec: int = 128,
) -> RestrictedInstance:
    """Assemble an instance: derive x = log b / (2 log(a1|a|)), pick the block
    sizes n1 = h = floor(M/(x-2)) and n0 = floor(x*h) from the certified lower
    end of x, and default M to the least certified admissible exponent."""
    rc = restricted_constants(gp, mode, vartheta, prec)
    m0, _ = restricted_threshold(rc, a, b, B, t)
    if M is None:
        M = -(-m0.hi_num // m0.den)  # ceil of the upper bound
    log_b = log_interval(b, prec)
    x = log_b / (2 * log_iv(rc.a1 * abs(a), prec))
    if x.lo <= 2:
        raise HypothesisFailure("x = log b / (2 log(a1|a|)) must exceed 2 (expect >= 3)")
    h = int(Fraction(M) / (x.lo - 2))  # floor for positive values
    n0 = int(x.lo * h)
    return RestrictedInstance(
        gp=gp, constants=rc, a=a, b=b, B=B, t=Fraction(t), M=M,
        candidate_n=candidate_n, x=x, h=h, n0=n0, n1=h, m0=m0,
    )


# ---------------------------------------------------------------------------
# Specialized clearing integers (m = 1)
# ---------------------------------------------------------------------------


def restricted_d1(gp: GParams, n1: int, n0: int) -> FactoredInteger:
    """D1 of the restricted audit's family, whose shape is ((n1,), n0)."""
    return compute_d1(gp, ApproxShape(n=(n1,), n0=n0))


def restricted_d2(gp: GParams, n0: int) -> FactoredInteger:
    pairs = [(p, e * (n0 + 1)) for p, e in FactoredInteger.of(gp.dtilde).factors]
    pairs += [(p, legendre_nu(p, n0 + 1)) for p in prime_divisors(gp.s_lcm)]
    xval = gp.u[0] + gp.v[0] * n0
    pairs += lcm_exponents(xval, gp.v[0])
    return FactoredInteger.from_exponents(pairs)


# ---------------------------------------------------------------------------
# The end-to-end audit
# ---------------------------------------------------------------------------


def _nearest_integer(lo: int, hi: int, den: int, bits: int) -> int:
    """The integer nearest to every value in [lo / den, hi / den] (den > 0,
    halves rounded up), for values of about `bits` bits; PrecisionInsufficient
    when the two ends round to different integers.

    With t low bits dropped, as in `fmt_ratio`, nl = lo >> t, nh = hi >> t
    and dl = den >> t put the interval inside [nl / (dl + 1), (nh + 1) / dl]
    when lo > 0.  If the lower end of that bracket rounds to n and its upper
    end lies below n + 1/2, every value in it rounds to n; only a bracket that
    straddles a half-integer pays for the exact quotients.
    """
    t = den.bit_length() - bits - 64
    if t > 0 and lo > 0:
        dl = den >> t
        n = (2 * (lo >> t) + dl + 1) // (2 * dl + 2)
        if 2 * ((hi >> t) + 1) < (2 * n + 1) * dl:
            return n
    n_lo = (2 * lo + den) // (2 * den)
    if n_lo != (2 * hi + den) // (2 * den):
        raise PrecisionInsufficient("nearest integer undecided; raise the truncation")
    return n_lo


def audit_restricted(inst: RestrictedInstance, exact: bool = False) -> dict:
    """Run the whole restricted-approximation certification chain.

    Produces {"constants": ..., "checks": [...], "final_verdict": ...} where
    every check entry carries the comparison actually made.  Mathematical
    failures are reported (never silently accepted); hypothesis violations
    raise HypothesisFailure before any verdict is attempted.

    Every quantity that grows with M or with the series length (the values
    at beta, the enclosure, the remainders, the envelope 1/(B b^M (a1^18
    |a|^17)^M) and the distances) is an unreduced pair of integers
    (numerator, positive denominator): comparisons cross-multiply and
    rendering goes through `fmt_ratio`, so none of them pays a gcd.  The
    cleared combinations W_i are rendered in full only when `exact` is set.
    """
    gp = inst.gp
    rc = inst.constants
    prec = rc.precision
    a, b, B, M = inst.a, inst.b, inst.B, inst.M
    beta = Fraction(a, b)
    if not 0 < abs(beta) < 1:
        raise DomainViolation("evaluation point must satisfy 0 < |a/b| < 1")
    an, bd = abs(beta.numerator), beta.denominator
    th = rc.mode.theta
    checks: list[Check] = []

    # hypotheses (certified): b-size, B-size, and M >= M0
    b_bound = _b_size_bound(rc, a)
    hyp_b = b >= b_bound
    hyp_B = power_le(B, inst.t.denominator, b, inst.t.numerator)
    if not (hyp_b and hyp_B):
        raise HypothesisFailure("size hypotheses on (b, B) fail")
    if Fraction(M) < inst.m0.hi:
        raise HypothesisFailure(f"M = {M} is below the certified threshold {fmt_real(inst.m0.hi, 6)}")
    checks.append(entry("b_at_least_sixth_power", True, True, b, rational(b_bound)))
    checks.append(entry("M_at_least_threshold", True, True, M, fmt_real(inst.m0.hi, 6)))

    n1, n0 = inst.n1, inst.n0
    Nt = n0 + n1
    checks.append(entry("x_at_least_3", True, inst.x.lo >= 3, fmt_real(inst.x.lo, 10), "3"))
    checks.append(entry("exponent_gap", True, n0 - n1 + 1 >= M, n0 - n1 + 1, M))

    # the block-size constraints behind the choice of h
    log_b = log_interval(b, prec)
    log_a2a = log_iv(rc.a2 * abs(a), prec)
    h_req = 12 * log_a2a / log_b
    checks.append(entry("h_vs_12log", True, Fraction(inst.h) >= h_req.hi, inst.h, fmt_real(h_req.hi, 6)))
    checks.append(
        entry("h_vs_4t", True, inst.h * inst.t.denominator >= 4 * inst.t.numerator, inst.h, rational(4 * inst.t))
    )
    m_over = Fraction(M) / (inst.x.lo - 1)
    checks.append(entry("h_vs_M_over_xm1", True, Fraction(inst.h) >= m_over, inst.h, fmt_real(m_over, 6)))
    h_min = max(rc.mode.c_theta, rc.c_vartheta, 4)
    checks.append(entry("h_vs_thresholds", True, inst.h >= h_min, inst.h, h_min))

    # the denominators Q_0, Q_1 and the specialized clearing integers
    shape = ApproxShape(n=(n1,), n0=n0)
    qs = build_q(gp, shape, (0, 1))
    d1 = restricted_d1(gp, n1, n0)
    d2 = restricted_d2(gp, n0)

    # the final right-hand side 1/(B b^M (a1^18 |a|^17)^M): its lower end
    # comes from the upper end of a1 and its upper end from the lower end
    bM = b**M
    scale = B * bM
    env = Envelope(rc.a1.lo, a, scale, M)
    # (working precision for the series value) target: a tenth of the final RHS
    target = Envelope(rc.a1.hi, a, 10 * scale, M)
    terms_used = series_terms(beta, target)
    # phi_1 at beta, split once (`realseries.rows_at`): the enclosure
    # [lo/den, hi/den] through terms_used and, for each row, Q_i(beta) =
    # hq / (lq b^n1), the scaled D1 D2 b^(n0+1) P_i1(beta), which must be an
    # integer as D1 b^n1 Q_i(beta) must, and the bound max |x Q_i(beta) -
    # P_i1(beta)| over the ends x on the remainder |R_i|
    (lo, hi, den), rows = rows_at(gp, qs, n0, a, b, terms_used, d1.value * d2.value)
    q_at, ui, vi, rems = [], [], [], []
    for i, (hq, vval, rem) in enumerate(rows):
        lq = qs[i].den
        q_at.append((hq, lq * b**n1))
        u = d1.value * hq
        ok_u = u % lq == 0
        uval = u // lq if ok_u else Fraction(u, lq)
        ok_v = vval.denominator == 1
        checks.append(entry(f"integrality_scaled_q_{i}", True, ok_u, rational(uval) if not ok_u else "", ""))
        checks.append(entry(f"integrality_scaled_p_{i}", True, ok_v, rational(vval) if not ok_v else "", ""))
        ui.append(uval)
        vi.append(vval)
        rems.append(rem)

    # coefficient envelope and the |z| < 1 evaluation bounds
    e1 = (
        n1
        * exp_iv(th * (2 * gp.r0 + gp.u[0]), prec)
        * (Interval.point(Fraction(gp.d_lcm, gp.s0)) * epsilon_interval(gp.s_lcm, prec)).pow_int(n1)
        * exp_iv(th * (2 * gp.s0 * n1 + gp.v[0] * Nt), prec)
    )
    gate_n1 = n1 >= rc.mode.c_theta
    amax = max(Fraction(max(map(abs, nums)), L) for L, nums in qs)
    checks.append(entry("coeff_envelope", gate_n1, amax <= e1.hi, rational(amax), fmt_real(e1.hi, 6)))
    qbound = (e1 / (1 - abs(beta))).hi
    qmax = max(abs(Fraction(hq, dq)) for hq, dq in q_at)
    checks.append(entry("denom_poly_envelope", gate_n1, qmax <= qbound, rational(qmax), fmt_real(qbound, 6)))

    width = hi - lo
    checks.append(
        entry("enclosure_width", True, target.holds_above(width, den), fmt_ratio(width, den, 40), target.render(40))
    )

    # remainder envelope at the evaluation point:
    # (n1 + 1) E1 |beta|^(Nt+1) / (1 - |beta|)
    rb_num = (n1 + 1) * e1.hi_num * an ** (Nt + 1) * bd
    rb_den = e1.den * bd ** (Nt + 1) * (bd - an)
    rb_text = fmt_ratio(rb_num, rb_den, 30)
    for i, rem in enumerate(rems):
        checks.append(
            entry(
                f"remainder_envelope_{i}",
                gate_n1,
                product_le(rem[0], rb_den, rb_num, rem[1]),
                fmt_ratio(*rem, 30),
                rb_text,
            )
        )

    # the scaled product inequality driving the lower bound
    lhs25 = (
        rc.a2
        * abs(a)
        * (Interval.point(rc.vartheta * gp.d_lcm * gp.s0) * epsilon_interval(gp.s0, prec) * epsilon_interval(gp.v_lcm, prec)).pow_int(n1)
        * gp.dtilde**n0
        * epsilon_interval(gp.s_lcm, prec).pow_int(Nt)
        * exp_iv(th * (2 * gp.s0 * n1 + (gp.s_lcm + gp.v_lcm) * n0 + gp.v_lcm * Nt), prec)
        * abs(a) ** Nt
        * B
        / b**n1
    )
    checks.append(entry("scaled_product_le_1", True, lhs25.hi <= 1, fmt_real(lhs25.hi, 12), "1"))

    # smallness of B*|R_i| against 1/(2 D1 D2 b^(n0+1))
    half_den = 2 * d1.value * d2.value * b ** (n0 + 1)
    for i in (0, 1):
        rn, rd = rems[i]
        checks.append(
            entry(
                f"remainder_small_{i}",
                True,
                product_le(B * rn, half_den, rd, 1),
                fmt_ratio(B * rn, rd, 40),
                fmt_ratio(1, half_den, 40),
            )
        )

    # candidate numerator: nearest integer to B*b^M*phi unless overridden
    # B b^M phi lies in [lo_s / den, hi_s / den]
    lo_s, hi_s = lo * scale, hi * scale
    nearest = _nearest_integer(lo_s, hi_s, den, scale.bit_length())
    n_used = inst.candidate_n if inst.candidate_n is not None else nearest

    # the cleared combination W_i: nonzero for some row, divisible by b^M
    witness = None
    w_vals = []
    for i in (0, 1):
        w = n_used * d2.value * b ** (n0 - n1 + 1) * int(ui[i]) - scale * int(vi[i])
        w_vals.append(w)
        if w != 0 and witness is None:
            witness = i
    w0, w1 = (int_str(w, exact) for w in w_vals)  # rendered as the report abbreviates them
    checks.append(entry("cleared_combination_nonzero", True, witness is not None, w0, w1))
    if witness is not None and n0 - n1 + 1 >= M:
        checks.append(
            entry("cleared_combination_divisible", True, w_vals[witness] % bM == 0, f"i={witness}", f"b^{M}")
        )

    # the distance from n to B b^M phi, certified from the enclosure:
    # |n - B b^M phi| >= dist / den
    dist = max(0, n_used * den - hi_s, lo_s - n_used * den)

    # scaled distance bound at the witness row:
    # |Q_i(beta)| * |n - B b^M phi| >= b^M / (2 D1 D2 b^(n0+1))
    if witness is not None:
        hq, dq = q_at[witness]
        lhs_num, lhs_den = abs(hq) * dist, dq * den
        checks.append(
            entry(
                "scaled_distance_bound",
                True,
                product_le(bM, lhs_den, lhs_num, half_den),
                fmt_ratio(lhs_num, lhs_den, 30),
                fmt_ratio(bM, half_den, 30),
            )
        )

    # the final lower bound |phi - n/(B b^M)| >= dist / (den B b^M),
    # decided against the upper end of the right-hand side
    dscale = den * scale
    checks.append(
        entry("final_lower_bound", True, env.holds_below(dist, dscale), fmt_ratio(dist, dscale, 40), env.render(40))
    )

    failed = [c.name for c in checks if c.failed]
    verdict = "all checks passed" if not failed else f"FAILED: {', '.join(failed)}"
    return {
        "constants": {
            "a1": tagged_bound(rc.a1.hi, 12, "upper", prec),
            "a1_variant": rc.a1_variant,
            "a2": tagged_bound(rc.a2.hi, 12, "upper", prec),
            "x": tagged_bound(inst.x.lo, 10, "lower", prec),
            "h": inst.h,
            "n0": n0,
            "n1": n1,
            "M": M,
            "M0": tagged_bound(inst.m0.hi, 10, "upper", prec),
            "D1": full_digits(d1.value),
            "D2": full_digits(d2.value),
            "E1": tagged_bound(e1.hi, 8, "upper", prec),
            "candidate_n_digits": digits10(n_used),
            "nearest_n_used": inst.candidate_n is None,
            "series_terms": terms_used,
        },
        "checks": checks,
        "final_verdict": verdict,
    }
