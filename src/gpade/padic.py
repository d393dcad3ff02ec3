"""Certified p-adic evaluation of the series and the linear-form audits.

A p-adic value is only ever reported one of two ways: with an exactly known
valuation and a unit residue certified to k digits, or as "below precision"
(absolute value at most p^-E).  Truncation can never prove a series value to
be zero, so zero is never claimed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import NamedTuple

from .arith import (
    Interval,
    epsilon_interval,
    floor_log,
    log_interval,
    log_iv,
    p_valuation,
    power_le,
    prime_divisors,
)
from .denom import ThetaMode, bound_constants, make_cert, ntilde1_interval, scaled_integers
from .errors import DomainViolation, InvariantViolation, PrecisionInsufficient
from .pade import ApproxShape, build_q, phi_split
from .params import GParams, padic_domain_check
from .realseries import phi_heads, rows_at_point, window_at
from .report import dec_iv, full_digits, rational

__all__ = [
    "PAdicEnclosure",
    "LinearFormValuation",
    "LinearFormInstance",
    "BlockDegreeSelection",
    "eval_phi_padic",
    "eval_all_phi",
    "linear_form_valuation",
    "select_block_degrees",
    "audit_linear_form",
    "global_relation_constant",
    "check_global_point",
    "probe_global_relation",
]


class PAdicEnclosure(NamedTuple):
    """value = p^valuation_offset * (unit_residue + O(p^k)).

    When k >= 1 the residue is a unit, so |value|_p = p^-valuation_offset is
    exact.  A "below precision" result is encoded as residue 0 with k = 0:
    all that is certified is |value|_p <= p^-valuation_offset.
    """

    p: int
    valuation_offset: int
    unit_residue: int
    k: int

    @property
    def below_precision(self) -> bool:
        return self.k == 0


def _tail_rate(gp: GParams, p: int, beta: Fraction, delta_p: int) -> Fraction:
    """The rate q at which the valuations of the series terms at beta grow;
    the convergence domain guarantees q >= 1/2."""
    q = p_valuation(beta, p) - p_valuation(Fraction(gp.dtilde), p) - Fraction(delta_p, p - 1)
    if q < Fraction(1, 2):
        raise DomainViolation("term valuations do not grow fast enough (q < 1/2)")
    return q


def _tail_floor(gp: GParams, p: int, q: Fraction, n: int) -> Fraction:
    """A floor for the valuation of every series term of index >= n, for
    n >= 3 and q >= 1/2, where it increases in n."""
    return n * q - (floor_log(p, gp.U + gp.V * n) + 1)


def _truncation_order(gp: GParams, p: int, q: Fraction, target: int) -> int:
    """The least T >= 3 with _tail_floor(T + 1) >= target.

    On a run of n where k = floor_log(p, U + V n) stays constant, the floor
    is n q - k - 1, so the least n of the run that reaches the target is
    max(run start, ceil((target + k + 1) / q)); the run ends at the least n
    with U + V n >= p^(k+1).  The runs are visited in order from n = 4.
    """
    n = 4
    while True:
        k = floor_log(p, gp.U + gp.V * n)
        end = -(-(p ** (k + 1) - gp.U) // gp.V)
        n = max(n, -(-(target + k + 1) // q))
        if n < end:
            return n - 1
        n = end


def _enclose(p: int, value: Fraction, tail_exponent: int) -> PAdicEnclosure:
    if value == 0:
        return PAdicEnclosure(p, tail_exponent, 0, 0)
    v0 = p_valuation(value, p)
    if v0 >= tail_exponent:
        return PAdicEnclosure(p, tail_exponent, 0, 0)
    digits = tail_exponent - v0
    num, den = value.numerator, value.denominator
    if v0 >= 0:
        num //= p**v0
    else:
        den //= p ** (-v0)
    mod = p**digits
    residue = num * pow(den, -1, mod) % mod
    return PAdicEnclosure(p, v0, residue, digits)


def eval_phi_padic(gp: GParams, j: int, beta: Fraction, p: int, k: int) -> PAdicEnclosure:
    """Enclosure of phi_j(beta) in the p-adics with k certified digits past
    the leading valuation (or a below-precision report at exponent k)."""
    if k < 1:
        raise ValueError("precision k must be >= 1")
    beta = Fraction(beta)
    if beta == 0:
        return PAdicEnclosure(p, 0, 1 % p**k, k)
    chk = padic_domain_check(gp, p, beta)
    if not chk.ok:
        raise DomainViolation(f"|{beta}|_{p} outside the convergence domain")
    q = _tail_rate(gp, p, beta, chk.delta_p)
    target = k
    for _ in range(2):
        T = _truncation_order(gp, p, q, target)  # past T every term has valuation >= target
        _, sq, s, _ = phi_split(gp, j, beta, (T,))[0]  # terms 0..T sum to (sq + s) / sq
        enc = _enclose(p, Fraction(sq + s, sq), target)
        if enc.below_precision or enc.k >= k:
            return enc
        target = k + enc.valuation_offset  # positive leading valuation: retry deeper
    return enc


def eval_all_phi(gp: GParams, beta: Fraction, p: int, k: int) -> tuple[PAdicEnclosure, ...]:
    return tuple(eval_phi_padic(gp, j, beta, p, k) for j in range(1, gp.m + 1))


class LinearFormValuation(NamedTuple):
    """|L|_p of an integer combination of enclosed values: either the exact
    valuation, or a certified bound |L|_p <= p^-precision_exponent."""

    p: int
    exact: bool
    valuation: int | None
    precision_exponent: int | None

    def report(self) -> dict:
        """The valuation as the CLI and the audit print it."""
        return {
            "exact": self.exact,
            "valuation": self.valuation,
            "below_precision_exponent": self.precision_exponent,
        }


def linear_form_valuation(values: tuple[PAdicEnclosure, ...], ell: tuple[int, ...]) -> LinearFormValuation:
    """Combine enclosures of phi_1..phi_m with integer coefficients
    (ell_0, ..., ell_m) and certify |ell_0 + sum ell_j phi_j|_p."""
    if len(ell) != len(values) + 1:
        raise ValueError("need one coefficient per series plus the constant")
    if all(l == 0 for l in ell):
        raise ValueError("the zero form has no valuation")
    ps = {enc.p for enc in values}
    if len(ps) != 1:
        raise ValueError("need enclosures at exactly one prime")
    p = ps.pop()
    known = Fraction(ell[0])
    err = None
    for lj, enc in zip(ell[1:], values):
        if lj == 0:
            continue
        known += lj * Fraction(p) ** enc.valuation_offset * enc.unit_residue
        term_err = p_valuation(Fraction(lj), p) + enc.valuation_offset + enc.k
        err = term_err if err is None else min(err, term_err)
    if err is None:
        return LinearFormValuation(p, True, p_valuation(Fraction(ell[0]), p), None)
    if known != 0 and p_valuation(known, p) < err:
        return LinearFormValuation(p, True, p_valuation(known, p), None)
    return LinearFormValuation(p, False, None, err)


# ---------------------------------------------------------------------------
# Block-degree selection from a linear form
# ---------------------------------------------------------------------------


class _FormFields(NamedTuple):
    ell: tuple[int, ...]
    tau: Fraction
    delta: Fraction


class LinearFormInstance(_FormFields):
    __slots__ = ()

    def __new__(cls, ell: tuple[int, ...], tau: Fraction, delta: Fraction):
        if all(l == 0 for l in ell):
            raise ValueError("the zero form is excluded")
        if tau <= 0 or delta < 0:
            raise ValueError("need tau > 0 and delta >= 0")
        return tuple.__new__(cls, (ell, tau, delta))

    @property
    def m(self) -> int:
        return len(self.ell) - 1

    @property
    def h(self) -> tuple[int, ...]:
        h0 = max(abs(l) for l in self.ell)
        return (h0,) + tuple(max(1, abs(l)) for l in self.ell[1:])

    @property
    def htilde(self) -> int:
        return prod(self.h)


class BlockDegreeSelection(NamedTuple):
    shape: ApproxShape
    clamped: tuple[bool, ...]  # index 0 is n0
    checks: dict


def select_block_degrees(inst: LinearFormInstance, a: int) -> BlockDegreeSelection:
    """Degrees n_j = floor(log(h_j * Htilde^tau) / log |a|), clamped to >= 1.

    With tau = tn/td, n_j is floor_log(|a|, h_j^td Htilde^tn) // td:
    `arith.floor_log` holds the package's one float seed, which never
    decides a floor.
    When nothing was clamped, the two shape inequalities tying Ntilde and n0
    to log Htilde / log |a| are verified exactly and reported.
    """
    if abs(a) < 2:
        raise DomainViolation("block-degree selection needs |a| >= 2")
    A = abs(a)
    tn, td = inst.tau.numerator, inst.tau.denominator
    Ht = inst.htilde
    degrees = [floor_log(A, hj**td * Ht**tn) // td for hj in inst.h]
    clamped = tuple(dg < 1 for dg in degrees)
    n0 = max(1, degrees[0])
    n = tuple(max(1, dg) for dg in degrees[1:])
    shape = ApproxShape(n=n, n0=n0)
    checks: dict = {"clamped_any": any(clamped)}
    if not any(clamped):
        mm = inst.m
        checks["ntilde_within_budget"] = power_le(A, shape.Ntilde * td, Ht, td + (mm + 1) * tn)
        checks["n0_within_budget"] = power_le(A, shape.n0 * td, Ht, td + tn)
    return BlockDegreeSelection(shape=shape, clamped=clamped, checks=checks)


# ---------------------------------------------------------------------------
# The linear-form audit
# ---------------------------------------------------------------------------


_EVAL_DIGITS = 48  # p-adic digits certified for the series values in the audit's linear form
# The largest Ntilde the linear-form audit accepts.  Its m + 1 denominators
# Q_i (`build_q`) are still most of its cost: at m = 1 (half.params, Python
# 3.11 on a 2-core machine, in-process, best of 3) the audit takes 0.03 s at
# Ntilde = 800, 0.21 s at 1598 and 0.65 s at 2394, of which build_q takes
# 0.016, 0.13 and 0.43 s.
_NTILDE_CAP = 2000


def audit_linear_form(
    gp: GParams,
    beta: Fraction,
    p: int,
    inst: LinearFormInstance,
    mode: ThetaMode,
    prec: int = 128,
) -> dict:
    """Audit the full p-adic lower-bound chain at a concrete instance.

    Reports (a) the smallness/largeness hypotheses on the evaluation point,
    (b) the height threshold, (c) the selected shape, (d) a witness row with
    nonzero cleared combination, (e) the exact dominance comparison between
    the combination and the remainder part, and (f) the final height bound
    when its preconditions hold.  Nothing is assumed: every comparison is
    either exact or directed.
    """
    beta = Fraction(beta)
    a, b = beta.numerator, beta.denominator
    m = gp.m
    if len(inst.ell) != m + 1:
        raise ValueError("form length does not match the parameter count")
    report: dict = {
        "p": p,
        "beta": rational(beta),
        "ell": list(inst.ell),
        "tau": rational(inst.tau),
        "delta": rational(inst.delta),
        "theta_mode": mode.label,
    }

    # hypothesis: ratio condition between tau and delta
    hyp_ratio = inst.tau > 4 * inst.delta * (1 + (m + 1) * inst.tau)

    # hypothesis: p-adic smallness of the numerator (with <= for <), plus
    # |a|_p <= |a|^(delta - 1) by exact power comparison
    chk = padic_domain_check(gp, p, Fraction(a))
    v_a = p_valuation(Fraction(a), p)
    v_s = p_valuation(Fraction(gp.s_lcm), p)
    small_nonstrict = v_a >= v_s + chk.delta_2p
    one_minus = 1 - inst.delta
    dn, dd = one_minus.numerator, one_minus.denominator
    small_power = dn < 0 or power_le(abs(a), dn, p, v_a * dd)

    cns = bound_constants(gp, mode, prec)
    log_a = log_interval(abs(a), prec)
    log_b = log_interval(b, prec)
    inv_tau = 1 / inst.tau
    rhs_large = 2 * (1 + inv_tau) * log_b + 2 * (
        cns.iv[2] * (1 + inv_tau) + (cns.iv[8] + 2) * (m + 1 + inv_tau)
    )
    large_arch = log_a.lo > rhs_large.hi

    report["hypotheses"] = {
        "ratio_condition": hyp_ratio,
        "point_padic_small": bool(small_nonstrict and small_power),
        "point_padic_small_strict_domain": bool(chk.ok),
        "point_archimedean_large": bool(large_arch),
        "log_rhs_large": dec_iv(rhs_large),
        "all_met": bool(hyp_ratio and small_nonstrict and small_power and large_arch),
    }

    # height threshold
    nt1 = ntilde1_interval(gp, cns, beta, p)
    log_h0 = ((nt1 + (m + 1)) * log_a / (1 + (m + 1) * inst.tau)).max_with(8 * log_a / inst.tau)
    log_ht = log_interval(inst.htilde, prec)
    ht_reaches = log_ht.lo >= log_h0.hi
    report["height_threshold"] = {
        "log_h0_upper": dec_iv(log_h0),
        "log_htilde": dec_iv(log_ht),
        "htilde_reaches_threshold": bool(ht_reaches),
    }

    # shape
    sel = select_block_degrees(inst, a)
    shape = sel.shape
    report["shape"] = {
        "n0": shape.n0,
        "n": list(shape.n),
        "clamped": list(sel.clamped),
        "checks": sel.checks,
    }
    if shape.Ntilde > _NTILDE_CAP:
        raise PrecisionInsufficient(
            f"the selected shape has Ntilde = {shape.Ntilde}, above the cap {_NTILDE_CAP} on the family size"
        )
    # the rows at beta from Q_i's grid and one split of each phi_j
    # (`realseries`): no coefficient of any P_ij is formed
    qs = build_q(gp, shape, range(m + 1))
    T = shape.remainder_truncation
    heads = phi_heads(gp, shape, beta, T)
    cert = make_cert(gp, shape, mode, prec)
    scaled = scaled_integers(gp, shape, rows_at_point(gp, qs, shape, a, b, heads), cert, beta, p=p)

    report["constants"] = {
        "c2_upper": rational(cns.upper(2)),
        "c8_upper": rational(cns.upper(8)),
        "ntilde1_upper": rational(nt1.hi),
        "c_theta": mode.c_theta,
    }

    lambdas = []
    for i in range(m + 1):
        lam = scaled.qi[i] * inst.ell[0] + sum(
            scaled.pij[i][j - 1] * inst.ell[j] for j in range(1, m + 1)
        )
        lambdas.append(lam)
    report["lambda_values"] = [full_digits(x) for x in lambdas]
    witnesses = [i for i, lam in enumerate(lambdas) if lam != 0]
    if not witnesses:
        raise InvariantViolation("nonsingular scaled system must yield a nonzero combination")
    wi = min(witnesses, key=lambda i: p_valuation(Fraction(lambdas[i]), p))
    v_lambda = p_valuation(Fraction(lambdas[wi]), p)
    report["witness_index"] = wi
    report["witness"] = {"index": wi, "lambda": full_digits(lambdas[wi]), "lambda_valuation": v_lambda}

    # remainder side: grow the truncation until the comparison is decided
    q_rate = _tail_rate(gp, p, beta, chk.delta_p)
    scale = cert.d.value * Fraction(b) ** shape.Ntilde
    dominance = None
    rem_desc = None
    for deepen in range(16):
        if deepen:
            heads = phi_heads(gp, shape, beta, T)
        tail_exp = _tail_floor(gp, p, q_rate, T + 1)
        # D * b^Ntilde * sum_j ell_j (Q_wi*phi_j - P_wi,j)(beta), truncated at T
        partial = Fraction(0)
        for j in range(1, m + 1):
            if inst.ell[j] == 0:
                continue
            partial += inst.ell[j] * scale * window_at(gp, qs[wi], shape, wi, j, a, b, T, heads[j - 1])
        if partial != 0 and Fraction(p_valuation(partial, p)) < tail_exp:
            v_rem = p_valuation(partial, p)
            dominance = v_lambda < v_rem
            rem_desc = {"kind": "exact", "valuation": v_rem}
            break
        if Fraction(v_lambda) < tail_exp:
            dominance = True
            rem_desc = {"kind": "below", "exponent_at_least": rational(tail_exp)}
            break
        T += max(8, shape.Ntilde)
    report["remainder_part"] = rem_desc or {"kind": "undecided"}
    report["dominance_holds"] = dominance

    # explicit lower bound for |Lambda|_p predicted by the chain
    log_p_iv = log_interval(p, prec)
    pred = (
        -(cns.iv[2] * shape.n0 + (cns.iv[8] + 1) * shape.Ntilde)
        - (shape.Ntilde + 2) * log_a
        + (Interval.point(inst.tau) - (1 + inst.tau) * log_b / log_a) * log_ht
    )
    lhs_log = -v_lambda * log_p_iv
    report["lambda_lower_bound"] = {
        "log_lambda_abs_p": dec_iv(lhs_log),
        "log_predicted_lower": dec_iv(pred),
        "holds": bool(lhs_log.lo > pred.hi),
    }

    # the series-side value of the form, via enclosures
    encs = eval_all_phi(gp, beta, p, _EVAL_DIGITS)
    lf = linear_form_valuation(encs, inst.ell)
    report["linear_form"] = lf.report()
    consistency = None
    if dominance and lf.exact:
        v_qi = p_valuation(Fraction(scaled.qi[wi]), p) if scaled.qi[wi] != 0 else None
        if v_qi is not None:
            consistency = v_qi + lf.valuation == v_lambda
    report["chain_consistency"] = consistency

    # final height bound |L|_p > Htilde^-(1+(m+1)tau)
    applicable = report["hypotheses"]["all_met"] and ht_reaches
    holds = None
    if lf.exact:
        c = 1 + (m + 1) * inst.tau
        cn, cd = c.numerator, c.denominator
        holds = lf.valuation < 0 or not power_le(inst.htilde, cn, p, lf.valuation * cd)
    report["final_bound"] = {"applicable": bool(applicable), "holds_numerically": holds}

    # specialization tau = eps/(m+1), delta = eps/(8(m+1))
    eps = (m + 1) * inst.tau
    log_ctilde = 2 * cns.iv[2] * (m + 1 + eps) + 2 * (cns.iv[8] + 2) * (m + 1) * (1 + eps)
    spec_hyp = (eps * log_a).lo > (log_ctilde + 2 * (m + 1 + eps) * log_b).hi
    report["specialization"] = {
        "epsilon": rational(eps),
        "delta_required": rational(eps / (8 * (m + 1))),
        "delta_matches": inst.delta == eps / (8 * (m + 1)),
        "log_ctilde_upper": dec_iv(log_ctilde),
        "power_hypothesis_met": bool(spec_hyp),
    }

    report["valuations"] = {
        "lambda": v_lambda,
        "remainder_part": rem_desc,
        "linear_form": lf.valuation if lf.exact else None,
    }

    if dominance:
        verdict = "combination dominates remainder part at this instance"
        if not report["hypotheses"]["all_met"] or not ht_reaches:
            verdict += "; asymptotic preconditions unmet, no height bound claimed"
    elif dominance is None:
        verdict = "dominance undecided at the probed truncations"
    else:
        verdict = "combination does not dominate at this instance"
    report["verdict"] = verdict
    return report


# ---------------------------------------------------------------------------
# Global relations over the primes dividing an integer point
# ---------------------------------------------------------------------------


def global_relation_constant(gp: GParams, mode: ThetaMode, prec: int = 128) -> dict:
    """The no-global-relation threshold log C and c9, each rounded up to the
    2^-prec grid, plus the cross-check of log C.

    log C is the limiting display (prime-count factor pushed to 1):
      m*S + (m+1)*(3 + log(d*dtilde*s0*eps(s0)*eps(s)^2*eps(v)) + 2*s0 + (m+1)*V)
    and must agree with c2 + (m+1)*c8 evaluated at the same limit.
    """
    m = gp.m
    inner = (
        Interval.point(gp.d_lcm * gp.dtilde * gp.s0)
        * epsilon_interval(gp.s0, prec)
        * epsilon_interval(gp.s_lcm, prec).pow_int(2)
        * epsilon_interval(gp.v_lcm, prec)
    )
    log_c = m * gp.S + (m + 1) * (3 + log_iv(inner, prec) + Interval.point(2 * gp.s0 + (m + 1) * gp.V))
    limit = ThetaMode.custom(Fraction(1), 0, label="limit")
    cns_limit = bound_constants(gp, limit, prec)
    c9_limit = cns_limit.iv[2] + (m + 1) * cns_limit.iv[8]
    cns_mode = bound_constants(gp, mode, prec)
    c9_mode = cns_mode.iv[2] + (m + 1) * cns_mode.iv[8]
    diff = c9_limit - log_c
    return {
        "log_C": log_c.hi_up(prec),
        "c9": c9_mode.hi_up(prec),
        "crosscheck_abs_diff_upper": Fraction(max(-diff.lo_num, diff.hi_num), diff.den),
    }


def check_global_point(gp: GParams, a: int) -> None:
    """Reject an integer point a that no global relation is stated at:
    |a| <= 1, or a sharing a prime with the parameter denominators."""
    if abs(a) <= 1:
        raise ValueError("need |a| > 1")
    if gcd(a, gp.s_lcm) != 1:
        raise DomainViolation("the point must be coprime to the parameter denominators")


def probe_global_relation(gp: GParams, a: int, ell: tuple[int, ...], k: int = 64) -> dict:
    """Try to certify, prime by prime over p | a, that the integer form does
    not vanish at the point a.  A single certified-nonzero prime rules out a
    global relation for this form; truncation alone can never confirm one."""
    check_global_point(gp, a)
    results = []
    nonzero_at = []
    for p in prime_divisors(abs(a)):
        encs = eval_all_phi(gp, Fraction(a), p, k)
        lf = linear_form_valuation(encs, tuple(ell))
        if lf.exact:
            nonzero_at.append(p)
            results.append({"p": p, "status": "nonzero", "valuation": lf.valuation})
        else:
            results.append(
                {"p": p, "status": "below_precision", "exponent": lf.precision_exponent}
            )
    verdict = (
        "no global relation for this form (certified nonzero at a dividing prime)"
        if nonzero_at
        else f"inconclusive at precision {k}: the form is below precision at every dividing prime"
    )
    return {"a": a, "ell": list(ell), "per_prime": results, "certified_nonzero_at": nonzero_at, "verdict": verdict}
