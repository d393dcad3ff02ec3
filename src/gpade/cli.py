"""Command-line front end.

Subcommands map one-to-one onto the library's certification operations:

  construct     dump the approximant family (exact coefficients)
  verify        order-of-vanishing, solve-oracle equivalence, determinant
  denominators  clearing integers D1/D2/D with integrality + size checks
  constants     the certified constants (sizes, global threshold, envelopes)
  padic         p-adic enclosures and the linear-form audit
  global        global-relation threshold and per-prime probing
  restricted    the real restricted-approximation audit

Exit status: 0 all checks pass, 1 a mathematical check failed, 2 usage or
hypothesis error.  Output is deterministic: identical inputs produce
byte-identical reports (sorted keys, exact rationals, tagged bounds).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .denom import (
    ThetaMode,
    bound_constants,
    cert_tsv,
    check_size_bounds,
    make_cert,
    verify_integrality,
)
from .errors import (
    CertificationError,
    HypothesisFailure,
    IntegralityViolation,
    InvariantViolation,
    NonMonomialDeterminant,
    SingularSystem,
)
from .pade import ApproxShape, build_family, family_det, family_tsv, oracle_solve, verify_order
from .padic import (
    LinearFormInstance,
    audit_linear_form,
    eval_all_phi,
    global_relation_constant,
    linear_form_valuation,
    probe_global_relation,
)
from .params import load_params
from .realapprox import (
    audit_restricted,
    make_restricted_instance,
    restricted_constants,
    restricted_threshold,
)
from .report import emit_report, entry, fmt_real, full_digits

USAGE_ERROR = 2
CHECK_FAILED = 1


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _precision(text: str) -> int:
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if bits < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 bit, got {bits}")
    return bits


# Miller-Rabin over the first 13 primes decides primality exactly below this
# bound, the least odd composite that is a strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in _MR_BASES)


def _prime(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if p >= _MR_LIMIT:
        raise argparse.ArgumentTypeError(f"primality is decided only below {_MR_LIMIT}, got {p}")
    if not _is_prime(p):
        raise argparse.ArgumentTypeError(f"not a prime: {p}")
    return p


def _theta_mode(text: str) -> str:
    # syntax only: the paper mode's log is computed by the subcommands that use it
    if text not in ("paper", "sharp"):
        try:
            ThetaMode.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return text


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged (an appended
    # option copies its default list before appending)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", required=True, help="parameter file (m, alpha0..alpham)")
    common.add_argument("--format", choices=("tsv", "json"), default="tsv")
    common.add_argument("--precision", type=_precision, default=128, metavar="BITS")
    common.add_argument("--exact", action="store_true", help="print big integers in full")
    common.add_argument("--theta-mode", type=_theta_mode, default="paper", metavar="{paper|sharp|custom:T,C}")

    ap = argparse.ArgumentParser(prog="gpade", description=__doc__.split("\n", 1)[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="dump the approximant family")
    p.add_argument("--n", type=_int_list, required=True, metavar="a,b,c")
    p.add_argument("--n0", type=int, required=True, metavar="K")
    p.add_argument("--truncation", type=int, default=None, metavar="T")
    p.add_argument("--scaled", action="store_true", help="emit coefficients cleared by D")

    p = sub.add_parser("verify", parents=[common], help="order, oracle and determinant checks")
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--n0", type=int, required=True)

    p = sub.add_parser("denominators", parents=[common], help="clearing integers and integrality")
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--n0", type=int, required=True)

    p = sub.add_parser("constants", parents=[common], help="certified constants")
    p.add_argument("--vartheta", type=_fraction, default=None, metavar="V")
    p.add_argument("--beta", type=_fraction, default=None, metavar="A/B")
    p.add_argument("--B", type=int, default=1)
    p.add_argument("--t", type=_fraction, default=Fraction(0))

    p = sub.add_parser("padic", parents=[common], help="p-adic enclosures and linear-form audit")
    p.add_argument("--beta", type=_fraction, required=True, metavar="A/B")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--ell", type=_int_list, action="append", default=[], metavar="l0,l1,...")
    p.add_argument("--tau", type=_fraction, default=None)
    p.add_argument("--delta", type=_fraction, default=None)

    p = sub.add_parser("global", parents=[common], help="global-relation threshold and probe")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--ell", type=_int_list, default=None, metavar="l0,l1,...")

    p = sub.add_parser("restricted", parents=[common], help="restricted-approximation audit")
    p.add_argument("--beta", type=_fraction, required=True, metavar="A/B")
    p.add_argument("--B", type=int, default=1)
    p.add_argument("--t", type=_fraction, default=Fraction(0))
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--candidate-n", type=int, default=None)
    p.add_argument("--vartheta", type=_fraction, default=Fraction(2))
    return ap


# ---------------------------------------------------------------------------
# Subcommand bodies (each returns (exit_code, result_dict_or_text))
# ---------------------------------------------------------------------------


def _cmd_construct(args, gp):
    shape = ApproxShape(n=args.n, n0=args.n0)
    family = build_family(gp, shape, T=args.truncation)
    scale = None
    note = {}
    if args.scaled:
        cert = make_cert(gp, shape, ThetaMode.parse(args.theta_mode, args.precision), args.precision)
        scale = cert.d.value
        note = {"scaled_by_D": full_digits(scale)}
    if args.format == "tsv":
        header = "".join(f"# {k} = {v}\n" for k, v in note.items())
        return 0, header + family_tsv(family, scale)
    rows = []
    for line in family_tsv(family, scale).splitlines()[1:]:
        i, poly, deg, num, den = line.split("\t")
        rows.append({"i": int(i), "poly": poly, "degree": int(deg), "numerator": num, "denominator": den})
    return 0, emit_report({"coefficients": rows, **note}, "json", args.exact)


def _cmd_verify(args, gp):
    shape = ApproxShape(n=args.n, n0=args.n0)
    family = build_family(gp, shape)
    order = verify_order(family)
    oracle_ok = {i: q == family.q[i] for i, q in enumerate(oracle_solve(gp, shape))}
    exponent, omega = family_det(family)
    ok = all(order.values()) and all(oracle_ok.values())
    result = {
        "order_of_vanishing": {f"i{i}_j{j}": v for (i, j), v in sorted(order.items())},
        "oracle_equivalence": {f"i{i}": v for i, v in sorted(oracle_ok.items())},
        "determinant_monomial": {
            "exponent": exponent,
            "leading": omega,
            "expected_exponent": shape.N + sum(shape.Nj) + gp.m,
        },
        "verdict": "PASS" if ok else "FAIL",
    }
    return (0 if ok else CHECK_FAILED), emit_report(result, args.format, args.exact)


def _cmd_denominators(args, gp):
    shape = ApproxShape(n=args.n, n0=args.n0)
    mode = ThetaMode.parse(args.theta_mode, args.precision)
    family = build_family(gp, shape)
    cert = make_cert(gp, shape, mode, args.precision)
    integ = verify_integrality(family, cert)
    bounds = check_size_bounds(family, cert)
    checks = [entry("integrality", True, integ["passed"]), *bounds]
    code = CHECK_FAILED if any(c.failed for c in checks) else 0
    if args.format == "tsv":
        return code, cert_tsv(cert, checks)
    result = {
        "D1": {"value": cert.d1.value, "factors": cert.d1.format_factors()},
        "D2": {"value": cert.d2.value, "factors": cert.d2.format_factors()},
        "D": {"value": cert.d.value, "factors": cert.d.format_factors()},
        "integrality": integ,
        "size_bounds": bounds,
        "theta_mode": {"label": mode.label, "certified": mode.certified},
    }
    return code, emit_report(result, "json", args.exact)


def _cmd_constants(args, gp):
    mode = ThetaMode.parse(args.theta_mode, args.precision)
    cns = bound_constants(gp, mode, args.precision)
    gr = global_relation_constant(gp, mode, args.precision)
    result = {
        "theta_mode": {"label": mode.label, "c_theta": mode.c_theta, "certified": mode.certified},
        "size_constants": {f"c{k}": cns.upper(k) for k in range(1, 9)},
        "global_relation": {
            "c9": gr["c9"],
            "log_C": gr["log_C"],
            "crosscheck_abs_diff_upper": fmt_real(gr["crosscheck_abs_diff_upper"], 24),
        },
    }
    if gp.m == 1 and args.vartheta is not None:
        rc = restricted_constants(gp, mode, args.vartheta, args.precision)
        result["restricted"] = {
            "a1": rc.a1,
            "a1_variant": rc.a1_variant,
            "a2": rc.a2,
            "c_theta": rc.c_theta,
            "c_vartheta": rc.c_vartheta,
        }
        if args.beta is not None:
            a, b = args.beta.numerator, args.beta.denominator
            m0, _ = restricted_threshold(gp, rc, a, b, args.B, args.t)
            result["restricted"]["M0"] = m0
    return 0, emit_report(result, args.format, args.exact)


def _cmd_padic(args, gp):
    encs = eval_all_phi(gp, args.beta, args.p, max(8, args.precision // 2))
    result = {
        "enclosures": [
            {
                "j": j,
                "valuation_offset": enc.valuation_offset,
                "unit_residue": enc.unit_residue,
                "digits": enc.k,
                "below_precision": enc.below_precision,
            }
            for j, enc in enumerate(encs, start=1)
        ]
    }
    code = 0
    if args.ell:
        forms = []
        for ell in args.ell:
            lf = linear_form_valuation(encs, ell)
            forms.append(
                {
                    "ell": list(ell),
                    "exact": lf.exact,
                    "valuation": lf.valuation,
                    "below_precision_exponent": lf.precision_exponent,
                }
            )
        result["linear_forms"] = forms
        if args.tau is not None:
            delta = args.delta if args.delta is not None else Fraction(0)
            mode = ThetaMode.parse(args.theta_mode, args.precision)
            audits = [
                audit_linear_form(gp, args.beta, args.p, LinearFormInstance(ell, args.tau, delta), mode, args.precision)
                for ell in args.ell
            ]
            result["audits"] = audits
            if any(a["dominance_holds"] is False for a in audits):
                code = CHECK_FAILED
    return code, emit_report(result, args.format, args.exact)


def _cmd_global(args, gp):
    mode = ThetaMode.parse(args.theta_mode, args.precision)
    # the probe validates --a, so it runs before the costly constant
    probe = None
    if args.ell is not None:
        probe = probe_global_relation(gp, args.a, args.ell, k=max(8, args.precision // 2))
    gr = global_relation_constant(gp, mode, args.precision)
    result = {
        "c9": gr["c9"],
        "log_C": gr["log_C"],
        "crosscheck_abs_diff_upper": fmt_real(gr["crosscheck_abs_diff_upper"], 24),
    }
    if probe is not None:
        result["probe"] = probe
    return 0, emit_report(result, args.format, args.exact)


def _cmd_restricted(args, gp):
    mode = ThetaMode.parse(args.theta_mode, args.precision)
    a, b = args.beta.numerator, args.beta.denominator
    inst = make_restricted_instance(
        gp,
        a=a,
        b=b,
        B=args.B,
        t=args.t,
        mode=mode,
        vartheta=args.vartheta,
        M=args.M,
        candidate_n=args.candidate_n,
        prec=args.precision,
    )
    report = audit_restricted(inst)
    code = CHECK_FAILED if any(c.failed for c in report["checks"]) else 0
    return code, emit_report(report, args.format, args.exact)


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "denominators": _cmd_denominators,
    "constants": _cmd_constants,
    "padic": _cmd_padic,
    "global": _cmd_global,
    "restricted": _cmd_restricted,
}


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        gp = load_params(args.params)
    except (OSError, ValueError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        code, text = _COMMANDS[args.command](args, gp)
    except (
        SingularSystem,
        NonMonomialDeterminant,
        IntegralityViolation,
        InvariantViolation,
    ) as exc:
        # a certified mathematical check failed: distinct from bad usage
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except HypothesisFailure as exc:
        print(f"hypothesis error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
