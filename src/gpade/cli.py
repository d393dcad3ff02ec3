"""Command-line front end.

Subcommands map one-to-one onto the library's certification operations:

  construct     dump the approximant family (exact coefficients)
  verify        order-of-vanishing, solve-oracle equivalence, determinant
  denominators  clearing integers D1/D2/D with integrality + size checks
  constants     the certified constants (sizes, global threshold, envelopes)
  padic         p-adic enclosures and the linear-form audit
  global        global-relation threshold and per-prime probing
  restricted    the real restricted-approximation audit

Each subcommand's options are declared once, in `_OPTIONS`.  A valid argv is
read from that table directly; the argparse parser is built from it only
for help, usage errors and the argv the reader leaves to it.

Exit status: 0 all checks pass, 1 a mathematical check failed, 2 usage or
hypothesis error.  Output is deterministic: identical inputs produce
byte-identical reports (sorted keys, exact rationals, tagged bounds).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .arith import MR_LIMIT, is_prime
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
from .pade import (
    FAMILY_FIELDS,
    ApproxShape,
    build_family,
    build_q,
    family_det,
    family_rows,
    family_tsv,
    oracle_solve,
    phi_coeffs,
    verify_order,
)
from .padic import (
    LinearFormInstance,
    audit_linear_form,
    check_global_point,
    eval_all_phi,
    global_relation_constant,
    linear_form_valuation,
    probe_global_relation,
)
from .params import load_params, parse_fraction, parse_int
from .realapprox import (
    audit_restricted,
    make_restricted_instance,
    restricted_constants,
    restricted_threshold,
)
from .report import emit_report, entry, fmt_real, full_digits, tagged_bound

USAGE_ERROR = 2
CHECK_FAILED = 1


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


# Numbers go through `parse_int` and `parse_fraction`, which take any number
# of digits: an --ell or --beta may be longer than int()'s 4300-digit limit.


def _fraction(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(parse_int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _precision(text: str) -> int:
    bits = _int(text)
    if bits < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 bit, got {bits}")
    return bits


def _prime(text: str) -> int:
    p = _int(text)
    if p >= MR_LIMIT:
        raise argparse.ArgumentTypeError(f"primality is decided only below {MR_LIMIT}, got {p}")
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"not a prime: {p}")
    return p


def _theta_mode(text: str) -> str:
    # syntax only: `_mode` builds the mode once --precision is known
    if text not in ("paper", "sharp"):
        try:
            ThetaMode.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return text


# Each subcommand's summary and options, declared once: an option is its flag
# and the `add_argument` keywords that give its type, default, whether it is
# required and whether it is a flag ("store_true"), a single value or an
# "append".  `_read_argv` reads valid argv from this table and `_build_parser`
# builds the argparse parser from it.
_COMMON = {
    "--params": dict(required=True, help="parameter file (m, alpha0..alpham)"),
    "--format": dict(choices=("tsv", "json"), default="tsv"),
    "--precision": dict(type=_precision, default=128, metavar="BITS"),
    "--exact": dict(action="store_true", default=False, help="print big integers in full"),
    "--theta-mode": dict(type=_theta_mode, default="paper", metavar="{paper|sharp|custom:T,C}"),
}
_WITH_DEGREES = {
    **_COMMON,
    "--n": dict(type=_int_list, required=True, metavar="a,b,c"),
    "--n0": dict(type=_int, required=True, metavar="K"),
}
_OPTIONS = {
    "construct": ("dump the approximant family", {
        **_WITH_DEGREES,
        "--scaled": dict(action="store_true", default=False, help="emit coefficients cleared by D"),
    }),
    "verify": ("order, oracle and determinant checks", _WITH_DEGREES),
    "denominators": ("clearing integers and integrality", _WITH_DEGREES),
    "constants": ("certified constants", {
        **_COMMON,
        "--vartheta": dict(type=_fraction, default=None, metavar="V"),
        "--beta": dict(type=_fraction, default=None, metavar="A/B", help="write a negative value as --beta=-A/B"),
        "--B": dict(type=_int, default=1),
        "--t": dict(type=_fraction, default=Fraction(0)),
    }),
    "padic": ("p-adic enclosures and linear-form audit", {
        **_COMMON,
        "--beta": dict(type=_fraction, required=True, metavar="A/B", help="write a negative value as --beta=-A/B"),
        "--p": dict(type=_prime, required=True),
        "--ell": dict(type=_int_list, action="append", default=[], metavar="l0,l1,..."),
        "--tau": dict(type=_fraction, default=None),
        "--delta": dict(type=_fraction, default=None),
    }),
    "global": ("global-relation threshold and probe", {
        **_COMMON,
        "--a": dict(type=_int, required=True),
        "--ell": dict(type=_int_list, default=None, metavar="l0,l1,..."),
    }),
    "restricted": ("restricted-approximation audit", {
        **_COMMON,
        "--beta": dict(type=_fraction, required=True, metavar="A/B", help="write a negative value as --beta=-A/B"),
        "--B": dict(type=_int, default=1),
        "--t": dict(type=_fraction, default=Fraction(0)),
        "--M": dict(type=_int, default=None),
        "--candidate-n": dict(type=_int, default=None),
        "--vartheta": dict(type=_fraction, default=Fraction(2)),
    }),
}


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace `_build_parser().parse_args(argv)` returns, read from
    `_OPTIONS` without building a parser, or None where argparse might read
    argv otherwise or reject it: a first word that names no subcommand, a
    word that is not exactly `--flag` or `--flag=value` of its options (help,
    abbreviations, unknown flags), a flag given a value, a value missing or
    starting with "-" (argparse reads -3 as a value and -3/7 as an option), a
    value its type or choices reject, and a required option left out."""
    if not argv or argv[0] not in _OPTIONS:
        return None
    options = _OPTIONS[argv[0]][1]
    values = {}
    words = iter(argv[1:])
    for word in words:
        flag, eq, text = word.partition("=")
        kw = options.get(flag)
        if kw is None:
            return None
        action = kw.get("action")
        if action == "store_true":
            if eq:
                return None
            values[flag] = True
            continue
        if not eq:
            text = next(words, "-")
            if text.startswith("-"):
                return None
        try:
            value = kw.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        # an appended option collects into a fresh list, never its default
        values[flag] = [*values.get(flag, ()), value] if action == "append" else value
    for flag, kw in options.items():
        if flag not in values:
            if kw.get("required"):
                return None
            values[flag] = kw.get("default")
    return argparse.Namespace(command=argv[0], **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand, built from `_OPTIONS` for
    help, usage errors and the argv `_read_argv` declines.  Built once per
    process: parsing leaves it unchanged (an appended option copies its
    default list before appending)."""
    ap = argparse.ArgumentParser(prog="gpade", description=__doc__.split("\n", 1)[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _OPTIONS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
    return ap


# ---------------------------------------------------------------------------
# Subcommand bodies (each returns (exit_code, result_dict_or_text))
# ---------------------------------------------------------------------------


def _mode(args) -> ThetaMode:
    """The --theta-mode at --precision, built only by the commands that read
    it: the paper mode costs a certified log 2 at that precision."""
    return ThetaMode.parse(args.theta_mode, args.precision)


def _global_relation(gr: dict, prec: int) -> dict:
    """The printed keys of `global_relation_constant` at precision prec."""
    return {
        "c9": tagged_bound(gr["c9"], 24, "upper", prec),
        "log_C": tagged_bound(gr["log_C"], 24, "upper", prec),
        "crosscheck_abs_diff_upper": fmt_real(gr["crosscheck_abs_diff_upper"], 24),
    }


def _cmd_construct(args, gp):
    shape = ApproxShape(n=args.n, n0=args.n0)
    family = build_family(gp, shape)
    scale = None
    note = {}
    if args.scaled:
        cert = make_cert(gp, shape, _mode(args), args.precision)
        scale = cert.d.value
        note = {"scaled_by_D": full_digits(scale)}
    if args.format == "tsv":
        header = "".join(f"# {k} = {v}\n" for k, v in note.items())
        return 0, header + family_tsv(family, scale)
    rows = [dict(zip(FAMILY_FIELDS, row)) for row in family_rows(family, scale)]
    return 0, emit_report({"coefficients": rows, **note}, "json", args.exact)


def _cmd_verify(args, gp):
    shape = ApproxShape(n=args.n, n0=args.n0)
    qs = build_q(gp, shape, range(gp.m + 1))
    phis = tuple(phi_coeffs(gp, j, shape.Ntilde + 1) for j in range(1, gp.m + 1))
    zeros = verify_order(shape, qs, phis)
    order = {key: not any(window.nums) for key, window in zeros.items()}
    oracle_ok = oracle_solve(shape, qs, phis, zeros)
    exponent, omega = family_det(shape, qs, phis, zeros)
    ok = all(order.values()) and all(oracle_ok)
    result = {
        "order_of_vanishing": {f"i{i}_j{j}": v for (i, j), v in sorted(order.items())},
        "oracle_equivalence": {f"i{i}": v for i, v in enumerate(oracle_ok)},
        "determinant_monomial": {"exponent": exponent, "leading": omega, "expected_exponent": shape.det_exponent},
        "verdict": "PASS" if ok else "FAIL",
    }
    return (0 if ok else CHECK_FAILED), emit_report(result, args.format, args.exact)


def _cmd_denominators(args, gp):
    mode = _mode(args)
    shape = ApproxShape(n=args.n, n0=args.n0)
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
    mode = _mode(args)
    cns = bound_constants(gp, mode, args.precision)
    gr = global_relation_constant(gp, mode, args.precision)
    result = {
        "theta_mode": {"label": mode.label, "c_theta": mode.c_theta, "certified": mode.certified},
        "size_constants": {
            f"c{k}": tagged_bound(cns.upper(k), 24, "upper", args.precision) for k in range(1, 9)
        },
        "global_relation": _global_relation(gr, args.precision),
    }
    if gp.m == 1 and args.vartheta is not None:
        rc = restricted_constants(gp, mode, args.vartheta, args.precision)
        result["restricted"] = {
            "a1": rc.a1,
            "a1_variant": rc.a1_variant,
            "a2": rc.a2,
            "c_theta": mode.c_theta,
            "c_vartheta": rc.c_vartheta,
        }
        if args.beta is not None:
            a, b = args.beta.numerator, args.beta.denominator
            m0, _ = restricted_threshold(rc, a, b, args.B, args.t)
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
        result["linear_forms"] = [
            {"ell": list(ell), **linear_form_valuation(encs, ell).report()} for ell in args.ell
        ]
        if args.tau is not None:
            delta = args.delta if args.delta is not None else Fraction(0)
            mode = _mode(args)
            audits = [
                audit_linear_form(gp, args.beta, args.p, LinearFormInstance(ell, args.tau, delta), mode, args.precision)
                for ell in args.ell
            ]
            result["audits"] = audits
            if any(a["dominance_holds"] is False for a in audits):
                code = CHECK_FAILED
    return code, emit_report(result, args.format, args.exact)


def _cmd_global(args, gp):
    # --a is checked, and the probe run, before the costly constant
    check_global_point(gp, args.a)
    probe = None
    if args.ell is not None:
        probe = probe_global_relation(gp, args.a, args.ell, k=max(8, args.precision // 2))
    result = _global_relation(global_relation_constant(gp, _mode(args), args.precision), args.precision)
    if probe is not None:
        result["probe"] = probe
    return 0, emit_report(result, args.format, args.exact)


def _cmd_restricted(args, gp):
    a, b = args.beta.numerator, args.beta.denominator
    inst = make_restricted_instance(
        gp,
        a=a,
        b=b,
        B=args.B,
        t=args.t,
        mode=_mode(args),
        vartheta=args.vartheta,
        M=args.M,
        candidate_n=args.candidate_n,
        prec=args.precision,
    )
    report = audit_restricted(inst, args.exact)
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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`_build_parser().parse_args(argv)`, with no parser built for the argv
    `_read_argv` reads."""
    args = _read_argv(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        gp = load_params(args.params)
        code, text = _COMMANDS[args.command](args, gp)
    except (SingularSystem, NonMonomialDeterminant, IntegralityViolation, InvariantViolation) as exc:
        # a certified mathematical check failed or a defect surfaced, wherever
        # it was raised: distinct from bad usage
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except HypothesisFailure as exc:
        print(f"hypothesis error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
