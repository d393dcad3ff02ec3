import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpade.cli
from gpade.arith import MR_LIMIT, FactoredInteger, Grid, Interval, digits10
from gpade.cli import (
    _OPTIONS,
    _build_parser,
    _fraction,
    _int,
    _int_list,
    _parse_args,
    _precision,
    _prime,
    _read_argv,
    _theta_mode,
    emit_report,
    main,
)
from gpade.denom import make_cert
from gpade.report import Check, abbrev, int_str

from reference_report import reference_emit_report
from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, build  # noqa: E402

HALF = "m = 1\nalpha0 = 1\nalpha1 = 1/2\n"
ONE = "m = 1\nalpha0 = 1\nalpha1 = 1\n"
BAD = "m = 2\nalpha0 = 1/2\nalpha1 = 1/3\nalpha2 = 4/3\n"
TRIO = "m = 2\nalpha0 = 1\nalpha1 = 1/2\nalpha2 = 1/3\n"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(params_file, capsys):
    path = params_file(HALF)
    code, out, _ = run(capsys, ["verify", "--params", path, "--n", "1", "--n0", "1"])
    assert code == 0
    assert "verdict\tPASS" in out
    assert "determinant_monomial.exponent\t3" in out
    assert "determinant_monomial.leading\t4/75" in out


def test_verify_deterministic(params_file, capsys):
    path = params_file(HALF)
    argv = ["verify", "--params", path, "--n", "3", "--n0", "4", "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    json.loads(out1)


def test_construct_dump(params_file, capsys):
    path = params_file(HALF)
    code, out, _ = run(capsys, ["construct", "--params", path, "--n", "1", "--n0", "1"])
    assert code == 0
    assert "0\tQ\t0\t-5\t3" in out
    code, out, _ = run(
        capsys, ["construct", "--params", path, "--n", "1", "--n0", "1", "--scaled"]
    )
    assert code == 0
    assert "# scaled_by_D = 12600" in out
    assert "1\t1\t2\t672\t1" in out


def test_construct_json_roundtrip(params_file, capsys):
    path = params_file(HALF)
    code, out, _ = run(
        capsys, ["construct", "--params", path, "--n", "1", "--n0", "1", "--format", "json"]
    )
    data = json.loads(out)
    rows = {(r["i"], r["poly"], r["degree"]): (r["numerator"], r["denominator"]) for r in data["coefficients"]}
    assert rows[(0, "Q", 0)] == ("-5", "3")
    assert rows[(1, "1", 2)] == ("4", "75")


def test_integer_difference_exit_code(params_file, capsys):
    path = params_file(BAD)
    code, _, err = run(capsys, ["construct", "--params", path, "--n", "1,1", "--n0", "1"])
    assert code == 2
    assert "alpha_1 - alpha_2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["verify", "--params", "/nonexistent.params", "--n", "1", "--n0", "1"])
    assert code == 2


def test_usage_error_exit_code(params_file, capsys):
    path = params_file(HALF)
    code, _, _ = run(capsys, ["verify", "--params", path, "--n", "oops", "--n0", "1"])
    assert code == 2
    code, _, _ = run(capsys, ["unknown-command"])
    assert code == 2


def test_denominators(params_file, capsys):
    path = params_file(HALF)
    code, out, _ = run(capsys, ["denominators", "--params", path, "--n", "1", "--n0", "1"])
    assert code == 0
    assert "D1\t15\t3*5\t-" in out
    assert "D2\t840\t" in out
    assert "D\t12600\t" in out


def test_constants(params_file, capsys):
    path = params_file(HALF)
    code, out, _ = run(capsys, ["constants", "--params", path, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["global_relation"]["log_C"]["value"].startswith("24.15888308")
    assert data["global_relation"]["log_C"]["direction"] == "upper"
    assert data["size_constants"]["c2"]["value"].startswith("11.09035")


def test_constants_restricted_block(params_file, capsys):
    path = params_file(ONE)
    code, out, _ = run(
        capsys,
        [
            "constants", "--params", path, "--theta-mode", "sharp", "--vartheta", "2",
            "--beta", "1/20014458431", "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["restricted"]["a1_variant"] == "leading_parameter_one"
    assert data["restricted"]["c_vartheta"] == 6
    assert data["restricted"]["M0"]["hi"].startswith("21.0000000")


def test_padic_audit(params_file, capsys):
    path = params_file(HALF)
    code, out, _ = run(
        capsys,
        [
            "padic", "--params", path, "--beta", "8/3", "--p", "2",
            "--ell", "1,1", "--tau", "1/2", "--delta", "1/20", "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["audits"][0]["witness"]["lambda"] == "58800"
    assert data["audits"][0]["dominance_holds"] is True


def test_global_probe(params_file, capsys):
    path = params_file(ONE)
    code, out, _ = run(
        capsys, ["global", "--params", path, "--a", "3", "--ell", "0,1", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["probe"]["certified_nonzero_at"] == [3]
    code, out, _ = run(
        capsys, ["global", "--params", path, "--a", "2", "--ell", "0,1", "--format", "json"]
    )
    data = json.loads(out)
    assert data["probe"]["certified_nonzero_at"] == []


def test_restricted_with_explicit_flags(params_file, capsys):
    path = params_file(ONE)
    code, out, _ = run(
        capsys,
        [
            "restricted", "--params", path, "--beta", "1/20014458431",
            "--theta-mode", "sharp", "--vartheta", "2",
            "--M", "25", "--candidate-n", "123", "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["constants"]["M"] == 25
    assert data["constants"]["nearest_n_used"] is False
    final = next(c for c in data["checks"] if c["name"] == "final_lower_bound")
    assert final["passed"] is True


def test_global_large_prime_point(params_file, capsys):
    # 10^16 + 61 is prime: certified by Miller-Rabin without sieving to its root
    path = params_file(ONE)
    code, out, err = run(capsys, ["global", "--params", path, "--a", "10000000000000061", "--ell", "0,1"])
    assert code == 0 and err == ""
    assert "probe.per_prime.0.p\t10000000000000061" in out
    assert "probe.certified_nonzero_at.0\t10000000000000061" in out


def test_global_point_too_large_to_factor(params_file, capsys):
    path = params_file(ONE)
    a = str(10**50 + 151)
    code, out, err = run(capsys, ["global", "--params", path, "--a", a, "--ell", "0,1"])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot factor") and err.count("\n") == 1


def test_constants_vartheta_past_the_scan_limit(params_file, capsys):
    # the crossover of 10001/10000 lies past the search cap: a usage error,
    # found without stepping through every n below the cap
    path = params_file(ONE)
    code, out, err = run(capsys, ["constants", "--params", path, "--vartheta", "10001/10000"])
    assert code == 2 and out == ""
    assert "scan limit" in err


def test_construct_has_no_truncation_option(params_file, capsys):
    path = params_file(HALF)
    code, out, err = run(capsys, ["construct", "--params", path, "--n", "1", "--n0", "1", "--truncation", "9"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --truncation" in err


def test_global_rejects_point_before_constant(params_file, capsys, monkeypatch):
    import gpade.cli as cli_mod

    def constant_not_reached(*args, **kwargs):
        raise RuntimeError("global_relation_constant ran before the point was checked")

    monkeypatch.setattr(cli_mod, "global_relation_constant", constant_not_reached)
    path = params_file("m = 2\nalpha0 = 1\nalpha1 = 1/2\nalpha2 = 1/3\n")
    code, out, err = run(capsys, ["global", "--params", path, "--a", "30030", "--ell", "1,2,3"])
    assert code == 2
    assert out == ""
    assert "coprime" in err


@pytest.mark.parametrize("a", ["30030", "0", "1", "-1"])
def test_global_checks_point_without_probe(params_file, capsys, a):
    # --a is checked whether or not --ell asks for the probe, with its messages
    path = params_file(TRIO)
    for ell in ([], ["--ell", "1,2,3"]):
        code, out, err = run(capsys, ["global", "--params", path, "--a", a, *ell])
        assert code == 2 and out == ""
        assert ("coprime" if a == "30030" else "need |a| > 1") in err


def test_restricted_beyond_int_str_limit(params_file, capsys):
    # the cleared combination of this audit has more than 4300 digits
    path = params_file(ONE)
    code, out, _ = run(
        capsys,
        [
            "restricted", "--params", path, "--beta", "1/" + "1" + "0" * 40,
            "--theta-mode", "sharp", "--vartheta", "2", "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["final_verdict"] == "all checks passed"
    assert data["constants"]["candidate_n_digits"] == 5441


def test_restricted_large_M(params_file, capsys):
    # large-size smoke test: the family has n1 = 199 and n0 = 597
    path = params_file(ONE)
    code, out, _ = run(
        capsys,
        [
            "restricted", "--params", path, "--beta", "1/20014458431",
            "--theta-mode", "sharp", "--vartheta", "2", "--M", "200", "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["constants"]["M"] == 200
    assert data["final_verdict"] == "all checks passed"


def test_verify_large_N(capsys):
    # large-size smoke test: m = 3, N = 48
    path = str(Path(__file__).parent / "golden" / "params" / "quad.params")
    code, out, _ = run(capsys, ["verify", "--params", path, "--n", "16,16,16", "--n0", "16"])
    assert code == 0
    assert "verdict\tPASS" in out


def test_verify_at_N_96(capsys):
    # m = 3, N = 96: the oracle's primitive-row elimination keeps this under
    # a second, where Bareiss minors as large as the determinant took 27 s
    path = str(Path(__file__).parent / "golden" / "params" / "quad.params")
    code, out, _ = run(capsys, ["verify", "--params", path, "--n", "32,32,32", "--n0", "32"])
    assert code == 0
    assert "determinant_monomial.exponent\t387" in out
    assert "verdict\tPASS" in out


def test_scaled_construct_with_d_that_does_not_clear(params_file, capsys, monkeypatch):
    # D = 12600 = 2^3 3^2 5^2 7 here, and D / 5 leaves a coefficient 4/75 non-integral
    import gpade.cli as cli_mod

    def short_cert(*args, **kwargs):
        cert = make_cert(*args, **kwargs)
        return cert._replace(d=FactoredInteger.of(cert.d.value // 5))

    monkeypatch.setattr(cli_mod, "make_cert", short_cert)
    path = params_file(HALF)
    code, out, err = run(capsys, ["construct", "--params", path, "--n", "1", "--n0", "1", "--scaled"])
    assert code == 1
    assert out == ""
    assert err.startswith("check failed: scale 2520 does not clear")

def test_theta_mode_checked_by_every_subcommand(params_file, capsys):
    path = params_file(HALF)
    for argv in (
        ["verify", "--params", path, "--n", "1", "--n0", "1"],
        ["padic", "--params", path, "--beta", "8/3", "--p", "2", "--ell", "1,1"],
    ):
        code, out, err = run(capsys, argv + ["--theta-mode", "bogus"])
        assert code == 2 and out == ""
        assert "unknown theta mode 'bogus'" in err
        code, out, err = run(capsys, argv + ["--theta-mode", "custom:3/2"])
        assert code == 2 and out == ""
        assert "want custom:THETA,C" in err
        code, _, _ = run(capsys, argv + ["--theta-mode", "custom:3/2,5"])
        assert code == 0
        # theta must exceed 1 and the threshold c(theta) be at least 2
        for mode in ("custom:-1,2", "custom:1,2", "custom:2,1"):
            code, out, err = run(capsys, argv + ["--theta-mode", mode])
            assert code == 2 and out == ""
            assert "want custom:THETA,C" in err


def test_verify_builds_no_theta_mode(capsys):
    # verify reads no theta mode, so the default paper mode's certified log 2
    # at --precision bits (seconds at 20000 bits) is never computed
    path = str(Path(__file__).parent / "golden" / "params" / "half.params")
    t0 = time.perf_counter()
    code, _, _ = run(capsys, ["verify", "--params", path, "--n", "2", "--n0", "2", "--precision", "20000"])
    assert code == 0
    assert time.perf_counter() - t0 < 0.5


def test_p_must_be_prime(params_file, capsys):
    path = params_file(HALF)
    argv = ["padic", "--params", path, "--beta", "8/3", "--ell", "1,1"]
    for p in ("0", "1", "4", "6"):
        code, out, err = run(capsys, argv + ["--p", p])
        assert code == 2 and out == ""
        assert "argument --p:" in err
    code, _, _ = run(capsys, argv + ["--p", "2"])
    assert code == 0


def test_prime_type_is_exact_below_its_limit():
    assert _prime("2") == 2 and _prime(str(2**61 - 1)) == 2**61 - 1
    # composite, yet a strong pseudoprime to the first 12 prime bases
    for text in ("318665857834031151167461", "-7", str(2**61 + 1), str(MR_LIMIT), "x"):
        with pytest.raises(argparse.ArgumentTypeError):
            _prime(text)


def test_precision_checked_at_parse_time(params_file, capsys):
    path = params_file(HALF)
    for bits in ("-5", "0", "x"):
        code, out, err = run(capsys, ["constants", "--params", path, "--precision", bits])
        assert code == 2 and out == ""
        assert "argument --precision:" in err
    code, _, _ = run(capsys, ["constants", "--params", path, "--precision", "1"])
    assert code == 0


def test_constants_high_precision(params_file, capsys):
    # high-precision smoke test for the fixed-point log and exp kernels
    path = params_file(TRIO)
    code, out, _ = run(capsys, ["constants", "--params", path, "--precision", "512"])
    assert code == 0
    assert "size_constants.c1.precision_bits\t512" in out


def test_global_high_precision(params_file, capsys):
    path = params_file(TRIO)
    code, out, _ = run(
        capsys, ["global", "--params", path, "--a", "7", "--ell=1,2,-3", "--precision", "384"]
    )
    assert code == 0
    assert "c9.precision_bits\t384" in out


def test_restricted_hypothesis_exit(params_file, capsys):
    path = params_file(ONE)
    code, _, err = run(
        capsys,
        ["restricted", "--params", path, "--beta", "1/100", "--theta-mode", "sharp"],
    )
    assert code == 2
    assert "hypothesis" in err.lower()


def test_exit_code_mapping(params_file, capsys, monkeypatch):
    # mathematical check failures exit 1; hypothesis/usage problems exit 2
    import gpade.cli as cli_mod
    from gpade.errors import HypothesisFailure, IntegralityViolation, NonMonomialDeterminant

    path = params_file(HALF)

    def raises(exc):
        def cmd(args, gp):
            raise exc

        return cmd

    for exc, expected in [
        (NonMonomialDeterminant("boom"), 1),
        (IntegralityViolation("boom"), 1),
        (HypothesisFailure("boom"), 2),
        (ValueError("boom"), 2),
    ]:
        monkeypatch.setitem(cli_mod._COMMANDS, "verify", raises(exc))
        code, _, err = run(capsys, ["verify", "--params", path, "--n", "1", "--n0", "1"])
        assert code == expected, (exc, code)
        assert "boom" in err


def test_invariant_violation_while_loading_params_exits_1(params_file, capsys, monkeypatch):
    # a defect exits 1 wherever it is raised, also while the parameters load
    import gpade.params as params_mod
    from gpade.errors import InvariantViolation

    def derive(alphas):
        raise InvariantViolation("boom")

    monkeypatch.setattr(params_mod, "derive_params", derive)
    code, out, err = run(capsys, ["verify", "--params", params_file(HALF), "--n", "1", "--n0", "1"])
    assert (code, out) == (1, "")
    assert "boom" in err


def test_padic_takes_an_ell_beyond_int_str_limit(capsys):
    # int() refuses more than 4300 digits; the command line takes any length
    half = str(Path(__file__).parent / "golden" / "params" / "half.params")
    digits = "9" * 4999 + "7"
    argv = ["padic", "--params", half, "--beta", "8/3", "--p", "2", "--ell", f"1,{digits}"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert "linear_forms.0.ell.1\t999999999999...999999999997(5000digits)" in out


def test_padic_refuses_a_shape_too_large_to_build(capsys):
    # a 5000-digit ell at tau = 1/2 selects n0 = n1 = 11072: the family of
    # Ntilde = 22144 is refused before it is built, with nothing on stdout
    half = str(Path(__file__).parent / "golden" / "params" / "half.params")
    ell = "7" + "0" * 4999
    argv = ["padic", "--params", half, "--beta", "8/3", "--p", "2", "--ell", f"1,{ell}", "--tau", "1/2",
            "--delta", "1/20"]
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert "Ntilde = 22144" in err and "cap 2000" in err


def test_int_abbreviation():
    n = 123456789 * 10**300 + 987654321
    s = int_str(n, exact=False)
    assert s.startswith("123456789") and s.endswith("(309digits)")
    assert "..." in s
    assert int_str(n, exact=True) == str(n)
    assert int_str(-(10**45), exact=False).startswith("-100000000000...")
    # a negative 40-digit integer: int_str does not count the sign, abbrev does
    n40 = -(10**39 + 7)
    assert int_str(n40, exact=False) == str(n40)
    assert abbrev(str(n40), exact=False) == "-100000000000...000000000007(40digits)"
    big = 7**20000  # beyond the default int-to-str guard
    s2 = int_str(big, exact=False)
    assert s2.endswith("digits)")


def test_exact_int_beyond_str_limit():
    limit = sys.get_int_max_str_digits()
    big = 7**20000
    full = json.loads(emit_report({"n": big}, "json", exact=True))["n"]
    assert sys.get_int_max_str_digits() == limit
    assert len(full) == digits10(big)
    value = 0
    for k in range(0, len(full), 1000):
        chunk = full[k : k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == big


def test_emit_report_formats():
    result = {"b": {"x": 1}, "a": [True, None, "s"]}
    js = emit_report(result, "json")
    assert json.loads(js) == {"b": {"x": 1}, "a": [True, None, "s"]}
    tsv = emit_report(result, "tsv")
    lines = tsv.strip().split("\n")
    assert lines[0] == "key\tvalue"
    assert lines[1].startswith("a.0\tTrue")
    # empty results still produce the header row
    assert emit_report({}, "tsv") == "key\tvalue\n"


# Leaves of every kind a report holds: ints of every size (around +-10^40,
# where the renderer starts abbreviating), Fractions with parts above 40
# digits, bools, None, digit strings (signed or not) and other strings
# around 40 characters, Checks, Intervals, and objects of other types (a
# Grid, a NamedTuple the renderer reads as a list, and a Decimal it prints by
# str).  Keys mix ints and strings, so "1" and 1 can collide.
_BIG = st.integers(-(10**45), 10**45)
_NEAR_TEN_40 = st.builds(lambda s, k: s * (10**40 + k), st.sampled_from([1, -1]), st.integers(-3, 3))
_INTS = st.one_of(st.integers(-100, 100), _BIG, _NEAR_TEN_40)
_DIGITS = st.builds(lambda sign, n: sign + str(n), st.sampled_from(["", "-", "+"]), st.integers(0, 10**50))
_TEXTS = st.one_of(st.text(max_size=50), _DIGITS, st.text(alphabet="0123456789-.ab", min_size=38, max_size=44))
_LEAVES = st.one_of(
    _INTS,
    st.builds(F, _BIG, st.integers(1, 10**45)),
    st.booleans(),
    st.none(),
    _TEXTS,
    st.builds(Check, _TEXTS, st.booleans(), st.booleans(), _TEXTS, _TEXTS),
    st.builds(lambda lo, w, den: Interval.of(lo, lo + w, den), _BIG, st.integers(0, 10**30), st.integers(1, 10**40)),
    st.builds(Grid.of, st.integers(1, 10**6), st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=3)),
    st.builds(Decimal, st.integers(-(10**50), 10**50)),
)
_KEYS = st.one_of(st.text(alphabet="ab.1_", max_size=4), st.integers(-3, 12))
_TREES = st.dictionaries(
    _KEYS,
    st.recursive(
        _LEAVES,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple), st.dictionaries(_KEYS, kids, max_size=4)
        ),
        max_leaves=20,
    ),
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(tree=_TREES)
def test_emit_report_matches_three_walk_reference(tree):
    for fmt in ("tsv", "json"):
        for exact in (False, True):
            assert emit_report(tree, fmt, exact) == reference_emit_report(tree, fmt, exact)


def test_construct_scaled_by_a_scale_that_leaves_a_fraction(params_file, capsys, monkeypatch):
    # construct --scaled dumps c_k D / L in int; a D that does not clear a
    # coefficient is an IntegralityViolation, worded as with Fractions
    def weak_cert(*args):
        return make_cert(*args)._replace(d=FactoredInteger.of(2))

    monkeypatch.setattr(gpade.cli, "make_cert", weak_cert)
    path = params_file(HALF)
    for fmt in ("tsv", "json"):
        argv = ["construct", "--params", path, "--n", "1", "--n0", "1", "--scaled", "--format", fmt]
        assert run(capsys, argv) == (1, "", "check failed: scale 2 does not clear coefficient -5/3\n")


def test_parser_reuse_keeps_appended_option_empty(params_file, capsys):
    # one parser serves every argparse parse of a process, and the reader
    # collects --ell into a fresh list: an --ell appended by one call must not
    # reach the next, and each report must match the one a fresh process prints
    assert _build_parser() is _build_parser()
    path = params_file(HALF)
    base = ["padic", "--params", path, "--beta", "8/3", "--p", "2"]
    with_ell = base + ["--ell", "1,1"]
    code1, out1, _ = run(capsys, with_ell)
    code2, out2, _ = run(capsys, base)
    assert _build_parser().parse_args(with_ell).ell == [(1, 1)]
    assert _build_parser().parse_args(base).ell == [] and _read_argv(base).ell == []
    assert "linear_forms" in out1 and "linear_forms" not in out2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv, code, out in ((with_ell, code1, out1), (base, code2, out2)):
        proc = subprocess.run(
            [sys.executable, "-m", "gpade.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (code, out)


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# The golden cases whose argv argparse reads and the reader leaves to it: an
# abbreviation, an unknown flag and a negative value in the next word.
FALLBACK_CASES = {"constants.trio.prec_abbrev.tsv", "verify.half.unknown_flag", "restricted.unit.split_negative"}


def _golden_argv(case):
    return [case["argv"][0], "--params", "p.params", *case["argv"][1:]]


def _same(args, expected) -> bool:
    # equal, and with values of the same types (Fraction(2) == 2)
    return args == expected and all(type(v) is type(getattr(expected, k)) for k, v in vars(args).items())


def test_reader_matches_full_parser():
    # main() reads every golden and workload argv without argparse, into the
    # namespace the full parser gives, and leaves the rest to argparse
    full = _build_parser()
    argvs = [_golden_argv(case) for case in CASES if case["name"] not in FALLBACK_CASES]
    for name in WORKLOADS:
        for seed in (1, 2, 3):
            wl = build(name, seed)
            argvs += [wl.argv(op, "p") for op in wl.ops]
    assert len(argvs) == len(CASES) - len(FALLBACK_CASES) + 213
    for argv in argvs:
        assert _same(_read_argv(argv), full.parse_args(argv)), argv
    verify = ["verify", "--params", "p", "--n", "1", "--n0", "1"]
    declined = [_golden_argv(case) for case in CASES if case["name"] in FALLBACK_CASES]
    declined += [[], ["-h"], ["bogus", "--params", "p"], verify[:-2], verify[:-1], verify + ["--", "--exact"]]
    for extra in (["-h"], ["--exact=1"], ["--format", "xml"], ["--n0", "x"], ["--precision=0"]):
        declined.append(verify + extra)
    assert [argv for argv in declined if _read_argv(argv) is not None] == []
    assert list(_subcommands(full)) == ["construct", "verify", "denominators", "constants", "padic", "global", "restricted"]


# Valid and malformed value texts for each type of the option table; None is
# the type of --params (--format takes its choices).  The negative values are
# valid after "=" and left to argparse in the next word.
_TEXTS = {
    None: (["p.params", ""], ["-p"]),
    _fraction: (["8/3", "2", "-3/7"], ["x", "1/0"]),
    _int: (["7", "0", "-5"], ["x", "1/2"]),
    _int_list: (["1,2", "3", "-1,5"], ["1,,2", "x"]),
    _precision: (["96", "1"], ["0", "-5"]),
    _prime: (["2", "5"], ["4", "1"]),
    _theta_mode: (["sharp", "paper", "custom:3/2,5"], ["custom:1,2", "bogus"]),
}


@st.composite
def _argvs(draw):
    """An argv of one subcommand drawn from the option table (repeats, `=`
    forms and split values included), perturbed at most once: an option left
    out, abbreviated, given a malformed value or no value, or an unknown
    flag, help or a flag with a value put in."""
    command = draw(st.sampled_from(list(_OPTIONS)))
    options = _OPTIONS[command][1]
    flags = [flag for flag, kw in options.items() if kw.get("required") or draw(st.booleans())]
    flags += draw(st.lists(st.sampled_from(flags), max_size=2))
    words = []
    for flag in draw(st.permutations(flags)):
        kw = options[flag]
        valid, malformed = ([*kw["choices"]], ["xml"]) if "choices" in kw else _TEXTS[kw.get("type")]
        text = None if kw.get("action") == "store_true" else draw(st.sampled_from(valid))
        words.append([flag, text, draw(st.booleans()), malformed])
    k = draw(st.sampled_from(range(len(words))))
    changes = [None, None, "leave out", "abbreviate", "malformed", "no value", "--bogus", "-h", "--exact=1"]
    change = draw(st.sampled_from(changes))
    if change == "leave out":
        del words[k]
    elif change == "abbreviate":
        words[k][0] = draw(st.sampled_from([words[k][0][:-1], words[k][0][:3]]))
    elif change == "malformed" and words[k][1] is not None:
        words[k][1] = draw(st.sampled_from(words[k][3]))
    elif change == "no value":
        words[k][1] = None
    argv = [command]
    for flag, text, eq, _ in words:
        argv += [flag] if text is None else [f"{flag}={text}"] if eq else [flag, text]
    if change in ("--bogus", "-h", "--exact=1"):
        argv.insert(draw(st.integers(1, len(argv))), change)
    return argv


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_reader_agrees_with_argparse(argv):
    # the reader gives argparse's namespace or declines, and it declines
    # every argv on which argparse exits
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = _build_parser().parse_args(argv)
        except SystemExit:
            expected = None
    args = _read_argv(argv)
    assert args is None or _same(args, expected)


# Valid argv of every subcommand, parsed in a fresh interpreter where building
# an argparse parser or translating one of its messages raises.
_NO_PARSER = """
import gettext

def refuse(*args, **kwargs):
    raise RuntimeError("an argparse parser was built")

gettext.gettext = refuse
import argparse

argparse.ArgumentParser.__init__ = refuse
from gpade.cli import _parse_args

for argv in (
    ["construct", "--params", "p", "--n", "2,1", "--n0", "3", "--scaled", "--format", "json"],
    ["verify", "--params", "p", "--n=3", "--n0", "4", "--exact"],
    ["denominators", "--params", "p", "--n", "3", "--n0", "3", "--theta-mode", "custom:3/2,5"],
    ["constants", "--params", "p", "--precision", "192", "--beta", "1/20014458431", "--vartheta", "2"],
    ["padic", "--params", "p", "--beta", "8/3", "--p", "2", "--ell", "1,1", "--ell=5,-4", "--tau", "1/2"],
    ["global", "--params", "p", "--a", "35", "--ell=1,-2,3"],
    ["restricted", "--params", "p", "--beta=-3/14590540195783", "--theta-mode", "sharp", "--M", "30"],
):
    print(_parse_args(argv).command)
"""


def test_valid_argv_builds_no_parser():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _NO_PARSER], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(_OPTIONS)


def test_help_and_usage_errors_unchanged(capsys):
    full = _build_parser()

    def parse(parse_args, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    bad = ["restricted", "--params", "p", "--beta", "1/3"]
    for argv in (["verify", "-h"], ["restricted", "-h"], [*bad, "--bogus"], [*bad, "x"], [*bad, "--M", "x"], ["padic", "--p", "4"]):
        assert parse(_parse_args, argv) == parse(full.parse_args, argv)
    assert run(capsys, ["verify", "-h"]) == (0, _subcommands(full)["verify"].format_help(), "")
    assert run(capsys, ["-h"]) == (0, full.format_help(), "")
    code, out, err = run(capsys, [])
    assert (code, out) == (2, "") and err.endswith("gpade: error: the following arguments are required: command\n")
    code, out, err = run(capsys, ["bogus"])
    assert (code, out) == (2, "") and "gpade: error: argument command: invalid choice: 'bogus'" in err
