import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gpade.arith import FactoredInteger, digits10
from gpade.cli import _MR_LIMIT, _build_parser, _prime, emit_report, main
from gpade.denom import make_cert
from gpade.report import abbrev, int_str

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


def test_scaled_construct_with_d_that_does_not_clear(params_file, capsys, monkeypatch):
    # D = 12600 = 2^3 3^2 5^2 7 here, and D / 5 leaves a coefficient 4/75 non-integral
    import gpade.cli as cli_mod

    def short_cert(*args, **kwargs):
        cert = make_cert(*args, **kwargs)
        return replace(cert, d=FactoredInteger.of(cert.d.value // 5))

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
    for text in ("318665857834031151167461", "-7", str(2**61 + 1), str(_MR_LIMIT), "x"):
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


def test_parser_reuse_keeps_appended_option_empty(params_file, capsys):
    # one parser serves every main() call of a process: an --ell appended by
    # one call must not reach the next, and each report must match the one a
    # fresh process prints
    assert _build_parser() is _build_parser()
    path = params_file(HALF)
    base = ["padic", "--params", path, "--beta", "8/3", "--p", "2"]
    with_ell = base + ["--ell", "1,1"]
    code1, out1, _ = run(capsys, with_ell)
    code2, out2, _ = run(capsys, base)
    assert _build_parser().parse_args(base).ell == []
    assert "linear_forms" in out1 and "linear_forms" not in out2
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv, code, out in ((with_ell, code1, out1), (base, code2, out2)):
        proc = subprocess.run(
            [sys.executable, "-m", "gpade.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (code, out)
