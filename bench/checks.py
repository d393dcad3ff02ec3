"""Independent checkers for gpade reports.

Nothing here imports gpade.  Series coefficients, derived integers, p-adic
partial sums and order conditions are recomputed with `fractions`; real
constants and series values come from mpmath at four times the report's
precision; small systems are solved with sympy.  Each checker returns a list
of problems, empty when the report is right.

    check_report(op, alphas, stdout_text) -> list[str]
"""

from __future__ import annotations

import json
from fractions import Fraction as F
from math import gcd, lcm

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _flatten(obj, prefix: str, out: dict[str, str]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}{k}.", out)
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            _flatten(v, f"{prefix}{k}.", out)
    else:
        out[prefix[:-1]] = "" if obj is None else str(obj)


def parse_keyed(text: str) -> dict[str, str]:
    """A key/value report (TSV or JSON) as {dotted key: value as printed in TSV}."""
    if text.lstrip().startswith("{"):
        out: dict[str, str] = {}
        _flatten(json.loads(text), "", out)
        return out
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "key\tvalue":
        raise ValueError("missing key/value header")
    out = {}
    for line in lines[1:]:
        key, value = line.split("\t")
        out[key] = value
    return out


def _list(rep: dict[str, str], prefix: str) -> list[str]:
    out = []
    while f"{prefix}.{len(out)}" in rep:
        out.append(rep[f"{prefix}.{len(out)}"])
    return out


def _records(rep: dict[str, str], prefix: str) -> list[dict[str, str]]:
    out = []
    while any(k.startswith(f"{prefix}.{len(out)}.") for k in rep):
        head = f"{prefix}.{len(out)}."
        out.append({k[len(head):]: v for k, v in rep.items() if k.startswith(head)})
    return out


# ---------------------------------------------------------------------------
# Exact number theory and series, independent of the package
# ---------------------------------------------------------------------------


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == {n: 1}


def vp(x: F, p: int) -> int:
    x = F(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def digit_count(n: int) -> int:
    """Decimal digits of |n| without str() (which refuses huge integers)."""
    n = abs(n)
    d = max(1, n.bit_length() * 30103 // 100000)
    while 10**d <= n:
        d += 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


def series(alphas, j: int, upto: int) -> list[F]:
    """Coefficients 0..upto of phi_j = sum (a_j)_n / (a_j + a_0)_n z^n."""
    aj, a0j = F(alphas[j]), F(alphas[j]) + F(alphas[0])
    out = [F(1)]
    for n in range(upto):
        out.append(out[-1] * (aj + n) / (a0j + n))
    return out


class Derived:
    """The integers the size constants are built from."""

    def __init__(self, alphas):
        al = [F(a) for a in alphas]
        self.m = m = len(al) - 1
        self.r = [a.numerator for a in al]
        self.s = [a.denominator for a in al]
        sums = [al[j] + al[0] for j in range(1, m + 1)]
        self.u = [q.numerator for q in sums]
        self.v = [q.denominator for q in sums]
        d = [self.s[0] * self.s[j] // self.v[j - 1] for j in range(1, m + 1)]
        self.s0, self.r0 = self.s[0], self.r[0]
        self.s_lcm = lcm(*self.s[1:])
        self.v_lcm = lcm(*self.v)
        self.d_lcm = lcm(*d)
        self.dtilde = self.d_lcm // gcd(self.d_lcm, self.s0)
        self.R, self.S = max(self.r[1:]), max(self.s[1:])
        self.U, self.V = max(self.u), max(self.v)


def shape_degrees(n: tuple[int, ...], n0: int):
    """N, the degrees N_j = N + n0 - n_j, and the row degrees N_ij = N_j + [i == j]."""
    N = sum(n)
    Nj = [N + n0 - k for k in n]
    Nij = [[Nj[j - 1] + (1 if i == j else 0) for j in range(1, len(n) + 1)] for i in range(len(n) + 1)]
    return N, Nj, Nij


# ---------------------------------------------------------------------------
# mpmath reference values
# ---------------------------------------------------------------------------


def reference_constants(alphas, mode: str, prec: int) -> dict[str, object]:
    """c1..c8, c9 and log C from the formulas of denom.bound_constants and
    padic.global_relation_constant, in mpmath at 4x the report precision."""
    import mpmath

    g = Derived(alphas)
    m = g.m
    with mpmath.workprec(4 * prec):
        theta = 8 * mpmath.log(2) if mode == "paper" else mpmath.mpf(63) / 50

        def eps(n):
            return mpmath.fprod(mpmath.mpf(p) ** (mpmath.mpf(1) / (p - 1)) for p in factor(n))

        c = {
            "c1": theta * (m * (g.R + g.S) + g.U),
            "c2": theta * (m * g.S),
            "c3": mpmath.log(g.s0**2 * eps(g.s0) * eps(g.v_lcm)),
            "c4": theta * g.V + mpmath.log(g.dtilde * eps(g.s_lcm)),
            "c5": theta * (2 * (g.r0 - g.s0) + m * g.U),
            "c6": theta * (2 * g.s0) + mpmath.log(mpmath.mpf(g.d_lcm) / g.s0 * eps(g.s_lcm)),
            "c7": theta * (m * g.V),
        }
        c["c8"] = c["c3"] + c["c4"] + c["c6"] + c["c7"] + 3
        c["c9"] = c["c2"] + (m + 1) * c["c8"]
        inner = g.d_lcm * g.dtilde * g.s0 * eps(g.s0) * eps(g.s_lcm) ** 2 * eps(g.v_lcm)
        c["log_C"] = m * g.S + (m + 1) * (3 + mpmath.log(inner) + 2 * g.s0 + (m + 1) * g.V)
        return c


def bracket(name: str, printed: str, true) -> list[str]:
    """The printed upper bound, truncated to its printed digits, must bracket
    the reference value: printed - 1e-30 <= true < printed + one printed ulp."""
    import mpmath

    body = printed.split("e")[0]
    decimals = len(body.split(".")[1]) if "." in body else 0
    exp10 = int(printed.split("e")[1]) if "e" in printed else 0
    value = F(printed)
    ulp = F(1, 10**decimals) * F(10) ** exp10
    with mpmath.workprec(512):
        lo = mpmath.mpf(value.numerator) / value.denominator - mpmath.mpf(10) ** -30
        hi = mpmath.mpf((value + ulp).numerator) / (value + ulp).denominator
        if lo <= true < hi:
            return []
        return [f"{name} = {printed} does not bracket {mpmath.nstr(true, 40)}"]


# ---------------------------------------------------------------------------
# Small exact solves (sympy) of the order conditions
# ---------------------------------------------------------------------------


def sympy_q(alphas, n: tuple[int, ...], n0: int, i: int) -> list[F]:
    """Row i's denominator Q_i (a_N = 1) from a sympy solve of the order
    conditions: coefficients N_ij+1 .. N_ij+n_j of Q_i * phi_j vanish."""
    import sympy

    N, _, Nij = shape_degrees(n, n0)
    rows, rhs = [], []
    for j in range(1, len(n) + 1):
        top = Nij[i][j - 1] + n[j - 1]
        cs = series(alphas, j, top)
        for mu in range(Nij[i][j - 1] + 1, top + 1):
            rows.append([sympy.Rational(cs[mu - k].numerator, cs[mu - k].denominator) for k in range(N)])
            rhs.append(-sympy.Rational(cs[mu - N].numerator, cs[mu - N].denominator))
    sol = sympy.Matrix(rows).LUsolve(sympy.Matrix(rhs))
    return [F(int(x.p), int(x.q)) for x in sol] + [F(1)]


SMALL_N = 12  # rungs up to this N are cross-checked with sympy


# ---------------------------------------------------------------------------
# Per-command checkers
# ---------------------------------------------------------------------------


def _opt(op, flag: str, default=None):
    argv = list(op.argv)
    for k, a in enumerate(argv):
        if a == flag:
            return argv[k + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return default


def check_verify(op, alphas, text: str) -> list[str]:
    rep = parse_keyed(text)
    n, n0 = op.info["n"], op.info["n0"]
    m = len(n)
    N, Nj, Nij = shape_degrees(n, n0)
    problems = []
    if rep.get("verdict") != "PASS":
        problems.append(f"verdict {rep.get('verdict')!r}")
    order = {k: v for k, v in rep.items() if k.startswith("order_of_vanishing.")}
    oracle = {k: v for k, v in rep.items() if k.startswith("oracle_equivalence.")}
    if len(order) != (m + 1) * m or set(order.values()) != {"True"}:
        problems.append("order of vanishing not certified for every (i, j)")
    if len(oracle) != m + 1 or set(oracle.values()) != {"True"}:
        problems.append("oracle equivalence not certified for every row")
    expected = N + sum(Nj) + m
    for key in ("determinant_monomial.exponent", "determinant_monomial.expected_exponent"):
        if rep.get(key) != str(expected):
            problems.append(f"{key} = {rep.get(key)}, want N + sum N_j + m = {expected}")
    if N <= SMALL_N:
        # leading coefficient: product over i of the z^(N_ii) coefficient of Q_i*phi_i
        omega = F(1)
        for i in range(1, m + 1):
            q = sympy_q(alphas, n, n0, i)
            cs = series(alphas, i, Nij[i][i - 1])
            omega *= sum(q[k] * cs[Nij[i][i - 1] - k] for k in range(min(N, Nij[i][i - 1]) + 1))
        printed = rep.get("determinant_monomial.leading", "")
        if "..." not in printed and F(printed) != omega:
            problems.append(f"determinant leading {printed} != {omega}")
    return problems


def check_construct(op, alphas, text: str) -> list[str]:
    n, n0 = op.info["n"], op.info["n0"]
    m = len(n)
    N, _, Nij = shape_degrees(n, n0)
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("# scaled_by_D = "):
        return ["missing scaled_by_D header"]
    D = int(lines[0].split("=")[1])
    if lines[1] != "i\tpoly\tdegree\tnumerator\tdenominator":
        return ["missing table header"]
    polys: dict[tuple[int, str], list[int]] = {}
    problems = []
    for line in lines[2:]:
        i, poly, deg, num, den = line.split("\t")
        if den != "1":
            problems.append(f"row {i} {poly} degree {deg}: D leaves denominator {den}")
        coeffs = polys.setdefault((int(i), poly), [])
        if int(deg) != len(coeffs):
            problems.append(f"row {i} {poly}: degree {deg} out of order")
        coeffs.append(int(num))
    for i in range(m + 1):
        q = [F(c, D) for c in polys.get((i, "Q"), [])]
        if len(q) != N + 1 or q[N] != 1:
            problems.append(f"Q_{i} is not monic of degree {N}")
            continue
        if N <= SMALL_N and q != sympy_q(alphas, n, n0, i):
            problems.append(f"Q_{i} differs from the sympy solve of the order conditions")
        for j in range(1, m + 1):
            top = Nij[i][j - 1] + n[j - 1] + 1
            cs = series(alphas, j, top)
            prodser = [sum(q[k] * cs[mu - k] for k in range(min(N, mu) + 1)) for mu in range(top + 1)]
            p = [F(c, D) for c in polys.get((i, str(j)), [])]
            if p != prodser[: Nij[i][j - 1] + 1]:
                problems.append(f"P_{i}{j} is not the truncation of Q_{i}*phi_{j}")
            if any(c != 0 for c in prodser[Nij[i][j - 1] + 1 : top]):
                problems.append(f"Q_{i}*phi_{j} does not vanish in (N_ij, N_ij + n_j]")
            if prodser[top] == 0:
                problems.append(f"Q_{i}*phi_{j} has a zero first remainder coefficient")
    return problems


def _factorisation(text: str) -> int:
    value = 1
    primes = []
    if text == "1":
        return 1
    for part in text.split("*"):
        p, _, e = part.partition("^")
        primes.append(int(p))
        value *= int(p) ** (int(e) if e else 1)
    if primes != sorted(set(primes)) or not all(is_prime(p) for p in primes):
        raise ValueError(f"factorisation {text} is not over ascending primes")
    return value


def check_denominators(op, alphas, text: str) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "quantity\tvalue\tdetail\tstatus":
        return ["missing certificate header"]
    rows = {}
    problems = []
    for line in lines[1:]:
        name, value, detail, status = line.split("\t")
        rows[name] = (value, detail, status)
        if status not in ("-", "PASS", "SKIP"):
            problems.append(f"{name}: status {status}")
    vals = {}
    for name in ("D1", "D2", "D"):
        value, detail, _ = rows[name]
        vals[name] = int(value)
        if _factorisation(detail) != vals[name]:
            problems.append(f"{name} = {value} is not the product of {detail}")
    if vals["D"] != vals["D1"] * vals["D2"]:
        problems.append("D != D1 * D2")
    if rows.get("integrality", ("", "", ""))[2] != "PASS":
        problems.append("integrality not reported as PASS")
    prec = int(_opt(op, "--precision", 128))
    ref = reference_constants(alphas, _opt(op, "--theta-mode", "paper"), prec)
    for k in range(1, 9):
        value, detail, _ = rows[f"c{k}"]
        if detail != f"upper@{prec}b":
            problems.append(f"c{k} tagged {detail}")
        problems += bracket(f"c{k}", value, ref[f"c{k}"])
    return problems


def check_constants(op, alphas, text: str) -> list[str]:
    rep = parse_keyed(text)
    prec = int(_opt(op, "--precision", 128))
    mode = _opt(op, "--theta-mode", "paper")
    problems = []
    if rep.get("theta_mode.label") != mode:
        problems.append(f"theta mode {rep.get('theta_mode.label')!r}")
    ref = reference_constants(alphas, mode, prec)
    for k in range(1, 9):
        key = f"size_constants.c{k}"
        if rep.get(f"{key}.direction") != "upper" or rep.get(f"{key}.precision_bits") != str(prec):
            problems.append(f"c{k} not tagged upper@{prec}")
        problems += bracket(f"c{k}", rep[f"{key}.value"], ref[f"c{k}"])
    for name in ("c9", "log_C"):
        problems += bracket(name, rep[f"global_relation.{name}.value"], ref[name])
    if abs(F(rep["global_relation.crosscheck_abs_diff_upper"])) > F(1, 10**30):
        problems.append("log C cross-check difference is not negligible")
    return problems


def padic_partial_sum(alphas, j: int, beta: F, p: int, target: int) -> F:
    """A partial sum S of phi_j(beta) whose omitted terms all have p-adic
    valuation >= target: terms are summed until a run of at least 64 (and at
    least as many as already summed) consecutive terms all clear target + 4."""
    aj, a0j = F(alphas[j]), F(alphas[j]) + F(alphas[0])
    total, term, n = F(0), F(1), 0
    run_from = None
    while True:
        if term != 0 and vp(term, p) < target + 4:
            run_from = None
        elif run_from is None:
            run_from = n
        if run_from is not None and n - run_from >= max(64, run_from):
            return total
        total += term
        term = term * (aj + n) / (a0j + n) * beta
        n += 1


def _padic_form(alphas, ell, beta: F, p: int, target: int) -> F:
    return ell[0] + sum(lj * padic_partial_sum(alphas, j, beta, p, target) for j, lj in enumerate(ell[1:], 1) if lj)


def check_padic(op, alphas, text: str) -> list[str]:
    rep = parse_keyed(text)
    beta, p = op.info["beta"], op.info["p"]
    problems = []
    encs = _records(rep, "enclosures")
    if len(encs) != len(alphas) - 1:
        return ["wrong number of enclosures"]
    for enc in encs:
        j, v, k = int(enc["j"]), int(enc["valuation_offset"]), int(enc["digits"])
        s = padic_partial_sum(alphas, j, beta, p, v + k + 1)
        if enc["below_precision"] == "True":
            if s != 0 and vp(s, p) < v:
                problems.append(f"phi_{j}: claimed below p^{v} but has valuation {vp(s, p)}")
        elif s == 0 or vp(s, p) != v:
            problems.append(f"phi_{j}: valuation {v} not confirmed")
        else:
            unit = s / F(p) ** v
            mod = p**k
            residue = unit.numerator * pow(unit.denominator, -1, mod) % mod
            if residue != int(enc["unit_residue"]):
                problems.append(f"phi_{j}: unit residue {enc['unit_residue']} != {residue} mod {p}^{k}")
    forms = _records(rep, "linear_forms")
    if len(forms) != len(op.info["ell"]):
        problems.append("wrong number of linear forms")
    for form, ell in zip(forms, op.info["ell"]):
        bound = int(form["valuation"] or form["below_precision_exponent"])
        value = _padic_form(alphas, ell, beta, p, bound + 8)
        problems += _valuation_claim(f"form {ell}", value, p, form)
    for audit in _records(rep, "audits"):
        if audit.get("dominance_holds") != "True":
            problems.append(f"audit {audit.get('ell.0')}: dominance {audit.get('dominance_holds')!r}")
        if audit.get("witness.lambda") in (None, "0"):
            problems.append("audit witness lambda is zero")
    return problems


def _valuation_claim(label: str, value: F, p: int, claim: dict[str, str]) -> list[str]:
    """`claim` has keys exact / valuation / below_precision_exponent (or
    status / valuation / exponent for the global probe)."""
    exact = claim.get("exact") == "True" or claim.get("status") == "nonzero"
    if exact:
        if value == 0 or vp(value, p) != int(claim["valuation"]):
            return [f"{label}: valuation {claim['valuation']} not confirmed"]
        return []
    below = int(claim.get("below_precision_exponent") or claim.get("exponent"))
    if value != 0 and vp(value, p) < below:
        return [f"{label}: claimed below {p}^{below} but has valuation {vp(value, p)}"]
    return []


def check_global(op, alphas, text: str) -> list[str]:
    rep = parse_keyed(text)
    prec = int(_opt(op, "--precision", 128))
    ref = reference_constants(alphas, _opt(op, "--theta-mode", "paper"), prec)
    problems = []
    for name in ("c9", "log_C"):
        problems += bracket(name, rep[f"{name}.value"], ref[name])
    ell_text = _opt(op, "--ell")
    if ell_text is None:
        return problems
    ell = tuple(int(x) for x in ell_text.split(","))
    a = int(_opt(op, "--a"))
    k = max(8, prec // 2)
    primes = sorted(factor(abs(a)))
    per_prime = _records(rep, "probe.per_prime")
    if [int(r["p"]) for r in per_prime] != primes:
        problems.append(f"probed primes {[r['p'] for r in per_prime]} != {primes}")
    for rec in per_prime:
        p = int(rec["p"])
        value = _padic_form(alphas, ell, F(a), p, k + 8)
        problems += _valuation_claim(f"probe at p={p}", value, p, rec)
    nonzero = [int(x) for x in _list(rep, "probe.certified_nonzero_at")]
    if nonzero != [int(r["p"]) for r in per_prime if r["status"] == "nonzero"]:
        problems.append("certified_nonzero_at disagrees with the per-prime statuses")
    if "expect_nonzero" in op.info and nonzero != op.info["expect_nonzero"]:
        problems.append(f"certified nonzero at {nonzero}, want {op.info['expect_nonzero']}")
    return problems


def check_restricted(op, alphas, text: str) -> list[str]:
    import mpmath

    rep = parse_keyed(text)
    problems = []
    if rep.get("final_verdict") != "all checks passed":
        problems.append(f"final verdict {rep.get('final_verdict')!r}")
    for chk in _records(rep, "checks"):
        if chk["applicable"] == "True" and chk["passed"] != "True":
            problems.append(f"check {chk['name']} not passed")
    if rep.get("constants.nearest_n_used") != "True":
        problems.append("candidate is not the nearest numerator")
    a, b, B = op.info["a"], op.info["b"], op.info["B"]
    M = int(rep["constants.M"])
    if op.info["M"] is not None and M != op.info["M"]:
        problems.append(f"M = {M}, asked for {op.info['M']}")
    scale = B * b**M
    with mpmath.workdps(digit_count(scale) + 40):
        a0, a1 = (mpmath.mpf(x.numerator) / x.denominator for x in (F(alphas[0]), F(alphas[1])))
        phi = mpmath.hyp2f1(a1, 1, a1 + a0, mpmath.mpf(a) / b)
        nearest = int(mpmath.nint(phi * scale))
    want = digit_count(nearest)
    if rep.get("constants.candidate_n_digits") != str(want):
        problems.append(f"candidate_n_digits {rep.get('constants.candidate_n_digits')} != {want}")
    return problems


CHECKERS = {
    "verify": check_verify,
    "construct": check_construct,
    "denominators": check_denominators,
    "constants": check_constants,
    "padic": check_padic,
    "global": check_global,
    "restricted": check_restricted,
}


def check_report(op, alphas, text: str) -> list[str]:
    try:
        return CHECKERS[op.command](op, alphas, text)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable report ({type(exc).__name__}: {exc})"]
