"""The benchmark's workloads: ordered lists of CLI reports built from a seed.

Each workload is a list of `Op`s.  An op is one `gpade` report: its argv
(with the parameter file named by key), the parameters it runs on, and what
the independent checkers need to know about it.  The same seed always gives
the same ops.  Every workload ends with the same small `_smoke` set, which
touches each traced function once so that every per-layer metric is measured
on every workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import gcd

WORKLOADS = ("construct-ladder", "certify-pool", "audit-ladder")

# The 20-value parameter pool of the test suite's random configurations.
ALPHA_POOL = [
    F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5), F(2, 5), F(3, 5),
    F(4, 5), F(1, 7), F(3, 7), F(1), F(2), F(3, 2), F(5, 3), F(7, 4),
    F(9, 5), F(5, 2), F(8, 3), F(11, 4),
]

# Generator seed of the certify-pool parameter tuples.  It is part of the
# benchmark's definition, not of a run: every run certifies the same tuples,
# so the certified-constant work per round does not depend on --seed.
POOL_TUPLES_SEED = 20260808

# Smallest bases certified admissible (b >= (a1*|a|)^6, sharp theta mode,
# vartheta = 2) for the three restricted shapes; checked by the audit itself.
B_UNIT = 20014458431  # (alpha0, alpha1) = (1, 1), a = 1
B_INT2 = 160115667444  # (alpha0, alpha1) = (2, 1), a = 1
B_NEG3 = 14590540195783  # (alpha0, alpha1) = (1, 1), a = -3

# The report that fails on every run: the final audit renders a cleared
# combination with more than 4300 digits through str().
FAILING_BETA = "1/" + "1" + "0" * 40


@dataclass(frozen=True)
class Op:
    name: str
    params: str  # key into Workload.params
    argv: tuple[str, ...]  # without --params
    info: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    params: dict[str, tuple[F, ...]]
    ops: list[Op]
    largest: str  # name of the designated largest report

    def argv(self, op: Op, params_dir: str) -> list[str]:
        return [op.argv[0], "--params", f"{params_dir}/{op.params}.params", *op.argv[1:]]


def params_text(alphas: tuple[F, ...]) -> str:
    lines = [f"m = {len(alphas) - 1}"]
    lines += [f"alpha{j} = {a}" for j, a in enumerate(alphas)]
    return "\n".join(lines) + "\n"


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _shape_ops(kind: str, key: str, n: tuple[int, ...], n0: int, extra=()) -> Op:
    label = f"{kind}.{key}.n{_csv(n)}.n0{n0}"
    argv = (kind, "--n", _csv(n), "--n0", str(n0), *extra)
    return Op(label, key, argv, {"n": n, "n0": n0})


def _smoke(params: dict) -> list[Op]:
    params["smoke_half"] = (F(1), F(1, 2))
    params["smoke_unit"] = (F(1), F(1))
    s = "smoke_half"
    return [
        _shape_ops("verify", s, (2,), 2),
        _shape_ops("construct", s, (2,), 2, ("--scaled",)),
        _shape_ops("denominators", s, (2,), 2),
        Op(
            "padic.smoke_half.ell1,1",
            s,
            ("padic", "--beta", "8/3", "--p", "2", "--ell", "1,1", "--tau", "1/2", "--delta", "1/20",
             "--format", "json"),
            {"beta": F(8, 3), "p": 2, "ell": [(1, 1)]},
        ),
        Op("global.smoke_unit.a3", "smoke_unit", ("global", "--a", "3", "--ell", "0,1"), {"expect_nonzero": [3]}),
        _restricted("smoke_unit", 1, B_UNIT, None),
    ]


def _restricted(key: str, a: int, b: int, M: int | None, B: int = 1, t: str = "0") -> Op:
    argv = ["restricted", f"--beta={a}/{b}", "--theta-mode", "sharp", "--vartheta", "2"]
    if B != 1:
        argv += ["--B", str(B), "--t", t]
    if M is not None:
        argv += ["--M", str(M)]
    name = f"restricted.{key}.a{a}.M{M if M is not None else 'default'}"
    return Op(name, key, tuple(argv), {"a": a, "b": b, "B": B, "M": M})


def construct_ladder(seed: int) -> Workload:
    """verify / denominators / construct --scaled on a size ladder in N for
    m = 1, 2, 3.  alpha0 = 1; the seed draws the upper parameters k/d in
    (0, 1) over fixed denominators d per m, and their order, so the size of
    the exact numbers, hence the work, hardly depends on the seed."""
    rng = random.Random(seed)
    params: dict[str, tuple[F, ...]] = {}
    for m, dens in ((1, [3]), (2, [2, 3]), (3, [2, 3, 4])):
        rng.shuffle(dens)
        upper = [F(rng.choice([k for k in range(1, d) if gcd(k, d) == 1]), d) for d in dens]
        params[f"m{m}"] = (F(1),) + tuple(upper)
    ops = [
        _shape_ops("verify", "m1", (12,), 12),
        _shape_ops("verify", "m1", (24,), 24),
        _shape_ops("denominators", "m1", (20,), 20),
        _shape_ops("construct", "m1", (8,), 8, ("--scaled",)),
        _shape_ops("verify", "m2", (6, 6), 6),
        _shape_ops("verify", "m2", (12, 12), 12),
        _shape_ops("denominators", "m2", (10, 10), 10),
        _shape_ops("construct", "m2", (4, 4), 4, ("--scaled",)),
        _shape_ops("verify", "m3", (4, 4, 4), 4),
        _shape_ops("verify", "m3", (6, 6, 6), 6),
        _shape_ops("verify", "m3", (8, 8, 8), 8),
        _shape_ops("denominators", "m3", (6, 6, 6), 6),
        _shape_ops("construct", "m3", (3, 3, 3), 3, ("--scaled",)),
    ]
    ops += _smoke(params)
    return Workload(params, ops, "verify.m3.n8,8,8.n08")


def pool_tuples(count: int = 7) -> list[tuple[F, ...]]:
    """Parameter tuples drawn from ALPHA_POOL with pairwise non-integer
    differences among the upper parameters, m cycling through 1, 2, 3."""
    rng = random.Random(POOL_TUPLES_SEED)
    out = []
    for k in range(count):
        m = 1 + k % 3
        upper: list[F] = []
        while len(upper) < m:
            c = rng.choice(ALPHA_POOL)
            if all((c - x).denominator != 1 for x in upper):
                upper.append(c)
        out.append((rng.choice(ALPHA_POOL),) + tuple(upper))
    return out


def certify_pool(seed: int) -> Workload:
    """denominators and constants on small pool configurations (m <= 3,
    n_j <= 5), each tuple certified by three reports so that parameters
    repeat, plus a few high-precision constants/global reports.  The seed
    draws the block degrees, the theta mode of each report and the order."""
    rng = random.Random(seed)
    params: dict[str, tuple[F, ...]] = {}
    ops: list[Op] = []
    for k, alphas in enumerate(pool_tuples()):
        key = f"pool{k}"
        params[key] = alphas
        m = len(alphas) - 1
        for rep in range(2):
            n = tuple(rng.randint(1, 5) for _ in range(m))
            n0 = rng.randint(max(n), 6)
            mode = rng.choice(("paper", "sharp"))
            op = _shape_ops("denominators", key, n, n0, ("--theta-mode", mode))
            ops.append(Op(f"{op.name}.{mode}.r{rep}", key, op.argv, op.info))
        ops.append(Op(f"constants.{key}", key, ("constants",)))
    rng.shuffle(ops)
    params["hp1"] = (F(1), F(1, 2))
    params["hp2"] = (F(1), F(1, 2), F(1, 3))
    ops += [
        Op("constants.hp1.192", "hp1", ("constants", "--precision", "192")),
        Op("constants.hp1.256", "hp1", ("constants", "--precision", "256", "--format", "json")),
        Op("global.hp1.256", "hp1", ("global", "--a", "3", "--ell=1,-1", "--precision", "256")),
        Op("global.hp2.192", "hp2", ("global", "--a", "7", "--ell=1,2,-3", "--precision", "192")),
        Op("constants.hp2.192", "hp2", ("constants", "--precision", "192")),
    ]
    ops += _smoke(params)
    return Workload(params, ops, "constants.hp2.192")


def _signed(rng: random.Random, mags) -> tuple[int, ...]:
    return tuple(x if rng.random() < 0.5 else -x for x in mags)


def audit_ladder(seed: int) -> Workload:
    """restricted on an M ladder over three parameter shapes, p-adic
    linear-form audits at growing heights, and global probes.  The seed draws
    an offset added to each smallest admissible base b and the signs of the
    linear forms; neither changes the sizes the audits work at."""
    rng = random.Random(seed)
    params: dict[str, tuple[F, ...]] = {
        "unit": (F(1), F(1)),
        "int2": (F(2), F(1)),
        "half": (F(1), F(1, 2)),
        "trio": (F(1), F(1, 2), F(1, 3)),
    }
    # offsets keep each b coprime to its numerator a, so a/b stays reduced
    off = [rng.randrange(1, 1000) for _ in range(2)]
    off.append(rng.choice([k for k in range(1, 1000) if gcd(3, B_NEG3 + k) == 1]))
    ops = [
        _restricted("unit", 1, B_UNIT + off[0], None),
        _restricted("unit", 1, B_UNIT + off[0], 40),
        _restricted("int2", 1, B_INT2 + off[1], None, B=7, t="1/2"),
        _restricted("int2", 1, B_INT2 + off[1], 30, B=7, t="1/2"),
        _restricted("unit", -3, B_NEG3 + off[2], None),
        _restricted("unit", -3, B_NEG3 + off[2], 26),
        Op("restricted.unit.beta1e-40.Mdefault", "unit",
           ("restricted", "--beta", FAILING_BETA, "--theta-mode", "sharp", "--vartheta", "2"),
           {"a": 1, "b": 10**40, "B": 1, "M": None}),
    ]
    for height in (10**3, 10**6, 10**9):
        ell = (height,) + _signed(rng, (height - rng.randrange(height // 10),))
        ops.append(
            Op(
                f"padic.half.h{height}",
                "half",
                ("padic", "--beta", "8/3", "--p", "2", f"--ell={_csv(ell)}", "--tau", "1/2", "--delta", "1/20"),
                {"beta": F(8, 3), "p": 2, "ell": [ell]},
            )
        )
    ell3 = (rng.choice((-1, 1)) * 30,) + _signed(rng, (29, 23))
    ops.append(
        Op(
            "padic.trio.h30",
            "trio",
            ("padic", "--beta", "27/2", "--p", "3", f"--ell={_csv(ell3)}", "--ell", "1,1,1", "--tau", "1/2",
             "--delta", "1/40", "--format", "json"),
            {"beta": F(27, 2), "p": 3, "ell": [ell3, (1, 1, 1)]},
        )
    )
    ell_trio = _signed(rng, (1, 2, 3))
    ops += [
        Op("global.unit.a2", "unit", ("global", "--a", "2", "--ell", "0,1"), {"expect_nonzero": []}),
        Op("global.unit.a6", "unit", ("global", "--a", "6", "--ell", "0,1"), {"expect_nonzero": [2, 3]}),
        Op("global.trio.a35", "trio", ("global", "--a", "35", f"--ell={_csv(ell_trio)}")),
    ]
    ops += _smoke(params)
    return Workload(params, ops, "restricted.unit.a1.M40")


def build(name: str, seed: int) -> Workload:
    if name == "construct-ladder":
        return construct_ladder(seed)
    if name == "certify-pool":
        return certify_pool(seed)
    if name == "audit-ladder":
        return audit_ladder(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
