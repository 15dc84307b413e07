"""The four workloads: seeded inputs, the ops of one round, and their checks.

A workload is a fixed batch ("round") of ops.  An op is one user-level call
into the public API of ``dimerfield``, looked up by name at call time so a
tracer that replaces module attributes sees it.  Inputs come only from the
seed; where a parameter sets the cost of a call (a size, the alpha of a
hard regime), the seed only moves a fixed design point by a small jitter,
so two seeds give different inputs with the same work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import bench_checks as chk
import dimerfield as df

WORKLOADS = ("finite_n", "phase", "reduced_scan", "moments")


@dataclass
class Op:
    """One call ``dimerfield.<call>(*args)`` and how to check it.

    ``check(op, output, ctx)`` returns failure reasons; ``ctx`` carries a
    seeded generator and a cache for reference values.  ``known_fault``
    names a program fault this op hits on every run.
    """

    kind: str
    call: str
    args: tuple
    check: Callable
    meta: dict = field(default_factory=dict)
    known_fault: str | None = None


def run_op(op: Op):
    """Call the op; an exception is its output.  Returns (output, seconds)."""
    fn = getattr(df, op.call)
    start = time.perf_counter()
    try:
        out = fn(*op.args)
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        out = exc
    return out, time.perf_counter() - start


@dataclass
class CheckContext:
    """Seeded generator for sampled references and a per-round value cache."""

    rng: np.random.Generator
    cache: dict = field(default_factory=dict)


def check_op(op: Op, out, ctx: CheckContext) -> list[str]:
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    return op.check(op, out, ctx)


def fingerprint(value) -> str:
    """A string that is equal for bit-identical outputs."""
    if isinstance(value, Exception):
        return f"{type(value).__name__}:{value}"
    if isinstance(value, np.ndarray):
        return repr(value.tolist())
    if hasattr(value, "__dataclass_fields__"):
        return "(" + ",".join(fingerprint(getattr(value, k)) for k in value.__dataclass_fields__) + ")"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(fingerprint(v) for v in value) + "]"
    return repr(value)


class Verdicts:
    """Checks the first round of a workload in full and every later round
    for bit-identical outputs; counts attempted and failed ops."""

    def __init__(self, workload, ops, seed):
        self.workload = workload
        self.ops = ops
        self.seed = seed
        self.reference = None
        self.failed_in_round = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[dict] = []  # failures of ops without a known fault
        self.known: list[dict] = []

    def add(self, outputs) -> None:
        if self.reference is None:
            self._check_first(outputs)
        else:
            for i, (out, ref) in enumerate(zip(outputs, self.reference)):
                if fingerprint(out) != ref:
                    self.failed += 1
                    self.problems.append({"op": i, "kind": self.ops[i].kind, "reasons": ["output differs from the first round"]})
        self.attempted += len(outputs)
        self.failed += self.failed_in_round

    def _check_first(self, outputs) -> None:
        ctx = CheckContext(rng=np.random.default_rng([self.seed, 1 + WORKLOADS.index(self.workload), 7]))
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            reasons = check_op(op, out, ctx)
            if not reasons:
                continue
            self.failed_in_round += 1
            entry = {"op": i, "kind": op.kind, "reasons": reasons}
            (self.known if op.known_fault else self.problems).append(entry)
        self.reference = [fingerprint(o) for o in outputs]

    @property
    def correct(self) -> bool:
        return not self.problems


def _strata(rng, lo, hi, count):
    """One uniform draw inside each of ``count`` equal strata of [lo, hi]."""
    return lo + (np.arange(count) + rng.uniform(size=count)) / count * (hi - lo)


def _generic_params(rng, count, alphas=None):
    """Full-J parameter sets: fields in [-1, 1], symmetric couplings with
    entries in [-1, 1]; alpha stratified over [0.2, 0.8] unless given."""
    if alphas is None:
        alphas = rng.permutation(_strata(rng, 0.2, 0.8, count))
    out = []
    for alpha in alphas:
        h = rng.uniform(-1.0, 1.0, 3)
        j = rng.uniform(-1.0, 1.0, (3, 3))
        out.append(df.ModelParams(float(alpha), h=h, J=0.5 * (j + j.T)))
    return out


def _coexistence_params(alpha, ratio=1.5):
    """Reduced parameters on the coexistence line at J = ratio * J_c."""
    cp = df.critical_point(alpha)
    j = ratio * cp.j_c
    return df.ModelParams.reduced(alpha, df.coexistence_field(alpha, j, cp=cp), j)


def _reduced_args(params):
    return params.alpha, float(params.h[2]), float(params.J[2, 2])


# ---------------------------------------------------------------- finite_n

FINITE_SIZES = (400, 800, 1200)
DIRECT_N = 36
FD_STEP = 1e-5


def _check_log_z(op, log_z, ctx):
    params = op.args[1]
    n = op.args[0]
    key = ("pressure", id(params))
    if key not in ctx.cache:
        ctx.cache[key] = df.pressure(params)
    out = chk.check_envelope(log_z, n, ctx.cache[key])
    if n == FINITE_SIZES[0]:
        # the smallest size also gets an independent small-N class sum and
        # the density identity d log Z / d h_AB = N <d_AB>
        small = df.log_partition_exact(DIRECT_N, params)
        out += chk.check_log_z_direct(small, chk.direct_log_z(DIRECT_N, params.alpha, params.h, params.J))
        shifted = []
        for sign in (1.0, -1.0):
            h = params.h.copy()
            h[2] += sign * FD_STEP
            shifted.append(df.log_partition_exact(n, df.ModelParams(params.alpha, h=h, J=params.J)))
        mean = df.gibbs_expected_densities(n, params)[2]
        out += chk.check_fd_density(shifted[0], shifted[1], FD_STEP, n, mean)
    return out


def finite_n_ops(rng):
    """log_partition_exact at N = 400, 800, 1200 on a generic full-J set and
    on a reduced coexistence set (J/J_c in [1.3, 1.7]), both at alpha = 0.5:
    alpha sets the number of classes, so both sets cost the same and the
    median op is one at N = 800."""
    generic = _generic_params(rng, 1, alphas=[0.5])[0]
    coex = _coexistence_params(0.5, float(rng.uniform(1.3, 1.7)))
    ops = []
    for label, params in (("generic", generic), ("coexistence", coex)):
        for n in FINITE_SIZES:
            ops.append(
                Op(f"log_partition_exact.{label}", "log_partition_exact", (n, params), _check_log_z, meta={"n": n})
            )
    return ops


# ------------------------------------------------------------------- phase

PHASE_GENERIC = 30
DESIGN_SEED = 17060735
CRITICAL_ALPHA = 0.3
NEAR_CRITICAL_ALPHAS = (0.11, 0.33)
SAMPLE_POINTS = 100_000


def _check_generic(op, maxima, ctx):
    p = op.args[0]
    sample = chk.sample_region(ctx.rng, p.alpha, SAMPLE_POINTS)
    sampled = float(np.max(chk.psi_ref(*sample, p.alpha, p.h, p.J)))
    return chk.check_generic_maximizers(maxima, p.alpha, p.h, p.J, sampled)


def _check_reduced(op, maxima, ctx):
    return chk.check_reduced_maximizers(maxima, *_reduced_args(op.args[0]), critical_d=op.meta.get("d_c"))


def _jittered(rng, base, width):
    """A fixed design point moved by a seeded uniform jitter of half-width
    ``width`` (symmetric for a coupling matrix)."""
    base = np.asarray(base, dtype=float)
    noise = rng.uniform(-width, width, base.shape)
    if base.ndim == 2:
        noise = 0.5 * (noise + noise.T)
    return base + noise


def phase_ops(rng):
    """maximize_psi over four regimes plus the exact critical point.

    The cost of a solve depends on where its parameters sit, so every cheap
    regime is a fixed design whose points the seed moves by a small jitter,
    and the two hard regimes, which hold most of the round's time, take the
    same inputs on every seed: a jitter of 0.01 in alpha moved the
    near-critical cost by up to 50%.  The work per round is then nearly the
    same on every seed.

    generic: 30 full-J sets drawn once from DESIGN_SEED, jittered by 0.01 in
    alpha and 0.05 in h and J.  subcritical: reduced, J = 0.8 J_c, alpha in
    {0.28, 0.33, 0.38, 0.43} +- 0.01, h = h_c + u d_c J_c, |u| <= 0.2.
    coexistence: reduced, J = 1.5 J_c at the coexistence field, alpha in
    {0.27, 0.32, 0.37} +- 0.01.  near_critical: reduced, J = 1.01 J_c and
    h = h_c - 0.01 d_c J_c at alpha in {0.11, 0.33}.  critical: alpha = 0.3
    exactly at (h_c, J_c).
    """
    generic = []
    for base in _generic_params(np.random.default_rng(DESIGN_SEED), PHASE_GENERIC):
        p = df.ModelParams(
            float(_jittered(rng, base.alpha, 0.01)), h=_jittered(rng, base.h, 0.05), J=_jittered(rng, base.J, 0.05)
        )
        generic.append(Op("maximize_psi.generic", "maximize_psi", (p,), _check_generic))
    reduced = []
    for alpha in (0.28, 0.33, 0.38, 0.43):
        cp = df.critical_point(float(_jittered(rng, alpha, 0.01)))
        h = cp.h_c + rng.uniform(-0.2, 0.2) * cp.d_c * cp.j_c
        p = df.ModelParams.reduced(cp.alpha, h, 0.8 * cp.j_c)
        reduced.append(Op("maximize_psi.subcritical", "maximize_psi", (p,), _check_reduced))
    for alpha in (0.27, 0.32, 0.37):
        p = _coexistence_params(float(_jittered(rng, alpha, 0.01)))
        reduced.append(Op("maximize_psi.coexistence", "maximize_psi", (p,), _check_reduced))
    hard = []
    for alpha in NEAR_CRITICAL_ALPHAS:
        cp = df.critical_point(alpha)
        delta = 0.01 * cp.j_c
        p = df.ModelParams.reduced(cp.alpha, cp.h_c - cp.d_c * delta, cp.j_c + delta)
        hard.append(Op("maximize_psi.near_critical", "maximize_psi", (p,), _check_reduced))
    cp = df.critical_point(CRITICAL_ALPHA)
    hard.append(
        Op(
            "maximize_psi.critical",
            "maximize_psi",
            (df.ModelParams.reduced(CRITICAL_ALPHA, cp.h_c, cp.j_c),),
            _check_reduced,
            meta={"d_c": cp.d_c},
            known_fault="maximize_psi at exactly (h_c, J_c) exhausts its iteration budget "
            "and returns a maximizer far from d_c",
        )
    )
    return _interleave(generic, reduced, hard)


def _interleave(*groups):
    """Merge op lists so that each one is spread evenly over the round.

    The hard regimes take most of a round; spreading the cheap generic ops
    between them makes ``op_p50_ms`` sample the whole round rather than one
    short stretch of it.
    """
    keyed = [((i + 0.5) / len(g), k, op) for k, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


# ------------------------------------------------------------ reduced_scan

FAULT_EXPONENT_ALPHA = 0.1
COEXISTENCE_ALPHAS = (0.02, 0.06, 0.18)
DMIX_JPRIME = 3e4


def _exponent_offsets(alpha):
    j_c = df.critical_point(alpha).j_c
    return np.geomspace(0.005 * j_c, 0.05 * j_c, 13)


def _log_jittered(rng, base, rel):
    """Design points on a log scale, each scaled by exp(u) with |u| <= rel."""
    base = np.asarray(base, dtype=float)
    return base * np.exp(rng.uniform(-rel, rel, base.shape))


def reduced_scan_ops(rng):
    """critical-module workflows over alpha in [1e-3, 0.3] and J' in
    [1e4, 1e6].  Seeded design points are scaled by exp(u), |u| <= 0.1.

    critical_point at 8 alphas log-spaced over [1.2e-3, 0.27]; solve_branches
    on 3 alphas log-spaced over [0.012, 0.25] x J/J_c in {0.5, 0.9, 1.2, 2.0}
    with h = h_c + u d_c J_c, |u| <= 0.3; exponent_scan at alpha = 2e-3;
    exponent_scan at alpha = 0.1 (known fault); scaled_coupling_critical at
    J' in {3e4, 3e5}.  coexistence_field (alpha in {0.02, 0.06, 0.18},
    J = 1.5 J_c) and d_mix_scan (J' = 3e4, alpha_c x {1.05 .. 1.4}) take
    the same inputs on every seed: their bracket expansions make the cost
    jump under any jitter, and together they are most of the round.
    """
    ops = []
    for alpha in _log_jittered(rng, np.geomspace(1.2e-3, 0.27, 8), 0.1):
        ops.append(Op("critical_point", "critical_point", (float(alpha),), lambda op, cp, ctx: chk.check_critical(cp)))
    for alpha in _log_jittered(rng, np.geomspace(0.012, 0.25, 3), 0.1):
        cp = df.critical_point(float(alpha))
        for ratio in (0.5, 0.9, 1.2, 2.0):
            rp = df.ReducedParams(cp.alpha, cp.h_c + rng.uniform(-0.3, 0.3) * cp.d_c * cp.j_c, ratio * cp.j_c)
            ops.append(
                Op(
                    "solve_branches",
                    "solve_branches",
                    (rp,),
                    lambda op, br, ctx: chk.check_branches(br, op.args[0].alpha, op.args[0].h, op.args[0].j),
                )
            )
    for alpha in COEXISTENCE_ALPHAS:
        j = 1.5 * df.critical_point(alpha).j_c
        ops.append(
            Op(
                "coexistence_field",
                "coexistence_field",
                (float(alpha), j),
                lambda op, h, ctx: chk.check_coexistence(h, op.args[0], op.args[1]),
            )
        )
    alpha = float(_log_jittered(rng, 2e-3, 0.1))
    ops.append(
        Op(
            "exponent_scan",
            "exponent_scan",
            (alpha, _exponent_offsets(alpha)),
            lambda op, scan, ctx: chk.check_exponent(scan, op.args[0]),
        )
    )
    ops.append(
        Op(
            "exponent_scan",
            "exponent_scan",
            (FAULT_EXPONENT_ALPHA, _exponent_offsets(FAULT_EXPONENT_ALPHA)),
            lambda op, scan, ctx: chk.check_exponent(scan, op.args[0]),
            known_fault="exponent_scan at alpha >= 0.03 raises 'landed on the low-density side'",
        )
    )
    jprimes = _log_jittered(rng, [3e4, 3e5], 0.1)
    for jp in jprimes:
        ops.append(
            Op(
                "scaled_coupling_critical",
                "scaled_coupling_critical",
                (float(jp),),
                lambda op, sc, ctx: chk.check_scaled(sc),
            )
        )
    alpha_c = df.scaled_coupling_critical(DMIX_JPRIME).alpha_c
    ops.append(
        Op(
            "d_mix_scan",
            "d_mix_scan",
            (DMIX_JPRIME, alpha_c * np.array([1.05, 1.1, 1.2, 1.3, 1.4])),
            lambda op, scan, ctx: chk.check_dmix(scan),
        )
    )
    return ops


# ----------------------------------------------------------------- moments

WICK_SIZES = tuple(range(20, 201, 20))


def _moment_field(rng):
    """h_A, h_B in [-1.6, -1.4] so both axes switch from the Jacobi to the
    Legendre rule near N = 144 e^h ~ 29..35; h_AB keeps W positive definite."""
    h_a, h_b = rng.uniform(-1.6, -1.4, 2)
    h_ab = 0.5 * (h_a + h_b) - rng.uniform(0.3, 1.5)
    return np.array([h_a, h_b, h_ab])


def _z_star_value(ctx, n, alpha, h):
    key = ("z_star", n, alpha, tuple(h))
    if key not in ctx.cache:
        ctx.cache[key] = df.z_star(n, alpha, h).log_value
    return ctx.cache[key]


def _check_superadditivity(op, res, ctx):
    n1, n2, alpha, h = op.args
    return chk.check_superadditivity(
        res, _z_star_value(ctx, n1, alpha, h), _z_star_value(ctx, n2, alpha, h), _z_star_value(ctx, n1 + n2, alpha, h)
    )


def moments_ops(rng):
    """Gaussian routes at J = 0 on seeded positive-definite fields, alpha
    in 0.45 +- 0.005.

    z_via_gaussian and log_partition_exact at N = 20, 40, ..., 200 (the Wick
    identity pairs them); z_star at two N on each side of the
    Jacobi/Legendre switch; superadditivity_check once with all sizes on
    the Jacobi side and once on the Legendre side; laplace_maximum at two
    fields.
    """
    alpha = float(_jittered(rng, 0.45, 0.005))  # sets the class count of the enumerations
    h = _moment_field(rng)
    switch = 144.0 * math.exp(min(h[0], h[1]))  # below: both axes Jacobi
    switch_hi = 144.0 * math.exp(max(h[0], h[1]))  # above: both Legendre
    ops = []
    for n in WICK_SIZES:
        ops.append(Op("z_via_gaussian", "z_via_gaussian", (n, alpha, h), _check_wick_pair, meta={"n": n}))
        ops.append(Op("log_partition_exact.small", "log_partition_exact", (n, df.ModelParams(alpha, h=h)), _check_wick_pair, meta={"n": n}))
    for kind, sizes in (
        ("jacobi", (int(0.4 * switch), int(0.8 * switch))),
        ("legendre", (int(1.5 * switch_hi) + 1, int(4.0 * switch_hi) + 1)),
    ):
        for n in sizes:
            ops.append(Op(f"z_star.{kind}", "z_star", (n, alpha, h), lambda op, est, ctx: chk.check_z_star(est)))
    n1, n2 = rng.integers(4, int(0.4 * switch) + 1, 2)
    ops.append(Op("superadditivity_check.jacobi", "superadditivity_check", (int(n1), int(n2), alpha, h), _check_superadditivity))
    n1, n2 = rng.integers(int(1.2 * switch_hi) + 1, 100, 2)
    ops.append(Op("superadditivity_check.legendre", "superadditivity_check", (int(n1), int(n2), alpha, h), _check_superadditivity))
    for _ in range(2):
        a = float(rng.uniform(0.2, 0.8))
        w = df.weight_matrix(_moment_field(rng))
        ops.append(
            Op(
                "laplace_maximum",
                "laplace_maximum",
                (a, w),
                lambda op, lm, ctx: chk.check_laplace(lm, op.args[0], op.args[1].w, ctx.rng),
            )
        )
    return ops


def _check_wick_pair(op, out, ctx):
    """Each half of a Wick pair stores its value; the second one compares."""
    n = op.meta["n"]
    slot = ctx.cache.setdefault(("wick", n), {})
    if op.call == "z_via_gaussian":
        slot["gauss"] = out
    else:
        slot["exact"] = out
    if len(slot) < 2:
        return []
    return chk.check_wick(slot["gauss"], slot["exact"])


BUILDERS = {
    "finite_n": finite_n_ops,
    "phase": phase_ops,
    "reduced_scan": reduced_scan_ops,
    "moments": moments_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """The ops of one round of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng)


def warm_up(workload: str) -> None:
    """One small call of each op kind, so lazy imports and the quadrature
    node caches are filled before anything is timed."""
    if workload == "finite_n":
        df.log_partition_exact(40, df.ModelParams(0.5))
    elif workload == "phase":
        df.maximize_psi(df.ModelParams(0.5))
    elif workload == "reduced_scan":
        cp = df.critical_point(0.2)
        df.solve_branches(df.ReducedParams(0.2, cp.h_c, 1.5 * cp.j_c))
        df.scaled_coupling_critical(1e4)
    else:
        h = np.array([-1.5, -1.5, -2.0])
        df.z_via_gaussian(40, 0.5, h)
        df.log_partition_exact(40, df.ModelParams(0.5, h=h))
        df.z_star(8, 0.5, h)
        df.z_star(64, 0.5, h)
        df.laplace_maximum(0.5, df.weight_matrix(h))
