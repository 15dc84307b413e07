"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4 is marked strict-xfail: its middle clause asserts that
J_c(alpha) - 4/alpha vanishes like O(alpha), but the true expansion carries
the constant -(5 - sqrt 5)/10 ~ -0.2764 (the measured residuals 0.249,
0.268, 0.274 at alpha = 1e-2, 3e-3, 1e-3 converge to it instead of
shrinking), so that bound is not attainable by any correct solver.  The
check is kept as stated to document the discrepancy.
"""

import numpy as np
import pytest

from dimerfield import (
    DimerDensities,
    ModelParams,
    ReducedParams,
    critical_point,
    d_mix_scan,
    entropy,
    exponent_scan,
    f_alpha_d2,
    f_alpha_d3,
    fixed_point_residual,
    fixed_point_solve,
    grad_psi,
    log_partition_exact,
    maximize_psi,
    mixing_lemma_checks,
    pressure,
    psi,
    scaled_coupling_critical,
    solve_branches,
    superadditivity_check,
    z_star,
    z_via_gaussian,
)
from dimerfield.critical import H_C_LIMIT


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _random_pd_field(rng, margin):
    while True:
        h = rng.uniform(-2.0, 1.0, size=3)
        if h[0] + h[1] - 2.0 * h[2] > margin:
            return h


def test_criterion_01_pressure_convergence():
    params = ModelParams(alpha=0.5)
    p = pressure(params)
    ns = np.array([50, 100, 200, 400])
    errors = np.array([abs(log_partition_exact(n, params) / n - p) for n in ns])
    ratios = errors / (np.log(ns) / ns)
    ok = (
        errors[-1] < 0.02
        and np.all(np.diff(errors) < 0.0)
        and ratios.max() / ratios.min() < 2.0
    )
    _report(
        1,
        ok,
        f"|p_N - p| at N=400 is {errors[-1]:.2e} (< 0.02), errors decreasing, "
        f"log(N)/N envelope ratio band {ratios.min():.4f}..{ratios.max():.4f}",
    )


def test_criterion_02_stationarity_equals_fixed_point():
    rng = np.random.default_rng(1234)
    worst_resid = 0.0
    worst_grad = 0.0
    for _ in range(20):
        params = ModelParams(
            alpha=rng.uniform(0.15, 0.85),
            h=rng.uniform(-1.5, 0.5, 3),
            J=rng.uniform(-1.0, 1.0, (3, 3)),
        )
        for point, _ in maximize_psi(params):
            worst_resid = max(worst_resid, fixed_point_residual(params, point))
        for d0 in (None, DimerDensities(0.0, 0.0, 0.0)):
            out = fixed_point_solve(params, d0)
            worst_grad = max(worst_grad, float(np.abs(grad_psi(out, params)).max()))
    ok = worst_resid < 1e-10 and worst_grad < 1e-8
    _report(
        2,
        ok,
        f"20 random parameter sets: max fixed-point residual at maximizers "
        f"{worst_resid:.2e} (< 1e-10), max grad norm at solver outputs "
        f"{worst_grad:.2e} (< 1e-8)",
    )


def test_criterion_03_pressure_gradient_is_density():
    sets = [
        ModelParams(alpha=0.5),
        ModelParams(alpha=0.3, h=[-0.5, 0.2, -0.3]),
        ModelParams(alpha=0.62, h=[0.1, -0.4, 0.3], J=0.4 * np.eye(3)),
        ModelParams(alpha=0.5, h=[-1.0, -1.0, 0.5], J=np.diag([0.5, -0.3, 0.8])),
        ModelParams(
            alpha=0.25,
            h=[0.2, 0.1, -0.2],
            J=[[0.0, 0.3, 0.2], [0.3, 0.0, -0.1], [0.2, -0.1, 0.0]],
        ),
    ]
    step = 1e-5
    worst = 0.0
    for params in sets:
        d_star = maximize_psi(params)[0][0].vector
        for i in range(3):
            hp, hm = params.h.copy(), params.h.copy()
            hp[i] += step
            hm[i] -= step
            fd = (
                pressure(ModelParams(alpha=params.alpha, h=hp, J=params.J))
                - pressure(ModelParams(alpha=params.alpha, h=hm, J=params.J))
            ) / (2 * step)
            worst = max(worst, abs(fd - d_star[i]))
    ok = worst < 1e-5
    _report(
        3,
        ok,
        f"5 parameter sets away from coexistence: max |dp/dh_i - d*_i| = "
        f"{worst:.2e} (< 1e-5)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "J_c(alpha) - 4/alpha tends to the constant -(5 - sqrt 5)/10 "
        "~ -0.2764 rather than O(alpha); the asserted bound |J_c - 4/alpha| "
        "<= 5 alpha cannot hold (the d_c and h_c clauses do hold)"
    ),
)
def test_criterion_04_critical_point_expansions():
    alphas = (1e-2, 3e-3, 1e-3)
    d_ratios, j_ratios, h_ratios = [], [], []
    clauses = []
    for alpha in alphas:
        cp = critical_point(alpha)
        res_d = abs(cp.d_c - alpha / 2.0)
        res_j = abs(cp.j_c - 4.0 / alpha)
        res_h = abs(cp.h_c - H_C_LIMIT)
        d_ratios.append(res_d / alpha**3)
        j_ratios.append(res_j / alpha)
        h_ratios.append(res_h / alpha)
        clauses.append(
            (res_d <= 5 * alpha**3, res_j <= 5 * alpha, res_h <= 5 * alpha)
        )
    d_ok = all(c[0] for c in clauses) and max(d_ratios) / min(d_ratios) < 3.0
    j_ok = all(c[1] for c in clauses) and max(j_ratios) / min(j_ratios) < 3.0
    h_ok = all(c[2] for c in clauses) and max(h_ratios) / min(h_ratios) < 3.0
    _report(
        4,
        d_ok and j_ok and h_ok,
        f"d_c clause {'PASS' if d_ok else 'FAIL'} (|res|/a^3 = "
        f"{', '.join(f'{r:.3f}' for r in d_ratios)}); "
        f"J_c clause {'PASS' if j_ok else 'FAIL'} (|res|/a = "
        f"{', '.join(f'{r:.1f}' for r in j_ratios)}, i.e. |res| -> 0.2764 = "
        f"(5-sqrt5)/10, not O(a)); "
        f"h_c clause {'PASS' if h_ok else 'FAIL'} (|res|/a = "
        f"{', '.join(f'{r:.3f}' for r in h_ratios)})",
    )


def test_criterion_05_critical_exponent():
    cp = critical_point(1e-3)
    offsets = np.geomspace(10.0, 0.05 * cp.j_c, 13)
    scan = exponent_scan(1e-3, offsets)
    target = np.sqrt(3.0 * (1e-3) ** 3 / 16.0)
    ok = abs(scan.exponent - 0.5) <= 0.02 and abs(scan.prefactor / target - 1.0) <= 0.10
    _report(
        5,
        ok,
        f"offsets in [10, 0.05 J_c]=[10, {0.05 * cp.j_c:.1f}]: exponent "
        f"{scan.exponent:.4f} (0.50 +- 0.02), prefactor {scan.prefactor:.5g} "
        f"vs sqrt(3 a^3/16) = {target:.5g} ({scan.prefactor / target - 1.0:+.2%})",
    )


def test_criterion_06_branching_figure():
    cp = critical_point(1e-3)
    at_critical = solve_branches(ReducedParams(1e-3, cp.h_c, cp.j_c))
    globals_critical = [b for b in at_critical if b.stability == "global-max"]

    shifted = ReducedParams(1e-3, cp.h_c - cp.d_c * 1e3, cp.j_c + 1e3)
    branches = solve_branches(shifted)
    globals_shifted = [b for b in branches if b.stability == "global-max"]
    tie = (
        abs(globals_shifted[0].psi1_value - globals_shifted[-1].psi1_value)
        if len(globals_shifted) >= 2
        else np.inf
    )
    ok = len(globals_critical) == 1 and len(globals_shifted) == 2 and tie <= 1e-8
    _report(
        6,
        ok,
        f"at (J_c, h_c): {len(globals_critical)} global maximizer; at "
        f"(J_c+1e3, h_c - d_c*1e3): {len(globals_shifted)} tied within "
        f"{tie:.2e} (<= 1e-8)",
    )


def test_criterion_07_scaled_coupling():
    sc = scaled_coupling_critical(160000.0)
    alpha_err = abs(sc.alpha_c / 0.005 - 1.0)
    alphas = sc.alpha_c * (1.0 + np.geomspace(0.02, 0.2, 9))
    scan = d_mix_scan(160000.0, alphas)
    ok = alpha_err <= 0.05 and abs(scan.exponent - 0.5) <= 0.03
    _report(
        7,
        ok,
        f"alpha_c = {sc.alpha_c:.6f} ({alpha_err:+.2%} of 0.005, within 5%), "
        f"d_mix exponent along the coexistence line {scan.exponent:.4f} "
        f"(0.50 +- 0.03)",
    )


def test_criterion_08_wick_identity():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(10):
        h = _random_pd_field(rng, margin=0.1)
        alpha = rng.uniform(0.2, 0.8)
        for n in range(2, 41):
            exact = log_partition_exact(n, ModelParams(alpha=alpha, h=h))
            est = z_via_gaussian(n, alpha, h)
            worst = max(worst, abs(est.log_value - exact) / max(1.0, abs(exact)))
    ok = worst < 1e-6
    _report(
        8,
        ok,
        f"quadrature vs enumeration over 10 random fields x N=2..40: worst "
        f"relative deviation {worst:.2e} (< 1e-6)",
    )


def test_criterion_09_superadditivity():
    rng = np.random.default_rng(9001)
    min_slack = np.inf
    all_hold = True
    for _ in range(50):
        h = _random_pd_field(rng, margin=0.4)
        res = superadditivity_check(
            int(rng.integers(1, 41)),
            int(rng.integers(1, 41)),
            rng.uniform(0.25, 0.75),
            h,
        )
        all_hold = all_hold and res.holds
        min_slack = min(min_slack, res.slack)
    monotone = True
    for h, alpha in (([0.0, 0.0, -1.0], 0.5), ([-0.5, 0.3, -0.6], 0.35)):
        vals = [z_star(2**k, alpha, h).log_value / 2**k for k in range(1, 8)]
        monotone = monotone and all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    ok = all_hold and min_slack > -1e-9 and monotone
    _report(
        9,
        ok,
        f"50 random decompositions hold (min slack {min_slack:.3f}), and "
        f"(1/N) log Z*_N is nondecreasing along N = 2^k, k <= 7",
    )


def test_criterion_10_property_suites():
    rng = np.random.default_rng(31415)

    # entropy concavity on random segments
    concave = True
    for _ in range(200):
        alpha = rng.uniform(0.15, 0.85)

        def draw():
            d_ab = rng.uniform(0.0, min(alpha, 1 - alpha)) * 0.95
            d_a = rng.uniform(0.0, 0.5 * (alpha - d_ab)) * 0.95
            d_b = rng.uniform(0.0, 0.5 * (1 - alpha - d_ab)) * 0.95
            return DimerDensities(d_a, d_b, d_ab)

        d1, d2 = draw(), draw()
        t = rng.uniform(0.0, 1.0)
        mid = DimerDensities(*(t * d1.vector + (1 - t) * d2.vector))
        concave = concave and entropy(mid, alpha) >= (
            t * entropy(d1, alpha) + (1 - t) * entropy(d2, alpha) - 1e-12
        )

    # f'' changes sign exactly once (f''' > 0 backs the uniqueness)
    single_zero = True
    for alpha in (1e-4, 1e-3, 1e-2, 0.1, 0.3):
        top = min(alpha, 1.0 - alpha)
        grid = np.geomspace(top * 1e-10, top / 2, 2000)
        grid = np.concatenate([grid, top - grid[::-1]])
        vals = f_alpha_d2(grid, alpha)
        changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        single_zero = single_zero and changes == 1 and np.all(f_alpha_d3(grid, alpha) > 0)

    # mixing-lemma sweeps
    rep = mixing_lemma_checks(500, seed=161803)
    lemmas = (
        rep.covariance_max_error < 1e-14
        and rep.inequality_violations == 0
        and rep.equality_max_gap < 1e-12
        and rep.min_gap_off_diagonal > 0.0
    )

    # gradient against central finite differences
    grad_ok = True
    step = 1e-6
    for _ in range(20):
        alpha = rng.uniform(0.2, 0.8)
        params = ModelParams(
            alpha=alpha, h=rng.uniform(-1, 1, 3), J=rng.uniform(-1, 1, (3, 3))
        )
        d_ab = rng.uniform(0.2, 0.8) * min(alpha, 1 - alpha) * 0.8
        d_a = rng.uniform(0.2, 0.8) * 0.5 * (alpha - d_ab) * 0.8
        d_b = rng.uniform(0.2, 0.8) * 0.5 * (1 - alpha - d_ab) * 0.8
        d = DimerDensities(d_a, d_b, d_ab)
        g = grad_psi(d, params)
        for i in range(3):
            up, dn = d.vector.copy(), d.vector.copy()
            up[i] += step
            dn[i] -= step
            fd = (psi(DimerDensities(*up), params) - psi(DimerDensities(*dn), params)) / (
                2 * step
            )
            grad_ok = grad_ok and abs(fd - g[i]) / max(1.0, abs(g[i])) < 1e-6

    ok = concave and single_zero and lemmas and grad_ok
    _report(
        10,
        ok,
        f"entropy concavity {'PASS' if concave else 'FAIL'}, single f'' zero "
        f"{'PASS' if single_zero else 'FAIL'}, mixing lemmas "
        f"{'PASS' if lemmas else 'FAIL'}, gradient-vs-FD "
        f"{'PASS' if grad_ok else 'FAIL'}",
    )
