"""Each benchmark check accepts the program's answer and rejects a perturbed
one, and the failed-op count picks up ops that hit a known fault.

Run with ``python -m pytest bench/test_bench_checks.py``.
"""

import dataclasses
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import bench_checks as chk  # noqa: E402
import bench_workloads as wl  # noqa: E402
import dimerfield as df  # noqa: E402

GENERIC = df.ModelParams(
    0.45,
    h=[0.3, -0.4, 0.2],
    J=[[0.5, -0.2, 0.3], [-0.2, 0.1, 0.4], [0.3, 0.4, -0.6]],
)


def _shift(point, delta):
    return df.DimerDensities(point.d_a, point.d_b, point.d_ab + delta)


def _coexistence(alpha=0.3):
    cp = df.critical_point(alpha)
    j = 1.5 * cp.j_c
    return j, df.coexistence_field(alpha, j, cp=cp)


def test_direct_class_sum():
    log_z = df.log_partition_exact(24, GENERIC)
    ref = chk.direct_log_z(24, GENERIC.alpha, GENERIC.h, GENERIC.J)
    assert chk.check_log_z_direct(log_z, ref) == []
    assert chk.check_log_z_direct(log_z + 1e-6, ref)


def test_envelope():
    p = df.pressure(GENERIC)
    log_z = df.log_partition_exact(100, GENERIC)
    assert chk.check_envelope(log_z, 100, p) == []
    assert chk.check_envelope(log_z + 2.0 * np.log(100), 100, p)


def test_density_finite_difference():
    n, step = 60, 1e-5
    shifted = []
    for sign in (1.0, -1.0):
        h = GENERIC.h.copy()
        h[2] += sign * step
        shifted.append(df.log_partition_exact(n, df.ModelParams(GENERIC.alpha, h=h, J=GENERIC.J)))
    mean = df.gibbs_expected_densities(n, GENERIC)[2]
    assert chk.check_fd_density(shifted[0], shifted[1], step, n, mean) == []
    assert chk.check_fd_density(shifted[0], shifted[1], step, n, mean * (1 + 1e-4))


def test_generic_maximizer():
    maxima = df.maximize_psi(GENERIC)
    sample = chk.sample_region(np.random.default_rng(0), GENERIC.alpha, 20_000)
    sampled = float(np.max(chk.psi_ref(*sample, GENERIC.alpha, GENERIC.h, GENERIC.J)))
    args = (GENERIC.alpha, GENERIC.h, GENERIC.J, sampled)
    assert chk.check_generic_maximizers(maxima, *args) == []
    (point, value), = maxima
    assert chk.check_generic_maximizers([(_shift(point, 1e-4), value)], *args)
    assert chk.check_generic_maximizers([(point, value + 1e-8)], *args)
    assert chk.check_generic_maximizers(maxima, *args[:3], value + 1e-9)


def test_reduced_maximizers_at_coexistence():
    alpha = 0.3
    j, h = _coexistence(alpha)
    maxima = df.maximize_psi(df.ModelParams.reduced(alpha, h, j))
    assert len(maxima) == 2
    assert chk.check_reduced_maximizers(maxima, alpha, h, j) == []
    (p0, v0), second = maxima
    assert chk.check_reduced_maximizers([(_shift(p0, 1e-4), v0), second], alpha, h, j)
    assert chk.check_reduced_maximizers([second], alpha, h, j)


@pytest.mark.parametrize("alpha,offsets", [(0.3, [2.2e-3]), (0.1, np.linspace(-1.1e-3, 0.97e-3, 6))])
def test_critical_maximizer_faults_are_rejected(alpha, offsets):
    """Maximizer sets like those maximize_psi returns at (h_c, J_c): one
    point 2.2e-3 off d_c (alpha = 0.3), six points around d_c (alpha = 0.1)."""
    cp = df.critical_point(alpha)
    x = chk.pos_root(alpha - cp.d_c)
    y = chk.pos_root(1 - alpha - cp.d_c)
    exact = df.DimerDensities(0.5 * x * x, 0.5 * y * y, cp.d_c)
    assert chk.check_reduced_maximizers([(exact, 0.0)], alpha, cp.h_c, cp.j_c, critical_d=cp.d_c) == []
    faulty = [(_shift(exact, off), 0.0) for off in offsets]
    assert chk.check_reduced_maximizers(faulty, alpha, cp.h_c, cp.j_c, critical_d=cp.d_c)


def test_branches():
    cp = df.critical_point(0.05)
    j, h = 1.2 * cp.j_c, cp.h_c - 1.2 * cp.j_c * cp.d_c + cp.j_c * cp.d_c
    branches = df.solve_branches(df.ReducedParams(0.05, h, j))
    assert chk.check_branches(branches, 0.05, h, j) == []
    moved = [dataclasses.replace(branches[0], d=branches[0].d * (1 + 1e-6))] + branches[1:]
    assert chk.check_branches(moved, 0.05, h, j)
    relabelled = [dataclasses.replace(b, stability="unstable") for b in branches]
    assert chk.check_branches(relabelled, 0.05, h, j)


def test_critical_point():
    cp = df.critical_point(0.01)
    assert chk.check_critical(cp) == []
    assert chk.check_critical(dataclasses.replace(cp, d_c=cp.d_c * (1 + 1e-6), d_c_refined=None))
    assert chk.check_critical(dataclasses.replace(cp, j_c=cp.j_c * (1 + 1e-8)))
    assert chk.check_critical(dataclasses.replace(cp, h_c=cp.h_c + 1e-8))


def test_coexistence_tie():
    j, h = _coexistence(0.05)
    assert chk.check_coexistence(h, 0.05, j) == []
    assert chk.check_coexistence(h + 1e-6, 0.05, j)


def test_exponent_scan():
    alpha = 1e-3
    scan = df.exponent_scan(alpha, wl._exponent_offsets(alpha))
    assert chk.check_exponent(scan, alpha) == []
    assert chk.check_exponent(dataclasses.replace(scan, exponent=0.45), alpha)
    assert chk.check_exponent(dataclasses.replace(scan, prefactor=1.2 * scan.prefactor), alpha)
    assert chk.check_exponent(dataclasses.replace(scan, deviations=scan.deviations * (1 + 1e-4)), alpha)


def test_scaled_and_dmix():
    sc = df.scaled_coupling_critical(1e5)
    assert chk.check_scaled(sc) == []
    assert chk.check_scaled(dataclasses.replace(sc, alpha_c=sc.alpha_c * (1 + 1e-6)))
    scan = df.d_mix_scan(1e5, sc.alpha_c * np.array([1.1, 1.3]))
    assert chk.check_dmix(scan) == []
    assert chk.check_dmix(dataclasses.replace(scan, d_mix=scan.d_mix + 1e-9))
    assert chk.check_dmix(dataclasses.replace(scan, h_values=scan.h_values + 1e-6))


def test_moments():
    h = np.array([-1.5, -1.45, -2.0])
    gauss = df.z_via_gaussian(60, 0.45, h)
    log_z = df.log_partition_exact(60, df.ModelParams(0.45, h=h))
    assert chk.check_wick(gauss, log_z) == []
    assert chk.check_wick(gauss, log_z + 1e-6)
    est = df.z_star(12, 0.45, h)
    assert chk.check_z_star(est) == []
    assert chk.check_z_star(dataclasses.replace(est, error_estimate=1e-6))
    res = df.superadditivity_check(5, 7, 0.45, h)
    z = [df.z_star(n, 0.45, h).log_value for n in (5, 7, 12)]
    assert chk.check_superadditivity(res, *z) == []
    assert chk.check_superadditivity(res, z[0] + 1e-6, z[1], z[2])
    assert chk.check_superadditivity(dataclasses.replace(res, holds=False), *z)


def test_laplace_maximum():
    w = df.weight_matrix([-1.5, -1.45, -2.0])
    lm = df.laplace_maximum(0.45, w)
    rng = np.random.default_rng(0)
    assert chk.check_laplace(lm, 0.45, w.w, rng) == []
    assert chk.check_laplace(dataclasses.replace(lm, xi=lm.xi + 1e-4), 0.45, w.w, rng)
    assert chk.check_laplace(dataclasses.replace(lm, value=lm.value + 1e-9), 0.45, w.w, rng)


def test_failed_count_picks_up_known_faults(monkeypatch):
    """The two faulty ops are counted in every round and leave the run
    correct; a failing op without a known fault makes it incorrect."""
    cp = df.critical_point(wl.CRITICAL_ALPHA)
    x = chk.pos_root(cp.alpha - cp.d_c)
    y = chk.pos_root(1 - cp.alpha - cp.d_c)
    off = df.DimerDensities(0.5 * x * x, 0.5 * y * y, cp.d_c + 2.2e-3)

    def exponent_fault(alpha, offsets):
        raise RuntimeError("offset landed on the low-density side; not the branching regime")

    monkeypatch.setattr(df, "maximize_psi", lambda params: [(off, 0.25)])
    monkeypatch.setattr(df, "exponent_scan", exponent_fault)
    critical = [op for op in wl.phase_ops(np.random.default_rng(0)) if op.known_fault][0]
    exponent = [op for op in wl.reduced_scan_ops(np.random.default_rng(0)) if op.known_fault][0]
    sound = wl.Op("critical_point", "critical_point", (0.2,), lambda op, out, ctx: chk.check_critical(out))
    ops = [critical, exponent, sound]
    verdicts = wl.Verdicts("phase", ops, seed=0)
    for _ in range(3):
        verdicts.add([wl.run_op(op)[0] for op in ops])
    assert (verdicts.attempted, verdicts.failed, verdicts.correct) == (9, 6, True)
    assert [k["kind"] for k in verdicts.known] == ["maximize_psi.critical", "exponent_scan"]

    bad = wl.Op("critical_point", "critical_point", (0.2,), lambda op, out, ctx: ["wrong"])
    verdicts = wl.Verdicts("phase", [bad], seed=0)
    verdicts.add([wl.run_op(bad)[0]])
    assert (verdicts.failed, verdicts.correct) == (1, False)
