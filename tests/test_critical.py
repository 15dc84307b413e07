"""Reduced one-dimensional model: f and derivatives, critical point, scans."""

import numpy as np
import pytest

from dimerfield import (
    ModelParams,
    ReducedParams,
    coexistence_field,
    critical_point,
    critical_residuals,
    d_mix_scan,
    exponent_scan,
    f_alpha_d2,
    f_alpha_d3,
    maximize_psi,
    mixed_dimer_fraction,
    psi,
    psi1,
    reduced_density_max,
    scaled_coupling_critical,
    solve_branches,
)
from dimerfield.critical import H_C_LIMIT, _f1_raw, _f_raw, _pos_root, _xy
from dimerfield.params import DimerDensities


class TestMonomerRoots:
    def test_upper_endpoint(self):
        assert _xy(0.3, 0.3)[0] == 0.0

    def test_closed_form(self):
        assert _xy(0.0, 0.5)[0] == pytest.approx((-1 + np.sqrt(3.0)) / 2, rel=1e-14)

    def test_half_symmetry(self):
        x, y = _xy(0.0, 0.5)
        assert y == pytest.approx(x, rel=1e-15)

    def test_quadratic_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            alpha = rng.uniform(0.01, 0.99)
            d = rng.uniform(0.0, alpha)
            x = _pos_root(alpha - d)
            assert abs(x * x + x - (alpha - d)) < 1e-14
            dy = rng.uniform(0.0, 1.0 - alpha)
            y = _pos_root(1.0 - alpha - dy)
            assert abs(y * y + y - (1.0 - alpha - dy)) < 1e-14


class TestPsi1:
    def test_positive_at_zero_mixed_density(self):
        # intra-population dimers still carry entropy at d = 0
        value = psi1(0.0, ReducedParams(0.3, 0.0, 1e-9))
        assert value > 0.1

    def test_agrees_with_full_psi(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha = rng.uniform(0.05, 0.9)
            rp = ReducedParams(alpha, rng.uniform(-3, 1), rng.uniform(0.1, 5.0))
            d = rng.uniform(0.05, 0.95) * reduced_density_max(alpha)
            x, y = _xy(d, alpha)
            point = DimerDensities(0.5 * x * x, 0.5 * y * y, d)
            assert psi1(d, rp) == pytest.approx(
                psi(point, ModelParams.reduced(rp.alpha, rp.h, rp.j)), rel=1e-12
            )


class TestFAlpha:
    def test_diverges_down_at_zero(self):
        assert _f_raw(1e-12, 0.5) < -20.0

    def test_diverges_up_at_alpha(self):
        assert _f_raw(0.5 - 1e-12, 0.5) > 10.0

    @pytest.mark.parametrize("alpha", [0.5, 0.1, 1e-3])
    def test_first_derivative_positive(self, alpha):
        grid = np.geomspace(alpha * 1e-8, alpha * (1 - 1e-8), 1000)
        assert np.all(_f1_raw(grid, alpha) > 0.0)

    @pytest.mark.parametrize("alpha", [0.4, 0.07, 2e-3])
    def test_derivatives_match_finite_differences(self, alpha):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = rng.uniform(0.1, 0.9) * alpha
            step = 1e-6 * alpha
            for fn, dfn in (
                (_f_raw, _f1_raw),
                (_f1_raw, f_alpha_d2),
                (f_alpha_d2, f_alpha_d3),
            ):
                fd = (fn(d + step, alpha) - fn(d - step, alpha)) / (2 * step)
                exact = dfn(d, alpha)
                assert abs(fd - exact) / max(1.0, abs(exact)) < 1e-6

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            f_alpha_d2(0.5, 0.5)
        with pytest.raises(ValueError):
            f_alpha_d3(0.0, 0.5)


class TestCriticalPoint:
    def test_defining_residuals(self):
        for alpha in (1e-3, 1e-2, 0.1, 0.4):
            cp = critical_point(alpha)
            r2, r1, r0 = critical_residuals(cp)
            assert r2 < 1e-9
            assert r1 < 1e-9
            assert r0 < 1e-9
            assert 0.0 < cp.d_c < alpha
            assert cp.j_c > 0.0

    def test_small_alpha_expansions(self):
        # true expansions: d_c = alpha/2 + O(alpha^3),
        # J_c = 4/alpha - (5 - sqrt 5)/10 + O(alpha),
        # h_c = -2 - log((sqrt 5 - 1)/2) + O(alpha)
        j_const = (5.0 - np.sqrt(5.0)) / 10.0
        for alpha in (1e-2, 3e-3, 1e-3):
            cp = critical_point(alpha)
            assert abs(cp.d_c - alpha / 2) <= 5 * alpha**3
            assert abs(cp.j_c - (4.0 / alpha - j_const)) <= 5 * alpha
            assert abs(cp.h_c - H_C_LIMIT) <= 5 * alpha

    def test_residual_ratios_bounded(self):
        alphas = (1e-2, 3e-3, 1e-3)
        d_ratios = []
        h_ratios = []
        for alpha in alphas:
            cp = critical_point(alpha)
            d_ratios.append(abs(cp.d_c - alpha / 2) / alpha**3)
            h_ratios.append(abs(cp.h_c - H_C_LIMIT) / alpha)
        assert max(d_ratios) / min(d_ratios) < 3.0
        assert max(h_ratios) / min(h_ratios) < 3.0

    @pytest.mark.parametrize("alpha", [1e-4, 1e-3, 1e-2, 0.1, 0.3])
    def test_second_derivative_single_sign_change(self, alpha):
        grid = np.geomspace(alpha * 1e-10, alpha / 2, 2000)
        grid = np.concatenate([grid, alpha - grid[::-1]])
        vals = f_alpha_d2(grid, alpha)
        changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        assert changes == 1
        # strictly increasing f'' explains the single zero
        assert np.all(f_alpha_d3(grid, alpha) > 0.0)

    def test_reduced_pressure_profile_peaks_at_critical_density(self):
        # at (J_c, h_c) the reduced pressure has one flat top near d_c
        cp = critical_point(1e-3)
        rp = ReducedParams(1e-3, cp.h_c, cp.j_c)
        grid = np.linspace(1e-7, 1e-3 - 1e-7, 20001)
        profile = psi1(grid, rp)
        top = grid[np.argmax(profile)]
        assert abs(top - cp.d_c) < 2e-5
        # single peak: no secondary local maximum anywhere off the plateau
        rising = np.flatnonzero(np.diff(profile) > 0)
        assert rising.size == 0 or rising.max() < np.argmax(profile) + 5

    def test_reduced_pressure_flat_to_fourth_order(self):
        for alpha in (1e-3, 0.05):
            cp = critical_point(alpha)
            d, h, j = cp.d_c, cp.h_c, cp.j_c
            # psi1' = h + J d - f, psi1'' = J - f', psi1''' = -f'', all zero
            # at the critical point; psi1'''' = -f''' < 0
            assert abs(h + j * d - _f_raw(d, alpha)) < 1e-6
            assert abs(j - _f1_raw(d, alpha)) / j < 1e-6
            assert abs(f_alpha_d2(d, alpha)) * d**3 < 1e-6
            assert -f_alpha_d3(d, alpha) < 0.0


class TestBranches:
    def test_subcritical_single_root(self):
        cp = critical_point(1e-3)
        for h in (-3.0, cp.h_c, 0.0):
            branches = solve_branches(ReducedParams(1e-3, h, cp.j_c / 2))
            assert len(branches) == 1
            assert branches[0].stability == "global-max"

    def test_coexistence_three_roots(self):
        cp = critical_point(1e-3)
        rp = ReducedParams(1e-3, cp.h_c - cp.d_c * 1e3, cp.j_c + 1e3)
        branches = solve_branches(rp)
        assert len(branches) == 3
        assert [b.stability for b in branches] == [
            "global-max",
            "unstable",
            "global-max",
        ]
        assert abs(branches[0].psi1_value - branches[2].psi1_value) < 1e-8

    def test_roots_satisfy_consistency(self):
        cp = critical_point(5e-3)
        rp = ReducedParams(5e-3, cp.h_c - cp.d_c * 100.0, cp.j_c + 100.0)
        for b in solve_branches(rp):
            assert abs(_f_raw(b.d, 5e-3) - rp.h - rp.j * b.d) < 1e-10

    def test_saturated_phase(self):
        cp = critical_point(1e-2)
        branches = solve_branches(ReducedParams(1e-2, cp.h_c + 8.0, cp.j_c * 1.5))
        assert len(branches) == 1
        assert branches[0].d > 0.9 * 1e-2

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 0.3, 0.5])
    def test_three_roots_close_to_critical_point(self, alpha):
        # on h = h_c - d_c delta, J = J_c + delta the middle root is d_c and
        # the outer ones sit about 0.2% of d_c away at delta = 1e-6 J_c
        cp = critical_point(alpha)
        delta = 1e-6 * cp.j_c
        branches = solve_branches(ReducedParams(alpha, cp.h_c - cp.d_c * delta, cp.j_c + delta))
        assert len(branches) == 3
        assert branches[1].stability == "unstable"
        assert abs(branches[1].d - cp.d_c) <= 1e-9 * cp.d_c
        assert branches[0].stability != "unstable"
        assert branches[2].stability != "unstable"

    def test_root_beyond_reach_raises(self):
        # the only root, about exp(-40), lies below 1e-12 of the interval
        with pytest.raises(RuntimeError, match="beyond reach"):
            solve_branches(ReducedParams(0.3, -40.0, 1.0))
        # f' reaches J = 1e13 only closer to the ends than top * 1e-12
        with pytest.raises(RuntimeError, match="beyond reach"):
            solve_branches(ReducedParams(0.3, 0.0, 1e13))

    def test_single_sign_change_below_jc_over_field_grid(self):
        cp = critical_point(1e-2)
        for h in np.linspace(cp.h_c - 3, cp.h_c + 3, 9):
            branches = solve_branches(ReducedParams(1e-2, float(h), 0.95 * cp.j_c))
            assert len(branches) == 1


class TestReductionConsistency:
    def test_three_dimensional_maximizer_matches_branches(self):
        rng = np.random.default_rng(77)
        tested = 0
        while tested < 20:
            alpha = rng.uniform(0.08, 0.9)
            cp = critical_point(alpha)
            j = float(rng.uniform(0.3, 1.4) * cp.j_c)
            h = float(cp.h_c + rng.uniform(-1.0, 1.0))
            rp = ReducedParams(alpha, h, j)
            tops = [b for b in solve_branches(rp) if b.stability == "global-max"]
            if len(tops) != 1:
                continue  # skip accidental coexistence draws
            tested += 1
            results = maximize_psi(ModelParams.reduced(alpha, h, j))
            assert len(results) == 1
            point = results[0][0]
            d = tops[0].d
            x, y = _xy(d, alpha)
            assert abs(point.d_ab - d) < 1e-8
            assert abs(point.d_a - 0.5 * x * x) < 1e-8
            assert abs(point.d_b - 0.5 * y * y) < 1e-8


class TestExponentScan:
    def test_square_root_law_one_decade(self):
        scan = exponent_scan(1e-3, np.geomspace(10.0, 100.0, 9))
        assert scan.exponent == pytest.approx(0.5, abs=0.02)
        assert scan.prefactor == pytest.approx(np.sqrt(3e-9 / 16.0), rel=0.10)

    def test_wider_alpha(self):
        cp = critical_point(1e-2)
        scan = exponent_scan(1e-2, np.geomspace(0.0025 * cp.j_c, 0.025 * cp.j_c, 9))
        assert scan.exponent == pytest.approx(0.5, abs=0.02)
        assert scan.prefactor == pytest.approx(np.sqrt(3e-6 / 16.0), rel=0.15)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3])
    def test_upper_root_at_moderate_alpha(self, alpha):
        # the CLI's default offsets; at 0.05 and 0.1 the lower root is the
        # global maximum on the pivot line, and the scan still takes the upper
        cp = critical_point(alpha)
        scan = exponent_scan(alpha, np.geomspace(0.005 * cp.j_c, 0.05 * cp.j_c, 13))
        assert scan.exponent == pytest.approx(0.5, abs=0.02)
        assert scan.prefactor == pytest.approx(np.sqrt(3.0 * alpha**3 / 16.0), rel=0.05)
        for delta, dev in zip(scan.offsets, scan.deviations):
            rp = ReducedParams(alpha, cp.h_c - cp.d_c * delta, cp.j_c + delta)
            assert cp.d_c + dev == pytest.approx(max(b.d for b in solve_branches(rp)), rel=1e-12)

    def test_rejects_large_offsets(self):
        with pytest.raises(ValueError):
            exponent_scan(1e-3, [10.0, 1000.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exponent_scan(1e-3, [-1.0, 10.0])

    def test_rejects_nan(self):
        # every comparison with NaN is False, so the check asks for all > 0
        with pytest.raises(ValueError, match="positive"):
            exponent_scan(0.1, [np.nan, 1e-3])


class TestScaledCoupling:
    def test_reference_point(self):
        sc = scaled_coupling_critical(160000.0)
        assert sc.alpha_c == pytest.approx(0.005, rel=0.05)
        assert sc.d_c == pytest.approx(0.0025, rel=0.05)
        assert sc.h_c == pytest.approx(H_C_LIMIT, abs=5.0 / np.sqrt(160000.0))
        assert sc.d_mix_c == pytest.approx(2.0 / (3.0 - np.sqrt(5.0)) * sc.alpha_c, rel=0.05)

    def test_inverse_sqrt_scaling(self):
        for jp in (1e4, 1e5):
            sc = scaled_coupling_critical(jp)
            assert sc.alpha_c == pytest.approx(2.0 / np.sqrt(jp), rel=0.1)
            assert sc.d_c == pytest.approx(1.0 / np.sqrt(jp), rel=0.1)

    def test_rejects_small_jprime(self):
        with pytest.raises(ValueError):
            scaled_coupling_critical(50.0)


class TestDmixScan:
    def test_rejects_alpha_at_or_below_critical(self):
        sc = scaled_coupling_critical(160000.0)
        with pytest.raises(ValueError):
            d_mix_scan(160000.0, [sc.alpha_c])
        with pytest.raises(ValueError):
            d_mix_scan(160000.0, [sc.alpha_c * 0.9, sc.alpha_c * 1.1])

    def test_values_are_fractions(self):
        sc = scaled_coupling_critical(160000.0)
        scan = d_mix_scan(160000.0, sc.alpha_c * (1.0 + np.array([0.05, 0.1, 0.2])))
        assert np.all(scan.d_mix > 0.0)
        assert np.all(scan.d_mix <= 1.0)
        assert np.all(np.diff(scan.d_mix) > 0.0)

    def test_coexistence_field_ties_maxima(self):
        sc = scaled_coupling_critical(160000.0)
        alpha = sc.alpha_c * 1.1
        j = alpha * (1 - alpha) * 160000.0
        h = coexistence_field(alpha, j)
        branches = solve_branches(ReducedParams(alpha, h, j))
        tops = [b for b in branches if b.stability == "global-max"]
        assert len(tops) == 2
        assert abs(tops[0].psi1_value - tops[1].psi1_value) < 1e-10


class TestCoexistenceField:
    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 0.3, 0.5])
    @pytest.mark.parametrize("ratio", [1.0001, 10.0])
    def test_ties_maxima(self, alpha, ratio):
        cp = critical_point(alpha)
        j = ratio * cp.j_c
        h = coexistence_field(alpha, j, cp=cp)
        tops = [b for b in solve_branches(ReducedParams(alpha, h, j)) if b.stability == "global-max"]
        assert len(tops) == 2
        assert abs(tops[0].psi1_value - tops[1].psi1_value) <= 1e-12

    @pytest.mark.parametrize("alpha", [1e-3, 0.3])
    @pytest.mark.parametrize("eps", [1e-13, 2.05e-12, 1e-10, 1e-8])
    def test_near_critical_follows_pivot_line(self, alpha, eps):
        # the three-root window shrinks like eps^(3/2) around the pivot line
        # h = h_c - d_c (J - J_c), down to below rounding
        cp = critical_point(alpha)
        j = (1.0 + eps) * cp.j_c
        h = coexistence_field(alpha, j, cp=cp)
        assert abs(h - (cp.h_c - cp.d_c * (j - cp.j_c))) <= 1e-10 * abs(h)

    def test_tie_beyond_reach_raises(self):
        # at 30 J_c the low-density phase at the tie is about exp(-60)
        cp = critical_point(0.3)
        with pytest.raises(RuntimeError, match="beyond reach"):
            coexistence_field(0.3, 30.0 * cp.j_c, cp=cp)


class TestMixedFractionHelper:
    def test_matches_components(self):
        d, alpha = 3e-4, 1e-3
        x, y = _xy(d, alpha)
        expected = d / (0.5 * x * x + 0.5 * y * y + d)
        assert mixed_dimer_fraction(d, alpha) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("d,alpha", [(-1.0, 0.5), (0.9, 0.5), (np.nan, 0.5)])
    def test_rejects_d_outside_interval(self, d, alpha):
        with pytest.raises(ValueError, match=r"must lie in \[0, 0.5\]"):
            mixed_dimer_fraction(d, alpha)
