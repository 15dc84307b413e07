"""Gaussian-moment representation: Wick identity, Z*, super-additivity."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_legendre

from dimerfield import (
    ModelParams,
    gaussian,
    laplace_exponent,
    laplace_maximum,
    log_partition_exact,
    mixing_lemma_checks,
    pressure,
    superadditivity_check,
    weight_matrix,
    z_star,
    z_via_gaussian,
)


def random_pd_field(rng, margin=0.1):
    while True:
        h = rng.uniform(-2.0, 1.0, size=3)
        if h[0] + h[1] - 2.0 * h[2] > margin:
            return h


class TestWeightMatrix:
    def test_values(self):
        wm = weight_matrix([0.0, 0.0, -1.0])
        assert wm.w_a == 1.0
        assert wm.w_ab == pytest.approx(np.exp(-1.0))
        assert wm.det == pytest.approx(1.0 - np.exp(-2.0))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            weight_matrix([0.0, 0.0, 0.0])

    def test_accepts_tight_but_positive(self):
        wm = weight_matrix([1.0, 1.0, 0.9])
        assert wm.det == pytest.approx(np.exp(2.0) - np.exp(1.8))


class TestWickIdentity:
    def test_n2_closed_form(self):
        for h_ab in (-2.0, -1.0, -0.3):
            est = z_via_gaussian(2, 0.5, [0.0, 0.0, h_ab])
            assert est.log_value == pytest.approx(
                np.log(1.0 + np.exp(h_ab) / 2.0), abs=1e-13
            )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            h = random_pd_field(rng)
            alpha = rng.uniform(0.25, 0.75)
            for n in (3, 9, 24, 40):
                exact = log_partition_exact(n, ModelParams(alpha=alpha, h=h))
                est = z_via_gaussian(n, alpha, h)
                assert abs(est.log_value - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_decorrelated_limit_factorizes(self):
        # h_AB -> -inf makes W diagonal; the moment splits into 1D moments
        h = np.array([0.3, -0.4, -50.0])
        n, alpha = 20, 0.4
        est = z_via_gaussian(n, alpha, h)
        z, w = np.polynomial.hermite_e.hermegauss(200)
        log_parts = 0.0
        from dimerfield import split_sizes

        sizes = split_sizes(n, alpha)
        for n_pop, h_pop in ((sizes.n_a, h[0]), (sizes.n_b, h[1])):
            sigma = np.sqrt(np.exp(h_pop) / n)
            vals = (1.0 + sigma * z) ** n_pop
            log_parts += np.log(np.sum(w * vals) / np.sqrt(2.0 * np.pi))
        assert est.log_value == pytest.approx(log_parts, abs=1e-9)

    def test_caps(self):
        with pytest.raises(ValueError):
            z_via_gaussian(300, 0.5, [0, 0, -1])


class TestZStar:
    def test_always_positive_and_finite(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            h = random_pd_field(rng)
            est = z_star(int(rng.integers(1, 60)), rng.uniform(0.2, 0.8), h)
            assert np.isfinite(est.log_value)

    def test_ratio_tends_to_one(self):
        h = [0.0, 0.0, -1.0]
        for n in (100, 128, 200):
            lz = z_via_gaussian(n, 0.5, h).log_value
            lzs = z_star(n, 0.5, h).log_value
            assert abs(np.exp(lz - lzs) - 1.0) < 1e-3

    def test_n2_difference_is_off_quadrant_mass(self):
        # Z_2 - Z_2* equals the signed integrand mass outside the quadrant,
        # computed here by brute-force Legendre tiles over the complement
        h = [0.0, 0.0, -1.0]
        n, alpha = 2, 0.5
        z = np.exp(z_via_gaussian(n, alpha, h).log_value)
        z_s = np.exp(z_star(n, alpha, h).log_value)

        wm = weight_matrix(h)
        cov = wm.w / n
        prec = np.linalg.inv(cov)
        norm = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))
        t, wts = roots_legendre(400)

        def tile(ax, bx, ay, by):
            xa = 0.5 * (ax + bx) + 0.5 * (bx - ax) * t
            ya = 0.5 * (ay + by) + 0.5 * (by - ay) * t
            XA, YA = np.meshgrid(xa, ya, indexing="ij")
            dens = norm * np.exp(
                -0.5
                * (prec[0, 0] * XA**2 + 2 * prec[0, 1] * XA * YA + prec[1, 1] * YA**2)
            )
            vals = (1.0 + XA) * (1.0 + YA) * dens
            scale = 0.25 * (bx - ax) * (by - ay)
            return scale * np.einsum("i,j,ij->", wts, wts, vals)

        lim = 14.0 * float(np.sqrt(cov.max()))
        off = (
            tile(-1.0 - lim, -1.0, -1.0 - lim, 1.0 + lim)  # xi_A < -1, all xi_B
            + tile(-1.0, 1.0 + lim, -1.0 - lim, -1.0)  # xi_A >= -1, xi_B < -1
        )
        assert z - z_s == pytest.approx(off, abs=1e-9)
        # at these weights the off-quadrant mass is negative, so Z* exceeds Z
        assert off < 0.0

    # (n, alpha, h, log Z*) at the default nodes, as computed with the
    # Gauss-Jacobi rule of scipy.special.roots_jacobi
    SCIPY_RULE_VALUES = [
        (8, 0.5, (-1.5, -1.5, -2.0), 0.5354715034761428),
        (64, 0.5, (-1.5, -1.5, -2.0), 4.853597725306058),
        (200, 0.99, (0.0, 0.0, -1.0), 57.33539394266468),
        (200, 0.3, (-2.0, -1.0, -3.0), 17.406144409329656),
        (37, 0.01, (0.5, -0.5, -1.0), 7.4149704851691585),
        (1, 0.5, (0.0, 0.0, -1.0), -0.09968825668781989),
        (128, 0.75, (1.0, 0.8, 0.2), 57.927980405742495),
    ]

    @pytest.mark.parametrize("n,alpha,h,want", SCIPY_RULE_VALUES)
    def test_default_node_values_unchanged(self, n, alpha, h, want):
        assert z_star(n, alpha, h).log_value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_unresolved_quadrature_raises(self):
        with pytest.raises(RuntimeError, match="unresolved"):
            z_star(8, 0.5, [0.0, 0.0, -1.0], nodes=5)
        with pytest.raises(ValueError, match="nodes"):
            z_star(8, 0.5, [0.0, 0.0, -1.0], nodes=0)


def _mp_jacobi_node(n, power, x):
    """Newton-refine x to a zero of the degree-n Jacobi polynomial for the
    weight (1 + t)^power at 40 digits, with its Christoffel log-weight."""
    with mp.workdps(40):
        b = mp.mpf(power)
        a = [b * b / ((2 * k + b) * (2 * k + b + 2)) for k in range(n)]
        sb = [mp.mpf(0)] + [
            2 * k * (k + b) / ((2 * k + b) * mp.sqrt((2 * k + b + 1) * (2 * k + b - 1)))
            for k in range(1, n + 1)
        ]
        x = mp.mpf(x)
        for _ in range(2):
            p_prev, p, d_prev, d, total = 0, mp.mpf(1), 0, 0, 0
            for k in range(n):
                total += p * p
                p_prev, p = p, ((x - a[k]) * p - sb[k] * p_prev) / sb[k + 1]
                d_prev, d = d, (p_prev + (x - a[k]) * d - sb[k] * d_prev) / sb[k + 1]
            x -= p / d  # total is taken at the previous x, within 1e-30 of the zero
        log_mu0 = (b + 1) * mp.log(2) - mp.log(b + 1)
        # the recurrence coefficients, checked against mpmath's own Jacobi polynomials
        assert abs(mp.jacobi(n, 0, b, x)) <= 1e-25 * abs(mp.jacobi(n - 1, 0, b, x))
        return x, log_mu0 - mp.log(total)


class TestQuadratureRules:
    @pytest.mark.parametrize("n", [200, 400])
    @pytest.mark.parametrize("power", [0.5, 5.0, 60.0, 199.0])
    def test_jacobi_matches_40_digit_reference(self, n, power):
        t, logw = gaussian._jacobi(n, power)
        picks = set(np.argsort(logw)[:3]) | set(np.linspace(0, n - 1, 6).astype(int))
        for i in sorted(picks):
            x, ref_logw = _mp_jacobi_node(n, power, t[i])
            assert abs(float(x - t[i])) <= 2e-16
            assert abs(float(ref_logw - logw[i])) <= 1e-11
        mu0 = 2.0 ** (power + 1.0) / (power + 1.0)
        assert np.exp(logw).sum() == pytest.approx(mu0, rel=1e-13)

    def test_weights_below_the_normal_double_range(self):
        # the smallest weight, about e^-723, is out of reach of any sweep that
        # sums the p_k^2 without rescaling: the sum would overflow
        t, logw = gaussian._jacobi(800, 199.0)
        i = int(np.argmin(logw))
        assert logw[i] < -709.0
        x, ref_logw = _mp_jacobi_node(800, 199.0, t[i])
        assert abs(float(ref_logw - logw[i])) <= 1e-11
        assert np.exp(logw).sum() == pytest.approx(2.0**200 / 200.0, rel=1e-13)

    def test_cached_rules_are_read_only(self):
        for t, logw in (gaussian._hermegauss(12), gaussian._legendre(12), gaussian._jacobi(12, 2.5)):
            assert not t.flags.writeable
            assert not logw.flags.writeable
            with pytest.raises(ValueError):
                logw[0] = 0.0


class TestLaplaceExponent:
    def test_zero_at_origin(self):
        wm = weight_matrix([0.0, 0.0, -1.0])
        assert laplace_exponent([0.0, 0.0], 0.5, wm) == 0.0

    def test_rejects_singular_lines(self):
        wm = weight_matrix([0.0, 0.0, -1.0])
        with pytest.raises(ValueError):
            laplace_exponent([-1.0, 0.3], 0.5, wm)

    def test_quadratic_domination(self):
        wm = weight_matrix([0.0, 0.0, -1.0])
        far = 100.0 * float(np.linalg.norm(wm.w))
        assert laplace_exponent([far, far], 0.5, wm) < -1e3

    def test_maximizer_certificates(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = random_pd_field(rng)
            alpha = rng.uniform(0.2, 0.8)
            wm = weight_matrix(h)
            res = laplace_maximum(alpha, wm)
            assert res.grad_norm < 1e-9
            assert np.all(res.xi >= 0.0)
            assert res.grid_max <= res.value + 1e-9


class TestSuperadditivity:
    def test_equal_halves(self):
        res = superadditivity_check(10, 10, 0.5, [0.0, 0.0, -1.0])
        assert res.holds
        assert res.slack > 0.0

    def test_smallest_case(self):
        res = superadditivity_check(1, 1, 0.5, [0.0, 0.0, -1.0])
        assert res.holds

    def test_random_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_pd_field(rng, margin=0.4)
            res = superadditivity_check(
                int(rng.integers(1, 40)),
                int(rng.integers(1, 40)),
                rng.uniform(0.25, 0.75),
                h,
            )
            assert res.holds

    def test_doubling_monotone(self):
        h, alpha = [0.0, 0.0, -1.0], 0.5
        vals = [z_star(2**k, alpha, h).log_value / 2**k for k in range(1, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestAgreementWithPressure:
    def test_both_routes_near_limit(self):
        h, alpha, n = np.array([0.0, 0.0, -1.0]), 0.5, 128
        p = pressure(ModelParams(alpha=alpha, h=h))
        enum = log_partition_exact(n, ModelParams(alpha=alpha, h=h)) / n
        star = z_star(n, alpha, h).log_value / n
        assert abs(enum - p) < 0.02
        assert abs(star - p) < 0.02
        # the restricted sequence approaches p from below (it is the sup)
        assert star <= p + 1e-9
        # and tightens with N
        gaps = [
            p - z_star(m, alpha, h).log_value / m for m in (32, 64, 128)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestMixingLemmas:
    def test_report(self):
        rep = mixing_lemma_checks(500, seed=2)
        assert rep.covariance_max_error < 1e-14
        assert rep.inequality_violations == 0
        assert rep.equality_max_gap < 1e-12
        assert rep.min_gap_off_diagonal > 0.0

    def test_hand_values(self):
        # x=1, y=0, gamma=1/2: sqrt(2) <= 1.5
        assert np.sqrt(2.0) <= 1.5
        # covariance identity at N1=3, N2=7 is exact arithmetic
        w = weight_matrix([0.2, -0.1, -0.8]).w
        gamma = 0.3
        mixed = gamma**2 * (w / 3.0) + (1 - gamma) ** 2 * (w / 7.0)
        assert np.abs(mixed - w / 10.0).max() < 1e-16

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            mixing_lemma_checks(0)
