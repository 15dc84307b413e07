"""Gaussian-moment representation: Wick identity, Z*, super-additivity."""

import copy
import dataclasses
import pickle
import warnings

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
        assert wm.w[0, 0] == 1.0
        assert wm.w[0, 1] == pytest.approx(np.exp(-1.0))
        assert wm.det == pytest.approx(1.0 - np.exp(-2.0))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            weight_matrix([0.0, 0.0, 0.0])

    def test_overflow_raises_value_error(self):
        # the overflow check reports it, with no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                weight_matrix([800.0, 800.0, 0.0])

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
                # the rounding bound covers the gap to the enumeration too
                assert abs(est.log_value - exact) <= est.error_estimate

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

    def test_integral_float_n(self):
        assert z_via_gaussian(4.0, 0.5, [0, 0, -1]) == z_via_gaussian(4, 0.5, [0, 0, -1])


def _seed5_draws():
    """The 200 (n, alpha, h) draws of numpy seed 5 that z_star's step was sized on."""
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(200):
        n, alpha = int(rng.integers(1, 201)), float(rng.uniform(0.01, 0.99))
        draws.append((n, alpha, random_pd_field(rng, margin=0.05)))
    return draws


SEED5_DRAWS = _seed5_draws()


def _mp_log_z_star(n, alpha, h, dps=30):
    """log Z_N* to about dps - 8 digits, apart from gaussian's quadrature.

    With y = 1 + xi_B the inner integral is a closed form (Gradshteyn and
    Ryzhik 3.462.1): int_0^inf y^(nu-1) exp(-q y^2/2 - g y) dy =
    q^(-nu/2) Gamma(nu) exp(g^2/(4q)) D_-nu(g/sqrt(q)), nu = p_B + 1.  For
    z <= 0, D_-nu(z) is summed from two positive 1F1 terms, which mpmath's
    pcfd reaches only slowly there.  mp.quad does the outer xi_A integral.
    MPMATH_VALUES came from dps 30 and 40, which agree to 22 digits; a case
    takes 1 to 15 s.
    """
    with mp.workdps(dps):
        w = mp.matrix([[mp.exp(h[0]), mp.exp(h[2])], [mp.exp(h[2]), mp.exp(h[1])]])
        prec = mp.inverse(w) * n
        p_a, p_b = mp.mpf(alpha) * n, (1 - mp.mpf(alpha)) * n
        nu, q = p_b + 1, prec[1, 1]

        def pcfd(z):
            if z > 0:
                return mp.pcfd(-nu, z)
            x = z * z / 2
            return 2 ** (-nu / 2) * mp.exp(-x / 2) * mp.sqrt(mp.pi) * (
                mp.hyp1f1(nu / 2, mp.mpf(1) / 2, x) / mp.gamma((1 + nu) / 2)
                - mp.sqrt(2) * z * mp.hyp1f1((1 + nu) / 2, mp.mpf(3) / 2, x) / mp.gamma(nu / 2)
            )

        def outer(xi_a):
            g = prec[0, 1] * xi_a - q
            inner = q ** (-nu / 2) * mp.gamma(nu) * mp.exp(g * g / (4 * q)) * pcfd(g / mp.sqrt(q))
            return (1 + xi_a) ** p_a * mp.exp(-prec[0, 0] * xi_a**2 / 2 + prec[0, 1] * xi_a - q / 2) * inner

        # split the outer range at the peak of xi_A and 8 of its sds either side
        cov = np.array(w.tolist(), dtype=float) / n
        xi = np.zeros(2)
        for _ in range(500):
            xi = 0.5 * (xi + cov @ (np.array([float(p_a), float(p_b)]) / (1.0 + xi)))
        sd = np.sqrt(cov[0, 0])
        cuts = [x for x in (xi[0] - 8 * sd, xi[0], xi[0] + 8 * sd) if x > -1 + 1e-3]
        det = w[0, 0] * w[1, 1] - w[0, 1] ** 2
        return mp.log(mp.quad(outer, [-1, *cuts, mp.inf])) - mp.log(2 * mp.pi) + mp.log(n) - mp.log(det) / 2


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

    @pytest.mark.parametrize(
        "alpha, h", [(0.3, [-0.5, 0.2, -0.4]), (0.5, [0.0, 0.0, -1.0]), (0.7, [0.3, -1.0, -0.8])]
    )
    def test_one_over_n_remainder_at_large_n(self, alpha, h):
        # log Z*_N = N p + c + c1/N + ..., with p the Laplace exponent's
        # maximum, so N [(log Z*_N - N p) - (log Z*_2N - 2N p)] -> c1/2;
        # it stays flat up to N = 5e5, far past the moment cap
        p = laplace_maximum(alpha, weight_matrix(h)).value

        def excess(n):
            return z_star(n, alpha, h).log_value - n * p

        half = [n * (excess(n) - excess(2 * n)) for n in (1_000, 10_000, 100_000, 500_000)]
        assert max(half) - min(half) <= 0.01 * abs(half[0]), half

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

    # (n, alpha, h, log Z*) as the earlier Gauss-Jacobi quadrature gave them,
    # with the 400-node rule of scipy.special.roots_jacobi
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

    # log Z* of SEED5_DRAWS[index] from _mp_log_z_star, to 20 digits
    MPMATH_VALUES = {
        184: "60.009815431685419343",  # n = 142, correlation 0.97: Gauss-Jacobi was 8.0e-9 off
        167: "36.058767959218720200",  # n = 135, alpha = 0.048: Gauss-Jacobi was 2.5e-11 off
        9: "0.35559487675891483387",  # n = 3, alpha = 0.942: a left tail 50 units of u long
        47: "7.3402665644436345385",
        157: "0.84959490320596795685",
        20: "0.89562303882064406832",
        71: "2.1399738740796140573",
        0: "22.421914215329795162",
        10: "34.551731556955560807",
        55: "20.980002009762010140",
        92: "58.806112752447981958",
        52: "0.23795887346102218202",
        102: "2.8386768908704151859",
        150: "11.399812438665303776",
    }

    @pytest.mark.parametrize("index", sorted(MPMATH_VALUES))
    def test_matches_mpmath(self, index):
        est = z_star(*SEED5_DRAWS[index])
        want = float(self.MPMATH_VALUES[index])
        scale = max(1.0, abs(want))
        assert abs(est.log_value - want) <= 1e-12 * scale
        assert abs(est.log_value - want) <= max(1e-13 * scale, est.error_estimate)

    def test_seed5_draws_resolve(self):
        for n, alpha, h in SEED5_DRAWS:
            est = z_star(n, alpha, h)
            assert est.error_estimate <= 1e-12 * max(1.0, abs(est.log_value)), (n, alpha, h)

    def test_unresolved_quadrature_raises(self, monkeypatch):
        # one step per standard deviation: the nested grid of twice the step
        # is off by about 0.03
        monkeypatch.setattr(gaussian, "_STEPS_PER_SIGMA", 1)
        with pytest.raises(RuntimeError, match="unresolved"):
            z_star(8, 0.5, [0.0, 0.0, -1.0])


class TestQuadratureRules:
    def test_cached_rules_are_read_only(self):
        t, logw = gaussian._hermegauss(12)
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


class TestLaplaceMaximum:
    @staticmethod
    def draws(seed, count, lo=-2.0, hi=1.0, margin=0.1):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            while True:
                h = rng.uniform(lo, hi, size=3)
                if h[0] + h[1] - 2.0 * h[2] > margin:
                    break
            yield weight_matrix(h), rng.uniform(0.01, 0.99), rng

    def test_below_grid_over_all_sign_regions(self):
        # an 801 x 801 grid over the four sign regions of (1 + xi_A, 1 + xi_B)
        for wm, alpha, _ in self.draws(31, 10):
            res = laplace_maximum(alpha, wm)
            prec = np.linalg.inv(wm.w)
            grid = np.linspace(-1.0, 1.0, 801) * (3.0 + 20.0 * np.sqrt(wm.w.max()))
            ga, gb = grid[:, None], grid[None, :]
            with np.errstate(divide="ignore"):
                vals = (
                    -0.5 * (prec[0, 0] * ga * ga + 2.0 * prec[0, 1] * ga * gb + prec[1, 1] * gb * gb)
                    + alpha * np.log(np.abs(1.0 + ga))
                    + (1.0 - alpha) * np.log(np.abs(1.0 + gb))
                )
            assert vals.max() <= res.value + 1e-12
            assert res.grid_max == res.value

    def test_reflection_beats_every_off_quadrant_point(self):
        # the argument of the docstring, point by point: xi_A < -1 here, and
        # the mirror image swaps the roles of the axes
        for wm, alpha, rng in self.draws(32, 10):
            value = laplace_maximum(alpha, wm).value
            span = 3.0 + 20.0 * np.sqrt(wm.w.max())
            off = -1.0 - rng.uniform(1e-6, span, size=60)
            cases = []
            # xi_B < -1 or -1 < xi_B < 0: -xi
            for other in (-1.0 - rng.uniform(1e-6, span, size=60), rng.uniform(-1.0 + 1e-6, 0.0, size=60)):
                cases += [((a, b), (-a, -b)) for a, b in zip(off, other)]
            # xi_B >= 0: xi_A negated
            cases += [((a, b), (-a, b)) for a, b in zip(off, rng.uniform(0.0, span, size=60))]
            for xi, back in cases + [(xi[::-1], back[::-1]) for xi, back in cases]:
                assert min(back) > -1.0
                mirrored = laplace_exponent(back, alpha, wm)
                assert laplace_exponent(xi, alpha, wm) < mirrored <= value + 1e-12

    def test_stationary_over_wide_fields(self):
        for wm, alpha, _ in self.draws(33, 300, lo=-6.0, hi=6.0, margin=1e-3):
            res = laplace_maximum(alpha, wm)
            grad = np.array([alpha, 1.0 - alpha]) / (1.0 + res.xi) - np.linalg.solve(wm.w, res.xi)
            tol = 1e-9 * max(1.0, np.abs(res.xi).max())
            assert res.grad_norm <= tol
            assert np.linalg.norm(grad) <= tol
            assert np.all(res.xi >= 0.0)
            assert res.value == laplace_exponent(res.xi, alpha, wm)


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

    def test_holds_at_large_n(self):
        # z_star's cost does not grow with N, so no cap stops it here
        res = superadditivity_check(400_000, 600_000, 0.5, [0.0, 0.0, -1.0])
        assert res.holds
        assert res.slack > 0.0

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


class TestResultObjects:
    """The result types carry slots: no per-instance ``__dict__``."""

    @pytest.fixture(scope="class")
    def results(self):
        w = weight_matrix([-0.2, -0.3, -1.0])
        return [
            z_star(8, 0.4, [-0.2, -0.3, -1.0]),
            laplace_maximum(0.4, w),
            superadditivity_check(3, 5, 0.4, [-0.2, -0.3, -1.0]),
            mixing_lemma_checks(10, seed=1),
        ]

    def test_types(self, results):
        names = [type(r).__name__ for r in results]
        assert names == ["GaussianEstimate", "LaplaceMaximum", "SuperadditivityResult", "MixingLemmaReport"]

    def test_copies_are_equal(self, results):
        for r in results:
            for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r)):
                assert type(twin) is type(r)
                # LaplaceMaximum holds an array, so compare field by field
                np.testing.assert_equal(dataclasses.asdict(twin), dataclasses.asdict(r))

    def test_slots_and_frozen(self, results):
        for r in results:
            assert not hasattr(r, "__dict__")
            field = dataclasses.fields(r)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, field, 0)
