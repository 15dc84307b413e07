"""Variational pressure: entropy and energy terms, fixed point, maximization."""

import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerfield import (
    DimerDensities,
    ModelParams,
    entropy,
    fixed_point_residual,
    fixed_point_solve,
    gibbs_expected_densities,
    grad_psi,
    log_partition_exact,
    maximize_psi,
    pressure,
    psi,
    solve_zero_coupling,
)
from dimerfield import variational
from dimerfield.params import _monomers
from dimerfield.variational import _hess_psi, _monomer_step, _solve_monomers

GOLDEN_M = (np.sqrt(5.0) - 1.0) / 4.0
SYMMETRIC_D = DimerDensities(GOLDEN_M**2 / 2, GOLDEN_M**2 / 2, GOLDEN_M**2)


def random_interior(rng, alpha, margin=0.08):
    """Density point comfortably inside the hard-core region."""
    d_ab = rng.uniform(margin, 1.0 - margin) * min(alpha, 1.0 - alpha) * (1 - 2 * margin)
    d_a = rng.uniform(margin, 1.0 - margin) * 0.5 * (alpha - d_ab) * (1 - 2 * margin)
    d_b = rng.uniform(margin, 1.0 - margin) * 0.5 * (1.0 - alpha - d_ab) * (1 - 2 * margin)
    return DimerDensities(d_a, d_b, d_ab)


def random_params(rng, h_scale=1.0, j_scale=1.0):
    return ModelParams(
        alpha=rng.uniform(0.15, 0.85),
        h=rng.uniform(-1.5, 0.5, 3) * h_scale,
        J=rng.uniform(-1.0, 1.0, (3, 3)) * j_scale,
    )


class TestEntropy:
    def test_zero_at_origin(self):
        assert entropy(DimerDensities(0, 0, 0), 0.37) == pytest.approx(0.0)

    def test_population_swap_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            alpha = rng.uniform(0.2, 0.8)
            d = random_interior(rng, alpha)
            mirrored = DimerDensities(d.d_b, d.d_a, d.d_ab)
            assert entropy(d, alpha) == pytest.approx(
                entropy(mirrored, 1.0 - alpha), rel=1e-12
            )

    def test_rejects_outside_region(self):
        with pytest.raises(ValueError):
            entropy(DimerDensities(0.3, 0.0, 0.0), 0.5)

    def test_matches_enumeration_at_free_maximizer(self):
        # at J=0, h=0 the pressure equals the entropy at the symmetric
        # closed-form solution; the N=400 enumeration sits within its
        # O(log N / N) band of it
        s = entropy(SYMMETRIC_D, 0.5)
        finite = log_partition_exact(400, ModelParams(alpha=0.5)) / 400
        assert abs(s - finite) < 0.02

    def test_concavity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            alpha = rng.uniform(0.15, 0.85)
            d1 = random_interior(rng, alpha, margin=0.01)
            d2 = random_interior(rng, alpha, margin=0.01)
            t = rng.uniform(0.0, 1.0)
            mid = DimerDensities(*(t * d1.vector + (1 - t) * d2.vector))
            assert entropy(mid, alpha) >= (
                t * entropy(d1, alpha) + (1 - t) * entropy(d2, alpha) - 1e-12
            )


class TestEnergy:
    """psi - s is the energy term h.d + (1/2) d.J.d."""

    def test_free(self):
        d = DimerDensities(0.01, 0.02, 0.03)
        assert psi(d, ModelParams(alpha=0.5)) - entropy(d, 0.5) == 0.0

    def test_linear(self):
        params = ModelParams(alpha=0.5, h=[0, 0, 1])
        d = DimerDensities(0.01, 0.02, 0.1)
        assert psi(d, params) - entropy(d, 0.5) == pytest.approx(0.1, rel=1e-12)

    def test_quadratic(self):
        J = np.zeros((3, 3))
        J[2, 2] = 4.0
        J[0, 1] = 2.0  # alone in its pair, so it adds 2 d_A d_B to d.J.d
        params = ModelParams(alpha=0.5, J=J)
        d = DimerDensities(0.01, 0.02, 0.1)
        assert psi(d, params) - entropy(d, 0.5) == pytest.approx(
            0.5 * (4.0 * 0.1**2 + 2.0 * 0.01 * 0.02), rel=1e-12
        )


    def test_symmetric_part_computed_once(self):
        J = np.arange(9.0).reshape(3, 3)
        params = ModelParams(alpha=0.4, J=J)
        assert params.j_sym is params.j_sym
        assert np.array_equal(params.j_sym, 0.5 * (J + J.T))
        with pytest.raises(ValueError):
            params.j_sym[0, 1] = 0.0


class TestPsi:
    def test_zero_at_origin(self):
        params = ModelParams(alpha=0.3, h=[1, 2, 3], J=np.ones((3, 3)))
        assert psi(DimerDensities(0, 0, 0), params) == pytest.approx(0.0)

    def test_zero_coupling_decomposition(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            alpha = rng.uniform(0.2, 0.8)
            h = rng.uniform(-1, 1, 3)
            params = ModelParams(alpha=alpha, h=h)
            d = random_interior(rng, alpha)
            assert psi(d, params) == pytest.approx(
                entropy(d, alpha) + h @ d.vector, rel=1e-12
            )


class TestGradPsi:
    def test_vanishes_at_symmetric_solution(self):
        g = grad_psi(SYMMETRIC_D, ModelParams(alpha=0.5))
        assert np.abs(g).max() < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        step = 1e-6
        for _ in range(20):
            params = random_params(rng)
            d = random_interior(rng, params.alpha)
            g = grad_psi(d, params)
            for i in range(3):
                up = d.vector.copy()
                dn = d.vector.copy()
                up[i] += step
                dn[i] -= step
                fd = (
                    psi(DimerDensities(*up), params) - psi(DimerDensities(*dn), params)
                ) / (2 * step)
                assert abs(fd - g[i]) / max(1.0, abs(g[i])) < 1e-6

    def test_mixed_component_at_zero_coupling(self):
        rng = np.random.default_rng(2)
        alpha = 0.45
        h = np.array([0.0, 0.0, 0.7])
        params = ModelParams(alpha=alpha, h=h)
        d = random_interior(rng, alpha)
        m_a, m_b = _monomers(*d.vector, alpha)
        expected = np.log(m_a * m_b / d.d_ab) + h[2]
        assert grad_psi(d, params)[2] == pytest.approx(expected, rel=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            grad_psi(DimerDensities(0.0, 0.01, 0.01), ModelParams(alpha=0.5))

    def test_rejects_subnormal_density(self):
        # 1/d overflows below the smallest normal double
        with pytest.raises(ValueError, match="interior point"):
            grad_psi(DimerDensities(0.01, 1e-310, 0.01), ModelParams(alpha=0.5))


class TestHessPsi:
    def test_matches_finite_differences_of_gradient(self):
        # random full J, asymmetric: only its symmetric part may enter
        rng = np.random.default_rng(43)
        for _ in range(20):
            params = random_params(rng, j_scale=3.0)
            d = random_interior(rng, params.alpha)
            hess = _hess_psi(d, params)
            step = 1e-6 * min(*d.vector, *_monomers(*d.vector, params.alpha))
            for i in range(3):
                up = d.vector.copy()
                dn = d.vector.copy()
                up[i] += step
                dn[i] -= step
                fd = (
                    grad_psi(DimerDensities(*up), params) - grad_psi(DimerDensities(*dn), params)
                ) / (2 * step)
                assert np.abs(fd - hess[:, i]).max() <= 1e-6 * np.abs(hess[:, i]).max()

    def test_symmetric_with_zero_intra_cross_term(self):
        params = ModelParams(alpha=0.4)
        hess = _hess_psi(DimerDensities(0.02, 0.05, 0.1), params)
        assert np.array_equal(hess, hess.T)
        assert hess[0, 1] == 0.0
        assert np.all(np.linalg.eigvalsh(hess) < 0.0)


class TestZeroCoupling:
    def test_symmetric_closed_form(self):
        d = solve_zero_coupling([0.0, 0.0, 0.0], 0.5)
        assert d.d_a == pytest.approx(GOLDEN_M**2 / 2, rel=1e-12)
        assert d.d_b == pytest.approx(GOLDEN_M**2 / 2, rel=1e-12)
        assert d.d_ab == pytest.approx(GOLDEN_M**2, rel=1e-12)

    def test_vanishing_weights(self):
        for alpha in (0.3, 0.5, 0.8):
            d = solve_zero_coupling([-50.0, -50.0, -50.0], alpha)
            assert np.abs(d.vector).max() < 1e-20
            m_a, m_b = _monomers(*d.vector, alpha)
            assert m_a == pytest.approx(alpha, rel=1e-12)
            assert m_b == pytest.approx(1 - alpha, rel=1e-12)

    def test_system_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            alpha = rng.uniform(0.05, 0.95)
            h = rng.uniform(-3, 2, 3)
            d = solve_zero_coupling(h, alpha)
            w = np.exp(h)
            m_a, m_b = _monomers(*d.vector, alpha)
            sys_res = np.abs(
                d.vector
                - np.array(
                    [0.5 * w[0] * m_a**2, 0.5 * w[1] * m_b**2, w[2] * m_a * m_b]
                )
            ).max()
            assert sys_res < 1e-12

    def test_matches_enumeration(self):
        h = np.array([-0.2, 0.1, 0.4])
        d = solve_zero_coupling(h, 0.5)
        dens = gibbs_expected_densities(400, ModelParams(alpha=0.5, h=h))
        assert np.abs(dens - d.vector).max() < 0.02

    def test_gradient_vanishes_there(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            alpha = rng.uniform(0.1, 0.9)
            h = rng.uniform(-2, 1, 3)
            d = solve_zero_coupling(h, alpha)
            g = grad_psi(d, ModelParams(alpha=alpha, h=h))
            assert np.abs(g).max() < 1e-8


def corner_triples():
    """Every activity at one of six values from 0 to e^709.7, at four alphas."""
    values = [0.0, 5e-324, 1e-300, 1.0, 1e300, math.exp(709.7)]
    return [(w, alpha) for w in itertools.product(values, repeat=3) for alpha in (0.05, 0.4, 0.5, 0.95)]


def grid_triples():
    """3,000 activity triples spread over e^-745 to e^709.7, some exactly 0."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(3000):
        w = [0.0 if rng.uniform() < 0.15 else math.exp(rng.uniform(-745, 709.7)) for _ in range(3)]
        out.append((tuple(w), rng.uniform(0.01, 0.99)))
    return out


def newton_correction(w, alpha, m_a, m_b):
    """The relative size of one Newton step on the two hard-core equations
    in log m, taken in 400-digit arithmetic: how far (m_A, m_B) is from the
    exact solution, even where the mixed term leaves the rest below 1e-300."""
    with mp.workdps(400):
        w_a, w_b, w_ab, ma, mb = map(mp.mpf, (*w, m_a, m_b))
        mixed = w_ab * ma * mb
        f_a = ma + w_a * ma * ma + mixed - mp.mpf(alpha)
        f_b = mb + w_b * mb * mb + mixed - mp.mpf(1.0 - alpha)
        j_a = ma + 2 * w_a * ma * ma + mixed
        j_b = mb + 2 * w_b * mb * mb + mixed
        det = j_a * j_b - mixed * mixed
        return float(max(abs(f_a * j_b - f_b * mixed), abs(f_b * j_a - f_a * mixed)) / det)


class TestSolveMonomers:
    @pytest.mark.parametrize("triples", [corner_triples, grid_triples])
    def test_solves_every_triple(self, triples):
        # no activity of a finite field overflows the solve or stops it on
        # Brent's iteration cap
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w, alpha in triples():
                m_a, m_b = _solve_monomers(*w, alpha)
                assert 0.0 < m_a <= alpha and 0.0 < m_b <= 1.0 - alpha
                mixed = w[2] * m_a * m_b
                assert abs(m_a + w[0] * m_a * m_a + mixed - alpha) < 1e-12
                assert abs(m_b + w[1] * m_b * m_b + mixed - (1.0 - alpha)) < 1e-12
                worst = max(worst, newton_correction(w, alpha, m_a, m_b))
                assert _monomer_step(*w, alpha, m_a, m_b) <= 1e-13
        assert worst < 1e-12

    def test_newton_step_rejects_a_pair_decades_off(self):
        # m_A = 5.6e-51 against the exact 6.3e-101, with the mixed term
        # filling both populations: both residuals are 0 in float64, but
        # the Newton step moves log m_A by about 1
        m_a = 5.6e-51
        m_b = 0.5 / (1e300 * m_a)
        w = (0.0, 1e300, 1e300)
        assert m_a + w[2] * m_a * m_b - 0.5 == 0.0
        assert m_b + w[1] * m_b * m_b + w[2] * m_a * m_b - 0.5 == 0.0
        assert _monomer_step(*w, 0.5, m_a, m_b) == pytest.approx(1.0, abs=1e-6)
        assert _monomer_step(*w, 0.5, *_solve_monomers(*w, 0.5)) <= 1e-13

    @pytest.mark.parametrize(
        "w, alpha",
        [
            # the mixed term fills both equal populations but for 7e-151
            ((0.0, 0.0, 1e300), 0.5),
            ((1.0, 1e300, 1e300), 0.5),
            # alpha next to 1: m_B is resolved against a population of 1e-10
            ((1e3, 1e-3, 1.0), 1.0 - 1e-10),
            ((2.0, 3.0, 5.0), 1.0 - 1e-10),
            ((2.0, 3.0, 5.0), 1e-10),
        ],
    )
    def test_ill_conditioned_pairs(self, w, alpha):
        # residuals below 1e-12 allow answers many decades off here; the
        # solve must still be accurate to rounding
        m_a, m_b = _solve_monomers(*w, alpha)
        assert newton_correction(w, alpha, m_a, m_b) < 1e-13
        assert _monomer_step(*w, alpha, m_a, m_b) <= 1e-13


class TestFixedPoint:
    def test_zero_coupling_ignores_start(self):
        rng = np.random.default_rng(3)
        h = np.array([0.3, -0.5, 0.2])
        alpha = 0.4
        params = ModelParams(alpha=alpha, h=h)
        target = solve_zero_coupling(h, alpha).vector
        for _ in range(100):
            d0 = random_interior(rng, alpha, margin=0.001)
            out = fixed_point_solve(params, d0)
            assert np.abs(out.vector - target).max() < 1e-10

    def test_residual_at_output(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            params = random_params(rng)
            out = fixed_point_solve(params)
            assert fixed_point_residual(params, out) < 1e-10

    def test_damping_halves_when_the_residual_grows(self, monkeypatch):
        # at J = -300 everywhere the undamped map overshoots: the residual
        # grows once and the damping drops from 1/2 to 1/4
        params = ModelParams(0.5, J=np.full((3, 3), -300.0))
        residuals = []

        def spy(p, d):
            out = real_map(p, d)
            residuals.append(np.abs(out - d).max())
            return out

        real_map = variational._map
        monkeypatch.setattr(variational, "_map", spy)
        out = fixed_point_solve(params)
        assert any(b > a for a, b in zip(residuals[1:], residuals[2:]))
        assert fixed_point_residual(params, out) < 1e-12
        [(best, _)] = maximize_psi(params)
        assert np.abs(out.vector - best.vector).max() < 1e-10

    def test_two_phases_from_two_starts(self):
        from dimerfield import critical_point

        cp = critical_point(1e-3)
        params = ModelParams.reduced(1e-3, cp.h_c - cp.d_c * 1e3, cp.j_c + 1e3)
        low = fixed_point_solve(params, DimerDensities(1e-6, 1e-6, 1e-5))
        high = fixed_point_solve(params, DimerDensities(1e-5, 0.2, 9e-4))
        assert abs(low.d_ab - high.d_ab) > 5e-4


class TestMaximizePsi:
    def test_empty_phase(self):
        params = ModelParams(alpha=0.5, h=[-50.0, -50.0, -50.0], J=0.3 * np.eye(3))
        results = maximize_psi(params)
        assert len(results) == 1
        point, value = results[0]
        assert np.abs(point.vector).max() < 1e-12
        assert abs(value) < 1e-12

    def test_unique_free_maximizer(self):
        results = maximize_psi(ModelParams(alpha=0.5))
        assert len(results) == 1
        point, value = results[0]
        assert np.abs(point.vector - SYMMETRIC_D.vector).max() < 1e-10
        assert value == pytest.approx(entropy(SYMMETRIC_D, 0.5), rel=1e-12)

    def test_coexistence_gives_two(self):
        from dimerfield import critical_point

        cp = critical_point(1e-3)
        params = ModelParams.reduced(1e-3, cp.h_c - cp.d_c * 1e3, cp.j_c + 1e3)
        results = maximize_psi(params)
        assert len(results) == 2
        values = [v for _, v in results]
        assert abs(values[0] - values[1]) < 1e-9

    @pytest.mark.parametrize("ratio", [8.81, 9.76, 10.0])
    def test_two_maxima_on_the_paper_coexistence_line(self, ratio):
        # at alpha = 0.5 the top grid layer d_AB = 1/2 leaves no room on
        # either intra axis; its 4,096 copies of one point must not take
        # every preselected slot from the maximum near d_AB = 0
        from dimerfield import coexistence_field, critical_point

        j = ratio * critical_point(0.5).j_c
        results = maximize_psi(ModelParams.reduced(0.5, coexistence_field(0.5, j), j))
        assert len(results) == 2
        (low, v_low), (high, v_high) = sorted(results, key=lambda r: r[0].d_ab)
        assert low.d_ab < 1e-9 < 0.499 < high.d_ab
        assert abs(v_low - v_high) < 1e-9

    @pytest.mark.parametrize("alpha", [1e-3, 1e-2, 0.1, 0.3, 0.45])
    def test_one_maximizer_at_critical_point(self, alpha):
        # psi is flat to fourth order at d_c: a value tie cannot tell one
        # maximizer from several, only the basin test can
        from dimerfield import critical_point
        from dimerfield.critical import _xy

        cp = critical_point(alpha)
        results = maximize_psi(ModelParams.reduced(alpha, cp.h_c, cp.j_c))
        assert len(results) == 1
        x, y = _xy(cp.d_c, alpha)
        want = np.array([0.5 * x * x, 0.5 * y * y, cp.d_c])
        assert np.abs(results[0][0].vector - want).max() <= 1e-4 * cp.d_c

    def test_switched_off_dimer_type(self):
        # d_B ~ 1e-110 puts 1e110 on the Hessian diagonal; the Newton step
        # must still resolve every component to its own relative precision
        params = ModelParams(
            alpha=0.4,
            h=[2.7, -250.0, -1.5],
            J=[[-1.1, -1.0, -0.7], [-0.2, -1.7, 1.0], [0.3, -0.8, -1.7]],
        )
        (point, _), = maximize_psi(params)
        target = fixed_point_solve(params).vector
        assert target[1] < 1e-100
        assert np.all(np.abs(point.vector - target) <= 1e-9 * target)
        assert np.abs(grad_psi(point, params)).max() < 1e-10

    def test_subnormal_density_frozen_at_zero(self):
        # h_B = -720 leaves d_B ~ 1e-314, subnormal, where 1/d_B overflows;
        # frozen at 0 it changes nothing else at double precision
        (point, value), = maximize_psi(ModelParams(0.4, h=[0.2, -720.0, -0.3]))
        (ref, ref_value), = maximize_psi(ModelParams(0.4, h=[0.2, -700.0, -0.3]))
        assert point.d_b == 0.0
        assert abs(point.d_a - ref.d_a) <= 1e-12
        assert abs(point.d_ab - ref.d_ab) <= 1e-12
        assert abs(value - ref_value) <= 1e-12

    def test_underflowing_activity_matches_zero_coupling(self):
        # exp(-800) underflows to 0, so the map step puts d_A at exactly 0
        (point, _), = maximize_psi(ModelParams(0.4, h=[-800.0, 0.0, 0.0]))
        target = solve_zero_coupling([-800.0, 0.0, 0.0], 0.4).vector
        assert np.abs(point.vector - target).max() <= 1e-12

    def test_subnormal_trial_step_raises_without_warning(self):
        # draw 57 of the stress generator (numpy seed 20261019): a line
        # search that accepts any positive density reaches d_B = 3e-311,
        # where 1/d_B overflows and the scaled Hessian turns NaN; the "no
        # ascent" error must come with no RuntimeWarning first
        rng = np.random.default_rng(20261019)
        for _ in range(58):
            alpha = rng.uniform(0.05, 0.95)
            h = [0.0 if rng.random() < 0.5 else rng.uniform(-900.0, 0.0) for _ in range(3)]
            s = math.exp(rng.uniform(0.0, math.log(2000.0)))
            J = rng.uniform(-s, s, size=(3, 3))
        assert round(alpha, 4) == 0.3319 and round(h[0], 1) == -790.0
        with pytest.raises(RuntimeError, match="no ascent step"):
            maximize_psi(ModelParams(alpha, h, J))

    def test_unconverged_start_raises(self, monkeypatch):
        from dimerfield import critical_point

        cp = critical_point(0.3)
        delta = 0.01 * cp.j_c
        params = ModelParams.reduced(0.3, cp.h_c - cp.d_c * delta, cp.j_c + delta)
        monkeypatch.setattr(variational, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="gradient tolerance"):
            maximize_psi(params)

    def test_overflowing_activity_raises_runtime_error(self):
        # the overflow check reports it, with no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="overflows"):
                maximize_psi(ModelParams(0.5, h=[800.0, 0.0, 0.0]))

    def test_stationarity_of_outputs(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            params = random_params(rng)
            for point, _ in maximize_psi(params):
                assert fixed_point_residual(params, point) < 1e-10
                assert np.abs(grad_psi(point, params)).max() < 1e-8


def _certified_draws(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        params = ModelParams(
            rng.uniform(0.05, 0.95), h=rng.uniform(-6.0, 5.0, 3), J=rng.uniform(-4.0, 4.0, (3, 3))
        )
        if variational._concave(params):
            out.append(params)
    return out


# a fraction of a density's room: near 0 (a density vanishes), in the bulk,
# or near 1 (a monomer density vanishes)
_fraction = st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 1 - 1e-3), st.floats(1 - 1e-3, 1 - 1e-6))


class TestConcavityCertificate:
    @settings(max_examples=200)
    @given(alpha=st.floats(1e-3, 0.999), t=st.tuples(_fraction, _fraction, _fraction))
    def test_entropy_hessian_below_bound(self, alpha, t):
        # the lemma behind the certificate: on the region the entropy
        # Hessian is at most -D, D = diag(2/alpha, 2/(1-alpha), 1/min(alpha, 1-alpha))
        d_ab = t[2] * min(alpha, 1 - alpha)
        v = np.array([t[0] * (alpha - d_ab) / 2, t[1] * (1 - alpha - d_ab) / 2, d_ab])
        hess = variational._entropy_hessian(v, alpha)
        bound = np.array([2 / alpha, 2 / (1 - alpha), 1 / min(alpha, 1 - alpha)])
        # near a face the Hessian reaches 1e15; scaling it to unit diagonal
        # (a congruence, which keeps the signs of the eigenvalues) keeps
        # every entry O(1), so eigvalsh resolves the largest one
        s = 1 / np.sqrt(-np.diag(hess))
        lam = np.linalg.eigvalsh(s[:, None] * (hess + np.diag(bound)) * s)[-1]
        assert lam <= 1e-9 * (s * s * bound).max()

    def test_certified_matches_grid(self, monkeypatch):
        draws = _certified_draws(20, seed=91)
        certified = [maximize_psi(p) for p in draws]
        monkeypatch.setattr(variational, "_concave", lambda params: False)
        for params, got in zip(draws, certified):
            want = maximize_psi(params)
            assert len(got) == len(want) == 1
            assert np.abs(got[0][0].vector - want[0][0].vector).max() <= 1e-10
            assert abs(got[0][1] - want[0][1]) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.37, 0.81])
    def test_grid_matches_pointwise_psi(self, alpha):
        params = ModelParams(
            alpha, h=[0.4, -1.2, 0.7], J=[[1.5, -2.0, 0.3], [0.8, -0.6, 2.2], [-1.1, 0.4, 0.9]]
        )
        da, db, dab, values = variational._psi_grid(params, 17)
        want = variational._psi_arrays(da[:, :, None], db[:, None, :], dab[:, None, None], params)
        assert values.shape == (17, 17, 17)
        assert np.abs(values - want).max() <= 1e-13 * np.abs(want).max()
        # the grid reaches every face of the region
        assert np.allclose(2 * da[:, -1] + dab, alpha, rtol=0, atol=1e-15)
        assert np.allclose(2 * db[:, -1] + dab, 1 - alpha, rtol=0, atol=1e-15)
        assert dab[-1] == min(alpha, 1 - alpha)

    @pytest.mark.parametrize("ratio, certified", [(0.99, True), (1.01, False)])
    def test_grid_used_past_the_bound(self, monkeypatch, ratio, certified):
        # J = ratio D^1/2 w w^T D^1/2 for a unit w: its scaled form has
        # largest eigenvalue ``ratio``
        w = np.array([1.0, -2.0, 0.5]) / np.sqrt(5.25)
        root = np.sqrt([0.3 / 2, 0.7 / 2, 0.3])
        params = ModelParams(0.3, h=[-0.5, 0.2, -1.0], J=ratio * np.outer(w / root, w / root))
        assert variational._concave(params) is certified
        calls = []
        grid = variational._psi_grid
        monkeypatch.setattr(variational, "_psi_grid", lambda *a: calls.append(a) or grid(*a))
        results = maximize_psi(params)
        assert bool(calls) is not certified
        for point, _ in results:
            assert fixed_point_residual(params, point) < 1e-10

    def test_coexistence_not_certified(self):
        from dimerfield import coexistence_field, critical_point

        cp = critical_point(0.32)
        params = ModelParams.reduced(0.32, coexistence_field(0.32, 1.5 * cp.j_c, cp=cp), 1.5 * cp.j_c)
        assert not variational._concave(params)
        (low, low_value), (high, high_value) = sorted(maximize_psi(params), key=lambda t: t[0].d_ab)
        assert low.d_ab < cp.d_c < high.d_ab
        assert abs(low_value - high_value) < 1e-9


class TestPressure:
    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            assert pressure(random_params(rng)) >= 0.0

    def test_empty_phase_value(self):
        assert pressure(ModelParams(alpha=0.4, h=[-50, -50, -50])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_extrapolated_enumeration(self):
        # fit (1/N) log Z = p_est + C log N / N over N in {100, 200, 400}
        params = ModelParams(alpha=0.5)
        p = pressure(params)
        ns = np.array([100, 200, 400])
        ys = np.array([log_partition_exact(n, params) / n for n in ns])
        xs = np.log(ns) / ns
        design = np.vstack([np.ones_like(xs), xs]).T
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        assert abs(coef[0] - p) < 1e-3


class TestEnumerationConvergence:
    def test_log_envelope_random_parameters(self):
        rng = np.random.default_rng(2024)
        ns = [50, 100, 200, 400, 800]
        for _ in range(10):
            params = ModelParams(
                alpha=rng.uniform(0.25, 0.75),
                h=rng.uniform(-1, 1, 3),
                J=rng.uniform(-1, 1, (3, 3)),
            )
            p = pressure(params)
            errors = np.array(
                [abs(log_partition_exact(n, params) / n - p) for n in ns]
            )
            # the envelope constant e_N * N / log N must stay bounded: the
            # finite-size correction can change sign mid-range (so |e| may
            # dip), but it cannot grow faster than log N / N at the tail
            q = errors * np.array(ns) / np.log(ns)
            assert errors[-1] < errors[0]
            assert q[-1] <= 1.05 * q[:-1].max()
