"""Exact-enumeration model: counting, Hamiltonian, partition sums.

The independent oracle here enumerates labelled monomer-dimer
configurations edge by edge (itertools over vertex-disjoint edge sets) and
must agree with the count-class enumeration exactly.  The per-class
oracles `log_config_count` and `hamiltonian` write the class weight out
apart from the kernel, on plain integer counts (D_A, D_B, D_AB).
"""

import itertools
import math

import numpy as np
import pytest

from dimerfield import (
    ModelParams,
    PopulationSizes,
    admissible_count,
    critical_point,
    d_mix_finite,
    gibbs_expected_densities,
    log_partition_exact,
    maximize_psi,
    mixed_dimer_fraction,
    pressure,
    split_sizes,
    solve_zero_coupling,
)
from dimerfield.model import DEFAULT_ENUMERATION_CAP, _ensemble_sums


def log_config_count(d_a, d_b, d_ab, sizes):
    """Log of the number of configurations realizing the count vector.

    The class size is N_A! N_B! / (M_A! M_B! D_A! D_B! D_AB! 2^D_A 2^D_B):
    distribute sites among monomers and dimer endpoints, then quotient out
    the orderings within each intra-population pair.  ValueError when the
    counts leave a negative monomer count.
    """
    m_a, m_b = sizes.n_a - 2 * d_a - d_ab, sizes.n_b - 2 * d_b - d_ab
    if min(d_a, d_b, d_ab, m_a, m_b) < 0:
        raise ValueError(f"counts {(d_a, d_b, d_ab)} violate the hard-core constraints for {sizes}")
    return (
        sum(math.lgamma(t + 1.0) for t in (sizes.n_a, sizes.n_b))
        - sum(math.lgamma(t + 1.0) for t in (m_a, m_b, d_a, d_b, d_ab))
        - (d_a + d_b) * math.log(2.0)
    )


def hamiltonian(d_a, d_b, d_ab, n, params):
    """Energy -h.D - (1/2N) JD.D of a count vector at system size N."""
    d = np.array([d_a, d_b, d_ab], dtype=float)
    return float(-params.h @ d - (params.J @ d) @ d / (2.0 * n))


def matching_oracle(n, params):
    """Brute-force (log Z, <D>/N, <D_AB/|D|>) over labelled configurations.

    Builds every matching of the complete graph on N labelled sites and
    accumulates N^-|D| exp(-H) directly; completely independent of the
    count-class machinery.  Tiny N only.
    """
    sizes = split_sizes(n, params.alpha)
    sites = list(range(n))
    is_a = [i < sizes.n_a for i in sites]
    edges = list(itertools.combinations(sites, 2))

    def extend(matchings, used, chosen, start):
        matchings.append(list(chosen))
        for k in range(start, len(edges)):
            i, j = edges[k]
            if i in used or j in used:
                continue
            used.update((i, j))
            chosen.append(edges[k])
            extend(matchings, used, chosen, k + 1)
            chosen.pop()
            used.difference_update((i, j))

    matchings = []
    extend(matchings, set(), [], 0)
    total = 0.0
    mean = np.zeros(3)
    mix = 0.0
    for m in matchings:
        d_a = sum(1 for i, j in m if is_a[i] and is_a[j])
        d_b = sum(1 for i, j in m if not is_a[i] and not is_a[j])
        d_ab = len(m) - d_a - d_b
        w = n ** (-len(m)) * np.exp(-hamiltonian(d_a, d_b, d_ab, n, params))
        total += w
        mean += w * np.array([d_a, d_b, d_ab])
        if m:
            mix += w * d_ab / len(m)
    return np.log(total), mean / (n * total), mix / total


class TestSplitSizes:
    def test_fractional_round(self):
        assert split_sizes(16, 0.3125) == PopulationSizes(16, 5, 11)

    def test_exact_halving(self):
        assert split_sizes(2, 0.5) == PopulationSizes(2, 1, 1)

    def test_clamps_to_one(self):
        assert split_sizes(10, 0.001) == PopulationSizes(10, 1, 9)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            split_sizes(1, 0.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            split_sizes(10, 1.0)


class TestConfigCount:
    def test_empty(self):
        sizes = PopulationSizes(4, 2, 2)
        assert log_config_count(0, 0, 0, sizes) == pytest.approx(0.0)

    def test_one_mixed(self):
        sizes = PopulationSizes(4, 2, 2)
        assert log_config_count(0, 0, 1, sizes) == pytest.approx(np.log(4.0))

    def test_one_intra(self):
        sizes = PopulationSizes(4, 2, 2)
        assert log_config_count(1, 0, 0, sizes) == pytest.approx(0.0)

    def test_rejects_hard_core_violation(self):
        sizes = PopulationSizes(4, 2, 2)
        with pytest.raises(ValueError):
            log_config_count(1, 0, 1, sizes)


class TestHamiltonian:
    def test_free_case(self):
        params = ModelParams(alpha=0.5)
        assert hamiltonian(1, 2, 3, 16, params) == 0.0

    def test_linear_term(self):
        params = ModelParams(alpha=0.5, h=[0, 0, 1])
        assert hamiltonian(0, 0, 2, 4, params) == pytest.approx(-2.0)

    def test_quadratic_term(self):
        J = np.zeros((3, 3))
        J[2, 2] = 4.0
        params = ModelParams(alpha=0.5, J=J)
        assert hamiltonian(0, 0, 2, 4, params) == pytest.approx(-2.0)


class TestPartitionFunction:
    def test_n2_free(self):
        assert log_partition_exact(2, ModelParams(alpha=0.5)) == pytest.approx(np.log(1.5))

    def test_n4_free(self):
        # six admissible classes: (0,0,0), (1,0,0), (0,1,0), (0,0,1),
        # (0,0,2) and (1,1,0); weights 1 + 1/4 + 1/4 + 1 + 1/8 + 1/16
        assert log_partition_exact(4, ModelParams(alpha=0.5)) == pytest.approx(
            np.log(2.6875), abs=1e-13
        )

    def test_n2_field(self):
        for h_ab in (-1.0, 0.3, 2.0):
            params = ModelParams(alpha=0.5, h=[0, 0, h_ab])
            assert log_partition_exact(2, params) == pytest.approx(
                np.log(1.0 + np.exp(h_ab) / 2.0)
            )

    @pytest.mark.parametrize("n", [2, 4, 6, 7])
    def test_matching_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            params = ModelParams(
                alpha=rng.uniform(0.25, 0.75),
                h=rng.uniform(-1, 1, 3),
                J=rng.uniform(-1, 1, (3, 3)),
            )
            log_z, dens, mix = matching_oracle(n, params)
            assert log_partition_exact(n, params) == pytest.approx(log_z, abs=1e-11)
            assert gibbs_expected_densities(n, params) == pytest.approx(dens, abs=1e-12)
            assert d_mix_finite(n, params) == pytest.approx(mix, abs=1e-12)

    def test_z_at_least_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            params = ModelParams(
                alpha=rng.uniform(0.1, 0.9),
                h=rng.uniform(-2, 1, 3),
                J=rng.uniform(-1, 1, (3, 3)),
            )
            n = int(rng.integers(2, 61))
            assert log_partition_exact(n, params) >= 0.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(5)
        for n, alpha in ((10, 0.3), (17, 0.4), (24, 0.25)):
            params = ModelParams(
                alpha=alpha, h=rng.uniform(-1, 1, 3), J=rng.uniform(-1, 1, (3, 3))
            )
            swapped = params.swapped()
            # sizes must swap exactly for the identity to be exact
            s, t = split_sizes(n, params.alpha), split_sizes(n, swapped.alpha)
            assert (s.n_a, s.n_b) == (t.n_b, t.n_a)
            assert log_partition_exact(n, params) == pytest.approx(
                log_partition_exact(n, swapped), rel=1e-13
            )

    def test_cap(self):
        # every entry point refuses N past the cap before enumerating
        params = ModelParams(alpha=0.5)
        for fn in (log_partition_exact, gibbs_expected_densities, d_mix_finite):
            with pytest.raises(ValueError, match="enumeration cap"):
                fn(DEFAULT_ENUMERATION_CAP + 1, params)

    def test_integral_float_n(self):
        params = ModelParams(alpha=0.5, h=[0.3, -0.6, 0.2])
        assert log_partition_exact(2.0, params) == log_partition_exact(2, params)

    def test_at_enumeration_cap(self):
        # N = 2000 visits 5.3e6 of the 8.4e7 classes; the sum must still
        # sit inside the log N / N envelope of the limit pressure, and one
        # site more is refused
        n = DEFAULT_ENUMERATION_CAP
        params = ModelParams(
            alpha=0.5,
            h=[0.3, -0.6, 0.2],
            J=[[0.5, -0.4, 0.2], [-0.4, -0.8, 0.6], [0.2, 0.6, 0.3]],
        )
        log_z, _, _, _, _, visited, log_tail = _ensemble_sums(n, params)
        assert abs(log_z / n - pressure(params)) <= np.log(n) / n
        assert log_tail <= np.log(1e-15)
        assert visited < admissible_count(split_sizes(n, params.alpha))
        with pytest.raises(ValueError, match="enumeration cap"):
            _ensemble_sums(n + 1, params)


class TestHardCoreClosure:
    @pytest.mark.parametrize("n_a,n_b", [(2, 2), (5, 11), (7, 3), (12, 12)])
    def test_rejection_recount(self, n_a, n_b):
        sizes = PopulationSizes(n_a + n_b, n_a, n_b)
        brute = 0
        for d_a in range(n_a + 1):
            for d_b in range(n_b + 1):
                for d_ab in range(n_a + n_b + 1):
                    if 2 * d_a + d_ab <= n_a and 2 * d_b + d_ab <= n_b:
                        brute += 1
        assert admissible_count(sizes) == brute

    def test_closed_form_matches_loop(self):
        for n_a in range(1, 61):
            for n_b in range(1, 61):
                loop = 0
                for d_a in range(n_a // 2 + 1):
                    for d_b in range(n_b // 2 + 1):
                        loop += min(n_a - 2 * d_a, n_b - 2 * d_b) + 1
                assert admissible_count(PopulationSizes(n_a + n_b, n_a, n_b)) == loop


class TestGibbsObservables:
    def test_n2_density(self):
        dens = gibbs_expected_densities(2, ModelParams(alpha=0.5))
        assert dens == pytest.approx([0.0, 0.0, 1.0 / 6.0])

    def test_strong_negative_field_empties(self):
        params = ModelParams(alpha=0.5, h=[-50, -50, -50])
        assert np.all(gibbs_expected_densities(12, params) < 1e-8)

    def test_converges_to_variational_solution(self):
        params = ModelParams(alpha=0.5)
        d_star = solve_zero_coupling([0.0, 0.0, 0.0], 0.5).vector
        dens = gibbs_expected_densities(200, params)
        assert np.abs(dens - d_star).max() < 0.01

    def test_log_z_derivative_is_mean(self):
        params = ModelParams(
            alpha=0.4, h=np.array([0.2, -0.3, 0.1]), J=0.5 * np.eye(3)
        )
        n = 30
        mean = gibbs_expected_densities(n, params) * n
        step = 1e-5
        for i in range(3):
            hp, hm = params.h.copy(), params.h.copy()
            hp[i] += step
            hm[i] -= step
            fd = (
                log_partition_exact(n, ModelParams(alpha=0.4, h=hp, J=params.J))
                - log_partition_exact(n, ModelParams(alpha=0.4, h=hm, J=params.J))
            ) / (2 * step)
            assert fd == pytest.approx(mean[i], rel=1e-6)

    def test_means_monotone_in_field(self):
        base = np.array([-0.3, 0.2, -0.1])
        for n in (8, 14):
            for i in range(3):
                hp, hm = base.copy(), base.copy()
                hp[i] += 0.05
                hm[i] -= 0.05
                up = gibbs_expected_densities(n, ModelParams(alpha=0.4, h=hp))
                dn = gibbs_expected_densities(n, ModelParams(alpha=0.4, h=hm))
                assert up[i] >= dn[i]


class TestMixedFraction:
    def test_n2(self):
        assert d_mix_finite(2, ModelParams(alpha=0.5)) == pytest.approx(1.0 / 3.0)

    def test_n4(self):
        # ratio-weighted classes: (0,0,1) weight 1 and (0,0,2) weight 1/8
        assert d_mix_finite(4, ModelParams(alpha=0.5)) == pytest.approx(1.125 / 2.6875)

    def test_suppressed_intra_monotone_in_h_ab(self):
        vals = []
        for h_ab in (-1.0, 0.0, 1.0, 2.0):
            params = ModelParams(alpha=0.5, h=[-50.0, -50.0, h_ab])
            vals.append(d_mix_finite(10, params))
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.99  # mixed dimers dominate outright

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            params = ModelParams(
                alpha=rng.uniform(0.2, 0.8), h=rng.uniform(-1, 1, 3)
            )
            v = d_mix_finite(int(rng.integers(2, 30)), params)
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("case", ["free", "reduced", "full_j"])
    def test_approaches_the_variational_limit(self, case):
        # N (d_mix_finite(N) - d*_AB / |d*|) settles to a constant (0.34,
        # 0.86 and 0.52 here), so the finite sum tends to the fraction at
        # the maximizer d* of psi with an O(1/N) correction
        params = {
            "free": lambda: ModelParams(0.5, h=[0.0, 0.0, -1.0]),
            "reduced": lambda: ModelParams.reduced(0.3, -1.5, 0.6 * critical_point(0.3).j_c),
            "full_j": lambda: ModelParams(
                0.4, h=[0.2, -0.3, 0.1], J=[[-0.5, 0.2, 0.1], [0.2, -0.3, 0.4], [0.1, 0.4, -0.6]]
            ),
        }[case]()
        ((d, _),) = maximize_psi(params)
        if case == "reduced":
            limit = mixed_dimer_fraction(d.d_ab, params.alpha)
        else:
            limit = d.d_ab / (d.d_a + d.d_b + d.d_ab)
        scaled = [n * (d_mix_finite(n, params) - limit) for n in (500, 1000, 2000)]
        assert max(scaled) < 1.01 * min(scaled) and min(scaled) > 0.0, scaled
