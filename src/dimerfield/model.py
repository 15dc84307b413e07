"""Exact finite-size model by a pruned sum over dimer count classes.

For a mean-field Hamiltonian that depends on a configuration only through
the count vector D = (D_A, D_B, D_AB), summing the combinatorial weight of
each class over the admissible integer region gives Z_N with no sampling
involved anywhere.  The kernel sums the classes block by block in
descending order of a rigorous upper bound and skips the blocks that lie
more than 60 nats below the largest term; it reports a bound on the skipped
mass relative to Z, which stays below 1e-18 up to the enumeration cap, far
below float64 rounding.  So the result is exact up to that reported bound.
These routines are the oracle the variational and Gaussian-moment routes are
verified against.

All combinatorics run in log space (log-gamma), and the class sums use a
streaming log-sum-exp, so the enumeration stays stable for |J| large enough
that individual weights span hundreds of orders of magnitude.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from ._kernels import LOG2, partition_sums
from .params import DimerCounts, ModelParams, PopulationSizes

#: Largest N the class sum accepts by default; the tests check the pruned sum
#: and its tail bound up to here.
DEFAULT_ENUMERATION_CAP = 2000


def split_sizes(n: int, alpha: float) -> PopulationSizes:
    """Split N sites into populations of sizes ~alpha*N and ~(1-alpha)*N.

    Rounds to the nearest integer and clamps so both populations keep at
    least one site; the realized fraction differs from alpha by O(1/N).
    """
    if int(n) != n or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = int(n)
    n_a = int(round(alpha * n))
    n_a = min(max(n_a, 1), n - 1)
    return PopulationSizes(n=n, n_a=n_a, n_b=n - n_a)


def _require_admissible(counts: DimerCounts, sizes: PopulationSizes) -> None:
    m_a, m_b = counts.monomers(sizes)
    if m_a < 0 or m_b < 0:
        raise ValueError(
            f"counts {counts} violate the hard-core constraints for {sizes}: "
            f"monomer counts would be ({m_a}, {m_b})"
        )


def log_config_count(counts: DimerCounts, sizes: PopulationSizes) -> float:
    """Log of the number of configurations realizing the count vector.

    The class size is N_A! N_B! / (M_A! M_B! D_A! D_B! D_AB! 2^D_A 2^D_B):
    distribute sites among monomers and dimer endpoints, then quotient out
    the orderings within each intra-population pair.
    """
    _require_admissible(counts, sizes)
    m_a, m_b = counts.monomers(sizes)
    terms = [sizes.n_a, sizes.n_b]
    minus = [m_a, m_b, counts.d_a, counts.d_b, counts.d_ab]
    return float(
        sum(gammaln(t + 1.0) for t in terms)
        - sum(gammaln(t + 1.0) for t in minus)
        - (counts.d_a + counts.d_b) * LOG2
    )


def hamiltonian(counts: DimerCounts, n: int, params: ModelParams) -> float:
    """Energy -h.D - (1/2N) JD.D of a count vector at system size N."""
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    d = counts.vector
    return float(-params.h @ d - (params.J @ d) @ d / (2.0 * n))


def _ensemble_sums(n: int, params: ModelParams, cap: int):
    """(log Z, <D_A>, <D_B>, <D_AB>, <D_AB/|D|>, classes visited, log tail
    bound) at size N; see ``_kernels.partition_sums``."""
    sizes = split_sizes(n, params.alpha)
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the enumeration cap {cap}, beyond which the pruned "
            f"class sum is untested -- raise cap explicitly if you mean it"
        )
    lgf = gammaln(np.arange(n + 2, dtype=np.float64) + 1.0)
    return partition_sums(
        sizes.n_a,
        sizes.n_b,
        float(np.log(n)),
        1.0 / n,
        lgf,
        np.ascontiguousarray(params.h),
        np.ascontiguousarray(params.j_sym),
    )


def log_partition_exact(
    n: int, params: ModelParams, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """log Z_N by the exact triple sum over admissible count vectors.

    Each class contributes log phi - |D| log N - H_N(D); the N^-|D| factor
    is what keeps (1/N) log Z_N finite as N grows.
    """
    return float(_ensemble_sums(n, params, cap)[0])


def gibbs_expected_densities(
    n: int, params: ModelParams, cap: int = DEFAULT_ENUMERATION_CAP
) -> np.ndarray:
    """Gibbs means <D>/N as a density 3-vector, by the same enumeration."""
    _, s_a, s_b, s_ab = _ensemble_sums(n, params, cap)[:4]
    return np.array([s_a, s_b, s_ab]) / n


def d_mix_finite(
    n: int, params: ModelParams, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Gibbs mean of the mixed-dimer fraction D_AB/|D| at finite N.

    The empty configuration (|D| = 0) contributes ratio 0; its weight
    vanishes in the thermodynamic limit, and this convention keeps the
    observable inside [0, 1].
    """
    return float(_ensemble_sums(n, params, cap)[4])


def admissible_count(sizes: PopulationSizes) -> int:
    """Number of admissible count vectors (used by closure cross-checks).

    For fixed D_A with r = N_A - 2 D_A free A sites, D_B <= k with
    k = floor((N_B - r) / 2) allows D_AB <= r, and each larger D_B allows
    D_AB <= N_B - 2 D_B, so the D_B sum has a closed form.
    """
    r = sizes.n_a - 2 * np.arange(sizes.n_a // 2 + 1, dtype=np.int64)
    top = sizes.n_b // 2
    k = np.maximum((sizes.n_b - r) // 2, -1)
    rest = top - k
    total = (k + 1) * (r + 1) + rest * (sizes.n_b + 1) - (top * (top + 1) - k * (k + 1))
    return int(total.sum())
