"""Exact finite-size model by a pruned sum over dimer count classes.

For a mean-field Hamiltonian that depends on a configuration only through
the count vector D = (D_A, D_B, D_AB), summing the combinatorial weight of
each class over the admissible integer region gives Z_N with no sampling
involved anywhere.  The kernel (``_kernels.partition_sums``) sums the
classes in cubes of side 32, in descending order of an upper bound built
from the class term's planes (exact when J_AB = 0), and stops at the first
cube whose bound lies more than 60 nats below the running log Z; it reports
a bound on the skipped mass relative to Z, which stays below 1e-18 up to
the enumeration cap (at most 7.6e-19 a priori, 3.2e-21 or less measured),
far below float64 rounding.  So the result is exact up to that reported
bound.  Each cube's sums of e^t, D_A e^t, D_B e^t and D_AB e^t come from
two 32 x 32 matrix products of the planes' exponentials, each scaled per
D_AB column below the cube's plane bound, and the mixed fraction
<D_AB/|D|> (``d_mix_finite``) weights the product of the same factors.
When |J_AB| 15.5^2 / N exceeds about 162 nats the factors are formed on
smaller (D_A, D_B) tiles of each cube, so that they keep every term that
counts in float64 range.

These routines are the oracle the variational and Gaussian-moment routes are
verified against.

All combinatorics run in log space (log-gamma), and the class sums use a
streaming log-sum-exp, so the enumeration stays stable for |J| large enough
that individual weights span hundreds of orders of magnitude.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import partition_sums
from .params import ModelParams, PopulationSizes, _check_alpha, _is_integer

#: Largest N the class sum accepts; the tests check the pruned sum and its
#: tail bound up to here.
DEFAULT_ENUMERATION_CAP = 2000


def split_sizes(n: int, alpha: float) -> PopulationSizes:
    """Split N sites into populations of sizes ~alpha*N and ~(1-alpha)*N.

    Rounds to the nearest integer and clamps so both populations keep at
    least one site; the realized fraction differs from alpha by O(1/N).
    """
    if not _is_integer(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    n = int(n)
    n_a = int(round(_check_alpha(alpha) * n))
    n_a = min(max(n_a, 1), n - 1)
    return PopulationSizes(n=n, n_a=n_a, n_b=n - n_a)


def _ensemble_sums(n: int, params: ModelParams, *, mix: bool = False):
    """(log Z, <D_A>, <D_B>, <D_AB>, <D_AB/|D|>, classes visited, log tail
    bound) at size N; the mixed fraction is nan unless ``mix``.  See
    ``_kernels.partition_sums``."""
    sizes = split_sizes(n, params.alpha)
    n = sizes.n
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"n={n} exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}, beyond "
            f"which the pruned class sum is untested"
        )
    lgf = np.array([math.lgamma(k + 1.0) for k in range(n + 2)])
    return partition_sums(
        sizes.n_a,
        sizes.n_b,
        float(np.log(n)),
        1.0 / n,
        lgf,
        np.ascontiguousarray(params.h),
        np.ascontiguousarray(params.j_sym),
        mix=mix,
    )


def log_partition_exact(n: int, params: ModelParams) -> float:
    """log Z_N by the exact triple sum over admissible count vectors.

    Each class contributes log phi - |D| log N - H_N(D); the N^-|D| factor
    is what keeps (1/N) log Z_N finite as N grows.
    """
    return float(_ensemble_sums(n, params)[0])


def gibbs_expected_densities(n: int, params: ModelParams) -> np.ndarray:
    """Gibbs means <D>/N as a density 3-vector, by the same enumeration."""
    _, s_a, s_b, s_ab = _ensemble_sums(n, params)[:4]
    return np.array([s_a, s_b, s_ab]) / n


def d_mix_finite(n: int, params: ModelParams) -> float:
    """Gibbs mean of the mixed-dimer fraction D_AB/|D| at finite N.

    The empty configuration (|D| = 0) contributes ratio 0; its weight
    vanishes in the thermodynamic limit, and this convention keeps the
    observable inside [0, 1].
    """
    return float(_ensemble_sums(n, params, mix=True)[4])


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
