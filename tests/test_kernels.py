"""Determinism of the enumeration kernel."""

import numpy as np
from scipy.special import gammaln

from dimerfield import ModelParams, split_sizes
from dimerfield._kernels import active_backend, partition_sums


def _kernel_args(n, params):
    sizes = split_sizes(n, params.alpha)
    lgf = gammaln(np.arange(n + 2, dtype=float) + 1.0)
    return (
        sizes.n_a,
        sizes.n_b,
        float(np.log(n)),
        1.0 / n,
        lgf,
        np.ascontiguousarray(params.h),
        np.ascontiguousarray(params.j_sym),
    )


def test_active_backend_named():
    assert active_backend() == "numpy"


def test_numpy_path_deterministic():
    params = ModelParams(alpha=0.37, h=[0.2, -0.4, 0.6], J=0.8 * np.eye(3))
    args = _kernel_args(40, params)
    first = partition_sums(*args)
    second = partition_sums(*args)
    assert first == second
