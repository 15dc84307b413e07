"""The pruned enumeration kernel against a plain class sum over every class.

The plain sum below evaluates every admissible class with the kernel's own
per-class formula, in one numpy array, and shares none of the kernel's
blocking, ordering, pruning or streaming log-sum-exp.  Agreement to 1e-13
relative therefore checks that the pruned sum drops nothing that float64
can see; the formula itself is checked against independent oracles in
``test_model.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from dimerfield import ModelParams, admissible_count, coexistence_field, critical_point, split_sizes
from dimerfield._kernels import LOG2, _cube_bounds, _tangent, active_backend, partition_sums

REL = 1e-13
TAIL = 1e-15


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


def _classes(n_a, n_b):
    a, b, c = np.mgrid[0 : n_a // 2 + 1, 0 : n_b // 2 + 1, 0 : min(n_a, n_b) + 1]
    keep = (2 * a + c <= n_a) & (2 * b + c <= n_b)
    return a[keep], b[keep], c[keep]


def _terms(n_a, n_b, log_n, inv_n, lgf, h, j, a, b, c):
    quad = (
        j[0, 0] * a * a
        + j[1, 1] * b * b
        + j[2, 2] * c * c
        + 2.0 * (j[0, 1] * a * b + j[0, 2] * a * c + j[1, 2] * b * c)
    )
    return (
        lgf[n_a]
        + lgf[n_b]
        - lgf[n_a - 2 * a - c]
        - lgf[n_b - 2 * b - c]
        - lgf[a]
        - lgf[b]
        - lgf[c]
        - (a + b) * LOG2
        - (a + b + c) * log_n
        + h[0] * a
        + h[1] * b
        + h[2] * c
        + 0.5 * inv_n * quad
    )


def plain_sums(n_a, n_b, log_n, inv_n, lgf, h, j):
    """(log Z, <D_A>, <D_B>, <D_AB>, <D_AB/|D|>) over every admissible class."""
    a, b, c = _classes(n_a, n_b)
    t = _terms(n_a, n_b, log_n, inv_n, lgf, h, j, a, b, c)
    top = t.max()
    w = np.exp(t - top)
    z = w.sum()
    tot = a + b + c
    mix = np.where(tot > 0, c / np.maximum(tot, 1), 0.0)
    return top + np.log(z), (w @ a) / z, (w @ b) / z, (w @ c) / z, (w @ mix) / z


def assert_matches_plain_sum(n, params):
    args = _kernel_args(n, params)
    out = partition_sums(*args)
    ref = plain_sums(*args)
    for got, want in zip(out[:5], ref):
        assert abs(got - want) <= REL * abs(want), (got, want)
    total = admissible_count(split_sizes(n, params.alpha))
    assert out[6] <= np.log(TAIL)
    assert out[5] <= total
    if out[6] == -np.inf:
        assert out[5] == total
    return out


def _symmetric(entries):
    a, b, c, d, e, f = entries
    return np.array([[a, b, c], [b, d, e], [c, e, f]])


fields = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)
couplings = st.lists(st.floats(-30.0, 30.0), min_size=6, max_size=6).map(_symmetric)


def test_active_backend_named():
    assert active_backend() == "numpy"


@given(alpha=st.floats(0.05, 0.95), n=st.integers(2, 300), h=fields, j=couplings)
def test_matches_plain_sum(alpha, n, h, j):
    assert_matches_plain_sum(n, ModelParams(alpha=alpha, h=h, J=j))


def _reduced(alpha, ratio):
    cp = critical_point(alpha)
    if ratio == 1.0:
        return ModelParams.reduced(alpha, cp.h_c, cp.j_c)
    return ModelParams.reduced(alpha, coexistence_field(alpha, ratio * cp.j_c, cp=cp), ratio * cp.j_c)


FIXED = {
    "coexistence_two_peaks": (400, lambda: _reduced(0.5, 1.5)),
    "critical_alpha_0.1": (400, lambda: _reduced(0.1, 1.0)),
    "critical_alpha_0.5": (400, lambda: _reduced(0.5, 1.0)),
    "antiferro_j_-200": (400, lambda: ModelParams(0.5, h=[0.3, -0.2, 1.0], J=-200.0 * np.eye(3))),
    "ferro_j_20": (400, lambda: ModelParams(0.5, h=[-0.3, 0.2, -1.0], J=20.0 * np.eye(3))),
    # a convex quadratic large enough that the bound comes within 1 nat of
    # the largest class in its cube
    "ferro_j_30": (200, lambda: ModelParams(0.5, J=30.0 * np.eye(3))),
    "one_a_site": (300, lambda: ModelParams(0.003, h=[0.5, -0.5, 0.5], J=np.ones((3, 3)))),
    "n_2": (2, lambda: ModelParams(0.5, h=[0.1, 0.2, -0.3], J=np.eye(3))),
    "n_3": (3, lambda: ModelParams(0.4, h=[0.1, 0.2, -0.3], J=-np.eye(3))),
}


@pytest.mark.parametrize("case", sorted(FIXED))
def test_fixed_cases_match_plain_sum(case):
    n, make = FIXED[case]
    params = make()
    if case == "one_a_site":
        assert split_sizes(n, params.alpha).n_a == 1
    out = assert_matches_plain_sum(n, params)
    if n >= 400:
        # these cases skip blocks, so the match shows that no peak was
        # dropped: on the coexistence line two maxima share the weight
        assert out[6] > -np.inf
        assert out[5] < admissible_count(split_sizes(n, params.alpha))


def assert_no_class_above_its_cube_bound(n, params):
    args = _kernel_args(n, params)
    lo, hi, bound = _cube_bounds(*args)
    a, b, c = _classes(args[0], args[1])
    t = _terms(*args, a, b, c)
    covered = np.zeros(len(t), dtype=int)
    for k in range(len(bound)):
        inside = (a >= lo[k, 0]) & (a <= hi[k, 0]) & (b >= lo[k, 1]) & (b <= hi[k, 1])
        inside &= (c >= lo[k, 2]) & (c <= hi[k, 2])
        covered += inside
        assert t[inside].max() <= bound[k] + 1e-9 * max(1.0, abs(bound[k]))
    # the boxes partition the admissible classes
    assert (covered == 1).all()


@settings(max_examples=40)
@given(alpha=st.floats(0.05, 0.95), n=st.integers(2, 200), h=fields, j=couplings)
def test_no_class_above_its_cube_bound(alpha, n, h, j):
    assert_no_class_above_its_cube_bound(n, ModelParams(alpha=alpha, h=h, J=j))


@pytest.mark.parametrize("case", sorted(FIXED))
def test_fixed_cases_bounded(case):
    n, make = FIXED[case]
    assert_no_class_above_its_cube_bound(n, make())


@pytest.mark.parametrize("case", ["antiferro_j_-200", "coexistence_two_peaks", "critical_alpha_0.1", "ferro_j_30"])
def test_tangent_matches_terms_and_differences(case):
    # the bound's expansion: t at lattice points equals the class formula,
    # and grad t matches central differences of t at interior real points
    n, make = FIXED[case]
    args = _kernel_args(n, make())
    n_a, n_b = args[0], args[1]
    a, b, c = _classes(n_a, n_b)
    pick = np.linspace(0, len(a) - 1, 50).astype(int)
    lattice = np.stack([a[pick], b[pick], c[pick]], axis=1).astype(float)
    t, _ = _tangent(lattice, *args)
    want = _terms(*args, a[pick], b[pick], c[pick])
    assert np.abs(t - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    # interior points: every lgamma argument at least 1
    p = 0.25 * lattice + np.array([0.3, 0.3, 0.3])
    p = p[(n_a - 2 * p[:, 0] - p[:, 2] >= 1.0) & (n_b - 2 * p[:, 1] - p[:, 2] >= 1.0)]
    _, grad = _tangent(p, *args)
    step = 1e-5
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = step
        fd = (_tangent(p + e, *args)[0] - _tangent(p - e, *args)[0]) / (2 * step)
        assert np.abs(fd - grad[:, axis]).max() <= 1e-5 * max(1.0, np.abs(grad).max())


def test_numpy_path_deterministic():
    cases = [
        (40, ModelParams(alpha=0.37, h=[0.2, -0.4, 0.6], J=0.8 * np.eye(3))),
        (400, _reduced(0.5, 1.5)),
    ]
    for n, params in cases:
        args = _kernel_args(n, params)
        first = partition_sums(*args)
        second = partition_sums(*args)
        assert first == second
