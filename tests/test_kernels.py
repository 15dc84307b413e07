"""The pruned enumeration kernel against a plain class sum over every class.

The plain sum below evaluates every admissible class with the kernel's own
per-class formula, in one extended-precision numpy array, and shares none
of the kernel's planes, blocking, ordering, pruning or streaming
log-sum-exp.  Agreement to 1e-13 relative therefore checks that the pruned
sum drops nothing that float64 can see; the formula itself is checked
against independent oracles in ``test_model.py``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from dimerfield import ModelParams, admissible_count, coexistence_field, critical_point, split_sizes
from dimerfield._kernels import (
    LOG2,
    _SPAN_LIMIT,
    _coupling_span,
    _cube_bounds,
    active_backend,
    partition_sums,
)

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
    def lg(x):  # the counts may come as extended-precision floats
        return lgf[x.astype(int)]

    quad = (
        j[0, 0] * a * a
        + j[1, 1] * b * b
        + j[2, 2] * c * c
        + 2.0 * (j[0, 1] * a * b + j[0, 2] * a * c + j[1, 2] * b * c)
    )
    return (
        lgf[n_a]
        + lgf[n_b]
        - lg(n_a - 2 * a - c)
        - lg(n_b - 2 * b - c)
        - lg(a)
        - lg(b)
        - lg(c)
        - (a + b) * LOG2
        - (a + b + c) * log_n
        + h[0] * a
        + h[1] * b
        + h[2] * c
        + 0.5 * inv_n * quad
    )


def plain_sums(n_a, n_b, log_n, inv_n, lgf, h, j):
    """(log Z, <D_A>, <D_B>, <D_AB>, <D_AB/|D|>) over every admissible class.

    Summed in extended precision on the same lgf table: each term adds pieces
    of size N log N and |J| N, whose float64 rounding alone moves the means
    by up to 1e-13 relative, as much as REL allows.
    """
    a, b, c = (x.astype(np.longdouble) for x in _classes(n_a, n_b))
    t = _terms(n_a, n_b, np.longdouble(log_n), inv_n, lgf.astype(np.longdouble), h, j, a, b, c)
    top = t.max()
    w = np.exp(t - top)
    z = w.sum()
    tot = a + b + c
    mix = np.where(tot > 0, c / np.maximum(tot, 1), 0.0)
    return [float(v) for v in (top + np.log(z), (w @ a) / z, (w @ b) / z, (w @ c) / z, (w @ mix) / z)]


def assert_matches_plain_sum(n, params):
    """Both paths of the kernel against the plain sum: the matrix sums
    (``mix=False``, no mixed fraction) and the 3-D sum (``mix=True``).
    Returns the 3-D path's output."""
    args = _kernel_args(n, params)
    ref = plain_sums(*args)
    total = admissible_count(split_sizes(n, params.alpha))
    for mix in (False, True):
        out = partition_sums(*args, mix=mix)
        for got, want in zip(out[: 4 + mix], ref):
            assert abs(got - want) <= REL * abs(want), (mix, got, want)
        if not mix:
            assert np.isnan(out[4])
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


# Which examples Hypothesis draws here depends on the other modules
# collected, so the known hard draws are pinned: a float64 class sum is off
# by 9.7e-14 and 1.2e-13 relative on these two.
@given(alpha=st.floats(0.05, 0.95), n=st.integers(2, 300), h=fields, j=couplings)
@example(alpha=0.91796875, n=219, h=[3.0, -2.0, 0.0], j=_symmetric([16.0, 0.5, 0.0, 1.0, 0.0, 1.0]))
@example(alpha=0.921875, n=220, h=[3.0, -2.0, 0.0], j=_symmetric([13.0, 0.5, 0.0, 1.0, 0.0, 1.0]))
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
    # a convex quadratic large enough that t is far from concave
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


@pytest.mark.parametrize("case, n", [("ferro_j_30", 200), ("ferro_j_30", 400), ("coexistence_two_peaks", 400)])
def test_means_match_extended_precision_sum(case, n):
    # the kernel forms each cube's terms from extended-precision planes, so
    # the means keep float64 accuracy although the terms' pieces are large
    args = _kernel_args(n, FIXED[case][1]())
    out = partition_sums(*args)
    for got, want in zip(out[1:4], plain_sums(*args)[1:4]):
        assert abs(got - want) <= 1e-14 * abs(want), (got, want)


def assert_no_class_above_its_cube_bound(n, params):
    args = _kernel_args(n, params)
    j = args[6]
    lo, hi, bound = _cube_bounds(*args)
    a, b, c = _classes(args[0], args[1])
    t = _terms(*args, a, b, c)
    covered = np.zeros(len(t), dtype=int)
    for k in range(len(bound)):
        inside = (a >= lo[k, 0]) & (a <= hi[k, 0]) & (b >= lo[k, 1]) & (b <= hi[k, 1])
        inside &= (c >= lo[k, 2]) & (c <= hi[k, 2])
        covered += inside
        slack = 1e-9 * max(1.0, abs(bound[k]))
        assert t[inside].max() <= bound[k] + slack
        if j[0, 1] == 0:
            # without the D_A D_B coupling the bound is the cube's largest term
            assert t[inside].max() >= bound[k] - slack
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


def test_numpy_path_deterministic():
    cases = [
        (40, ModelParams(alpha=0.37, h=[0.2, -0.4, 0.6], J=0.8 * np.eye(3))),
        (400, _reduced(0.5, 1.5)),
    ]
    for (n, params), mix in itertools.product(cases, (False, True)):
        args = _kernel_args(n, params)
        first = partition_sums(*args, mix=mix)
        second = partition_sums(*args, mix=mix)
        np.testing.assert_array_equal(first, second)


def _stress_draws(count):
    """Seeded (N, params) draws with fields up to +-30 and couplings up to
    10^2.5 in size, where a term's pieces span hundreds of nats."""
    rng = np.random.default_rng(20261020)
    draws = []
    for _ in range(count):
        alpha = rng.uniform(0.1, 0.9)
        s = 10 ** rng.uniform(0, 2.5)
        h = rng.uniform(-30, 30, 3)
        j = rng.uniform(-s, s, (3, 3))
        n = int(rng.choice([200, 400, 800]))
        draws.append((n, ModelParams(alpha=alpha, h=h, J=(j + j.T) / 2)))
    return draws


def test_matrix_sums_match_3d_sums_on_stress_draws():
    draws = _stress_draws(130)
    # draw 56 (N = 400, J_AB = 144.5) underflowed to -inf when each plane
    # was scaled by its own maximum, and takes the matrix sums; draw 129
    # (N = 200, J_AB = 172.5) lies past the span limit, so both calls
    # take the 3-D sum
    for k, matrix_path in ((56, True), (129, False)):
        n, params = draws[k]
        assert (_coupling_span(1.0 / n, params.j_sym[0, 1]) <= _SPAN_LIMIT) == matrix_path
    for k in [*range(60), 129]:
        args = _kernel_args(*draws[k])
        matrix, full = partition_sums(*args), partition_sums(*args, mix=True)
        assert abs(matrix[0] - full[0]) <= 1e-13 * max(1.0, abs(full[0])), (k, matrix[0], full[0])
        for got, want in zip(matrix[1:4], full[1:4]):
            assert abs(got - want) <= 1e-12 * abs(want), (k, got, want)
