"""The pruned enumeration kernel against a plain class sum over every class.

The plain sum below evaluates every admissible class with the kernel's own
per-class formula, in one extended-precision numpy array, and shares none
of the kernel's planes, blocking, ordering, pruning or streaming
log-sum-exp.  Agreement to 1e-13 relative therefore checks that the pruned
sum drops nothing that float64 can see; the formula itself is checked
against independent oracles in ``test_model.py``.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from dimerfield import ModelParams, _kernels, admissible_count, coexistence_field, critical_point, split_sizes
from dimerfield._kernels import (
    LOG2,
    _BLOCK,
    _block,
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
    """The kernel against the plain sum, without the mixed fraction
    (``mix=False``) and with it.  Returns the output with it."""
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


@pytest.mark.parametrize(
    "n, j_ab, side", [(200, 172.5, 28), (300, 700.0, 17), (200, 2000.0, 9), (200, -2000.0, 9), (120, 2e4, 2)]
)
def test_tile_side_shrinks_with_the_coupling_span(n, j_ab, side):
    # past the span limit at side 32 each cube is summed in smaller tiles,
    # the last of them cut short by the box; the quadratic form is negative
    # definite, so the peak is inside and every mean is O(N)
    assert _block(1.0 / n, j_ab) == side
    assert_matches_plain_sum(n, _negative_definite(j_ab))


# any tile side gives the same sums; the span limit only keeps them in range
@given(alpha=st.floats(0.05, 0.95), n=st.integers(2, 300), h=fields, j=couplings, side=st.integers(1, 31))
def test_any_tile_side_matches_plain_sum(alpha, n, h, j, side):
    with mock.patch.object(_kernels, "_block", lambda inv_n, j_ab: side):
        assert_matches_plain_sum(n, ModelParams(alpha=alpha, h=h, J=j))


def _negative_definite(j_ab):
    s = abs(j_ab)
    return ModelParams(0.4, h=[s / 10, s / 12, 1.0], J=_symmetric([-2 * s, j_ab, 0.0, -2 * s, 0.0, 0.0]))


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


def _reference_boxes(n_a, n_b):
    """Boxes [lo, hi] of the cubes that meet the polytope, in index order,
    from the full grid of cube corners: a cube meets the polytope iff its
    lowest corner is admissible, and ``hi`` is trimmed to the largest
    coordinate an admissible point of the cube reaches."""
    top = np.array([n_a // 2, n_b // 2, min(n_a, n_b)])
    axes = [np.arange(0, t + 1, _BLOCK) for t in top]
    lo = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    lo = lo[(2 * lo[:, 0] + lo[:, 2] <= n_a) & (2 * lo[:, 1] + lo[:, 2] <= n_b)]
    hi = np.minimum(lo + _BLOCK - 1, top)
    hi[:, 0] = np.minimum(hi[:, 0], (n_a - lo[:, 2]) // 2)
    hi[:, 1] = np.minimum(hi[:, 1], (n_b - lo[:, 2]) // 2)
    hi[:, 2] = np.minimum(hi[:, 2], np.minimum(n_a - 2 * lo[:, 0], n_b - 2 * lo[:, 1]))
    return lo, hi


# no class is enumerated, so this reaches the enumeration cap
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.93])
@pytest.mark.parametrize("n", [2, 3, 33, 64, 400, 2000])
def test_cubes_are_the_boxes_that_meet_the_polytope(n, alpha):
    params = ModelParams(alpha, h=[0.4, -0.3, 0.2], J=_symmetric([1.0, -2.0, 0.5, 3.0, -1.0, 2.0]))
    args = _kernel_args(n, params)
    lo, hi, bound = _cube_bounds(*args)
    want_lo, want_hi = _reference_boxes(args[0], args[1])
    np.testing.assert_array_equal(lo, want_lo)
    np.testing.assert_array_equal(hi, want_hi)
    assert np.isfinite(bound).all()


# the smallest normal J_AB: the cube side rule must not divide by it
@settings(max_examples=40)
@given(alpha=st.floats(0.05, 0.95), n=st.integers(2, 200), h=fields, j=couplings)
@example(alpha=0.5, n=200, h=[0.0, 0.0, 0.0], j=_symmetric([0.0, 2.2250738585072014e-308, 0.0, 0.0, 0.0, 0.0]))
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


def _cube_sums_3d(a, b, c, plane_ac, plane_bc, inv_n, j_ab, side, mix):
    """``_kernels._cube_sums_matrix`` from the 3-D array of the whole cube's
    terms, without tiles, each plane taken relative to its own maximum
    before it is rounded to float64, and s the cube's largest term."""
    plane_ab = inv_n * (j_ab * np.multiply.outer(a.astype(plane_ac.dtype), b))
    tops = [plane.max() for plane in (plane_ac, plane_bc, plane_ab)]
    ac, bc, ab = ((plane - top).astype(float) for plane, top in zip((plane_ac, plane_bc, plane_ab), tops))
    t = ac[:, None, :] + bc[None, :, :] + ab[:, :, None]
    e = np.exp(t - t.max())
    share = c / np.maximum(np.add.outer(a, b)[:, :, None] + c, 1.0)
    sums = (e.sum(), e.sum(axis=(1, 2)) @ a, e.sum(axis=(0, 2)) @ b, e.sum(axis=(0, 1)) @ c, (e * share).sum() * mix)
    return float(t.max() + sum(tops)), np.array(sums)


def test_matrix_sums_match_3d_sums_on_stress_draws(monkeypatch):
    draws = _stress_draws(130)
    # draw 56 (N = 400, J_AB = 144.5) underflowed to -inf when each plane
    # was scaled by its own maximum; draw 129 (N = 200, J_AB = 172.5) has
    # a coupling span past the limit at side 32, so its cubes are tiled
    for k, side in ((56, 32), (129, 28)):
        n, params = draws[k]
        assert _block(1.0 / n, params.j_sym[0, 1]) == side
    for k in [*range(60), 129]:
        args = _kernel_args(*draws[k])
        matrix = partition_sums(*args, mix=True)
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_cube_sums_matrix", _cube_sums_3d)
            full = partition_sums(*args, mix=True)
        assert abs(matrix[0] - full[0]) <= 1e-13 * max(1.0, abs(full[0])), (k, matrix[0], full[0])
        for got, want in zip(matrix[1:5], full[1:5]):
            assert abs(got - want) <= 1e-12 * abs(want), (k, got, want)


def test_side_one_tiles_keep_memory_bounded(monkeypatch):
    # at the cap with |J_AB| / N > 4 _SPAN_LIMIT the tiles are single
    # classes: 1,024 to a cube, stacked in arrays of at most 32^3 entries
    n, j_ab = 2000, -1.3e6
    args = _kernel_args(n, _negative_definite(j_ab))
    assert _block(1.0 / n, j_ab) == 1
    tracemalloc.start()
    try:
        got = partition_sums(*args, mix=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    # the 3-D sum rounds planes that span up to 2.6e6 nats on a cube to
    # float64, so it is a reference to about 1e-12 here
    monkeypatch.setattr(_kernels, "_cube_sums_matrix", _cube_sums_3d)
    want = partition_sums(*args, mix=True)
    assert got[5:] == want[5:]
    for g, w in zip(got[:5], want[:5]):
        assert abs(g - w) <= 1e-10 * abs(w), (g, w)
