"""Hot inner loop for the exact enumeration: a block-pruned class sum.

The class sum runs over admissible dimer count vectors D = (D_A, D_B, D_AB),
each class contributing t(D) = log phi(D) - |D| log N + h.D + D.J.D / (2N).
No term of t depends on all three counts, so t is a sum of planes:

    t = P_A(D_A, D_AB) + P_B(D_B, D_AB) + C(D_AB) + J_AB D_A D_B / N,

where P_x holds the terms of population x's dimers and monomers and C those
of D_AB alone.  The kernel cuts count space into cubes of side ``_BLOCK``
and bounds each by

    U = max over D_AB of [C + max over D_A of P_A + max over D_B of P_B]
        + J_AB D_A D_B / N at the box corner the sign of J_AB picks,

each max taken over the cube's box; the corner is the far one (largest
D_A and D_B) when J_AB >= 0, else the near one.  U is the largest term of
the cube when J_AB = 0, as on every reduced, coexistence and critical set,
and bounds it otherwise.  The bounds are formed in float64, one D_AB block
of planes at a time, as a grid over the blocks; the cubes are the grid's
finite cells, those whose box meets the polytope.

The kernel visits the cubes in descending order of U and stops at the first
cube whose U lies more than ``_CUT`` nats below the running log Z (the log
of the sum so far).  Every skipped class is below its cube's bound, so the
skipped mass is at most sum_skipped |cube| e^U, and the kernel reports that
bound relative to Z.  Since Z >= e^max, the bound is at most e^-60 times
the number of points in the boxes: 7.6e-19 at the enumeration cap N = 2000
(alpha = 0.5, 8.7e7 points), and 1.1e-21 to 3.2e-21 as measured there on
reduced, coexistence, critical and full-J sets.  That is far below float64
rounding, so the result is exact up to a reported relative tail bound.
Best-first order needs no peak finder: both peaks on a coexistence line,
and the widened soft axis at the critical point, carry the largest bounds.

Within a cube the sums are products of 2-D factors.  With t = ac(D_A, D_AB)
+ bc(D_B, D_AB) + ab(D_A, D_B), the matrix G = (E_ac E_bc^T) * E_ab of the
planes' exponentials holds the cube's terms summed over D_AB, which gives
sum e^t, sum D_A e^t and sum D_B e^t; a second product with E_ac weighted
by D_AB gives sum D_AB e^t, and the mixed fraction <D_AB/|D|> weights the
product of the same three factors by D_AB/|D| (``_cube_sums_matrix``).  The
coupling plane is centred on the box and each factor is scaled per D_AB
column, so every product term is at most 1.  At large |J_AB|/N the
factors are formed on (D_A, D_B) tiles smaller than the cube, whose side
keeps every term that counts inside the float64 range (``_block``); the
cubes, their bounds and the pruning stay the same.  The cubes' sums join a
streaming log-sum-exp whose reference is the largest plane bound s so far,
not the largest U: at large J_AB the corner term makes U loose, and s can
lie over 1,000 nats below it, where e^(s - U) would underflow.

The planes are built in extended precision relative to the largest bound
and each exponent is rounded to float64 once, so a term carries the
rounding of differences rather than of the O(N log N) and |J| N pieces it
is made of, and the kernel needs numpy alone.  The visiting order (ties
broken by cube index) and the per-cube sums are fixed, so results are
deterministic run to run.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)

_BLOCK = 32
_CUT = 60.0

#: Largest coupling span on a tile, about 162 nats (see ``_block``).
_SPAN_LIMIT = (-math.log(np.finfo(float).tiny) - _CUT) / 4
#: beta_c of a tile column that no row admits (``_cube_sums_matrix``)
_FLOOR = -np.finfo(float).max


def _block(inv_n, j_ab):
    """Tile side B: _BLOCK, or else the largest B whose coupling span
    X = |J_AB| ((B - 1) / 2)^2 / N is within _SPAN_LIMIT.  On every tile
    |ab'| <= X (``_cube_sums_matrix``), so the cube's largest term is at
    least m - X, and a term within _CUT of that has E_ac E_bc >=
    e^-(2X + _CUT) and E_ab >= e^-2X: G holds it as at least e^-(4X + _CUT),
    a normal float64.  So no term that counts underflows (one more than _CUT
    below its cube's largest is below e^-_CUT Z).  The span at _BLOCK is
    tested by a product, as _SPAN_LIMIT / jn overflows at a subnormal J_AB.
    """
    jn = abs(j_ab) * inv_n
    if jn * ((_BLOCK - 1) / 2) ** 2 <= _SPAN_LIMIT:
        return _BLOCK
    return 1 + int(2.0 * math.sqrt(_SPAN_LIMIT / jn))


def _population_plane(n_x, lgf, x, c, log_n, inv_n, h_x, j_xx, j_xc):
    """The terms of t that depend on one population's (D_x, D_AB), on the
    grid x (rows) by c (columns), -inf where the monomer count M_x < 0:
    -lgf[M_x] - lgf[D_x] - D_x (log 2 + log N) + h_x D_x
    + (J_xx D_x^2 / 2 + J_x,AB D_x D_AB) / N."""
    xw = x.astype(lgf.dtype)
    own = -lgf[x] - xw * (lgf.dtype.type(LOG2) + log_n) + h_x * xw + 0.5 * inv_n * (j_xx * xw * xw)
    m = n_x - 2 * x[:, None] - c[None, :]
    plane = own[:, None] - lgf[np.maximum(m, 0)] + np.multiply.outer(inv_n * (j_xc * xw), c)
    return np.where(m >= 0, plane, -np.inf)


def _mixed_terms(n_a, n_b, lgf, c, log_n, inv_n, h_c, j_cc):
    """The terms of t that depend on D_AB = c alone, with the constant:
    lgf[N_A] + lgf[N_B] - lgf[D_AB] - D_AB log N + h_AB D_AB
    + J_AB,AB D_AB^2 / (2N)."""
    cw = c.astype(lgf.dtype)
    return lgf[n_a] + lgf[n_b] - lgf[c] - cw * log_n + h_c * cw + 0.5 * inv_n * (j_cc * cw * cw)


def _cube_bounds(n_a, n_b, log_n, inv_n, lgf, h, j):
    """Boxes (lo, hi) of the cubes and the bound U of t on each (see the
    module docstring).  The cubes are the finite cells of the grid of block
    bounds, in index order: a cell is finite exactly when its cube's lowest
    corner is admissible.  ``hi`` is trimmed to the largest coordinate an
    admissible point of the cube reaches; the rows and columns trimmed off
    are inadmissible, so a plane's maximum over a whole block is its
    maximum over the box."""
    a, b = np.arange(n_a // 2 + 1), np.arange(n_b // 2 + 1)
    layers = []
    for c0 in range(0, min(n_a, n_b) + 1, _BLOCK):
        c = np.arange(c0, min(c0 + _BLOCK, n_a + 1, n_b + 1))
        plane_a = _population_plane(n_a, lgf, a, c, log_n, inv_n, h[0], j[0, 0], j[0, 2])
        plane_b = _population_plane(n_b, lgf, b, c, log_n, inv_n, h[1], j[1, 1], j[1, 2])
        best_a = np.maximum.reduceat(plane_a, a[::_BLOCK], axis=0)
        best_b = np.maximum.reduceat(plane_b, b[::_BLOCK], axis=0)
        mixed = _mixed_terms(n_a, n_b, lgf, c, log_n, inv_n, h[2], j[2, 2])
        layers.append((best_a[:, None] + best_b[None] + mixed).max(axis=-1))
    grid = np.stack(layers, axis=-1)
    cells = grid > -np.inf
    lo = np.argwhere(cells) * _BLOCK
    hi = np.minimum(lo + _BLOCK - 1, [n_a // 2, n_b // 2, min(n_a, n_b)])
    hi[:, 0] = np.minimum(hi[:, 0], (n_a - lo[:, 2]) // 2)
    hi[:, 1] = np.minimum(hi[:, 1], (n_b - lo[:, 2]) // 2)
    hi[:, 2] = np.minimum(hi[:, 2], np.minimum(n_a - 2 * lo[:, 0], n_b - 2 * lo[:, 1]))
    corner = hi if j[0, 1] >= 0 else lo
    return lo, hi, grid[cells] + inv_n * (j[0, 1] * (corner[:, 0] * corner[:, 1]))


def _tiles(x, plane, side, axis):
    """The box axis x, its offsets from the centre of its tile (the last
    one's as if it were whole), the rows of plane, and the centres, shaped
    to broadcast against the rows and a D_AB axis.  When x is longer than
    ``side`` it is cut into tiles of ``side`` rows stacked on a new
    ``axis``, the last tile padded with -inf rows past the box."""
    if len(x) <= side:
        centre = plane.dtype.type(x[0] + x[-1]) / 2
        return x, x - centre, plane, centre
    xs = (x[0] + np.arange(-(-len(x) // side) * side)).reshape(-1, side)
    pad = np.full((xs.size - len(x), plane.shape[1]), -np.inf, plane.dtype)
    plane = np.concatenate([plane, pad]).reshape(*xs.shape, -1)
    centre = (xs[:, :1] + xs[:, -1:]).astype(plane.dtype) / 2
    return (np.expand_dims(v, axis) for v in (xs, xs - centre, plane, centre[..., None]))


def _cube_sums_matrix(a, b, c, plane_ac, plane_bc, inv_n, j_ab, side, mix):
    """(s, sums) with sums = e^-s (sum e^t, sum D_A e^t, sum D_B e^t,
    sum D_AB e^t, sum D_AB/|D| e^t) over the cube, from the 2-D factors of
    its (D_A, D_B) tiles of side ``side`` (``_block``); s bounds the cube's
    terms, and the last sum is 0 unless ``mix``.

    On each tile the coupling plane is centred at the tile centre (a0, b0),
        J_AB a b / N = J_AB (a - a0)(b - b0) / N + J_AB b0 (a - a0) / N + J_AB a0 b / N,
    and the two linear parts join the (D_A, D_AB) and (D_B, D_AB) planes
    ac and bc, which leaves ab' = J_AB (a - a0)(b - b0) / N.  With alpha_c,
    beta_c the tile's column maxima of ac and bc, m = max (alpha_c + beta_c)
    and s = m + max ab', both maxima over every tile and column, the factors
        E_ac = exp(ac + beta_c - m),  E_bc = exp(bc - beta_c),  E_ab = exp(ab' - max ab')
    are at most 1, and G = (E_ac E_bc^T) * E_ab holds e^(t - s) summed over
    D_AB, while ((E_ac * D_AB) E_bc^T) * E_ab holds D_AB e^(t - s).  The
    mixed sum is sum E_ac[a, c] E_bc[b, c] E_ab[a, b] c / max(a + b + c, 1),
    multiplied out in place in one (a, b, c) array.  Each exponent is formed
    in extended precision and rounded to float64 once.  A box longer than
    ``side`` has its tiles of D_A and of D_B stacked on two leading axes; a
    tile column that no row admits gets a finite beta_c, so its E is 0.
    """
    wide = plane_ac.dtype.type
    a, x, plane_ac, a0 = _tiles(a, plane_ac, side, 1)
    b, y, plane_bc, b0 = _tiles(b, plane_bc, side, 0)
    jn = wide(j_ab) * inv_n
    ac = plane_ac + (jn * b0) * x[..., None]
    bc = plane_bc + (jn * a0) * b[..., None]
    ab = jn * (x[..., :, None] * y[..., None, :])
    beta = bc.max(axis=-2, keepdims=True, initial=_FLOOR)
    m = (ac.max(axis=-2, keepdims=True) + beta).max()
    ab_top = ab.max()
    e_ac = np.exp((ac + (beta - m)).astype(float))
    e_bc = np.exp((bc - beta).astype(float)).swapaxes(-2, -1)
    e_ab = np.exp((ab - ab_top).astype(float))
    g = (e_ac @ e_bc) * e_ab
    g_c = ((e_ac * c) @ e_bc) * e_ab
    mixed = 0.0
    if mix:
        share = (a[..., :, None, None] + b[..., None, :, None]) + c.astype(float)
        np.maximum(share, 1.0, out=share)
        np.divide(c, share, out=share)
        for factor in (e_ab[..., None], e_ac[..., :, None, :], e_bc.swapaxes(-2, -1)[..., None, :, :]):
            share *= factor
        mixed = share.sum()
    if g.ndim > 2:  # the tiles' blocks laid out as one (D_A, D_B) matrix
        g, g_c = (v.swapaxes(1, 2).reshape(a.size, b.size) for v in (g, g_c))
        a, b = a.ravel(), b.ravel()
    sums = (g.sum(), g.sum(axis=1) @ a, g.sum(axis=0) @ b, g_c.sum(), mixed)
    return float(m + ab_top), np.array(sums)


def partition_sums(n_a, n_b, log_n, inv_n, lgf, h, j, *, mix=False):
    """Pruned class sum over admissible (D_A, D_B, D_AB).

    Returns (log_z, <D_A>, <D_B>, <D_AB>, <D_AB/|D|>, classes_visited,
    log_tail_bound) under the Gibbs weights phi * N^-|D| * exp(-H).  The
    mixed fraction is computed only with ``mix`` (nan otherwise), with the
    convention D_AB/|D| = 0 on the empty configuration.
    ``classes_visited`` counts the admissible classes summed;
    ``log_tail_bound`` is log(sum_skipped |cube| e^U / Z), a bound on the
    relative mass of the skipped classes, rigorous up to the float64 rounding
    of U (-inf when none is skipped).
    """
    lo, hi, bound = _cube_bounds(n_a, n_b, log_n, inv_n, lgf, h, j)
    side = _block(inv_n, j[0, 1])
    order = np.argsort(-bound, kind="stable")
    # terms are summed relative to the largest bound, from extended-precision planes
    centre = bound[order[0]]
    lgf_wide = lgf.astype(np.longdouble)
    ref = -np.inf
    sums = np.zeros(5)
    visited = 0
    stop = len(order)
    for pos, k in enumerate(order):
        if pos and bound[k] - centre < ref + math.log(sums[0]) - _CUT:
            stop = pos
            break
        a, b, c = map(np.arange, lo[k], hi[k] + 1)
        plane_ac = _population_plane(n_a, lgf_wide, a, c, log_n, inv_n, h[0], j[0, 0], j[0, 2]) + (
            _mixed_terms(n_a, n_b, lgf_wide, c, log_n, inv_n, h[2], j[2, 2]) - centre
        )
        plane_bc = _population_plane(n_b, lgf_wide, b, c, log_n, inv_n, h[1], j[1, 1], j[1, 2])
        s, cube = _cube_sums_matrix(a, b, c, plane_ac, plane_bc, inv_n, j[0, 1], side, mix)
        if s > ref:
            sums *= math.exp(ref - s)
            ref = s
        sums += math.exp(s - ref) * cube
        visited += int((np.isfinite(plane_ac).sum(axis=0) * np.isfinite(plane_bc).sum(axis=0)).sum())
    log_z = centre + ref + math.log(sums[0])
    skipped = order[stop:]
    volume = np.prod(hi[skipped] - lo[skipped] + 1, axis=1)
    log_tail = float(np.logaddexp.reduce(bound[skipped] + np.log(volume)) - log_z)
    means = sums[1:] / sums[0]
    if not mix:
        means[3] = np.nan
    return (log_z, *means, visited, log_tail)


def active_backend() -> str:
    """Name of the enumeration backend, recorded as provenance."""
    return "numpy"
