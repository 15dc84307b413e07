"""Hot inner loop for the exact enumeration: a block-pruned class sum.

The class sum runs over admissible dimer count vectors D = (D_A, D_B, D_AB),
each class contributing t(D) = log phi(D) - |D| log N + h.D + D.J.D / (2N).
No term of t depends on all three counts, so t is a sum of planes:

    t = P_A(D_A, D_AB) + P_B(D_B, D_AB) + C(D_AB) + J_AB D_A D_B / N,

where P_x holds the terms of population x's dimers and monomers and C those
of D_AB alone.  The kernel cuts count space into cubes of side ``_BLOCK``
and bounds each cube that meets the polytope by

    U = max over D_AB of [C + max over D_A of P_A + max over D_B of P_B]
        + max of J_AB D_A D_B / N over the box's four corners,

each max taken over the cube's box.  U is the largest term of the cube when
J_AB = 0, as on every reduced, coexistence and critical set, and bounds it
otherwise.  The kernel sums the cubes' exact terms in descending order of
bound, with a streaming log-sum-exp, and stops at the first cube whose bound
lies more than ``_CUT`` nats below the largest term seen.  Every skipped
class is below its cube's bound, so the skipped mass is at most
sum_skipped |cube| e^U, and the kernel reports that bound relative to Z.
Since Z >= e^max, the bound is at most e^-60 times the number of points in
the boxes: 7.6e-19 at the enumeration cap N = 2000 (alpha = 0.5, 8.7e7
points), and 2e-35 to 1.3e-24 as measured there on reduced, coexistence,
critical and full-J sets.  That is far below float64 rounding, so the
result is exact up to a reported relative tail bound.

Best-first order needs no peak finder: both peaks on a coexistence line,
and the widened soft axis at the critical point, carry the largest bounds.
The visiting order (ties broken by cube index) and the per-cube sums are
fixed, so results are deterministic run to run.

The bounds are formed in float64, one D_AB block of planes at a time.  Each
cube's terms are the sum of three 2-D planes, one per pair of axes the terms
depend on, formed in extended precision relative to the largest bound and
rounded to float64 once.  So the kernel needs numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)

_BLOCK = 32
_CUT = 60.0


def _cube_boxes(n_a, n_b):
    """Integer boxes [lo, hi] of the cubes that meet the polytope, in index order.

    A cube meets the polytope iff its lowest corner is admissible; ``hi`` is
    trimmed to the largest coordinate an admissible point of the cube reaches.
    """
    top = np.array([n_a // 2, n_b // 2, min(n_a, n_b)])
    axes = [np.arange(0, t + 1, _BLOCK) for t in top]
    lo = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    lo = lo[(2 * lo[:, 0] + lo[:, 2] <= n_a) & (2 * lo[:, 1] + lo[:, 2] <= n_b)]
    hi = np.minimum(lo + _BLOCK - 1, top)
    hi[:, 0] = np.minimum(hi[:, 0], (n_a - lo[:, 2]) // 2)
    hi[:, 1] = np.minimum(hi[:, 1], (n_b - lo[:, 2]) // 2)
    hi[:, 2] = np.minimum(hi[:, 2], np.minimum(n_a - 2 * lo[:, 0], n_b - 2 * lo[:, 1]))
    return lo, hi


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
    module docstring).  A plane's maximum over a whole block of rows or
    columns is its maximum over the trimmed box, since the rows and columns
    trimmed off are inadmissible."""
    lo, hi = _cube_boxes(n_a, n_b)
    a, b = np.arange(n_a // 2 + 1), np.arange(n_b // 2 + 1)
    bound = np.empty(len(lo))
    for c0 in range(0, min(n_a, n_b) + 1, _BLOCK):
        c = np.arange(c0, min(c0 + _BLOCK, n_a + 1, n_b + 1))
        plane_a = _population_plane(n_a, lgf, a, c, log_n, inv_n, h[0], j[0, 0], j[0, 2])
        plane_b = _population_plane(n_b, lgf, b, c, log_n, inv_n, h[1], j[1, 1], j[1, 2])
        best_a = np.maximum.reduceat(plane_a, a[::_BLOCK], axis=0)
        best_b = np.maximum.reduceat(plane_b, b[::_BLOCK], axis=0)
        mixed = _mixed_terms(n_a, n_b, lgf, c, log_n, inv_n, h[2], j[2, 2])
        cubes = lo[:, 2] == c0
        ka, kb = (lo[cubes, :2] // _BLOCK).T
        bound[cubes] = (best_a[ka] + best_b[kb] + mixed).max(axis=1)
    corners = np.stack([lo[:, 0] * lo[:, 1], lo[:, 0] * hi[:, 1], hi[:, 0] * lo[:, 1], hi[:, 0] * hi[:, 1]])
    return lo, hi, bound + inv_n * (j[0, 1] * corners).max(axis=0)


def _cube_terms(n_a, n_b, log_n, inv_n, lgf, h, j, lo, hi, centre):
    """Terms t - centre on the box [lo, hi] (-inf off the polytope), with the
    box axes as broadcastable columns and the number of admissible classes.

    t is the sum of three planes: the (D_A, D_AB) terms with those of D_AB
    alone, the (D_B, D_AB) terms, and the D_A D_B coupling.  ``lgf`` is in
    extended precision, and each plane is taken relative to its maximum
    before it is rounded to float64 once, so a term carries the rounding of
    those differences rather than of the O(N log N) and |J| N pieces it is
    made of.
    """
    a, b, c = (np.arange(lo[k], hi[k] + 1) for k in range(3))
    plane_ac = _population_plane(n_a, lgf, a, c, log_n, inv_n, h[0], j[0, 0], j[0, 2]) + (
        _mixed_terms(n_a, n_b, lgf, c, log_n, inv_n, h[2], j[2, 2]) - centre
    )
    plane_bc = _population_plane(n_b, lgf, b, c, log_n, inv_n, h[1], j[1, 1], j[1, 2])
    plane_ab = inv_n * (j[0, 1] * np.multiply.outer(a.astype(lgf.dtype), b))
    tops = [plane.max() for plane in (plane_ac, plane_bc, plane_ab)]
    ac, bc, ab = ((plane - top).astype(float) for plane, top in zip((plane_ac, plane_bc, plane_ab), tops))
    t = (ac + float(sum(tops)))[:, None, :] + bc[None, :, :]
    t += ab[:, :, None]
    count = int((np.isfinite(ac).sum(axis=0) * np.isfinite(bc).sum(axis=0)).sum())
    return t, a[:, None, None], b[None, :, None], c[None, None, :], count


def partition_sums(n_a, n_b, log_n, inv_n, lgf, h, j):
    """Pruned class sum over admissible (D_A, D_B, D_AB).

    Returns (log_z, <D_A>, <D_B>, <D_AB>, <D_AB/|D|>, classes_visited,
    log_tail_bound) under the Gibbs weights phi * N^-|D| * exp(-H).  The
    mixed fraction uses the convention D_AB/|D| = 0 on the empty
    configuration.  ``classes_visited`` counts the admissible classes summed;
    ``log_tail_bound`` is log(sum_skipped |cube| e^U / Z), a bound on the
    relative mass of the skipped classes, rigorous up to the float64 rounding
    of U (-inf when none is skipped).
    """
    lo, hi, bound = _cube_bounds(n_a, n_b, log_n, inv_n, lgf, h, j)
    order = np.argsort(-bound, kind="stable")
    # terms are summed relative to the largest bound, from extended-precision planes
    centre = bound[order[0]]
    lgf_wide = lgf.astype(np.longdouble)
    m = -np.inf
    sums = np.zeros(5)
    visited = 0
    stop = len(order)
    for pos, k in enumerate(order):
        if bound[k] - centre < m - _CUT:
            stop = pos
            break
        t, d_a, db, dab, count = _cube_terms(n_a, n_b, log_n, inv_n, lgf_wide, h, j, lo[k], hi[k], centre)
        t_max = t.max()
        if t_max > m:
            sums *= np.exp(m - t_max)
            m = t_max
        t -= m
        e = np.exp(t, out=t)
        e_ab = e.sum(axis=2)
        e_c = e.sum(axis=(0, 1))
        mix = (d_a + db).astype(float) + dab
        np.maximum(mix, 1.0, out=mix)
        np.divide(dab, mix, out=mix)
        sums += (
            e_c.sum(),
            e_ab.sum(axis=1) @ d_a.ravel(),
            e_ab.sum(axis=0) @ db.ravel(),
            e_c @ dab.ravel(),
            np.vdot(e, mix),
        )
        visited += count
    log_z = centre + m + np.log(sums[0])
    skipped = order[stop:]
    volume = np.prod(hi[skipped] - lo[skipped] + 1, axis=1)
    log_tail = float(np.logaddexp.reduce(bound[skipped] + np.log(volume)) - log_z)
    return (log_z, *(sums[1:] / sums[0]), visited, log_tail)


def active_backend() -> str:
    """Name of the enumeration backend, recorded as provenance."""
    return "numpy"
