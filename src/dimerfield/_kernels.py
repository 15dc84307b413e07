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
otherwise.  The bounds are formed in float64, one D_AB block of planes at a
time.

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

Within a cube the sums need no 3-D array.  With t = ac(D_A, D_AB) +
bc(D_B, D_AB) + ab(D_A, D_B), the matrix G = (E_ac E_bc^T) * E_ab of the
planes' exponentials holds the cube's terms summed over D_AB, which gives
sum e^t, sum D_A e^t and sum D_B e^t, and a second product with E_ac
weighted by D_AB gives sum D_AB e^t (``_cube_sums_matrix``).  The coupling
plane is centred on the box, and each factor is scaled per D_AB column
relative to the cube's plane bound s, so every product term is e^(t - s)
<= 1.  The cubes' sums join a streaming log-sum-exp whose reference is the
largest s so far, not the largest bound: at large J_AB the corner term
makes U loose, and s can lie over 1,000 nats below it, where e^(s - U)
would underflow to 0.
Two cases take the 3-D array of terms (``_cube_sums_3d``): the mixed
fraction <D_AB/|D|>, which is not a sum of planes, and a coupling span
|J_AB| ((_BLOCK - 1) / 2)^2 / N above ``_SPAN_LIMIT``, where the centred
plane could push terms that count below the float64 range.

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


def _cube_planes(n_a, n_b, log_n, inv_n, lgf, h, j, lo, hi, centre):
    """Box axes of the cube [lo, hi], its (D_A, D_AB) and (D_B, D_AB) planes
    in extended precision (-inf off the polytope), the first with the D_AB
    terms less ``centre``, and the number of admissible classes."""
    a, b, c = (np.arange(lo[k], hi[k] + 1) for k in range(3))
    plane_ac = _population_plane(n_a, lgf, a, c, log_n, inv_n, h[0], j[0, 0], j[0, 2]) + (
        _mixed_terms(n_a, n_b, lgf, c, log_n, inv_n, h[2], j[2, 2]) - centre
    )
    plane_bc = _population_plane(n_b, lgf, b, c, log_n, inv_n, h[1], j[1, 1], j[1, 2])
    count = int((np.isfinite(plane_ac).sum(axis=0) * np.isfinite(plane_bc).sum(axis=0)).sum())
    return a, b, c, plane_ac, plane_bc, count


def _cube_sums_3d(a, b, c, plane_ac, plane_bc, inv_n, j_ab, mix):
    """(s, sums) with sums = e^-s (sum e^t, sum D_A e^t, sum D_B e^t,
    sum D_AB e^t, sum D_AB/|D| e^t) over the cube, s its largest term; the
    last is 0 unless ``mix``.

    The terms fill a 3-D array: each plane is taken relative to its maximum
    before it is rounded to float64 once, so a term carries the rounding of
    those differences rather than of the O(N log N) and |J| N pieces it is
    made of.
    """
    plane_ab = inv_n * (j_ab * np.multiply.outer(a.astype(plane_ac.dtype), b))
    tops = [plane.max() for plane in (plane_ac, plane_bc, plane_ab)]
    ac, bc, ab = ((plane - top).astype(float) for plane, top in zip((plane_ac, plane_bc, plane_ab), tops))
    t = ac[:, None, :] + bc[None, :, :]
    t += ab[:, :, None]
    t_max = t.max()
    t -= t_max
    e = np.exp(t, out=t)
    e_ab = e.sum(axis=2)
    e_c = e.sum(axis=(0, 1))
    mixed = 0.0
    if mix:
        share = np.add.outer(a, b)[:, :, None] + c.astype(float)
        np.maximum(share, 1.0, out=share)
        np.divide(c, share, out=share)
        mixed = np.vdot(e, share)
    sums = (e_c.sum(), e_ab.sum(axis=1) @ a, e_ab.sum(axis=0) @ b, e_c @ c, mixed)
    return float(t_max + sum(tops)), np.array(sums)


def _cube_sums_matrix(a, b, c, plane_ac, plane_bc, inv_n, j_ab):
    """(s, sums) as ``_cube_sums_3d`` without the mixed fraction, from two
    products of the cube's 2-D factors; s bounds the cube's terms.

    The coupling plane is centred at the box centre (a0, b0),
        J_AB a b / N = J_AB (a - a0)(b - b0) / N + J_AB b0 (a - a0) / N + J_AB a0 b / N,
    and the two linear parts join the (D_A, D_AB) and (D_B, D_AB) planes
    ac and bc, which leaves ab' = J_AB (a - a0)(b - b0) / N.  With alpha_c,
    beta_c the column maxima of ac and bc, m = max_c (alpha_c + beta_c) and
    s = m + max ab', the factors
        E_ac = exp(ac + beta_c - m),  E_bc = exp(bc - beta_c),  E_ab = exp(ab' - max ab')
    are at most 1, and G = (E_ac E_bc^T) * E_ab holds e^(t - s) summed over
    D_AB, while ((E_ac * D_AB) E_bc^T) * E_ab holds D_AB e^(t - s).  Each
    exponent is formed in extended precision and rounded to float64 once.
    """
    wide = plane_ac.dtype.type
    a0, b0 = wide(a[0] + a[-1]) / 2, wide(b[0] + b[-1]) / 2
    x, y = a - a0, b - b0
    jn = wide(j_ab) * inv_n
    ac = plane_ac + (jn * b0) * x[:, None]
    bc = plane_bc + (jn * a0) * b[:, None]
    ab = jn * np.multiply.outer(x, y)
    beta = bc.max(axis=0)
    m = (ac.max(axis=0) + beta).max()
    ab_top = ab.max()
    e_ac = np.exp((ac + (beta - m)).astype(float))
    e_bc = np.exp((bc - beta).astype(float)).T
    e_ab = np.exp((ab - ab_top).astype(float))
    g = (e_ac @ e_bc) * e_ab
    g_c = ((e_ac * c) @ e_bc) * e_ab
    sums = (g.sum(), g.sum(axis=1) @ a, g.sum(axis=0) @ b, g_c.sum(), 0.0)
    return float(m + ab_top), np.array(sums)


#: Largest coupling span X = |J_AB| ((_BLOCK - 1) / 2)^2 / N the matrix sums
#: take.  |ab'| <= X on a cube, so its largest term is at least m - X, and a
#: term within _CUT of that has E_ac E_bc >= e^-(2X + _CUT) and E_ab >= e^-2X:
#: G holds it as at least e^-(4X + _CUT).  Keeping that a normal float64
#: keeps every term that counts out of underflow (a term more than _CUT
#: below its cube's largest is below e^-_CUT Z).  Above the limit, about
#: 162 nats, the kernel sums the 3-D array, whose terms are relative to the
#: cube's largest.
_SPAN_LIMIT = (-math.log(np.finfo(float).tiny) - _CUT) / 4


def _coupling_span(inv_n, j_ab):
    """X = |J_AB| ((_BLOCK - 1) / 2)^2 / N, the largest |ab'| on a cube."""
    return abs(j_ab) * ((_BLOCK - 1) / 2) ** 2 * inv_n


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
    order = np.argsort(-bound, kind="stable")
    # terms are summed relative to the largest bound, from extended-precision planes
    centre = bound[order[0]]
    lgf_wide = lgf.astype(np.longdouble)
    use_3d = mix or _coupling_span(inv_n, j[0, 1]) > _SPAN_LIMIT
    ref = -np.inf
    sums = np.zeros(5)
    visited = 0
    stop = len(order)
    for pos, k in enumerate(order):
        if pos and bound[k] - centre < ref + math.log(sums[0]) - _CUT:
            stop = pos
            break
        a, b, c, plane_ac, plane_bc, count = _cube_planes(
            n_a, n_b, log_n, inv_n, lgf_wide, h, j, lo[k], hi[k], centre
        )
        if use_3d:
            s, cube = _cube_sums_3d(a, b, c, plane_ac, plane_bc, inv_n, j[0, 1], mix)
        else:
            s, cube = _cube_sums_matrix(a, b, c, plane_ac, plane_bc, inv_n, j[0, 1])
        if s > ref:
            sums *= math.exp(ref - s)
            ref = s
        sums += math.exp(s - ref) * cube
        visited += count
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
