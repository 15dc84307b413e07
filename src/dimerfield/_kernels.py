"""Hot inner loop for the exact enumeration: a block-pruned class sum.

The class sum runs over admissible dimer count vectors D = (D_A, D_B, D_AB),
each class contributing t(D) = log phi(D) - |D| log N + h.D + D.J.D / (2N).
Write t = E + Q with Q = D.J_sym.D / (2N).  E (log-gamma terms plus linear
terms) is concave on the real hard-core polytope, because lgamma(x + 1) is
convex for x > -1, so for any point p of the polytope

    t(x) <= t(p) + grad t(p).(x - p) + lambda_max+(J_sym) / (2N) |x - p|^2.

The kernel cuts count space into cubes of side ``_BLOCK``, bounds each cube
that meets the polytope by maximizing the right-hand side over the cube's
box, and sums the cubes' exact terms in descending order of bound, with a
streaming log-sum-exp.  It stops at the first cube whose bound lies more
than ``_CUT`` nats below the largest term seen.  Every skipped class is
below its cube's bound, so the skipped mass is at most
sum_skipped |cube| e^U, and the kernel reports that bound relative to Z.
Since Z >= e^max, the bound is at most e^-60 times the number of points in
the boxes: below 1e-18 at the enumeration cap, far below float64 rounding,
so the result is exact up to a reported relative tail bound.

Best-first order needs no peak finder: both peaks on a coexistence line,
and the widened soft axis at the critical point, carry the largest bounds.
The visiting order (ties broken by cube index) and the per-cube sums are
fixed, so results are deterministic run to run.

Each cube's terms are the sum of three 2-D planes, one per pair of axes the
terms depend on, formed in extended precision relative to the largest
bound and rounded to float64 once; the bounds take lgamma and digamma from
their asymptotic series.  So the kernel needs numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)

_BLOCK = 32
_CUT = 60.0

#: The lgamma and digamma series run at x >= _SHIFT; smaller arguments are
#: shifted up by Gamma(x + 1) = x Gamma(x) and psi(x + 1) = psi(x) + 1/x.
_SHIFT = 10
#: Stirling's series for lgamma, B_2k / (2k (2k - 1)), and de Moivre's for
#: digamma, B_2k / 2k, k = 1..6: the first omitted terms are below 1e-15 at
#: x = _SHIFT.
_LGAMMA_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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


def _lgamma_digamma(x):
    """lgamma(x) and digamma(x) elementwise for real x >= 1."""
    x = np.array(x, dtype=float)
    prod = np.ones_like(x)
    recip = np.zeros_like(x)
    for _ in range(_SHIFT - 1):
        low = x < _SHIFT
        prod[low] *= x[low]
        recip[low] += 1.0 / x[low]
        x[low] += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    lg_tail = dg_tail = 0.0
    for cl, cd in zip(_LGAMMA_SERIES[::-1], _DIGAMMA_SERIES[::-1]):
        lg_tail = lg_tail * inv2 + cl
        dg_tail = dg_tail * inv2 + cd
    log_x = np.log(x)
    lgamma = (x - 0.5) * log_x - x + _HALF_LOG_2PI + inv * lg_tail - np.log(prod)
    digamma = log_x - 0.5 * inv - inv2 * dg_tail - recip
    return lgamma, digamma


def _tangent(p, n_a, n_b, log_n, inv_n, lgf, h, j):
    """t and grad t at the real points p (one per row): the class formula with
    lgamma(x + 1) for lgf[x], and its derivative through digamma."""
    m_a = n_a - 2 * p[:, 0] - p[:, 2]
    m_b = n_b - 2 * p[:, 1] - p[:, 2]
    jp = p @ j
    lg, dg = _lgamma_digamma(np.column_stack([p, m_a, m_b]) + 1.0)
    t = (
        lgf[n_a]
        + lgf[n_b]
        - lg[:, 3]
        - lg[:, 4]
        - lg[:, :3].sum(axis=1)
        - (p[:, 0] + p[:, 1]) * LOG2
        - p.sum(axis=1) * log_n
        + p @ h
        + 0.5 * inv_n * (jp * p).sum(axis=1)
    )
    psi_a, psi_b = dg[:, 3], dg[:, 4]
    grad = h - log_n - dg[:, :3] + inv_n * jp
    grad[:, 0] += 2.0 * psi_a - LOG2
    grad[:, 1] += 2.0 * psi_b - LOG2
    grad[:, 2] += psi_a + psi_b
    return t, grad


def _cube_bounds(n_a, n_b, log_n, inv_n, lgf, h, j):
    """Boxes (lo, hi) of the cubes and the upper bound U of t on each.

    The expansion point p is the box centre when it is admissible, otherwise
    the lowest corner; the linear term is maximized over the box's corners and
    |x - p|^2 by its farthest corner.
    """
    lo, hi = _cube_boxes(n_a, n_b)
    p = 0.5 * (lo + hi)
    inside = (2 * p[:, 0] + p[:, 2] <= n_a) & (2 * p[:, 1] + p[:, 2] <= n_b)
    p = np.where(inside[:, None], p, lo.astype(float))
    t, grad = _tangent(p, n_a, n_b, log_n, inv_n, lgf, h, j)
    lam = max(float(np.linalg.eigvalsh(j)[-1]), 0.0)
    near, far = lo - p, hi - p
    linear = np.maximum(grad * near, grad * far).sum(axis=1)
    spread = np.maximum(near * near, far * far).sum(axis=1)
    return lo, hi, t + linear + 0.5 * inv_n * lam * spread


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
    cw = c.astype(lgf.dtype)
    plane_ac = _population_plane(n_a, lgf, a, c, log_n, inv_n, h[0], j[0, 0], j[0, 2]) + (
        (lgf[n_a] + lgf[n_b] - centre) - lgf[c] - cw * log_n + h[2] * cw + 0.5 * inv_n * (j[2, 2] * cw * cw)
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
    ``log_tail_bound`` is log(sum_skipped |cube| e^U / Z), a rigorous bound on
    the relative mass of the skipped classes (-inf when none is skipped).
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
