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
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma, gammaln

LOG2 = float(np.log(2.0))

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


def _tangent(p, n_a, n_b, log_n, inv_n, lgf, h, j):
    """t and grad t at the real points p (one per row), from lgamma and digamma."""
    m_a = n_a - 2 * p[:, 0] - p[:, 2]
    m_b = n_b - 2 * p[:, 1] - p[:, 2]
    jp = p @ j
    t = (
        lgf[n_a]
        + lgf[n_b]
        - gammaln(m_a + 1.0)
        - gammaln(m_b + 1.0)
        - gammaln(p + 1.0).sum(axis=1)
        - (p[:, 0] + p[:, 1]) * LOG2
        - p.sum(axis=1) * log_n
        + p @ h
        + 0.5 * inv_n * (jp * p).sum(axis=1)
    )
    psi_a = digamma(m_a + 1.0)
    psi_b = digamma(m_b + 1.0)
    grad = h - log_n - digamma(p + 1.0) + inv_n * jp
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


def _cube_terms(n_a, n_b, log_n, inv_n, lgf, h, j, lo, hi):
    """Exact terms t on the box [lo, hi] (-inf off the polytope), by the
    per-class lgf formula, with the box axes as broadcastable columns and the
    number of admissible classes in the box."""
    d_a = np.arange(lo[0], hi[0] + 1)[:, None, None]
    db = np.arange(lo[1], hi[1] + 1)[None, :, None]
    dab = np.arange(lo[2], hi[2] + 1)[None, None, :]
    m_a = n_a - 2 * d_a - dab
    m_b = n_b - 2 * db - dab
    tot = d_a + db + dab
    quad = (
        j[0, 0] * d_a * d_a
        + j[1, 1] * db * db
        + j[2, 2] * dab * dab
        + 2.0 * (j[0, 1] * d_a * db + j[0, 2] * d_a * dab + j[1, 2] * db * dab)
    )
    t = (
        lgf[n_a]
        + lgf[n_b]
        - lgf[np.maximum(m_a, 0)]
        - lgf[np.maximum(m_b, 0)]
        - lgf[d_a]
        - lgf[db]
        - lgf[dab]
        - (d_a + db) * LOG2
        - tot * log_n
        + h[0] * d_a
        + h[1] * db
        + h[2] * dab
        + 0.5 * inv_n * quad
    )
    t = np.where((m_a >= 0) & (m_b >= 0), t, -np.inf)
    count = int(((m_a >= 0).sum(axis=0) * (m_b >= 0).sum(axis=1)).sum())
    return t, d_a, db, dab, tot, count


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
    m = -np.inf
    sums = np.zeros(5)
    visited = 0
    stop = len(order)
    for pos, k in enumerate(order):
        if bound[k] < m - _CUT:
            stop = pos
            break
        t, d_a, db, dab, tot, count = _cube_terms(n_a, n_b, log_n, inv_n, lgf, h, j, lo[k], hi[k])
        t_max = t.max()
        if t_max > m:
            sums *= np.exp(m - t_max)
            m = t_max
        e = np.exp(t - m)
        e_ab = e.sum(axis=2)
        e_c = e.sum(axis=(0, 1))
        sums += (
            e_c.sum(),
            e_ab.sum(axis=1) @ d_a.ravel(),
            e_ab.sum(axis=0) @ db.ravel(),
            e_c @ dab.ravel(),
            (e * (dab / np.maximum(tot, 1))).sum(),
        )
        visited += count
    log_z = m + np.log(sums[0])
    skipped = order[stop:]
    volume = np.prod(hi[skipped] - lo[skipped] + 1, axis=1)
    log_tail = float(np.logaddexp.reduce(bound[skipped] + np.log(volume)) - log_z)
    return (log_z, *(sums[1:] / sums[0]), visited, log_tail)


def active_backend() -> str:
    """Name of the enumeration backend, recorded as provenance."""
    return "numpy"
