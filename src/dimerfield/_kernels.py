"""Hot inner loop for the exact enumeration.

The triple sum over admissible dimer count vectors is the only O(N^3) loop
in the package; everything else is small.  The kernel is vectorized numpy,
one (D_B, D_AB) slab per D_A value, accumulated in a streaming log-sum-exp
with a running maximum and a fixed iteration order, so results are
deterministic run to run.
"""

from __future__ import annotations

import numpy as np

LOG2 = float(np.log(2.0))


def partition_sums(n_a, n_b, log_n, inv_n, lgf, h, j):
    """Sum over admissible (D_A, D_B, D_AB), vectorized per D_A slice.

    Returns (log_z, <D_A>, <D_B>, <D_AB>, <D_AB/|D|>) under the Gibbs
    weights phi * N^-|D| * exp(-H); the mixed fraction uses the convention
    D_AB/|D| = 0 on the empty configuration.
    """
    h_a, h_b, h_ab = float(h[0]), float(h[1]), float(h[2])
    db = np.arange(n_b // 2 + 1)
    db_col = db[:, None]
    m = -np.inf
    s0 = 0.0
    s_a = 0.0
    s_b = 0.0
    s_ab = 0.0
    s_mix = 0.0
    base = lgf[n_a] + lgf[n_b]
    for d_a in range(n_a // 2 + 1):
        cap_row = np.minimum(n_a - 2 * d_a, n_b - 2 * db)
        dab = np.arange(int(cap_row.max()) + 1)[None, :]
        mask = dab <= cap_row[:, None]
        m_a = np.where(mask, n_a - 2 * d_a - dab, 0)
        m_b = np.where(mask, n_b - 2 * db_col - dab, 0)
        quad = (
            j[0, 0] * d_a * d_a
            + j[1, 1] * db_col * db_col
            + j[2, 2] * dab * dab
            + 2.0 * (j[0, 1] * d_a * db_col + j[0, 2] * d_a * dab + j[1, 2] * db_col * dab)
        )
        t = (
            base
            - lgf[m_a]
            - lgf[m_b]
            - lgf[d_a]
            - lgf[db_col]
            - lgf[dab]
            - (d_a + db_col) * LOG2
            - (d_a + db_col + dab) * log_n
            + h_a * d_a
            + h_b * db_col
            + h_ab * dab
            + 0.5 * inv_n * quad
        )
        t = np.where(mask, t, -np.inf)
        t_max = t.max()
        if t_max > m:
            r = np.exp(m - t_max)
            s0 *= r
            s_a *= r
            s_b *= r
            s_ab *= r
            s_mix *= r
            m = t_max
        e = np.exp(t - m)
        s0 += e.sum()
        s_a += d_a * e.sum()
        s_b += (db_col * e).sum()
        s_ab += (dab * e).sum()
        tot = d_a + db_col + dab
        s_mix += (np.where(tot > 0, dab / np.maximum(tot, 1), 0.0) * e).sum()
    return m + np.log(s0), s_a / s0, s_b / s0, s_ab / s0, s_mix / s0


def active_backend() -> str:
    """Name of the enumeration backend, recorded as provenance."""
    return "numpy"
