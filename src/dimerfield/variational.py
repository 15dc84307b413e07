"""Thermodynamic-limit machinery: entropy, energy, variational pressure.

The limiting pressure is the maximum over the hard-core density region of

    psi(d) = s(d; alpha) - eps(d; h, J),

and interior maximizers coincide with solutions of the self-consistency
system d_A = (w_A/2) m_A^2, d_B = (w_B/2) m_B^2, d_AB = w_AB m_A m_B with
activities w = exp(h + J d).  This module evaluates psi and its gradient,
solves the decoupled (J = 0) system in closed-ish form, iterates the damped
fixed point for general J, and maximizes psi by a grid scan refined through
the fixed-point solver.

Note on asymmetric couplings: the energy is a quadratic form, so only the
symmetric part of J matters; the gradient and the fixed-point activities
use (J + J^T)/2 throughout, which keeps "stationary point" and "fixed
point" exactly equivalent for arbitrary input J.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .params import DimerDensities, ModelParams

_REGION_TOL = 1e-12
_TINY = 1e-300


def log_gamma_fn(x):
    """x log x - x, continuously extended by 0 at x = 0.

    This is the log of the Stirling surrogate for x!; the factorials it
    replaces are accurate enough that the pressure error is O(log N / N).
    Accepts scalars or arrays; rejects negative input.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError(f"log_gamma_fn requires x >= 0, got {x}")
    out = _xlogx_minus_x(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _xlogx_minus_x(arr):
    safe = np.where(arr > 0.0, arr, 1.0)
    return np.where(arr > 0.0, arr * np.log(safe) - arr, 0.0)


def _entropy_arrays(d_a, d_b, d_ab, alpha):
    """Vectorized s(d; alpha); inputs may hit the region boundary."""
    m_a = np.maximum(alpha - 2.0 * d_a - d_ab, 0.0)
    m_b = np.maximum(1.0 - alpha - 2.0 * d_b - d_ab, 0.0)
    lg = _xlogx_minus_x
    return (
        lg(np.asarray(alpha, dtype=float))
        + lg(np.asarray(1.0 - alpha, dtype=float))
        - lg(m_a)
        - lg(m_b)
        - lg(np.asarray(d_a, dtype=float))
        - lg(np.asarray(d_b, dtype=float))
        - lg(np.asarray(d_ab, dtype=float))
        - (d_a + d_b) * np.log(2.0)
    )


def _require_in_region(d: DimerDensities, alpha: float) -> None:
    if not d.in_region(alpha, tol=_REGION_TOL):
        m_a, m_b = d.monomers(alpha)
        raise ValueError(
            f"densities {d} lie outside the hard-core region for alpha={alpha} "
            f"(monomer densities ({m_a:.3e}, {m_b:.3e}))"
        )


def entropy(d: DimerDensities, alpha: float) -> float:
    """Configuration entropy density s(d; alpha); finite on the closed region."""
    _require_in_region(d, alpha)
    return float(_entropy_arrays(d.d_a, d.d_b, d.d_ab, alpha))


def energy(d: DimerDensities, params: ModelParams) -> float:
    """Energy density eps(d) = -h.d - (1/2) Jd.d."""
    v = d.vector
    return float(-params.h @ v - 0.5 * (params.J @ v) @ v)


def psi(d: DimerDensities, params: ModelParams) -> float:
    """Variational pressure density psi = s - eps."""
    return entropy(d, params.alpha) - energy(d, params)


def grad_psi(d: DimerDensities, params: ModelParams) -> np.ndarray:
    """Gradient of psi; defined on the interior only (it diverges at the
    boundary like log of the vanishing coordinate)."""
    m_a, m_b = d.monomers(params.alpha)
    if min(d.d_a, d.d_b, d.d_ab, m_a, m_b) <= 0.0:
        raise ValueError(
            f"grad_psi needs an interior point (all densities and monomer "
            f"densities positive); got {d} with monomers ({m_a:.3e}, {m_b:.3e})"
        )
    grad_s = np.array(
        [
            np.log(m_a * m_a / (2.0 * d.d_a)),
            np.log(m_b * m_b / (2.0 * d.d_b)),
            np.log(m_a * m_b / d.d_ab),
        ]
    )
    return grad_s + params.h + params.j_sym @ d.vector


def _solve_monomers(w_a: float, w_b: float, w_ab: float, alpha: float):
    """Monomer densities solving the constant-activity system.

    Substituting the three dimer equations into the two hard-core identities
    leaves m_A + w_A m_A^2 + w_AB m_A m_B = alpha (and the B analogue).  At
    fixed m_B the first is a quadratic with one positive root, and the
    residual of the second along that root is strictly increasing in m_B
    with a sign change over (0, 1-alpha], so bracketing cannot fail.
    """
    beta = 1.0 - alpha

    def m_a_of(m_b):
        c = 1.0 + w_ab * m_b
        return 2.0 * alpha / (c + np.sqrt(c * c + 4.0 * w_a * alpha))

    def resid_b(m_b):
        return m_b + w_b * m_b * m_b + w_ab * m_a_of(m_b) * m_b - beta

    top = resid_b(beta)
    if top <= 0.0:
        m_b = beta
    else:
        m_b = brentq(resid_b, 0.0, beta, xtol=1e-300, rtol=8.9e-16)
    m_a = m_a_of(m_b)

    # two Newton corrections on the full 2x2 system take the bracketed
    # solution to machine-level residuals
    for _ in range(2):
        f1 = m_a + w_a * m_a * m_a + w_ab * m_a * m_b - alpha
        f2 = m_b + w_b * m_b * m_b + w_ab * m_a * m_b - beta
        j11 = 1.0 + 2.0 * w_a * m_a + w_ab * m_b
        j12 = w_ab * m_a
        j21 = w_ab * m_b
        j22 = 1.0 + 2.0 * w_b * m_b + w_ab * m_a
        det = j11 * j22 - j12 * j21
        step_a = (f1 * j22 - f2 * j12) / det
        step_b = (f2 * j11 - f1 * j21) / det
        if not (
            np.isfinite(step_a)
            and np.isfinite(step_b)
            and 0.0 < m_a - step_a <= alpha
            and 0.0 < m_b - step_b <= beta
        ):
            break
        m_a -= step_a
        m_b -= step_b
    return m_a, m_b


def _g_of_weights(w_a, w_b, w_ab, alpha) -> np.ndarray:
    m_a, m_b = _solve_monomers(w_a, w_b, w_ab, alpha)
    return np.array([0.5 * w_a * m_a * m_a, 0.5 * w_b * m_b * m_b, w_ab * m_a * m_b])


def solve_zero_coupling(h, alpha: float) -> DimerDensities:
    """Unique solution of the fixed-point system at J = 0.

    The activities are the constants w = exp(h); the returned point
    satisfies all three dimer equations with residual below 1e-12.
    """
    h = np.asarray(h, dtype=float).reshape(3)
    if not np.all(np.isfinite(h)):
        raise ValueError(f"h must be finite, got {h}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    w = np.exp(h)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"exp(h) overflows for h={h}")
    m_a, m_b = _solve_monomers(w[0], w[1], w[2], alpha)
    resid = max(
        abs(m_a + w[0] * m_a * m_a + w[2] * m_a * m_b - alpha),
        abs(m_b + w[1] * m_b * m_b + w[2] * m_a * m_b - (1.0 - alpha)),
    )
    if not resid < 1e-12:
        raise RuntimeError(
            f"zero-coupling solve did not converge (residual {resid:.3e}) "
            f"for h={h}, alpha={alpha}"
        )
    return DimerDensities(0.5 * w[0] * m_a * m_a, 0.5 * w[1] * m_b * m_b, w[2] * m_a * m_b)


def _fixed_point_iterate(
    params: ModelParams,
    d: np.ndarray,
    damping: float,
    tol: float,
    rel_tol: float,
    max_iter: int,
):
    """Damped iteration core; returns (point, residual, converged)."""
    alpha = params.alpha
    j_sym = params.j_sym
    lam = damping
    prev_resid = np.inf
    resid = np.inf
    for _ in range(max_iter):
        field = params.h + j_sym @ d
        w = np.exp(field)
        if not np.all(np.isfinite(w)):
            raise RuntimeError(f"effective field {field} overflows exp()")
        g = _g_of_weights(w[0], w[1], w[2], alpha)
        step = g - d
        resid = np.abs(step).max()
        rel = (np.abs(step) / np.maximum(np.abs(d), _TINY)).max()
        if resid < tol and rel < rel_tol:
            return d, resid, True
        if resid > prev_resid:
            lam = max(0.5 * lam, 1.0 / 1024.0)
        prev_resid = resid
        d = d + lam * step
    return d, resid, False


def fixed_point_solve(
    params: ModelParams,
    d0: DimerDensities | None = None,
    damping: float = 0.5,
    tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_iter: int = 100_000,
) -> DimerDensities:
    """Damped iteration of d <- (1-lam) d + lam g(h + J d, alpha).

    Converges to a solution of the self-consistency system; the returned
    point carries residual max_i |d_i - g_i(d)| < tol and a relative
    residual < rel_tol, so the gradient of psi vanishes there to ~1e-8 even
    for very small density components.  The damping halves whenever the
    residual grows (the map need not contract for large J).
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if d0 is None:
        d = solve_zero_coupling(params.h, params.alpha).vector
    else:
        _require_in_region(d0, params.alpha)
        d = d0.vector.copy()
    d, resid, converged = _fixed_point_iterate(params, d, damping, tol, rel_tol, max_iter)
    if not converged:
        raise RuntimeError(
            f"fixed point iteration did not converge within {max_iter} steps "
            f"(residual {resid:.3e}); retry with smaller damping"
        )
    return DimerDensities(*d)


def fixed_point_residual(params: ModelParams, d: DimerDensities) -> float:
    """max_i |d_i - g_i(h + J d)|: how far d is from solving the system."""
    field = params.h + params.j_sym @ d.vector
    w = np.exp(field)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"effective field {field} overflows exp()")
    g = _g_of_weights(*w, params.alpha)
    return float(np.abs(d.vector - g).max())


def _psi_grid(params: ModelParams, res: int):
    """psi on a grid filling the hard-core region (boundary included)."""
    alpha = params.alpha
    h = params.h
    js = params.j_sym
    dab_vals = np.linspace(0.0, min(alpha, 1.0 - alpha), res)
    points = np.empty((res * res * res, 3))
    values = np.empty(res * res * res)
    block = res * res
    for k, dab in enumerate(dab_vals):
        da = np.linspace(0.0, 0.5 * (alpha - dab), res)[:, None]
        db = np.linspace(0.0, 0.5 * (1.0 - alpha - dab), res)[None, :]
        s = _entropy_arrays(da, db, dab, alpha)
        lin = h[0] * da + h[1] * db + h[2] * dab
        quad = (
            js[0, 0] * da * da
            + js[1, 1] * db * db
            + js[2, 2] * dab * dab
            + 2.0 * (js[0, 1] * da * db + js[0, 2] * da * dab + js[1, 2] * db * dab)
        )
        vals = s + lin + 0.5 * quad
        sl = slice(k * block, (k + 1) * block)
        points[sl, 0] = np.broadcast_to(da, (res, res)).ravel()
        points[sl, 1] = np.broadcast_to(db, (res, res)).ravel()
        points[sl, 2] = dab
        values[sl] = vals.ravel()
    return points, values


def maximize_psi(
    params: ModelParams,
    grid_resolution: int = 64,
    n_starts: int = 12,
    tie_tol: float = 1e-9,
    dedupe_tol: float = 1e-6,
) -> list[tuple[DimerDensities, float]]:
    """All global maximizers of psi over the hard-core region.

    A coarse grid (boundary faces included) locates candidate basins; each
    candidate start is refined by the damped fixed-point iteration, which
    always lands strictly inside the region, so the diverging boundary
    gradient never has to be evaluated.  Maximizers tied with the best
    value within ``tie_tol`` are all returned (the coexistence line
    genuinely has ties), deduplicated at distance ``dedupe_tol`` and sorted
    lexicographically.
    """
    if grid_resolution < 4:
        raise ValueError("grid_resolution must be at least 4")
    points, values = _psi_grid(params, grid_resolution)
    alpha = params.alpha
    order = np.argsort(values)[::-1][: 40 * n_starts]
    # candidate thinning works per axis in units of that axis' extent, so
    # separated basins survive even when alpha (hence the region) is tiny
    scale = np.array(
        [0.5 * alpha, 0.5 * (1.0 - alpha), min(alpha, 1.0 - alpha)]
    )
    thin_radius = 3.0 / (grid_resolution - 1)
    starts: list[np.ndarray] = []
    for idx in order:
        p = points[idx]
        if all(np.abs((p - s) / scale).max() > thin_radius for s in starts):
            starts.append(p)
        if len(starts) >= n_starts:
            break

    solutions: list[tuple[DimerDensities, float]] = []
    for p in starts:
        # a non-converged iterate is still a fine value candidate: the psi
        # error is quadratic in the residual, while marginal (critical-point)
        # maps converge only polynomially and would burn the whole budget
        vec, resid, _ = _fixed_point_iterate(
            params, p.copy(), damping=0.5, tol=1e-12, rel_tol=1e-10, max_iter=10_000
        )
        if not np.all(np.isfinite(vec)):
            continue
        sol = DimerDensities(*vec)
        solutions.append((sol, psi(sol, params)))

    grid_best = float(values[order[0]])
    if not solutions:
        # refinement failed everywhere (should not happen); fall back to the
        # best grid point so a maximizer is always reported
        best_point = DimerDensities(*points[order[0]])
        return [(best_point, grid_best)]

    best = max(v for _, v in solutions)
    if grid_best > best + 1e-7:
        # every refinement drifted below the raw scan: report the grid point
        # rather than silently underestimating the maximum (the inward
        # boundary derivative is +inf, so this cannot happen in exact math)
        solutions.append((DimerDensities(*points[order[0]]), grid_best))
        best = grid_best
    keep: list[tuple[DimerDensities, float]] = []
    for sol, val in sorted(solutions, key=lambda t: -t[1]):
        if val < best - tie_tol:
            break
        if any(np.abs(sol.vector - k.vector).max() <= dedupe_tol for k, _ in keep):
            continue
        keep.append((sol, val))
    keep.sort(key=lambda t: (t[0].d_a, t[0].d_b, t[0].d_ab))
    return keep


def pressure(params: ModelParams, grid_resolution: int = 64) -> float:
    """Limiting pressure density p = max psi over the hard-core region."""
    return max(v for _, v in maximize_psi(params, grid_resolution=grid_resolution))
