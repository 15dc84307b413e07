"""Thermodynamic-limit machinery: entropy, energy, variational pressure.

The limiting pressure is the maximum over the hard-core density region of

    psi(d) = s(d; alpha) - eps(d; h, J),

and interior maximizers coincide with solutions of the self-consistency
system d_A = (w_A/2) m_A^2, d_B = (w_B/2) m_B^2, d_AB = w_AB m_A m_B with
activities w = exp(h + J d).  This module evaluates psi, its gradient and
its closed-form Hessian, solves the decoupled (J = 0) system in closed-ish
form, iterates the damped fixed point for general J, and maximizes psi.

The maximizer scans a grid over the region for starts, moves each start
inside by one step of the self-consistency map and refines it by
safeguarded Newton on grad psi = 0: saddle-free steps through the
eigen-decomposed 3x3 Hessian (scaled to unit entropy diagonal, so densities
many decades apart stay resolved), halved until the iterate stays inside
the region and psi does not drop.  Stationary points are classified by their
Hessian eigenvalues, and maxima are told apart by basin (psi dips along the
segment between two distinct ones) rather than by value ties, which keeps
the answer right exactly at the critical point, where psi is flat to fourth
order.

Note on asymmetric couplings: the energy is a quadratic form, so only the
symmetric part of J matters; the gradient, the Hessian and the fixed-point
activities use (J + J^T)/2 throughout, which keeps "stationary point" and
"fixed point" exactly equivalent for arbitrary input J.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .params import TIE_TOL, DimerDensities, ModelParams

_REGION_TOL = 1e-12
_TINY = 1e-300


def _bracketed_root(fn, a, b) -> float:
    """Brent root of fn on [a, b] (signs differ at the ends) to float64 rounding."""
    return brentq(fn, a, b, xtol=1e-300, rtol=8.9e-16)


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
    v = d.vector
    if not _is_interior(v, params.alpha):
        m_a, m_b = d.monomers(params.alpha)
        raise ValueError(
            f"grad_psi needs an interior point (all densities and monomer "
            f"densities positive); got {d} with monomers ({m_a:.3e}, {m_b:.3e})"
        )
    return _grad(v, params.alpha, params.h, params.j_sym)


def _hess_psi(d: DimerDensities, params: ModelParams) -> np.ndarray:
    """Hessian of psi at an interior point: entropy part plus J_sym."""
    return _entropy_hessian(d.vector, params.alpha) + params.j_sym


def _monomers(v, alpha):
    return alpha - 2.0 * v[0] - v[2], 1.0 - alpha - 2.0 * v[1] - v[2]


# ``free`` selects the density components that vary and must be positive.
def _is_interior(v, alpha, free=slice(None)) -> bool:
    m_a, m_b = _monomers(v, alpha)
    return min(m_a, m_b, *v[free]) > 0.0


def _grad(v, alpha, h, j_sym, free=slice(None)) -> np.ndarray:
    m_a, m_b = _monomers(v, alpha)
    pairs = np.array([m_a * m_a / 2.0, m_b * m_b / 2.0, m_a * m_b])
    return np.log(pairs[free] / v[free]) + h[free] + (j_sym @ v)[free]


def _entropy_hessian(v, alpha, free=slice(None)) -> np.ndarray:
    """Hessian of s: each monomer density enters through -log m, so the
    d_A-d_B entry vanishes and d_AB couples to both monomer terms."""
    m_a, m_b = _monomers(v, alpha)
    ia, ib = 1.0 / m_a, 1.0 / m_b
    hess = np.array(
        [
            [-4.0 * ia, 0.0, -2.0 * ia],
            [0.0, -4.0 * ib, -2.0 * ib],
            [-2.0 * ia, -2.0 * ib, -ia - ib],
        ]
    )[free][:, free]
    hess.flat[:: len(hess) + 1] -= 1.0 / v[free]
    return hess


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
        m_b = _bracketed_root(resid_b, 0.0, beta)
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
    lam = damping
    prev_resid = np.inf
    resid = np.inf
    for _ in range(max_iter):
        step = _map(params, d) - d
        resid = np.abs(step).max()
        rel = (np.abs(step) / np.maximum(np.abs(d), _TINY)).max()
        if resid < tol and rel < rel_tol:
            return DimerDensities(*d)
        if resid > prev_resid:
            lam = max(0.5 * lam, 1.0 / 1024.0)
        prev_resid = resid
        d = d + lam * step
    raise RuntimeError(
        f"fixed point iteration did not converge within {max_iter} steps "
        f"(residual {resid:.3e}); retry with smaller damping"
    )


def _map(params: ModelParams, d: np.ndarray) -> np.ndarray:
    """One step of the self-consistency map d -> g(exp(h + J_sym d))."""
    field = params.h + params.j_sym @ d
    w = np.exp(field)
    if not np.all(np.isfinite(w)):
        raise RuntimeError(f"effective field {field} overflows exp()")
    return _g_of_weights(w[0], w[1], w[2], params.alpha)


def fixed_point_residual(params: ModelParams, d: DimerDensities) -> float:
    """max_i |d_i - g_i(h + J d)|: how far d is from solving the system."""
    field = params.h + params.j_sym @ d.vector
    w = np.exp(field)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"effective field {field} overflows exp()")
    g = _g_of_weights(*w, params.alpha)
    return float(np.abs(d.vector - g).max())


def _psi_arrays(d_a, d_b, d_ab, params: ModelParams):
    """Vectorized psi = s + h.d + (1/2) d.J_sym.d over broadcastable arrays."""
    h = params.h
    js = params.j_sym
    quad = (
        js[0, 0] * d_a * d_a
        + js[1, 1] * d_b * d_b
        + js[2, 2] * d_ab * d_ab
        + 2.0 * (js[0, 1] * d_a * d_b + js[0, 2] * d_a * d_ab + js[1, 2] * d_b * d_ab)
    )
    lin = h[0] * d_a + h[1] * d_b + h[2] * d_ab
    return _entropy_arrays(d_a, d_b, d_ab, params.alpha) + lin + 0.5 * quad


def _psi_grid(params: ModelParams, res: int):
    """psi on a grid filling the hard-core region (boundary included)."""
    alpha = params.alpha
    dab_vals = np.linspace(0.0, min(alpha, 1.0 - alpha), res)
    points = np.empty((res * res * res, 3))
    values = np.empty(res * res * res)
    block = res * res
    for k, dab in enumerate(dab_vals):
        da = np.linspace(0.0, 0.5 * (alpha - dab), res)[:, None]
        db = np.linspace(0.0, 0.5 * (1.0 - alpha - dab), res)[None, :]
        sl = slice(k * block, (k + 1) * block)
        points[sl, 0] = np.broadcast_to(da, (res, res)).ravel()
        points[sl, 1] = np.broadcast_to(db, (res, res)).ravel()
        points[sl, 2] = dab
        values[sl] = _psi_arrays(da, db, dab, params).ravel()
    return points, values


#: Newton iterations allowed per start.  A non-degenerate maximum converges
#: quadratically in a handful; exactly at the critical point the error only
#: shrinks by 2/3 per step, which still fits well inside this cap.
_NEWTON_MAX_ITER = 60
#: Gradient tolerance (max norm).  Each component is the log-ratio of the
#: two sides of one dimer equation, e.g. log(w_A m_A^2 / (2 d_A)), so the
#: self-consistency residual is of the same size; rounding sits near 1e-15.
#: Exactly at the critical point it leaves the maximizer ~2e-5 d_c off.
_GRAD_TOL = 1e-10
#: Allowed psi drop in the line search and along a basin segment, relative
#: to the size of psi: rounding, not a real decrease.
_PSI_SLACK = 1e-14
#: Grid starts refined per call, at most.
_N_STARTS = 12
#: Points (ends included) at which a segment between two maxima is probed
#: for a dip.
_SEGMENT_T = np.linspace(0.0, 1.0, 9)


def _scaled_eigh(v, alpha, j_sym, free):
    """Eigen-decomposition of the Hessian at v, scaled to unit entropy diagonal.

    A density near zero puts ~1/d on the Hessian diagonal; the scaling (a
    congruence, so the signs of the eigenvalues are kept) stops it from
    swamping the other directions.  A direction whose scaled coupling to
    the others is below rounding is split off exactly: eigh would mix it
    with them at the 1e-16 level, a step far larger than a density of,
    say, 1e-100 (a dimer type switched off by a field of -250).
    Returns (scale, eigenvalues, eigenvectors).
    """
    hess_s = _entropy_hessian(v, alpha, free)
    scale = 1.0 / np.sqrt(-np.diag(hess_s))
    hess = scale[:, None] * (hess_s + j_sym[free][:, free]) * scale
    coupled = np.abs(hess - np.diag(np.diag(hess))) > np.finfo(float).eps
    lam = np.diag(hess).copy()
    vecs = np.eye(free.size)
    rest = np.flatnonzero(coupled.any(axis=1))
    if rest.size:
        lam[rest], vecs[np.ix_(rest, rest)] = np.linalg.eigh(hess[np.ix_(rest, rest)])
    return scale, lam, vecs


def _newton_ascent(params: ModelParams, v: np.ndarray, free: np.ndarray):
    """Safeguarded Newton on grad psi = 0 in the components ``free``, from v.

    Steps are saddle-free (the Hessian's eigenvalues enter by modulus, so
    every step ascends) and halved until the iterate stays strictly inside
    the region and psi does not drop.  Returns (point, psi, eigenvalues of
    the scaled Hessian); raises RuntimeError when the gradient tolerance is
    not met within _NEWTON_MAX_ITER steps.
    """
    alpha, h, js = params.alpha, params.h, params.j_sym
    value = float(_psi_arrays(*v, params))
    g = _grad(v, alpha, h, js, free)
    step = np.zeros(3)
    for _ in range(_NEWTON_MAX_ITER):
        scale, lam, vecs = _scaled_eigh(v, alpha, js, free)
        if np.abs(g).max(initial=0.0) <= _GRAD_TOL:
            return v, value, lam
        step[free] = scale * (vecs @ ((vecs.T @ (scale * g)) / np.abs(lam)))
        slack = _PSI_SLACK * (1.0 + abs(value))
        t = 1.0
        while True:
            trial = v + t * step
            if _is_interior(trial, alpha, free):
                trial_value = float(_psi_arrays(*trial, params))
                if trial_value >= value - slack:
                    break
            t *= 0.5
            if t < 1e-12:
                raise RuntimeError(
                    f"maximize_psi: no ascent step from {v} (|grad psi| = "
                    f"{np.abs(g).max():.3e}) for {params}"
                )
        v, value = trial, trial_value
        g = _grad(v, alpha, h, js, free)
    raise RuntimeError(
        f"maximize_psi: Newton refinement did not meet the gradient tolerance "
        f"within {_NEWTON_MAX_ITER} steps (|grad psi| = {np.abs(g).max():.3e} at "
        f"{v}) for {params}"
    )


def _same_basin(params: ModelParams, a, b) -> bool:
    """True when psi shows no dip along the segment from a to b."""
    seg = a + _SEGMENT_T[:, None] * (b - a)
    vals = _psi_arrays(seg[:, 0], seg[:, 1], seg[:, 2], params)
    low = min(vals[0], vals[-1])
    return bool(vals[1:-1].min() >= low - _PSI_SLACK * (1.0 + abs(low)))


def maximize_psi(
    params: ModelParams, grid_resolution: int = 64
) -> list[tuple[DimerDensities, float]]:
    """All global maximizers of psi over the hard-core region.

    A coarse grid (boundary faces included) locates candidate basins, and
    the best points, thinned so that each start sits in its own patch of
    the grid, become up to ``_N_STARTS`` starts.  One step of the
    self-consistency map moves each start inside the region; a density it
    leaves below the smallest normal double (a field below about -705) is
    frozen at exactly 0, where 1/d would overflow.  Safeguarded Newton with
    the closed-form Hessian refines the other components to a stationary
    point, and points whose Hessian has a positive eigenvalue are dropped.
    The maxima within ``TIE_TOL`` of the best value are returned (the
    coexistence line genuinely has ties), one per basin:
    two candidates count as one maximizer when psi shows no dip along the
    segment between them, which also holds exactly at the critical point,
    where psi is flat to fourth order and the converged points scatter by
    ~eps^(1/3) around d_c.  Sorted lexicographically.

    Raises RuntimeError when a start does not reach the gradient tolerance
    within the iteration cap, or when the activities exp(h + J d) overflow
    (fields above about +700).
    """
    if grid_resolution < 4:
        raise ValueError("grid_resolution must be at least 4")
    points, values = _psi_grid(params, grid_resolution)
    alpha = params.alpha
    k = min(40 * _N_STARTS, values.size)
    top = np.argpartition(values, -k)[-k:]
    order = top[np.argsort(values[top])[::-1]]
    # candidate thinning works per axis in units of that axis' extent, so
    # separated basins survive even when alpha (hence the region) is tiny
    scale = np.array([0.5 * alpha, 0.5 * (1.0 - alpha), min(alpha, 1.0 - alpha)])
    thin_radius = 3.0 / (grid_resolution - 1)
    starts = points[order[:1]]
    for idx in order[1:]:
        if len(starts) >= _N_STARTS:
            break
        p = points[idx]
        if np.abs((p - starts) / scale).max(axis=1).min() > thin_radius:
            starts = np.vstack([starts, p])

    candidates = []
    for p in starts:
        v = _map(params, p)
        v[v < np.finfo(float).tiny] = 0.0
        free = np.flatnonzero(v)
        if not _is_interior(v, alpha, free):
            raise RuntimeError(f"maximize_psi: the map step left no monomers at {v} for {params}")
        v, value, lam = _newton_ascent(params, v, free)
        # a clearly positive eigenvalue marks a saddle; at the critical point
        # the flat direction's eigenvalue sits near zero and must still count
        if np.all(lam <= np.sqrt(np.finfo(float).eps) * np.abs(lam).max(initial=0.0)):
            candidates.append((v, value))
    if not candidates:
        raise RuntimeError(f"maximize_psi: no start converged to a maximum for {params}")

    best = max(value for _, value in candidates)
    keep: list[tuple[np.ndarray, float]] = []
    for v, value in sorted(candidates, key=lambda t: -t[1]):
        if value < best - TIE_TOL:
            break
        if not any(_same_basin(params, v, kept) for kept, _ in keep):
            keep.append((v, value))
    out = [(DimerDensities(*v), value) for v, value in keep]
    out.sort(key=lambda t: (t[0].d_a, t[0].d_b, t[0].d_ab))
    return out


def pressure(params: ModelParams, grid_resolution: int = 64) -> float:
    """Limiting pressure density p = max psi over the hard-core region."""
    return max(v for _, v in maximize_psi(params, grid_resolution=grid_resolution))
