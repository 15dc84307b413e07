"""Thermodynamic-limit machinery: entropy, variational pressure, maximizer.

The limiting pressure is the maximum over the hard-core density region of

    psi(d) = s(d; alpha) - eps(d; h, J),

and interior maximizers coincide with solutions of the self-consistency
system d_A = (w_A/2) m_A^2, d_B = (w_B/2) m_B^2, d_AB = w_AB m_A m_B with
activities w = exp(h + J d).  This module evaluates psi, its gradient and
its closed-form Hessian, solves the decoupled (J = 0) system in closed-ish
form, iterates the damped fixed point for general J, and maximizes psi.

The maximizer needs no search when a curvature bound certifies psi strictly
concave: it starts once from d = 0.  Otherwise a grid over the region, summed
from two planes of psi, gives the starts.  It moves each start inside by one
step of the self-consistency map and refines it by safeguarded Newton on
grad psi = 0: saddle-free steps through the eigen-decomposed 3x3 Hessian
(scaled to unit entropy diagonal, so densities many decades apart stay
resolved), halved until the iterate stays inside the region and psi does not
drop.  Stationary points are classified by their Hessian eigenvalues, and
maxima are told apart by basin (psi dips along the segment between two
distinct ones) rather than by value ties, which keeps the answer right
exactly at the critical point, where psi is flat to fourth order.

Note on asymmetric couplings: the energy is a quadratic form, so only the
symmetric part of J matters; the gradient, the Hessian and the fixed-point
activities use (J + J^T)/2 throughout, which keeps "stationary point" and
"fixed point" exactly equivalent for arbitrary input J.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .params import TIE_TOL, DimerDensities, ModelParams, _monomers, quadratic_form

_TINY = 1e-300
#: Brent's tolerances and iteration cap (those of scipy's ``brentq`` with
#: xtol=1e-300, rtol=8.9e-16): the bracket closes to float64 rounding.
_XTOL, _RTOL, _MAXITER = 1e-300, 8.9e-16, 100


def _bracketed_root(fn, a, b) -> float:
    """Root of fn on [a, b] (signs differ at the ends) to float64 rounding.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) in the form of scipy's ``brentq``, step for
    step: inverse quadratic or secant steps while they shrink the bracket
    fast enough, bisection otherwise.  ValueError when fn(a) and fn(b) share
    a sign or fn returns NaN; RuntimeError after 100 iterations.
    """

    def call(x):
        fx = float(fn(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # inf or NaN in C arithmetic, so a bisection
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur!r}")


def _xlogx_minus_x(arr):
    """x log x - x, extended by 0 at x = 0: the log of Stirling's surrogate for x!."""
    safe = np.where(arr > 0.0, arr, 1.0)
    return np.where(arr > 0.0, arr * np.log(safe) - arr, 0.0)


def _entropy_arrays(d_a, d_b, d_ab, alpha):
    """Vectorized s(d; alpha); inputs may hit the region boundary."""
    m_a, m_b = (np.maximum(m, 0.0) for m in _monomers(d_a, d_b, d_ab, alpha))
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
    """Hard-core feasibility: 2 d_A + d_AB <= alpha and the B analogue, up
    to 1e-12 of rounding."""
    m_a, m_b = _monomers(d.d_a, d.d_b, d.d_ab, alpha)
    if not (m_a >= -1e-12 and m_b >= -1e-12):
        raise ValueError(
            f"densities {d} lie outside the hard-core region for alpha={alpha} "
            f"(monomer densities ({m_a:.3e}, {m_b:.3e}))"
        )


def entropy(d: DimerDensities, alpha: float) -> float:
    """Configuration entropy density s(d; alpha); finite on the closed region."""
    _require_in_region(d, alpha)
    return float(_entropy_arrays(d.d_a, d.d_b, d.d_ab, alpha))


def psi(d: DimerDensities, params: ModelParams) -> float:
    """Variational pressure density psi = s - eps, eps(d) = -h.d - (1/2) d.J.d."""
    _require_in_region(d, params.alpha)
    return float(_psi_arrays(d.d_a, d.d_b, d.d_ab, params))


def grad_psi(d: DimerDensities, params: ModelParams) -> np.ndarray:
    """Gradient of psi on the interior, where every density and monomer
    density is a normal double; it diverges like log of a vanishing one."""
    v = d.vector
    if not _is_interior(v, params.alpha):
        m_a, m_b = _monomers(d.d_a, d.d_b, d.d_ab, params.alpha)
        raise ValueError(
            f"grad_psi needs an interior point (all densities and monomer "
            f"densities normal and positive); got {d} with monomers ({m_a:.3e}, {m_b:.3e})"
        )
    return _grad(v, params.alpha, params.h, params.j_sym)


def _hess_psi(d: DimerDensities, params: ModelParams) -> np.ndarray:
    """Hessian of psi at an interior point: entropy part plus J_sym."""
    return _entropy_hessian(d.vector, params.alpha) + params.j_sym


# ``free`` selects the components that vary; they and m_A, m_B must be normal doubles.
def _is_interior(v, alpha, free=slice(None)) -> bool:
    m_a, m_b = _monomers(v[0], v[1], v[2], alpha)
    return min(m_a, m_b, *v[free]) >= sys.float_info.min


def _grad(v, alpha, h, j_sym, free=slice(None)) -> np.ndarray:
    m_a, m_b = _monomers(v[0], v[1], v[2], alpha)
    pairs = np.array([m_a * m_a / 2.0, m_b * m_b / 2.0, m_a * m_b])
    return np.log(pairs[free] / v[free]) + h[free] + (j_sym @ v)[free]


def _entropy_hessian(v, alpha, free=slice(None)) -> np.ndarray:
    """Hessian of s: each monomer density enters through -log m, so the
    d_A-d_B entry vanishes and d_AB couples to both monomer terms."""
    m_a, m_b = _monomers(v[0], v[1], v[2], alpha)
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
    """Monomer densities (m_A, m_B) solving the constant-activity system.

    The dimer equations turn the hard-core identities into
    m_A + w_A m_A^2 + w_AB m_A m_B = alpha and the B analogue.  Let y be the
    monomer density of the larger population and x the other's.  At fixed y
    the x equation has one positive root x(y), and along it the y equation
    increases with y.  Setting x to its population and then to 0 brackets y
    between 3e-309 and 1 (y's population is at least 1/2), and Brent runs in
    log y on the y equation less the x equation: the mixed term, which may
    nearly fill both populations, drops out, and the larger population keeps
    the rest at rounding.  An end that rounding puts on the wrong side is
    the root.  RuntimeError when a Newton step from the pair would move
    log m_A or log m_B by more than 1e-10 (``_monomer_step``).
    """
    beta = 1.0 - alpha
    flip = alpha > beta
    w_x, w_y, x, y = (w_b, w_a, beta, alpha) if flip else (w_a, w_b, alpha, beta)

    def root(w, c, u):  # of w m^2 + c m = u, with no intermediate overflow
        return 2.0 * (u / c) / (1.0 + math.hypot(1.0, 2.0 * math.sqrt(w * u) / c))

    def x_of(m_y):
        return root(w_x, 1.0 + w_ab * m_y, x)

    def excess(s):
        m_y = math.exp(s)
        m_x = x_of(m_y)
        return m_y + w_y * m_y * m_y - m_x - w_x * m_x * m_x - (y - x)

    lo, hi = (math.log(root(w_y, 1.0 + w_ab * m_x, y)) for m_x in (x, 0.0))
    s = lo if excess(lo) >= 0.0 else hi if excess(hi) <= 0.0 else _bracketed_root(excess, lo, hi)
    m_y = min(math.exp(s), y)  # exp(log y) may round above y
    m_a, m_b = (m_y, x_of(m_y)) if flip else (x_of(m_y), m_y)
    step = _monomer_step(w_a, w_b, w_ab, alpha, m_a, m_b)
    if not step <= 1e-10:
        raise RuntimeError(
            f"monomer solve did not converge (Newton step {step:.3e} in log m) for "
            f"activities {(w_a, w_b, w_ab)}, alpha={alpha}"
        )
    return m_a, m_b


def _monomer_step(w_a, w_b, w_ab, alpha, m_a, m_b) -> float:
    """Largest |component| of the Newton step in (log m_A, log m_B) on
    f_A = m_A + w_A m_A^2 + q - alpha and its B analogue, q = w_AB m_A m_B.

    With p = m + 2 w m^2 the Jacobian in log m is [[p_A + q, q], [q, p_B + q]],
    of determinant p_A p_B + q (p_A + p_B), and the step is formed from f_A,
    f_B and f_A - f_B, the last written so that q, which may nearly fill both
    populations, drops out.
    """
    beta = 1.0 - alpha
    q = w_ab * m_a * m_b
    own_a, own_b = m_a + w_a * m_a * m_a, m_b + w_b * m_b * m_b
    f_a, f_b = own_a + q - alpha, own_b + q - beta
    diff = own_a - own_b + (beta - alpha)
    p_a, p_b = m_a + 2.0 * (w_a * m_a * m_a), m_b + 2.0 * (w_b * m_b * m_b)
    det = p_a * p_b + q * (p_a + p_b)
    return max(abs(p_b * f_a + q * diff), abs(p_a * f_b - q * diff)) / det


def solve_zero_coupling(h, alpha: float) -> DimerDensities:
    """Unique solution of the fixed-point system at J = 0: one step of the
    self-consistency map from d = 0, whose activities w = exp(h) do not
    depend on d.  The monomer densities are within a Newton step of 1e-10
    in log m of the root of their two equations.
    """
    return DimerDensities(*_map(ModelParams(alpha, h), np.zeros(3)))


#: fixed_point_solve: initial damping, absolute and relative residual
#: tolerances, and iteration cap.
_FP_DAMPING, _FP_TOL, _FP_REL_TOL, _FP_MAX_ITER = 0.5, 1e-12, 1e-10, 100_000


def fixed_point_solve(params: ModelParams, d0: DimerDensities | None = None) -> DimerDensities:
    """Damped iteration of d <- (1-lam) d + lam g(h + J d, alpha).

    Converges to a solution of the self-consistency system; the returned
    point carries residual max_i |d_i - g_i(d)| < 1e-12 and a relative
    residual < 1e-10, so the gradient of psi vanishes there to ~1e-8 even
    for very small density components.  The damping starts at 1/2 and
    halves whenever the residual grows (the map need not contract for
    large J).
    """
    if d0 is None:
        d = _map(params, np.zeros(3))
    else:
        _require_in_region(d0, params.alpha)
        d = d0.vector.copy()
    lam = _FP_DAMPING
    prev_resid = np.inf
    resid = np.inf
    for _ in range(_FP_MAX_ITER):
        step = _map(params, d) - d
        resid = np.abs(step).max()
        rel = (np.abs(step) / np.maximum(np.abs(d), _TINY)).max()
        if resid < _FP_TOL and rel < _FP_REL_TOL:
            return DimerDensities(*d)
        if resid > prev_resid:
            lam = max(0.5 * lam, 1.0 / 1024.0)
        prev_resid = resid
        d = d + lam * step
    raise RuntimeError(
        f"fixed point iteration did not converge within {_FP_MAX_ITER} steps "
        f"(residual {resid:.3e})"
    )


def _map(params: ModelParams, d: np.ndarray) -> np.ndarray:
    """One step of the self-consistency map d -> g(exp(h + J_sym d))."""
    field = params.h + params.j_sym @ d
    with np.errstate(over="ignore"):  # the check below reports an overflow
        w = np.exp(field)
    if not np.all(np.isfinite(w)):
        raise RuntimeError(f"effective field {field} overflows exp()")
    m_a, m_b = _solve_monomers(*w.tolist(), params.alpha)
    return np.array([0.5 * w[0] * m_a * m_a, 0.5 * w[1] * m_b * m_b, w[2] * m_a * m_b])


def fixed_point_residual(params: ModelParams, d: DimerDensities) -> float:
    """max_i |d_i - g_i(h + J d)|: how far d is from solving the system."""
    return float(np.abs(d.vector - _map(params, d.vector)).max())


def _psi_arrays(d_a, d_b, d_ab, params: ModelParams):
    """Vectorized psi = s + h.d + (1/2) d.J_sym.d over broadcastable arrays."""
    h = params.h
    quad = quadratic_form(params.j_sym, d_a, d_b, d_ab)
    lin = h[0] * d_a + h[1] * d_b + h[2] * d_ab
    return _entropy_arrays(d_a, d_b, d_ab, params.alpha) + lin + 0.5 * quad


def _psi_grid(params: ModelParams, res: int):
    """psi on a grid filling the hard-core region (boundary included).

    The d_A and d_B axes span the room d_AB leaves, and the entropy has no
    d_A-d_B term, so psi[k, i, j] = P_A[k, i] + P_B[k, j] + J01 d_A d_B sums
    two planes.  Returns (d_A[k, i], d_B[k, j], d_AB[k], psi[k, i, j]).
    """
    alpha = params.alpha
    dab = np.linspace(0.0, min(alpha, 1.0 - alpha), res)
    # C order, so that the cube summed from the planes is C order too
    da = np.ascontiguousarray(np.linspace(0.0, 0.5 * (alpha - dab), res, axis=1))
    db = np.ascontiguousarray(np.linspace(0.0, 0.5 * (1.0 - alpha - dab), res, axis=1))
    dab = dab[:, None]
    p_a = _psi_arrays(da, 0.0, dab, params)
    p_b = _psi_arrays(0.0, db, dab, params) - _psi_arrays(0.0, 0.0, dab, params)
    values = p_a[:, :, None] + p_b[:, None, :]
    if params.j_sym[0, 1] != 0.0:
        values += params.j_sym[0, 1] * da[:, :, None] * db[:, None, :]
    return da, db, dab[:, 0], values


def _extent(alpha) -> np.ndarray:
    """Largest d_A, d_B and d_AB on the hard-core region."""
    return np.array([0.5 * alpha, 0.5 * (1.0 - alpha), min(alpha, 1.0 - alpha)])


def _concave(params: ModelParams) -> bool:
    """True when a curvature bound proves psi strictly concave on the region.

    Each density is at most its extent e (alpha/2, (1-alpha)/2, min(alpha,
    1-alpha)), so the entropy Hessian -diag(1/d) - a a^T/m_A - b b^T/m_B is
    at most -diag(1/e); psi is concave when e^1/2 J_sym e^1/2 < 1.
    """
    root = np.sqrt(_extent(params.alpha))
    return bool(np.linalg.eigvalsh(root[:, None] * params.j_sym * root)[-1] < 1.0 - 1e-9)


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
#: Grid points per axis when psi is not certified concave.
_GRID_RES = 64
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


def _grid_starts(params: ModelParams) -> np.ndarray:
    """Up to _N_STARTS best grid points, each in its own patch of the grid."""
    da, db, dab, values = _psi_grid(params, _GRID_RES)
    # a layer with no room on an axis repeats one point along it: keep one copy
    values[da[:, -1] == 0, 1:] = -np.inf
    values[db[:, -1] == 0, :, 1:] = -np.inf
    flat = values.ravel()
    k = min(40 * _N_STARTS, flat.size)
    top = np.argpartition(flat, -k)[-k:]
    kk, ii, jj = np.unravel_index(top[np.argsort(flat[top])[::-1]], values.shape)
    points = np.column_stack([da[kk, ii], db[kk, jj], dab[kk]])
    # greedy in order of value: the best point left is a start, and the
    # points within thin_radius of it go; distances are per axis in units of
    # that axis' extent, so separated basins survive even when alpha (hence
    # the region) is tiny
    scale = _extent(params.alpha)
    thin_radius = 3.0 / (_GRID_RES - 1)
    starts = []
    left = np.ones(len(points), dtype=bool)
    while left.any() and len(starts) < _N_STARTS:
        starts.append(points[np.argmax(left)])
        left &= np.abs((points - starts[-1]) / scale).max(axis=1) > thin_radius
    return np.array(starts)


def maximize_psi(params: ModelParams) -> list[tuple[DimerDensities, float]]:
    """All global maximizers of psi over the hard-core region.

    When the bound of ``_concave`` certifies psi strictly concave (every
    input with J_sym negative semidefinite, and many more), the one
    maximizer is interior and d = 0 is the only start.  Otherwise a coarse
    grid (boundary faces included) locates candidate basins, and the best
    points, thinned so that each start sits in its own patch of the grid,
    become up to ``_N_STARTS`` starts.  One step of the self-consistency
    map moves each start inside the region; a density it leaves below the
    smallest normal double (a field below about -705) is frozen at exactly
    0, where 1/d would overflow.  Safeguarded Newton with
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
    alpha = params.alpha
    # the map step takes d = 0 to the zero-coupling solution
    starts = np.zeros((1, 3)) if _concave(params) else _grid_starts(params)

    candidates = []
    for p in starts:
        v = _map(params, p)
        v[v < sys.float_info.min] = 0.0
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


def pressure(params: ModelParams) -> float:
    """Limiting pressure density p = max psi over the hard-core region; the
    grid of ``maximize_psi`` is skipped when psi is certified concave."""
    return max(v for _, v in maximize_psi(params))
