"""One-dimensional reduction at mixed-only couplings and its critical point.

With only the mixed-dimer field h and coupling J > 0 active, the intra
densities are explicit functions of d = d_AB: the monomer densities are the
positive roots x(d), y(d) of x^2 + x = alpha - d and y^2 + y = 1 - alpha - d,
and the variational problem becomes one-dimensional with consistency
equation

    f(d) := log d - log x(d) - log y(d) = h + J d.

f is the inverse of a sigmoid (f -> -inf at 0, +inf at the upper end of
the reduced interval, f' > 0, f'' vanishing exactly once), so the tangency
point of the line h + J d at the inflection of f is where the solution
branches: f''(d_c) = 0, J_c = f'(d_c), h_c = f(d_c) - J_c d_c.

All of f', f'', f''' are closed-form chain-rule expressions (verified
against finite differences in the tests); the third derivative is what the
square-root branch law needs.  Near the critical point f'' is a difference
of two O(1/alpha^2) terms, so the critical solve refines the float64 root
in extended precision to certify the defining residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .params import (
    STABILITY_GLOBAL,
    STABILITY_LOCAL,
    STABILITY_UNSTABLE,
    BranchSolution,
    CriticalPoint,
    ReducedParams,
)
from .variational import _entropy_arrays

#: alpha -> 0 limit of the critical field h_c: d_c -> alpha/2 and
#: J_c -> 4/alpha, so h_c -> -2 - log y(0) with y(0) = (sqrt 5 - 1)/2.
H_C_LIMIT = float(-2.0 - np.log((np.sqrt(5.0) - 1.0) / 2.0))


def x_alpha(d, alpha):
    """Positive root of x^2 + x = alpha - d; the A-monomer density."""
    u = _checked_gap(d, alpha, alpha, "x_alpha")
    return _pos_root(u)


def y_alpha(d, alpha):
    """Positive root of y^2 + y = 1 - alpha - d; the B-monomer density."""
    u = _checked_gap(d, 1.0 - np.asarray(alpha, dtype=float), alpha, "y_alpha")
    return _pos_root(u)


def _checked_gap(d, limit, alpha, name):
    d = np.asarray(d)
    u = limit - d
    if np.any(d < 0) or np.any(u < 0):
        raise ValueError(f"{name}: d must lie in [0, {limit}] for alpha={alpha}")
    return u


def _pos_root(u):
    # 2u / (1 + sqrt(1+4u)) is the cancellation-free form of (-1+sqrt(1+4u))/2
    root = 2.0 * u / (1.0 + np.sqrt(1.0 + 4.0 * u))
    return root if root.ndim else root[()]


def _xy(d, alpha):
    return _pos_root(alpha - d), _pos_root((1.0 - alpha) - d)


def reduced_density_max(alpha: float) -> float:
    """Upper end of the mixed-density interval: the smaller population
    runs out of sites first."""
    return min(alpha, 1.0 - alpha)


def psi1(d, rp: ReducedParams):
    """Reduced variational pressure: psi evaluated at (x^2/2, y^2/2, d)."""
    d = np.asarray(d, dtype=float)
    top = reduced_density_max(rp.alpha)
    if np.any(d < 0) or np.any(d > top):
        raise ValueError(f"psi1: d must lie in [0, {top}] for alpha={rp.alpha}")
    x, y = _xy(d, rp.alpha)
    s = _entropy_arrays(0.5 * x * x, 0.5 * y * y, d, rp.alpha)
    out = s + rp.h * d + 0.5 * rp.j * d * d
    return float(out) if out.ndim == 0 else out


def _require_open_interval(d, alpha, name):
    d_arr = np.asarray(d)
    top = reduced_density_max(alpha)
    if np.any(d_arr <= 0) or np.any(d_arr >= top):
        raise ValueError(f"{name}: d must lie strictly inside (0, {top})")


def f_alpha(d, alpha):
    """log d - log x(d) - log y(d) on the open reduced interval."""
    _require_open_interval(d, alpha, "f_alpha")
    return _f_raw(d, alpha)


def _f_raw(d, alpha):
    x, y = _xy(d, alpha)
    return np.log(d) - np.log(x) - np.log(y)


def f_alpha_d1(d, alpha):
    """First derivative of f; positive on the whole open interval."""
    _require_open_interval(d, alpha, "f_alpha_d1")
    return _f1_raw(d, alpha)


def _f1_raw(d, alpha):
    # x'(d) = -1/(2x+1), so (log x)' = -1/(x (2x+1))
    x, y = _xy(d, alpha)
    return 1.0 / d + 1.0 / (x * (2.0 * x + 1.0)) + 1.0 / (y * (2.0 * y + 1.0))


def f_alpha_d2(d, alpha):
    """Second derivative of f; -inf-to-+inf monotone with a single zero."""
    _require_open_interval(d, alpha, "f_alpha_d2")
    return _f2_raw(d, alpha)


def _f2_raw(d, alpha):
    x, y = _xy(d, alpha)
    gx = (4.0 * x + 1.0) / (x * x * (2.0 * x + 1.0) ** 3)
    gy = (4.0 * y + 1.0) / (y * y * (2.0 * y + 1.0) ** 3)
    return -1.0 / (d * d) + gx + gy


def f_alpha_d3(d, alpha):
    """Third derivative of f; strictly positive, which is why f'' has
    exactly one zero."""
    _require_open_interval(d, alpha, "f_alpha_d3")
    return _f3_raw(d, alpha)


def _f3_raw(d, alpha):
    x, y = _xy(d, alpha)
    gx = (16.0 * x * x + 7.0 * x + 1.0) / (x ** 3 * (2.0 * x + 1.0) ** 5)
    gy = (16.0 * y * y + 7.0 * y + 1.0) / (y ** 3 * (2.0 * y + 1.0) ** 5)
    return 2.0 / d ** 3 + 2.0 * gx + 2.0 * gy


def _root_grid(alpha, n):
    """Grid on the reduced-density interval, geometrically refined toward
    both endpoints where f diverges."""
    top = reduced_density_max(alpha)
    half = max(n // 2, 8)
    low = np.geomspace(top * 1e-12, 0.5 * top, half)
    return np.concatenate([low, top - low[::-1]])


def critical_point(alpha: float) -> CriticalPoint:
    """Solve f''(d_c) = 0, then J_c = f'(d_c), h_c = f(d_c) - J_c d_c.

    Bracketed bisection on f'' (sign change certified on a two-sided
    geometric grid) followed by Newton steps in extended precision using
    f'''; the refined density is kept on the result so the defining
    residuals evaluate below 1e-9 at every alpha of interest.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    grid = _root_grid(alpha, 400)
    vals = _f2_raw(grid, alpha)
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(sign_change) == 0:
        raise RuntimeError(
            f"f'' shows no sign change on the reduced interval for alpha={alpha}; "
            f"this contradicts its strict monotonicity and signals a bug"
        )
    i = int(sign_change[0])
    d_c = brentq(lambda d: _f2_raw(d, alpha), grid[i], grid[i + 1], xtol=1e-300, rtol=8.9e-16)

    d_hi = np.longdouble(d_c)
    alpha_hi = np.longdouble(alpha)
    for _ in range(4):
        d_hi = d_hi - _f2_raw(d_hi, alpha_hi) / _f3_raw(d_hi, alpha_hi)
    j_c = float(_f1_raw(d_hi, alpha_hi))
    h_c = float(_f_raw(d_hi, alpha_hi) - _f1_raw(d_hi, alpha_hi) * d_hi)
    return CriticalPoint(alpha=alpha, d_c=float(d_hi), h_c=h_c, j_c=j_c, d_c_refined=d_hi)


def critical_residuals(cp: CriticalPoint) -> tuple[float, float, float]:
    """Defining-equation residuals (|f''|, |f'-J_c|, |f - h_c - J_c d_c|),
    evaluated at the extended-precision critical density."""
    d = cp.d_c_refined
    a = np.longdouble(cp.alpha)
    return (
        float(abs(_f2_raw(d, a))),
        float(abs(_f1_raw(d, a) - cp.j_c)),
        float(abs(_f_raw(d, a) - cp.h_c - cp.j_c * d)),
    )


def solve_branches(
    rp: ReducedParams, grid_points: int = 10_000, tie_tol: float = 1e-9
) -> list[BranchSolution]:
    """All solutions of f(d) = h + J d on the reduced interval, classified.

    f'' vanishes once, so the line crosses f at most three times; sign
    changes are located on a grid log-spaced toward both endpoints (where f
    diverges and roots hide at small alpha), refined by Brent.  Roots with
    f'(d) >= J are local maxima of the reduced pressure; the top value(s)
    within ``tie_tol`` are the global ones; the rest are unstable.
    """
    alpha, h, j = rp.alpha, rp.h, rp.j
    grid = _root_grid(alpha, grid_points)
    resid = _f_raw(grid, alpha) - h - j * grid
    sgn = np.sign(resid)
    roots: list[float] = []
    hits = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    for i in hits:
        roots.append(
            brentq(
                lambda d: _f_raw(d, alpha) - h - j * d,
                grid[i],
                grid[i + 1],
                xtol=1e-300,
                rtol=8.9e-16,
            )
        )
    roots.extend(float(grid[k]) for k in np.nonzero(resid == 0.0)[0])
    roots = sorted(set(roots))
    # collapse near-coincident roots from adjacent brackets
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 1e-12 * reduced_density_max(alpha):
            continue
        merged.append(r)

    values = [psi1(r, rp) for r in merged]
    slope_tol = 1e-9 * max(1.0, j)
    is_max = [float(_f1_raw(r, alpha)) - j >= -slope_tol for r in merged]
    best = max((v for v, m in zip(values, is_max) if m), default=max(values, default=0.0))
    out = []
    for r, v, m in zip(merged, values, is_max):
        if not m:
            stability = STABILITY_UNSTABLE
        elif v >= best - tie_tol:
            stability = STABILITY_GLOBAL
        else:
            stability = STABILITY_LOCAL
        out.append(BranchSolution(d=r, psi1_value=v, stability=stability))
    return out


def global_branches(branches: list[BranchSolution]) -> list[BranchSolution]:
    return [b for b in branches if b.stability == STABILITY_GLOBAL]


def mixed_dimer_fraction(d: float, alpha: float) -> float:
    """Limiting ratio of mixed dimers to all dimers at reduced couplings:
    d / (x^2/2 + y^2/2 + d)."""
    x, y = _xy(float(d), alpha)
    return float(d / (0.5 * x * x + 0.5 * y * y + d))


@dataclass(frozen=True)
class ExponentScan:
    """Branch deviations along the coupling offsets and their log-log fit."""

    alpha: float
    critical: CriticalPoint
    offsets: np.ndarray
    deviations: np.ndarray
    exponent: float
    prefactor: float


def _fit_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    design = np.vstack([np.ones_like(x), np.log(x)]).T
    coef, *_ = np.linalg.lstsq(design, np.log(y), rcond=None)
    return float(coef[1]), float(np.exp(coef[0]))


def exponent_scan(alpha: float, j_offsets) -> ExponentScan:
    """Upper-branch deviation d* - d_c along J = J_c + delta, h = h_c - d_c delta.

    Offsets must stay small against J_c (each <= 0.05 J_c): beyond that the
    next-order corrections visibly bend the log-log data and the fitted
    exponent drifts below 1/2.  Returns the unweighted least-squares slope
    and prefactor of log(d* - d_c) against log(delta).
    """
    cp = critical_point(alpha)
    offsets = np.asarray(j_offsets, dtype=float).reshape(-1)
    if offsets.size < 2:
        raise ValueError("need at least two offsets to fit an exponent")
    if np.any(offsets <= 0.0):
        raise ValueError("offsets must be positive")
    if np.any(offsets > 0.05 * cp.j_c):
        raise ValueError(
            f"offsets must stay below 0.05*J_c = {0.05 * cp.j_c:.6g} "
            f"(got max {offsets.max():.6g})"
        )
    deviations = np.empty_like(offsets)
    for k, delta in enumerate(np.sort(offsets)):
        rp = ReducedParams(alpha, cp.h_c - cp.d_c * delta, cp.j_c + delta)
        tops = global_branches(solve_branches(rp))
        d_star = max(b.d for b in tops)
        if d_star <= cp.d_c:
            raise RuntimeError(
                f"offset {delta:.6g} landed on the low-density side "
                f"(d*={d_star:.6g} <= d_c={cp.d_c:.6g}); not the branching regime"
            )
        deviations[k] = d_star - cp.d_c
    offsets = np.sort(offsets)
    exponent, prefactor = _fit_loglog(offsets, deviations)
    return ExponentScan(
        alpha=alpha,
        critical=cp,
        offsets=offsets,
        deviations=deviations,
        exponent=exponent,
        prefactor=prefactor,
    )


def coexistence_field(alpha: float, j: float, cp: CriticalPoint | None = None) -> float:
    """Field h at which the two pressure maxima tie, for given alpha, J > J_c.

    Inside the three-root window the tie gap psi1(upper) - psi1(lower) is
    strictly decreasing in h (its h-derivative is d_lower - d_upper), and
    outside the window the single surviving root sits on the high side for
    h above coexistence and the low side below, so a sign-consistent
    bisection bracket always exists around the inflection-tangent guess.
    """
    if cp is None:
        cp = critical_point(alpha)
    if not j > cp.j_c:
        raise ValueError(f"need j > J_c(alpha) = {cp.j_c:.6g} for coexistence, got {j}")

    def gap(h: float) -> float:
        branches = solve_branches(ReducedParams(alpha, h, j))
        maxima = [b for b in branches if b.stability != STABILITY_UNSTABLE]
        if len(maxima) >= 2:
            return maxima[-1].psi1_value - maxima[0].psi1_value
        return 1.0 if maxima[0].d > cp.d_c else -1.0

    h0 = float(_f_raw(np.float64(cp.d_c), alpha) - j * cp.d_c)
    width = 0.05 * max(1.0, abs(h0))
    lo, hi = h0 - width, h0 + width
    g_lo, g_hi = gap(lo), gap(hi)
    expansions = 0
    while g_lo * g_hi > 0.0:
        expansions += 1
        if expansions > 60:
            raise RuntimeError(
                f"could not bracket the coexistence field near h={h0:.6g} "
                f"for alpha={alpha}, j={j}"
            )
        width *= 2.0
        lo, hi = h0 - width, h0 + width
        g_lo, g_hi = gap(lo), gap(hi)
    return float(brentq(gap, lo, hi, xtol=1e-15, rtol=8.9e-16))


@dataclass(frozen=True)
class ScaledCritical:
    """Critical point in the (alpha, h) plane at fixed scaled coupling J'."""

    jprime: float
    alpha_c: float
    h_c: float
    d_c: float
    d_mix_c: float


def scaled_coupling_critical(jprime: float) -> ScaledCritical:
    """Critical point under J = alpha (1 - alpha) J' at fixed J' >> 1.

    alpha_c solves J_c(alpha) = alpha (1 - alpha) J'; the expansions
    alpha_c ~ 2/sqrt(J') and J_c ~ 4/alpha guarantee a sign change on
    [1/sqrt(J'), 4/sqrt(J')].  Returns the associated field, density and
    mixed-dimer fraction at criticality.
    """
    jprime = float(jprime)
    if not jprime >= 100.0:
        raise ValueError(f"jprime must be >= 100 for the scaled regime, got {jprime}")

    def mismatch(a: float) -> float:
        return critical_point(a).j_c - a * (1.0 - a) * jprime

    lo, hi = 1.0 / np.sqrt(jprime), 4.0 / np.sqrt(jprime)
    m_lo, m_hi = mismatch(lo), mismatch(hi)
    if m_lo * m_hi > 0.0:
        raise RuntimeError(
            f"no critical alpha bracketed in [{lo:.4g}, {hi:.4g}] for "
            f"jprime={jprime}; outside the scaled regime"
        )
    alpha_c = brentq(mismatch, lo, hi, xtol=1e-300, rtol=8.9e-16)
    cp = critical_point(alpha_c)
    return ScaledCritical(
        jprime=jprime,
        alpha_c=float(alpha_c),
        h_c=cp.h_c,
        d_c=cp.d_c,
        d_mix_c=mixed_dimer_fraction(cp.d_c, alpha_c),
    )


@dataclass(frozen=True)
class DmixScan:
    """Mixed-dimer fraction along the coexistence line above alpha_c."""

    scaled: ScaledCritical
    alphas: np.ndarray
    h_values: np.ndarray
    d_values: np.ndarray
    d_mix: np.ndarray
    exponent: float = field(default=np.nan)


def d_mix_scan(jprime: float, alphas) -> DmixScan:
    """Upper-branch d_mix for each alpha > alpha_c at the coexistence field.

    For each alpha the coupling is J = alpha (1 - alpha) J' and the field is
    solved so the two pressure maxima tie (first-order transition line);
    the mixed fraction of the upper branch then leaves its critical value
    like sqrt(alpha - alpha_c).  The companion fit reports that exponent.
    """
    sc = scaled_coupling_critical(jprime)
    alphas = np.sort(np.asarray(alphas, dtype=float).reshape(-1))
    if alphas.size == 0:
        raise ValueError("alphas must be nonempty")
    if np.any(alphas <= sc.alpha_c):
        raise ValueError(
            f"every alpha must exceed alpha_c = {sc.alpha_c:.8g}; "
            f"got min {alphas.min():.8g}"
        )
    h_vals = np.empty_like(alphas)
    d_vals = np.empty_like(alphas)
    mix = np.empty_like(alphas)
    for k, a in enumerate(alphas):
        j = a * (1.0 - a) * jprime
        cp_a = critical_point(a)
        h = coexistence_field(a, j, cp=cp_a)
        tops = global_branches(solve_branches(ReducedParams(a, h, j)))
        d_star = max(b.d for b in tops)
        h_vals[k] = h
        d_vals[k] = d_star
        mix[k] = mixed_dimer_fraction(d_star, a)
    if alphas.size >= 2:
        exponent, _ = _fit_loglog(alphas - sc.alpha_c, mix - sc.d_mix_c)
    else:
        exponent = np.nan
    return DmixScan(
        scaled=sc,
        alphas=alphas,
        h_values=h_vals,
        d_values=d_vals,
        d_mix=mix,
        exponent=float(exponent),
    )
