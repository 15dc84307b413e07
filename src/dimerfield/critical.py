"""One-dimensional reduction at mixed-only couplings and its critical point.

With only the mixed-dimer field h and coupling J > 0 active, the intra
densities are explicit functions of d = d_AB: the monomer densities are the
positive roots x(d), y(d) of x^2 + x = alpha - d and y^2 + y = 1 - alpha - d,
and the variational problem becomes one-dimensional with consistency
equation

    f(d) := log d - log x(d) - log y(d) = h + J d.

f is the inverse of a sigmoid (f -> -inf at 0, +inf at the upper end top
of the reduced interval, f' > 0), and its shape gives every bracket.
f''' > 0, so f'' vanishes once, at d_c, where the tangency of h + J d makes
the solution branch: J_c = f'(d_c), h_c = f(d_c) - J_c d_c.  For J > J_c,
f' = J at one d1 < d_c and one d2 > d_c, so r(d) = f(d) - J d - h rises on
(0, d1], falls on [d1, d2] and rises on [d2, top): at most one root per
piece, a maximum of the reduced pressure exactly where r rises.  Brackets
stay within top * 1e-12 of the ends; a root beyond raises an error.

All of f', f'', f''' are closed-form chain-rule expressions (verified
against finite differences in the tests); the third derivative is what the
square-root branch law needs.  Near the critical point f'' is a difference
of two O(1/alpha^2) terms, so the critical solve refines the float64 root
in extended precision to certify the defining residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import (
    STABILITY_GLOBAL,
    STABILITY_LOCAL,
    STABILITY_UNSTABLE,
    TIE_TOL,
    BranchSolution,
    CriticalPoint,
    ReducedParams,
    _check_alpha,
)
from .variational import _bracketed_root, _entropy_arrays

#: alpha -> 0 limit of the critical field h_c: d_c -> alpha/2 and
#: J_c -> 4/alpha, so h_c -> -2 - log y(0) with y(0) = (sqrt 5 - 1)/2.
H_C_LIMIT = float(-2.0 - np.log((np.sqrt(5.0) - 1.0) / 2.0))
#: Brackets end within top * _REACH of 0 and of top.
_REACH = 1e-12


# Brent evaluates the residuals below on Python floats, where ``math`` gives
# the same bits as numpy's scalar ufuncs without their per-call overhead;
# arrays and extended precision take the numpy path.
def _pos_root(u):
    # 2u / (1 + sqrt(1+4u)) is the cancellation-free form of (-1+sqrt(1+4u))/2
    if isinstance(u, float):
        return 2.0 * u / (1.0 + math.sqrt(1.0 + 4.0 * u))
    root = 2.0 * u / (1.0 + np.sqrt(1.0 + 4.0 * u))
    return root if root.ndim else root[()]


def _xy(d, alpha):
    """The monomer densities (x(d), y(d)) of the module docstring."""
    return _pos_root(alpha - d), _pos_root((1.0 - alpha) - d)


def reduced_density_max(alpha: float) -> float:
    """Upper end of the mixed-density interval: the smaller population
    runs out of sites first."""
    return min(alpha, 1.0 - alpha)


def psi1(d, rp: ReducedParams):
    """Reduced variational pressure: psi evaluated at (x^2/2, y^2/2, d)."""
    d = np.asarray(d, dtype=float)
    _require_closed_interval(d, rp.alpha, "psi1")
    x, y = _xy(d, rp.alpha)
    s = _entropy_arrays(0.5 * x * x, 0.5 * y * y, d, rp.alpha)
    out = s + rp.h * d + 0.5 * rp.j * d * d
    return float(out) if out.ndim == 0 else out


# both interval checks are written so that NaN fails them
def _require_closed_interval(d, alpha, name):
    top = reduced_density_max(alpha)
    if not np.all((d >= 0.0) & (d <= top)):
        raise ValueError(f"{name}: d must lie in [0, {top}] for alpha={alpha}")


def _require_open_interval(d, alpha, name):
    d_arr = np.asarray(d)
    top = reduced_density_max(alpha)
    if not np.all((d_arr > 0.0) & (d_arr < top)):
        raise ValueError(f"{name}: d must lie strictly inside (0, {top})")


def _f_raw(d, alpha):
    """f(d) = log d - log x(d) - log y(d)."""
    x, y = _xy(d, alpha)
    log = math.log if isinstance(d, float) else np.log
    return log(d) - log(x) - log(y)


def _f1_raw(d, alpha):
    """f'(d), positive on the whole open interval."""
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


def _reach(alpha):
    """Ends (lo, hi) of every bracket: top * 1e-12 in from 0 and from top."""
    top = reduced_density_max(alpha)
    return top * _REACH, top - top * _REACH


def _inflection(alpha) -> float:
    """The zero of f'' in float64: f'' is monotone, so the reach brackets it."""
    return _bracketed_root(lambda d: _f2_raw(d, alpha), *_reach(alpha))


def _edges(alpha, j, d_c):
    """Ends of the pieces on which f(d) - J d alternately rises and falls,
    and its values there: [lo, d1, d2, hi] with f'(d1) = f'(d2) = J, or
    [lo, hi] when J <= f'(d_c) (1 + 1e-12) or f - J d does not fall from d1
    to d2 in float64: a window that narrow is a tangency."""
    lo, hi = _reach(alpha)
    edges = [lo, hi]
    if j > _f1_raw(d_c, alpha) * (1.0 + 1e-12):
        if min(_f1_raw(lo, alpha), _f1_raw(hi, alpha)) <= j:
            raise RuntimeError(f"f' = J={j} beyond reach of the interval ends for alpha={alpha}")
        d1 = _bracketed_root(lambda d: _f1_raw(d, alpha) - j, lo, d_c)
        d2 = _bracketed_root(lambda d: _f1_raw(d, alpha) - j, d_c, hi)
        edges = [lo, d1, d2, hi]
    level = [_f_raw(e, alpha) - j * e for e in edges]
    if len(edges) == 4 and level[1] <= level[2]:
        return edges[::3], level[::3]
    return edges, level


def critical_point(alpha: float) -> CriticalPoint:
    """Solve f''(d_c) = 0, then J_c = f'(d_c), h_c = f(d_c) - J_c d_c.

    One Brent call on the monotone f'' over the whole reach, then four
    Newton steps in extended precision using f'''; the refined density is
    kept on the result so the defining residuals evaluate below 1e-9 at
    every alpha of interest.
    """
    alpha = _check_alpha(alpha)
    d_hi = np.longdouble(_inflection(alpha))
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


def solve_branches(rp: ReducedParams) -> list[BranchSolution]:
    """All solutions of f(d) = h + J d on the reduced interval, classified.

    One Brent call per monotone piece of r(d) = f(d) - J d - h that changes
    sign.  Roots where r increases are maxima of the reduced pressure, those
    within ``TIE_TOL`` of the best global and the others local; the root
    where r decreases is unstable.  RuntimeError when a root lies beyond
    reach (within top * 1e-12 of an interval end).
    """
    alpha, h, j = rp.alpha, rp.h, rp.j
    edges, level = _edges(alpha, j, _inflection(alpha))

    def resid(d):
        return _f_raw(d, alpha) - j * d - h

    r = [v - h for v in level]
    if r[0] > 0.0 or r[-1] < 0.0:
        raise RuntimeError(f"a root of f(d) = h + J d lies beyond reach for {rp}")
    roots = []
    for k in range(len(edges) - 1):
        rising = k % 2 == 0
        if (r[k] <= 0.0 <= r[k + 1]) if rising else (r[k + 1] < 0.0 < r[k]):
            roots.append((_bracketed_root(resid, edges[k], edges[k + 1]), rising))

    values = psi1(np.array([d for d, _ in roots]), rp).tolist()
    best = max(v for v, (_, rising) in zip(values, roots) if rising)
    out = []
    for (d, rising), v in zip(roots, values):
        stability = STABILITY_GLOBAL if v >= best - TIE_TOL else STABILITY_LOCAL
        out.append(BranchSolution(d, v, stability if rising else STABILITY_UNSTABLE))
    return out


def _upper_root(alpha, h, j, d_c) -> float:
    """The root of f(d) = h + J d on the last rising piece of r, which the
    square-root branch follows whether or not it is the global maximum.
    RuntimeError when that piece has no root within reach."""
    edges, level = _edges(alpha, j, d_c)
    if not (level[-2] <= h <= level[-1]):
        raise RuntimeError(f"the upper root at alpha={alpha}, h={h}, j={j} lies beyond reach")
    return _bracketed_root(lambda d: _f_raw(d, alpha) - j * d - h, edges[-2], edges[-1])


def mixed_dimer_fraction(d: float, alpha: float) -> float:
    """Limiting ratio of mixed dimers to all dimers at reduced couplings:
    d / (x^2/2 + y^2/2 + d), for d in [0, min(alpha, 1 - alpha)]."""
    d = float(d)
    _require_closed_interval(d, alpha, "mixed_dimer_fraction")
    x, y = _xy(d, alpha)
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
    offsets = np.sort(np.asarray(j_offsets, dtype=float).reshape(-1))
    if offsets.size < 2:
        raise ValueError("need at least two offsets to fit an exponent")
    if not np.all(offsets > 0.0):
        raise ValueError("offsets must be positive")
    if np.any(offsets > 0.05 * cp.j_c):
        raise ValueError(
            f"offsets must stay below 0.05*J_c = {0.05 * cp.j_c:.6g} "
            f"(got max {offsets.max():.6g})"
        )
    deviations = np.empty_like(offsets)
    for k, delta in enumerate(offsets):
        deviations[k] = _upper_root(alpha, cp.h_c - cp.d_c * delta, cp.j_c + delta, cp.d_c) - cp.d_c
        if deviations[k] <= 0.0:
            raise RuntimeError(f"offset {delta:.6g} gives no upper branch above d_c={cp.d_c:.6g}")
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

    Three roots exist exactly for h in [f(d2) - J d2, f(d1) - J d1], where
    psi1(upper) - psi1(lower) rises from below 0 to above (its h-derivative
    is d_upper - d_lower), so one Brent call finds the tie; a window below
    rounding gives f(d_c) - J d_c.  RuntimeError when the tie needs an outer
    root beyond reach (large J).
    """
    if cp is None:
        cp = critical_point(alpha)
    if not j > cp.j_c:
        raise ValueError(f"need j > J_c(alpha) = {cp.j_c:.6g} for coexistence, got {j}")
    edges, level = _edges(alpha, j, cp.d_c)
    if len(edges) == 2:
        return float(_f_raw(cp.d_c, alpha) - j * cp.d_c)
    lo, d1, d2, hi = edges

    def gap(h: float) -> float:
        # exactly 0 at an edge whose level is h, so that edge is the root
        def resid(d):
            return _f_raw(d, alpha) - j * d - h

        lower, upper = _bracketed_root(resid, lo, d1), _bracketed_root(resid, d2, hi)
        psi_lower, psi_upper = psi1(np.array([lower, upper]), ReducedParams(alpha, h, j))
        # the sign at an end of the window is known even where rounding hides it
        tie = psi_upper - psi_lower
        return min(tie, 0.0) if h == level[2] else max(tie, 0.0) if h == level[1] else tie

    h_lo, h_hi = max(level[0], level[2]), min(level[1], level[3])
    if not (h_lo <= h_hi and gap(h_lo) <= 0.0 <= gap(h_hi)):
        raise RuntimeError(f"coexistence at alpha={alpha}, j={j} needs a root beyond reach")
    return float(_bracketed_root(gap, h_lo, h_hi))


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
    alpha_c = _bracketed_root(mismatch, lo, hi)
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
        d_star = _upper_root(a, h, j, cp_a.d_c)
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
