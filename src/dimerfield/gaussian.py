"""Gaussian-moment route to the partition function at J = 0.

When the 2x2 activity matrix W = [[e^h_A, e^h_AB], [e^h_AB, e^h_B]] is
positive definite, the partition function is a moment of a centred
bivariate Gaussian xi with covariance W/N:

    Z_N = E[(1 + xi_A)^N_A (1 + xi_B)^N_B],

and restricting the expectation to the quadrant Q = {1 + xi_A > 0,
1 + xi_B > 0} gives a modified Z_N* whose log is super-additive, which is
what forces the pressure density to converge.  Everything here turns those
statements into machine-checkable numbers:

* the unrestricted moment integrates exactly by tensor Gauss-Hermite in
  decorrelated coordinates (the integrand is a polynomial);
* the restricted moment is one trapezoid sum in u = log(1 + xi) on each
  axis, where the quadrant edge moves to u = -infinity and the integrand
  is entire, so the sum converges geometrically for every N;
* Z_N* is evaluated with the population sizes alpha*N, (1-alpha)*N as exact
  reals, which is what makes log Z* super-additive for every decomposition
  (integer rounding would break size additivity);
* the large-N exponent's peak comes from z_star's Newton on the quadrant,
  and a reflection proves that no point off the quadrant does better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .model import split_sizes
from .params import _as_vector3, _check_alpha, _is_integer
from .variational import _bracketed_root

#: Largest N that ``z_via_gaussian`` accepts: its Gauss-Hermite grid grows
#: as N^2.  ``z_star``'s grid is laid out in units of the peak's width, so
#: its cost does not grow with N, and it accepts any N.
MOMENT_CAP = 200

# the largest error estimate z_star accepts, over max(1, |log Z*|)
_Z_STAR_TOL = 1e-9
# z_star's box holds the integrand within this many nats of its peak
_DEPTH = 40.0
# z_star's trapezoid steps per standard deviation of the peak
_STEPS_PER_SIGMA = 8
# grid points z_star sums at once, and the most it sums in all; a block's
# 64 KiB float64 temporaries stay under glibc's default 128 KiB mmap
# threshold, so they reuse the heap instead of faulting in new pages
# each call
_BLOCK, _MAX_POINTS = 1 << 13, 1 << 24


@dataclass(frozen=True, eq=False)
class DimerWeightMatrix:
    """Positive-definite 2x2 activity matrix of the J = 0 model."""

    w: np.ndarray
    det: float


def weight_matrix(h) -> DimerWeightMatrix:
    """Build W from the field vector; rejects non-positive-definite input."""
    h = _as_vector3(h, "h")
    h_a, h_b, h_ab = h
    if not h_a + h_b > 2.0 * h_ab:
        raise ValueError(
            f"W is not positive definite: need h_A + h_B > 2 h_AB, "
            f"got {h_a:.6g} + {h_b:.6g} <= 2*{h_ab:.6g}"
        )
    with np.errstate(over="ignore"):  # the check below reports an overflow
        w = np.array([[np.exp(h_a), np.exp(h_ab)], [np.exp(h_ab), np.exp(h_b)]])
    if not np.all(np.isfinite(w)):
        raise ValueError(f"exp(h) overflows for h={h}")
    w.setflags(write=False)
    return DimerWeightMatrix(w=w, det=float(w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]))


@dataclass(frozen=True, slots=True)
class GaussianEstimate:
    """A log-value plus the quadrature's own error estimate."""

    log_value: float
    error_estimate: float


@cache
def _hermegauss(n: int):
    """Read-only nodes and log-weights: every caller shares the cached rule."""
    t, w = np.polynomial.hermite_e.hermegauss(n)
    logw = np.log(w)
    t.setflags(write=False)
    logw.setflags(write=False)
    return t, logw


def _signed_moment_gh(n_a: int, n_b: int, cov: np.ndarray, nodes: int) -> GaussianEstimate:
    """log E[(1+xi_A)^n_a (1+xi_B)^n_b] by Gauss-Hermite, exact for the
    polynomial integrand once 2*nodes - 1 >= n_a + n_b.  The error estimate
    bounds the rounding of the signed sum: eps times the number of terms
    times sum|term| / sum term."""
    chol = np.linalg.cholesky(cov)
    z, logw = _hermegauss(nodes)
    base_a = (1.0 + chol[0, 0] * z)[:, None]
    base_b = 1.0 + (chol[1, 0] * z[:, None] + chol[1, 1] * z[None, :])
    with np.errstate(divide="ignore"):
        t = (
            n_a * np.log(np.abs(base_a))
            + n_b * np.log(np.abs(base_b))
            + logw[:, None]
            + logw[None, :]
            - np.log(2.0 * np.pi)
        )
    sign = np.ones_like(t)
    if n_a % 2 == 1:
        sign = np.where(base_a < 0.0, -sign, sign)
    if n_b % 2 == 1:
        sign = np.where(base_b < 0.0, -sign, sign)
    m = t.max()
    terms = np.exp(t - m)
    total = float(np.sum(sign * terms))
    if not total > 0.0:
        raise RuntimeError(
            "signed Gaussian moment came out non-positive; the quadrature "
            "cannot represent log Z here"
        )
    error = float(np.finfo(float).eps * terms.size * terms.sum() / total)
    return GaussianEstimate(log_value=float(m + np.log(total)), error_estimate=error)


def z_via_gaussian(n: int, alpha: float, h) -> GaussianEstimate:
    """log Z_N through the Gaussian-moment identity, at integer sizes.

    n//2 + 2 Gauss-Hermite nodes per axis integrate the polynomial integrand
    exactly, so the error estimate is the rounding bound of the signed sum.
    """
    wm = weight_matrix(h)
    sizes = split_sizes(n, alpha)
    n = sizes.n
    if n > MOMENT_CAP:
        raise ValueError(f"n={n} exceeds the moment cap {MOMENT_CAP}")
    return _signed_moment_gh(sizes.n_a, sizes.n_b, wm.w / float(n), n // 2 + 2)


def _rise(s_a, s_b, a, r, e, prec):
    """g(u + s) - g(u) for g(u) = a.u - xi P xi / 2 with xi = e^u - 1, given
    e = e^u and r = (P xi) e at u.  Each term is of the size of the rise, so
    nothing large cancels.  Broadcasts a column s_a against a row s_b."""
    x_a, x_b = np.expm1(s_a), np.expm1(s_b)
    d_a, d_b = e[0] * x_a, e[1] * x_b
    t_a = a[0] * s_a - r[0] * x_a - 0.5 * prec[0, 0] * d_a * d_a
    t_b = a[1] * s_b - r[1] * x_b - 0.5 * prec[1, 1] * d_b * d_b
    return t_a + t_b - prec[0, 1] * d_a * d_b


def _peak(a, prec):
    """The maximum of g (a > 0, P positive definite) by Newton on the
    curvature K = E P E + diag(a), E = diag(e^u): K is positive definite, so
    each step rises, and it is -Hessian(g) at the peak, so the steps
    converge quadratically.  A step is halved until g does not fall.
    Returns u, e^u, (P xi) e^u and K; RuntimeError after 100 steps."""
    u = np.zeros(2)
    for _ in range(100):
        e = np.exp(u)
        r = prec @ np.expm1(u) * e
        curv = e[:, None] * prec * e + np.diag(a)
        step = np.linalg.solve(curv, a - r)
        if np.abs(step).max() <= 1e-12:
            return u, e, r, curv
        for _ in range(60):
            if _rise(step[0], step[1], a, r, e, prec) >= 0.0:
                break
            step = 0.5 * step
        u = u + step
    raise RuntimeError(f"Newton found no peak of a.u - xi P xi / 2 for a={a}, P={prec.tolist()}")


def _log_quadrant_integral(a, prec):
    """log of the integral over the plane of exp(g(u)), and its error estimate.

    The box holds the region within _DEPTH nats of the peak.  Its extent
    along one axis is where the profile, g maximized over the other axis,
    falls to that depth; that maximizer is the positive root of a quadratic
    in its e^s.  The trapezoid grid is centred on the peak, with a step of
    sigma_i/_STEPS_PER_SIGMA on axis i: sigma_A is the marginal width of
    the peak, (K^-1)_AA^1/2, and sigma_B its width at fixed u_A, K_BB^-1/2.
    Then every alias of the peak's Gaussian core lies at least
    2 pi _STEPS_PER_SIGMA standard deviations out, however correlated the
    axes are.  The grid is summed in row blocks, which bounds the memory;
    RuntimeError if W is so near singular that the grid would exceed
    _MAX_POINTS.  The estimate adds the discrepancy from the nested grid of
    twice the step to the mass beyond the box, taken as the edge level
    times the box perimeter: past the left edge the log-integrand falls
    like a_i u_i with a_i >= 1, past the right one faster.
    """
    u, e, r, curv = _peak(a, prec)
    sigma = np.sqrt([np.linalg.inv(curv)[0, 0], 1.0 / curv[1, 1]])

    def profile(s, i):
        j = 1 - i
        q = prec[j, j] * e[j] * e[j]
        b = r[j] - q + prec[0, 1] * e[j] * e[i] * np.expm1(s)
        root = np.sqrt(b * b + 4.0 * q * a[j])
        s_j = np.log(2.0 * a[j] / (b + root) if b > 0.0 else (root - b) / (2.0 * q))
        pair = (s, s_j) if i == 0 else (s_j, s)
        return _rise(*pair, a, r, e, prec) + _DEPTH

    steps = sigma / _STEPS_PER_SIGMA
    axes = []
    for i, step in enumerate(steps):
        ends = []
        for sign in (-1.0, 1.0):
            inner, outer = 0.0, sign * sigma[i]
            while profile(outer, i) >= 0.0:
                inner, outer = outer, 2.0 * outer
            ends.append(_bracketed_root(lambda s: profile(s, i), inner, outer) / step)
        lo = math.floor(ends[0])
        # the nested grid takes the even multiples of the step, the peak among them
        axes.append(np.arange(lo - lo % 2, math.ceil(ends[1]) + 1) * step)
    s_a, s_b = axes
    if len(s_a) * len(s_b) > _MAX_POINTS:
        raise RuntimeError(f"z_star: W is near singular; the grid needs {len(s_a)} x {len(s_b)} points")
    rows = max(2, _BLOCK // len(s_b) // 2 * 2)  # even, so each block starts on the nested grid
    fine = coarse = 0.0
    for top in range(0, len(s_a), rows):
        block = np.exp(_rise(s_a[top : top + rows, None], s_b, a, r, e, prec))
        fine += float(block.sum())
        coarse += float(block[::2, ::2].sum())
    area = steps[0] * steps[1]
    xi = np.expm1(u)
    log_fine = float(a @ u - 0.5 * xi @ prec @ xi) + math.log(fine * area)
    perimeter = 2.0 * (s_a[-1] - s_a[0] + s_b[-1] - s_b[0])
    error = abs(math.log(fine / (4.0 * coarse))) + math.exp(-_DEPTH) * perimeter / (fine * area)
    return log_fine, error


def z_star(n: int, alpha: float, h) -> GaussianEstimate:
    """log Z_N*: the Gaussian moment restricted to the quadrant Q.

    Population sizes enter as the exact reals p = (alpha*N, (1-alpha)*N).
    In u = log(1 + xi) on each axis,

        Z_N* = (2 pi)^-1 det(C)^-1/2 int exp((p+1).u - xi C^-1 xi / 2) du,

    C = W/N, an entire integrand on the plane, which the trapezoid rule
    integrates to geometric accuracy (Trefethen and Weideman, SIAM Review
    56, 2014).  The integrand is positive, so Z_N* > 0.  The grid's step
    and extent are set by the width of the peak, so the cost does not grow
    with N and any N is accepted.  RuntimeError if the error estimate
    exceeds 1e-9 max(1, |log Z*|), or if W is too near singular for the
    grid.
    """
    wm = weight_matrix(h)
    if not _is_integer(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    alpha = _check_alpha(alpha)
    a = np.array([alpha * n, (1.0 - alpha) * n]) + 1.0
    log_int, error = _log_quadrant_integral(a, n * np.linalg.inv(wm.w))
    value = log_int - math.log(2.0 * math.pi) - 0.5 * math.log(wm.det / (n * n))
    if not error <= _Z_STAR_TOL * max(1.0, abs(value)):
        raise RuntimeError(
            f"z_star unresolved at n={n}: the trapezoid error estimate for {value:.6g} is {error:.3g}"
        )
    return GaussianEstimate(log_value=value, error_estimate=error)


def laplace_exponent(xi, alpha: float, w: DimerWeightMatrix) -> float:
    """Large-N exponent of the restricted moment's integrand:
    -(1/2) <W^-1 xi, xi> + alpha log|1+xi_A| + (1-alpha) log|1+xi_B|."""
    xi = np.asarray(xi, dtype=float).reshape(2)
    if np.any(1.0 + xi == 0.0):
        raise ValueError(f"xi sits on a singular line (1 + xi_i = 0): {xi}")
    prec = np.linalg.inv(w.w)
    return float(
        -0.5 * xi @ prec @ xi
        + alpha * np.log(abs(1.0 + xi[0]))
        + (1.0 - alpha) * np.log(abs(1.0 + xi[1]))
    )


@dataclass(frozen=True, slots=True)
class LaplaceMaximum:
    """Stationary maximizer of the Laplace exponent plus certificates;
    ``grid_max`` is ``value``, the bound that ``laplace_maximum`` proves."""

    xi: np.ndarray
    value: float
    grad_norm: float
    grid_max: float


def laplace_maximum(alpha: float, w: DimerWeightMatrix) -> LaplaceMaximum:
    """Global maximizer of the Laplace exponent over the plane.

    On the quadrant 1 + xi > 0 the exponent is strictly concave, and in
    u = log(1 + xi) it is _peak's g(u) with a = (alpha, 1 - alpha) and
    P = W^-1, so _peak's Newton finds its one stationary point.  No point
    off the quadrant does better, as P_AB = -e^h_AB / det W < 0.  If both
    1 + xi_i < 0, or one is and the other coordinate lies in (-1, 0), then
    -xi is in the quadrant: the quadratic form is even and each log term
    grows.  If 1 + xi_i < 0 and the other coordinate is >= 0, negating xi_i
    lands in the quadrant, grows that log term, and turns the cross term
    2 P_AB xi_A xi_B from >= 0 to <= 0.  RuntimeError if Newton fails.
    """
    a = np.array([alpha, 1.0 - alpha])
    prec = np.linalg.inv(w.w)
    xi = np.expm1(_peak(a, prec)[0])
    grad = a / (1.0 + xi) - prec @ xi
    value = laplace_exponent(xi, alpha, w)
    return LaplaceMaximum(xi=xi, value=value, grad_norm=float(np.linalg.norm(grad)), grid_max=value)


@dataclass(frozen=True, slots=True)
class SuperadditivityResult:
    """log Z*_{N1} + log Z*_{N2} against log Z*_{N1+N2}."""

    n1: int
    n2: int
    lhs: float
    rhs: float
    holds: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def superadditivity_check(n1: int, n2: int, alpha: float, h) -> SuperadditivityResult:
    """Check log Z*_{N1} + log Z*_{N2} <= log Z*_{N1+N2} (+ 1e-9 numerical slack)."""
    lhs = z_star(n1, alpha, h).log_value + z_star(n2, alpha, h).log_value
    rhs = z_star(n1 + n2, alpha, h).log_value
    return SuperadditivityResult(
        n1=int(n1), n2=int(n2), lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-9)
    )


@dataclass(frozen=True, slots=True)
class MixingLemmaReport:
    """Numerical certificates for the two mixing lemmas."""

    trials: int
    covariance_max_error: float
    inequality_violations: int
    equality_max_gap: float
    min_gap_off_diagonal: float


def mixing_lemma_checks(trials: int, seed: int = 0) -> MixingLemmaReport:
    """Certify the two lemmas behind super-additivity.

    (a) For gamma = N1/N the mixture gamma xi_1 + (1-gamma) xi_2 of
    independent Gaussians with covariances W/N1, W/N2 has covariance W/N;
    for centred Gaussians that covariance identity *is* equality in
    distribution, so it is checked as exact algebra entrywise.

    (b) (1+x)^gamma (1+y)^(1-gamma) <= 1 + gamma x + (1-gamma) y for
    x, y > -1, with equality exactly on x = y; checked pointwise on random
    sweeps plus forced equal pairs.
    """
    if not _is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    rng = np.random.default_rng(seed)
    cov_err = 0.0
    violations = 0
    equality_gap = 0.0
    min_gap_far = np.inf
    for _ in range(int(trials)):
        while True:
            h = rng.uniform(-2.0, 1.0, size=3)
            if h[0] + h[1] - 2.0 * h[2] > 0.05:
                break
        w = weight_matrix(h).w
        n1 = int(rng.integers(1, 64))
        n2 = int(rng.integers(1, 64))
        n = n1 + n2
        gamma = n1 / n
        mixed = gamma * gamma * (w / n1) + (1.0 - gamma) * (1.0 - gamma) * (w / n2)
        cov_err = max(cov_err, float(np.abs(mixed - w / n).max()))

        x = rng.uniform(-0.999, 3.0)
        y = rng.uniform(-0.999, 3.0)
        g = rng.uniform(0.01, 0.99)
        lhs = (1.0 + x) ** g * (1.0 + y) ** (1.0 - g)
        rhs = 1.0 + g * x + (1.0 - g) * y
        if lhs > rhs + 1e-12:
            violations += 1
        if abs(x - y) > 1e-4:
            min_gap_far = min(min_gap_far, rhs - lhs)
        lhs_eq = (1.0 + x) ** g * (1.0 + x) ** (1.0 - g)
        equality_gap = max(equality_gap, abs(lhs_eq - (1.0 + x)))
    return MixingLemmaReport(
        trials=int(trials),
        covariance_max_error=cov_err,
        inequality_violations=violations,
        equality_max_gap=equality_gap,
        min_gap_off_diagonal=float(min_gap_far),
    )
