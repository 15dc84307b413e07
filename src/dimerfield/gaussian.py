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
* the restricted moment uses per-axis Gauss-Jacobi rules that absorb the
  (1 + xi)^p endpoint power whenever the quadrant edge falls inside the
  integration box, so the edge singularity costs nothing (``_jacobi``
  builds them from the three-term recurrence with numpy alone);
* Z_N* is evaluated with the population sizes alpha*N, (1-alpha)*N as exact
  reals, which is what makes log Z* super-additive for every decomposition
  (integer rounding would break size additivity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .model import split_sizes

#: Largest N the quadrature evaluations accept.
MOMENT_CAP = 200

# the largest node-doubling discrepancy z_star accepts, over max(1, |log Z*|)
_Z_STAR_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DimerWeightMatrix:
    """Positive-definite 2x2 activity matrix of the J = 0 model."""

    w: np.ndarray
    det: float

    @property
    def w_a(self) -> float:
        return float(self.w[0, 0])

    @property
    def w_b(self) -> float:
        return float(self.w[1, 1])

    @property
    def w_ab(self) -> float:
        return float(self.w[0, 1])


def weight_matrix(h) -> DimerWeightMatrix:
    """Build W from the field vector; rejects non-positive-definite input."""
    h = np.asarray(h, dtype=float).reshape(3)
    if not np.all(np.isfinite(h)):
        raise ValueError(f"h must be finite, got {h}")
    h_a, h_b, h_ab = h
    if not h_a + h_b > 2.0 * h_ab:
        raise ValueError(
            f"W is not positive definite: need h_A + h_B > 2 h_AB, "
            f"got {h_a:.6g} + {h_b:.6g} <= 2*{h_ab:.6g}"
        )
    w = np.array([[np.exp(h_a), np.exp(h_ab)], [np.exp(h_ab), np.exp(h_b)]])
    if not np.all(np.isfinite(w)):
        raise ValueError(f"exp(h) overflows for h={h}")
    det = float(w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0])
    mat = w.copy()
    mat.setflags(write=False)
    return DimerWeightMatrix(w=mat, det=det)


@dataclass(frozen=True)
class GaussianEstimate:
    """A log-value plus the quadrature's own error estimate."""

    log_value: float
    error_estimate: float


def _frozen(t: np.ndarray, logw: np.ndarray):
    """Read-only nodes and log-weights: every caller shares the cached rule."""
    t.setflags(write=False)
    logw.setflags(write=False)
    return t, logw


@cache
def _hermegauss(n: int):
    t, w = np.polynomial.hermite_e.hermegauss(n)
    return _frozen(t, np.log(w))


@cache
def _legendre(n: int):
    t, w = np.polynomial.legendre.leggauss(n)
    return _frozen(t, np.log(w))


def _jacobi_sweep(x: np.ndarray, a: np.ndarray, sb: np.ndarray):
    """Orthonormal recurrence from p_0 = 1: p_n(x), p_n'(x) (one common
    scale, so p_n/p_n' is the Newton step), log S(x) for S = sum_{k<n} p_k^2,
    and S'/(2S).  p grows by at most about power/k a step, so every fourth
    step divides by hypot(p_k, p_(k-1)), never 0, and logs the factor."""
    p_prev, d_prev, d, total, cross, log_scale = (np.zeros_like(x) for _ in range(6))
    p = np.ones_like(x)
    for k in range(len(a)):
        total += p * p
        cross += p * d
        y = x - a[k]
        p_prev, p = p, (y * p - sb[k] * p_prev) / sb[k + 1]
        d_prev, d = d, (p_prev + y * d - sb[k] * d_prev) / sb[k + 1]
        if k % 4 == 3:
            c = 1.0 / np.hypot(p, p_prev)
            p, p_prev, d, d_prev = p * c, p_prev * c, d * c, d_prev * c
            total, cross = total * c * c, cross * c * c
            log_scale -= np.log(c)
    return p, d, np.log(total) + 2.0 * log_scale, cross / total


@lru_cache(maxsize=256)
def _jacobi(n: int, power: float):
    """Gauss-Jacobi rule for (1 + t)^power on [-1, 1]: read-only nodes and
    log-weights.  Golub-Welsch nodes of the monic recurrence with, for
    s = 2k + power, a_k = power^2 / (s (s + 2)) and
    b_k = 4 k^2 (k + power)^2 / (s^2 (s^2 - 1)), polished by one Newton step.
    Christoffel log-weights, log mu_0 - log S(t_i) (mu_0 = 2^(power + 1) /
    (power + 1)): S sums positive terms, so small weights keep the relative
    accuracy that eigenvector components lose.  log S moves through the
    Newton step to first order, so one sweep serves both.  The cache is
    bounded because alpha N takes a new value at every size.
    """
    s = 2.0 * np.arange(n + 1) + power
    a = power * power / (s[:n] * (s[:n] + 2.0))
    k, s = np.arange(1, n + 1), s[1:]
    sb = np.concatenate(([0.0], 2.0 * k * (k + power) / (s * np.sqrt((s + 1.0) * (s - 1.0)))))
    t = np.linalg.eigvalsh(np.diag(a) + np.diag(sb[1:n], 1) + np.diag(sb[1:n], -1))
    p, d, log_s, half_slope = _jacobi_sweep(t, a, sb)
    step = p / d
    log_mu0 = (power + 1.0) * np.log(2.0) - np.log1p(power)
    return _frozen(t - step, log_mu0 - log_s + 2.0 * step * half_slope)


def _signed_moment_gh(n_a: int, n_b: int, cov: np.ndarray, nodes: int) -> float:
    """log E[(1+xi_A)^n_a (1+xi_B)^n_b] by Gauss-Hermite, exact for the
    polynomial integrand once 2*nodes - 1 >= n_a + n_b."""
    chol = np.linalg.cholesky(cov)
    z, logw = _hermegauss(nodes)
    xi_a = chol[0, 0] * z[:, None] + np.zeros_like(z)[None, :]
    xi_b = chol[1, 0] * z[:, None] + chol[1, 1] * z[None, :]
    base_a = 1.0 + xi_a
    base_b = 1.0 + xi_b
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
    total = float(np.sum(sign * np.exp(t - m)))
    if not total > 0.0:
        raise RuntimeError(
            "signed Gaussian moment came out non-positive; the quadrature "
            "cannot represent log Z here"
        )
    return float(m + np.log(total))


def z_via_gaussian(n: int, alpha: float, h, nodes: int = 200) -> GaussianEstimate:
    """log Z_N through the Gaussian-moment identity, at integer sizes.

    The quadrature is exact for the polynomial integrand; the error estimate
    it reports is the node-doubling discrepancy, i.e. rounding noise.
    """
    wm = weight_matrix(h)
    sizes = split_sizes(n, alpha)
    if n > MOMENT_CAP:
        raise ValueError(f"n={n} exceeds the moment cap {MOMENT_CAP}")
    cov = wm.w / float(n)
    k = max(nodes, n // 2 + 2)
    val = _signed_moment_gh(sizes.n_a, sizes.n_b, cov, k)
    check = _signed_moment_gh(sizes.n_a, sizes.n_b, cov, k + 32)
    return GaussianEstimate(log_value=val, error_estimate=abs(val - check))


def _axis_rule(power: float, sigma: float, nodes: int):
    """Nodes, log-weights for one axis of the quadrant-restricted moment.

    The weights carry the (1 + xi)^power factor.  If the quadrant edge -1
    falls inside the +-12 sigma range, a Gauss-Jacobi rule absorbs the
    endpoint power exactly; otherwise plain Legendre nodes cover the box
    and the power goes into the weight explicitly.
    """
    peak = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * power * sigma * sigma))
    top = peak + 12.0 * sigma
    bottom = -12.0 * sigma
    if bottom <= -1.0:
        t, logw = _jacobi(nodes, power)
        half = 0.5 * (top + 1.0)
        xi = -1.0 + (t + 1.0) * half
        logw = logw + (power + 1.0) * np.log(half)
    else:
        t, logw = _legendre(nodes)
        half = 0.5 * (top - bottom)
        xi = 0.5 * (top + bottom) + t * half
        logw = logw + np.log(half) + power * np.log1p(xi)
    return xi, logw


def _z_star_once(power_a: float, power_b: float, cov: np.ndarray, nodes: int) -> float:
    prec = np.linalg.inv(cov)
    logdet = float(np.log(np.linalg.det(cov)))
    xi_a, logw_a = _axis_rule(power_a, float(np.sqrt(cov[0, 0])), nodes)
    xi_b, logw_b = _axis_rule(power_b, float(np.sqrt(cov[1, 1])), nodes)
    qa = xi_a[:, None]
    qb = xi_b[None, :]
    quad = prec[0, 0] * qa * qa + 2.0 * prec[0, 1] * qa * qb + prec[1, 1] * qb * qb
    t = (
        logw_a[:, None]
        + logw_b[None, :]
        - 0.5 * quad
        - np.log(2.0 * np.pi)
        - 0.5 * logdet
    )
    m = t.max()
    return float(m + np.log(np.sum(np.exp(t - m))))


def z_star(n: int, alpha: float, h, nodes: int = 200) -> GaussianEstimate:
    """log Z_N*: the Gaussian moment restricted to the quadrant Q.

    Population sizes enter as the exact reals alpha*N and (1-alpha)*N; the
    integrand is positive on Q, so the value is always finite and Z_N* > 0.
    The error estimate is the node-doubling discrepancy; RuntimeError if it
    exceeds 1e-9 max(1, |log Z*|), which resolved rules meet by far.
    """
    wm = weight_matrix(h)
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if int(nodes) != nodes or nodes < 1:
        raise ValueError(f"nodes must be a positive integer, got {nodes}")
    if n > MOMENT_CAP:
        raise ValueError(f"n={n} exceeds the moment cap {MOMENT_CAP}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    cov = wm.w / float(n)
    power_a = alpha * n
    power_b = (1.0 - alpha) * n
    coarse = _z_star_once(power_a, power_b, cov, nodes)
    fine = _z_star_once(power_a, power_b, cov, 2 * nodes)
    error = abs(fine - coarse)
    if not error <= _Z_STAR_TOL * max(1.0, abs(fine)):
        raise RuntimeError(
            f"z_star unresolved at n={n}, {nodes} nodes: node doubling moves {fine:.6g} by {error:.3g}"
        )
    return GaussianEstimate(log_value=fine, error_estimate=error)


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


@dataclass(frozen=True)
class LaplaceMaximum:
    """Stationary maximizer of the Laplace exponent plus certificates."""

    xi: np.ndarray
    value: float
    grad_norm: float
    grid_max: float


def laplace_maximum(alpha: float, w: DimerWeightMatrix) -> LaplaceMaximum:
    """Global maximizer of the Laplace exponent over the plane.

    Stationarity in the main region reads xi = W (alpha/(1+xi_A),
    (1-alpha)/(1+xi_B)), whose right side has positive entries, so any
    fixed point automatically has nonnegative coordinates; a damped
    iteration from 0 finds it.  A coarse scan over all four smooth regions
    certifies it is the global one (``grid_max``).
    """
    mat = w.w
    xi = np.zeros(2)
    for _ in range(500):
        rhs = mat @ np.array([alpha / (1.0 + xi[0]), (1.0 - alpha) / (1.0 + xi[1])])
        new = 0.5 * (xi + rhs)
        if np.abs(new - xi).max() < 1e-15:
            xi = new
            break
        xi = new
    prec = np.linalg.inv(mat)
    grad = -prec @ xi + np.array([alpha / (1.0 + xi[0]), (1.0 - alpha) / (1.0 + xi[1])])
    value = laplace_exponent(xi, alpha, w)

    span = 3.0 + 20.0 * float(np.sqrt(mat.max()))
    grid = np.linspace(-span, span, 801)
    ga = grid[:, None]
    gb = grid[None, :]
    with np.errstate(divide="ignore"):
        vals = (
            -0.5 * (prec[0, 0] * ga * ga + 2.0 * prec[0, 1] * ga * gb + prec[1, 1] * gb * gb)
            + alpha * np.log(np.abs(1.0 + ga))
            + (1.0 - alpha) * np.log(np.abs(1.0 + gb))
        )
    grid_max = float(np.nanmax(np.where(np.isfinite(vals), vals, -np.inf)))
    return LaplaceMaximum(
        xi=xi, value=value, grad_norm=float(np.linalg.norm(grad)), grid_max=grid_max
    )


@dataclass(frozen=True)
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


def superadditivity_check(n1: int, n2: int, alpha: float, h, nodes: int = 200) -> SuperadditivityResult:
    """Check log Z*_{N1} + log Z*_{N2} <= log Z*_{N1+N2} (+ 1e-9 numerical slack)."""
    lhs = z_star(n1, alpha, h, nodes=nodes).log_value + z_star(
        n2, alpha, h, nodes=nodes
    ).log_value
    rhs = z_star(n1 + n2, alpha, h, nodes=nodes).log_value
    return SuperadditivityResult(
        n1=int(n1), n2=int(n2), lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-9)
    )


@dataclass(frozen=True)
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
    if int(trials) != trials or trials < 1:
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
