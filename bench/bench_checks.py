"""Reference formulas and correctness checks, written apart from dimerfield.

Every check returns a list of failure reasons (empty when the output is
right).  The references are either computed here from the model's
definitions (a direct class sum with ``math.lgamma``, the variational
gradient, the reduced consistency function evaluated in 40-digit
arithmetic, a bisection root finder) or are properties the method must
have (super-additivity, the log N / N envelope, the square-root law).
None of them is a stored copy of the program's output.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)

#: Tolerances.  Each is far above float64 rounding of the quantity checked
#: and far below the perturbations the self-tests apply (1e-6 on a log Z,
#: 1e-4 on a maximizer).
LOGZ_TOL = 1e-9  # relative to max(1, |log Z|)
ENVELOPE_C = 1.0  # |log Z_N / N - p| <= C log N / N
FD_REL_TOL = 1e-6  # h_AB finite difference against N <d_AB>
GRAD_TOL = 1e-7  # variational gradient at a maximizer
PSI_TOL = 1e-10  # reported psi against recomputed psi
SAMPLE_SLACK = 1e-12  # psi(maximizer) >= sampled max - slack
MAXIMIZER_TOL = 1e-7  # maximizer against the reference root
CRITICAL_REL_TOL = 1e-4  # at (h_c, J_c) psi is flat to fourth order
TIE_TOL = 1e-9  # the documented tie tolerance of solve_branches
ROOT_TOL = 1e-9  # reduced consistency residual, relative
CRIT_TOL = 1e-9  # critical residuals, relative to the term scale
COEX_TIE_TOL = 1e-12  # psi1 gap between the two maxima at coexistence
EXPONENT_TOL = 0.02
PREFACTOR_TOL = 0.10
ALPHA_C_C = 3.0  # |alpha_c sqrt(J') - 2| <= C / sqrt(J')
QUAD_ERR_TOL = 1e-10  # node-doubling discrepancy
WICK_TOL = 1e-10
SUPERADD_SLACK = 1e-9
LAPLACE_GRAD_TOL = 1e-8


# ---------------------------------------------------------------- finite N


def split(n: int, alpha: float) -> tuple[int, int]:
    """Population sizes (N_A, N_B): N_A is alpha*N rounded, both >= 1."""
    n_a = min(max(int(round(alpha * n)), 1), n - 1)
    return n_a, n - n_a


def direct_log_z(n: int, alpha: float, h, j) -> float:
    """log Z_N by a plain Python triple loop over count classes.

    Each class D = (D_A, D_B, D_AB) contributes
    log N_A! N_B! / (M_A! M_B! D_A! D_B! D_AB! 2^(D_A+D_B)) - |D| log N
    + h.D + (1/2N) D.J.D.
    """
    n_a, n_b = split(n, alpha)
    h = [float(v) for v in h]
    js = [[0.5 * (float(j[r][c]) + float(j[c][r])) for c in range(3)] for r in range(3)]
    lg = [math.lgamma(k + 1.0) for k in range(n + 2)]
    log_n = math.log(n)
    terms = []
    for d_a in range(n_a // 2 + 1):
        for d_b in range(n_b // 2 + 1):
            for d_ab in range(min(n_a - 2 * d_a, n_b - 2 * d_b) + 1):
                d = (d_a, d_b, d_ab)
                quad = sum(js[r][c] * d[r] * d[c] for r in range(3) for c in range(3))
                terms.append(
                    lg[n_a] + lg[n_b]
                    - lg[n_a - 2 * d_a - d_ab] - lg[n_b - 2 * d_b - d_ab]
                    - lg[d_a] - lg[d_b] - lg[d_ab]
                    - (d_a + d_b) * LOG2
                    - (d_a + d_b + d_ab) * log_n
                    + h[0] * d_a + h[1] * d_b + h[2] * d_ab
                    + quad / (2.0 * n)
                )
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def check_log_z_direct(log_z: float, direct: float) -> list[str]:
    if abs(log_z - direct) <= LOGZ_TOL * max(1.0, abs(direct)):
        return []
    return [f"log Z {log_z!r} differs from the direct class sum {direct!r}"]


def check_envelope(log_z: float, n: int, pressure: float) -> list[str]:
    err = abs(log_z / n - pressure)
    bound = ENVELOPE_C * math.log(n) / n
    if err <= bound:
        return []
    return [f"|log Z/N - p| = {err:.3e} exceeds {ENVELOPE_C} log N/N = {bound:.3e} at N={n}"]


def check_fd_density(log_z_plus, log_z_minus, step, n, mean_d_ab) -> list[str]:
    """Central difference of log Z in h_AB against N <d_AB>."""
    fd = (log_z_plus - log_z_minus) / (2.0 * step)
    target = n * mean_d_ab
    if abs(fd - target) <= FD_REL_TOL * max(1.0, abs(target)):
        return []
    return [f"d log Z / d h_AB = {fd!r} but N <d_AB> = {target!r}"]


# ------------------------------------------------------------ variational


def _xlogx_minus_x(x):
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log(safe) - x, 0.0)


def psi_ref(d_a, d_b, d_ab, alpha, h, j):
    """psi = s(d) + h.d + (1/2) d.J.d, vectorized over the density arrays."""
    g = _xlogx_minus_x
    m_a = np.maximum(alpha - 2.0 * d_a - d_ab, 0.0)
    m_b = np.maximum(1.0 - alpha - 2.0 * d_b - d_ab, 0.0)
    s = (
        g(alpha) + g(1.0 - alpha)
        - g(m_a) - g(m_b) - g(d_a) - g(d_b) - g(d_ab)
        - (d_a + d_b) * LOG2
    )
    js = 0.5 * (np.asarray(j) + np.asarray(j).T)
    d = (d_a, d_b, d_ab)
    quad = sum(js[r, c] * d[r] * d[c] for r in range(3) for c in range(3))
    return s + h[0] * d_a + h[1] * d_b + h[2] * d_ab + 0.5 * quad


def grad_psi_ref(point, alpha, h, j) -> np.ndarray:
    d_a, d_b, d_ab = point
    m_a = alpha - 2.0 * d_a - d_ab
    m_b = 1.0 - alpha - 2.0 * d_b - d_ab
    js = 0.5 * (np.asarray(j) + np.asarray(j).T)
    grad_s = np.array(
        [
            math.log(m_a * m_a / (2.0 * d_a)),
            math.log(m_b * m_b / (2.0 * d_b)),
            math.log(m_a * m_b / d_ab),
        ]
    )
    return grad_s + np.asarray(h) + js @ np.asarray(point)


def sample_region(rng, alpha: float, count: int) -> tuple[np.ndarray, ...]:
    """Seeded points filling the hard-core region 2d_A + d_AB <= alpha,
    2d_B + d_AB <= 1 - alpha (boundary faces are reached with positive
    probability through the clipped draws)."""
    top = min(alpha, 1.0 - alpha)
    d_ab = top * np.clip(rng.uniform(-0.05, 1.05, count), 0.0, 1.0)
    d_a = 0.5 * (alpha - d_ab) * np.clip(rng.uniform(-0.05, 1.05, count), 0.0, 1.0)
    d_b = 0.5 * (1.0 - alpha - d_ab) * np.clip(rng.uniform(-0.05, 1.05, count), 0.0, 1.0)
    return d_a, d_b, d_ab


def check_generic_maximizers(maxima, alpha, h, j, sampled_max) -> list[str]:
    """Gradient vanishes, value matches, and no sampled point beats it."""
    out = []
    if not maxima:
        return ["no maximizer returned"]
    for point, value in maxima:
        vec = (point.d_a, point.d_b, point.d_ab)
        if min(vec) <= 0.0 or alpha - 2 * vec[0] - vec[2] <= 0.0 or 1 - alpha - 2 * vec[1] - vec[2] <= 0.0:
            out.append(f"maximizer {vec} is not interior")
            continue
        grad = np.abs(grad_psi_ref(vec, alpha, h, j)).max()
        if not grad <= GRAD_TOL:
            out.append(f"|grad psi| = {grad:.3e} at maximizer {vec}")
        own = float(psi_ref(*vec, alpha, h, j))
        if abs(own - value) > PSI_TOL:
            out.append(f"reported psi {value!r} but psi at {vec} is {own!r}")
        if own < sampled_max - SAMPLE_SLACK:
            out.append(f"psi {own!r} at {vec} is below a sampled value {sampled_max!r}")
    return out


# ---------------------------------------------------------------- reduced


def pos_root(u):
    """Positive root of z^2 + z = u, cancellation-free."""
    return 2.0 * u / (1.0 + np.sqrt(1.0 + 4.0 * u))


def reduced_f(d, alpha):
    """f(d) = log d - log x(d) - log y(d) with x^2 + x = alpha - d,
    y^2 + y = 1 - alpha - d."""
    return np.log(d) - np.log(pos_root(alpha - d)) - np.log(pos_root(1.0 - alpha - d))


def reduced_psi1(d, alpha, h, j):
    """Reduced pressure: psi at (x^2/2, y^2/2, d); the monomer densities
    there are exactly x and y."""
    x = pos_root(alpha - d)
    y = pos_root(1.0 - alpha - d)
    return psi_ref(0.5 * x * x, 0.5 * y * y, d, alpha, (0.0, 0.0, h), np.diag([0.0, 0.0, j]))


def reduced_roots(alpha, h, j, points=20_000):
    """All roots of f(d) = h + J d and whether each is a maximum of psi1.

    r(d) = f(d) - h - J d runs from -inf to +inf over (0, min(alpha, 1-alpha));
    psi1' = -r, so a root where r crosses upward is a maximum.  Roots are
    bracketed on a grid refined geometrically toward both ends and bisected
    to adjacent floats.
    """
    top = min(alpha, 1.0 - alpha)
    low = np.geomspace(top * 1e-14, 0.5 * top, points // 2)
    grid = np.concatenate([low, top - low[::-1][1:]])
    r = reduced_f(grid, alpha) - h - j * grid
    roots = []
    for i in np.nonzero(np.sign(r[:-1]) != np.sign(r[1:]))[0]:
        lo, hi = float(grid[i]), float(grid[i + 1])
        r_lo = float(r[i])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            r_mid = float(reduced_f(mid, alpha) - h - j * mid)
            if (r_mid < 0.0) == (r_lo < 0.0):
                lo, r_lo = mid, r_mid
            else:
                hi = mid
        roots.append((0.5 * (lo + hi), bool(r[i] < 0.0)))
    return roots


def reduced_global_maxima(alpha, h, j):
    """Maxima of psi1 within the documented tie tolerance of the best."""
    maxima = [(d, float(reduced_psi1(d, alpha, h, j))) for d, is_max in reduced_roots(alpha, h, j) if is_max]
    best = max(v for _, v in maxima)
    return [d for d, v in maxima if v >= best - TIE_TOL]


def check_reduced_maximizers(maxima, alpha, h, j, critical_d=None) -> list[str]:
    """maximize_psi on reduced parameters against the global roots.

    The maximizers must be (x^2/2, y^2/2, d*) for exactly the global roots
    d* of the reduced consistency equation.  At the critical point psi is
    flat to fourth order, so the tolerance there is relative to d_c.
    """
    ref = [critical_d] if critical_d is not None else reduced_global_maxima(alpha, h, j)
    tol = CRITICAL_REL_TOL * critical_d if critical_d is not None else MAXIMIZER_TOL
    got = sorted(maxima, key=lambda t: t[0].d_ab)
    if len(got) != len(ref):
        return [f"{len(got)} maximizers returned, {len(ref)} global roots expected at d={ref}"]
    out = []
    for (point, _), d in zip(got, sorted(ref)):
        x = pos_root(alpha - d)
        y = pos_root(1.0 - alpha - d)
        want = np.array([0.5 * x * x, 0.5 * y * y, d])
        err = np.abs(np.array([point.d_a, point.d_b, point.d_ab]) - want).max()
        if not err <= tol:
            out.append(f"maximizer {point.vector} is {err:.3e} from the global root {want}")
    return out


def check_branches(branches, alpha, h, j) -> list[str]:
    """Roots solve f(d) = h + J d, match the reference root set, and carry
    the documented stability labels."""
    ref = reduced_roots(alpha, h, j)
    got = [b.d for b in branches]
    if len(got) != len(ref):
        return [f"{len(got)} roots returned, {len(ref)} expected"]
    out = []
    top = min(alpha, 1.0 - alpha)
    for b, (d, _) in zip(branches, ref):
        if abs(b.d - d) > 1e-9 * top:
            out.append(f"root {b.d!r} differs from reference {d!r}")
        resid = float(reduced_f(b.d, alpha) - h - j * b.d)
        if abs(resid) > ROOT_TOL * max(1.0, abs(h) + j * b.d):
            out.append(f"consistency residual {resid:.3e} at d={b.d!r}")
    values = [float(reduced_psi1(d, alpha, h, j)) for d, _ in ref]
    best = max(v for v, (_, m) in zip(values, ref) if m)
    for b, v, (_, is_max) in zip(branches, values, ref):
        want = "unstable" if not is_max else ("global-max" if v >= best - TIE_TOL else "local-max")
        if b.stability != want:
            out.append(f"root d={b.d!r} labelled {b.stability}, expected {want}")
    return out


def _mp_f(alpha):
    import mpmath  # imported here so the timed set-up does not pay for it

    a = mpmath.mpf(alpha)

    def f(d):
        x = (-1 + mpmath.sqrt(1 + 4 * (a - d))) / 2
        y = (-1 + mpmath.sqrt(1 + 4 * (1 - a - d))) / 2
        return mpmath.log(d) - mpmath.log(x) - mpmath.log(y)

    return f


def check_critical(cp) -> list[str]:
    """f''(d_c) = 0, J_c = f'(d_c), h_c = f(d_c) - J_c d_c in 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        f = _mp_f(cp.alpha)
        d = mpmath.mpf(cp.d_c)
        f0, f1, f2 = (mpmath.diff(f, d, k) for k in (0, 1, 2))
        scale2 = 1 / d**2
        res = (
            float(abs(f2) / scale2),
            float(abs(f1 - cp.j_c) / f1),
            float(abs(f0 - f1 * d - cp.h_c) / max(1, abs(f0))),
        )
    out = []
    if not 0.0 < cp.d_c < min(cp.alpha, 1.0 - cp.alpha):
        out.append(f"d_c={cp.d_c!r} outside the reduced interval")
    for name, r in zip(("f''", "f'-J_c", "f-h_c-J_c d_c"), res):
        if not r <= CRIT_TOL:
            out.append(f"critical residual {name} = {r:.3e} (relative)")
    return out


def check_coexistence(h, alpha, j) -> list[str]:
    """The two maxima of psi1 tie at the returned field."""
    maxima = [d for d, is_max in reduced_roots(alpha, h, j) if is_max]
    if len(maxima) != 2:
        return [f"{len(maxima)} maxima at the coexistence field, expected 2"]
    gap = float(reduced_psi1(maxima[1], alpha, h, j) - reduced_psi1(maxima[0], alpha, h, j))
    if abs(gap) <= COEX_TIE_TOL:
        return []
    return [f"psi1 gap {gap:.3e} between the maxima at h={h!r}"]


def check_exponent(scan, alpha) -> list[str]:
    out = []
    if abs(scan.exponent - 0.5) > EXPONENT_TOL:
        out.append(f"exponent {scan.exponent!r} is not 1/2 within {EXPONENT_TOL}")
    target = math.sqrt(3.0 * alpha**3 / 16.0)
    if abs(scan.prefactor / target - 1.0) > PREFACTOR_TOL:
        out.append(f"prefactor {scan.prefactor!r} vs sqrt(3 alpha^3/16) = {target!r}")
    cp = scan.critical
    for delta, dev in zip(scan.offsets, scan.deviations):
        h = cp.h_c - cp.d_c * delta
        tops = reduced_global_maxima(alpha, h, cp.j_c + delta)
        if abs(max(tops) - cp.d_c - dev) > MAXIMIZER_TOL * alpha:
            out.append(f"deviation {dev!r} at offset {delta!r} is not the upper global root")
    return out


def check_scaled(sc) -> list[str]:
    """alpha_c sqrt(J') -> 2, and J_c(alpha_c) = alpha_c (1 - alpha_c) J'."""
    import mpmath

    out = []
    root = math.sqrt(sc.jprime)
    if abs(sc.alpha_c * root - 2.0) > ALPHA_C_C / root:
        out.append(f"alpha_c sqrt(J') = {sc.alpha_c * root!r} not within {ALPHA_C_C}/sqrt(J') of 2")
    with mpmath.workdps(40):
        f1 = mpmath.diff(_mp_f(sc.alpha_c), mpmath.mpf(sc.d_c), 1)
        j = sc.alpha_c * (1.0 - sc.alpha_c) * sc.jprime
        if float(abs(f1 - j) / f1) > 1e-8:
            out.append(f"f'(d_c) = {float(f1)!r} but alpha_c(1-alpha_c)J' = {j!r}")
    return out


def check_dmix(scan) -> list[str]:
    """Each point is the upper root at a coexistence field, d_mix follows
    from it, and d_mix rises above its critical value."""
    out = []
    for a, h, d, mix in zip(scan.alphas, scan.h_values, scan.d_values, scan.d_mix):
        j = a * (1.0 - a) * scan.scaled.jprime
        out += check_coexistence(float(h), float(a), j)
        maxima = [r for r, is_max in reduced_roots(float(a), float(h), j) if is_max]
        if maxima and abs(maxima[-1] - d) > MAXIMIZER_TOL * a:
            out.append(f"d={d!r} at alpha={a!r} is not the upper root {maxima[-1]!r}")
        x = pos_root(a - d)
        y = pos_root(1.0 - a - d)
        want = d / (0.5 * x * x + 0.5 * y * y + d)
        if abs(mix - want) > 1e-12:
            out.append(f"d_mix {mix!r} but d/(x^2/2 + y^2/2 + d) = {want!r}")
    if np.any(scan.d_mix <= scan.scaled.d_mix_c) or np.any(np.diff(scan.d_mix) <= 0.0):
        out.append("d_mix does not rise monotonically above its critical value")
    return out


# ---------------------------------------------------------------- moments


def check_wick(gauss, log_z) -> list[str]:
    out = []
    if abs(gauss.log_value - log_z) > WICK_TOL * max(1.0, abs(log_z)):
        out.append(f"Gaussian moment {gauss.log_value!r} vs enumeration {log_z!r}")
    if not gauss.error_estimate <= QUAD_ERR_TOL * max(1.0, abs(log_z)):
        out.append(f"node-doubling error {gauss.error_estimate:.3e}")
    return out


def check_z_star(est) -> list[str]:
    if math.isfinite(est.log_value) and est.error_estimate <= QUAD_ERR_TOL * max(1.0, abs(est.log_value)):
        return []
    return [f"z_star {est.log_value!r} with node-doubling error {est.error_estimate:.3e}"]


def check_superadditivity(res, z1, z2, z12) -> list[str]:
    """lhs/rhs are the three independent z_star values and lhs <= rhs."""
    out = []
    if abs(res.lhs - (z1 + z2)) > QUAD_ERR_TOL * max(1.0, abs(res.lhs)):
        out.append(f"lhs {res.lhs!r} is not log Z*_n1 + log Z*_n2 = {z1 + z2!r}")
    if abs(res.rhs - z12) > QUAD_ERR_TOL * max(1.0, abs(z12)):
        out.append(f"rhs {res.rhs!r} is not log Z*_(n1+n2) = {z12!r}")
    if not (res.holds and z1 + z2 <= z12 + SUPERADD_SLACK):
        out.append(f"super-additivity fails: {z1 + z2!r} > {z12!r}")
    return out


def laplace_ref(xi_a, xi_b, alpha, w):
    prec = np.linalg.inv(w)
    with np.errstate(divide="ignore"):
        return (
            -0.5 * (prec[0, 0] * xi_a * xi_a + 2.0 * prec[0, 1] * xi_a * xi_b + prec[1, 1] * xi_b * xi_b)
            + alpha * np.log(np.abs(1.0 + xi_a))
            + (1.0 - alpha) * np.log(np.abs(1.0 + xi_b))
        )


def check_laplace(lm, alpha, w, rng) -> list[str]:
    """Stationary, the value recomputes, and nothing sampled beats it."""
    out = []
    prec = np.linalg.inv(w)
    xi = np.asarray(lm.xi, dtype=float)
    grad = -prec @ xi + np.array([alpha / (1.0 + xi[0]), (1.0 - alpha) / (1.0 + xi[1])])
    if not (lm.grad_norm <= LAPLACE_GRAD_TOL and np.linalg.norm(grad) <= LAPLACE_GRAD_TOL):
        out.append(f"gradient {np.linalg.norm(grad):.3e} (reported {lm.grad_norm:.3e}) at {xi}")
    own = float(laplace_ref(xi[0], xi[1], alpha, w))
    if abs(own - lm.value) > 1e-12:
        out.append(f"value {lm.value!r} but the exponent at xi is {own!r}")
    span = 3.0 + 20.0 * math.sqrt(float(w.max()))
    sample = rng.uniform(-span, span, size=(2, 200_000))
    sampled = float(np.max(laplace_ref(sample[0], sample[1], alpha, w)))
    if not lm.value >= max(lm.grid_max, sampled) - 1e-12:
        out.append(f"value {lm.value!r} below grid max {lm.grid_max!r} / sampled {sampled!r}")
    return out
