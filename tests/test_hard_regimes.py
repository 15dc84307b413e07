"""maximize_psi against the reduced model's global roots in the hard regimes.

With only h_AB and J_AB^AB active the 3-D maximizers must be the points
(x^2/2, y^2/2, d*) for exactly the global roots d* of f(d) = h + J d that
`solve_branches` finds.  The draws cover the exact critical point, the
near-critical window J = (1 + eps) J_c on h = h_c - d_c eps J_c, the
coexistence field at J = 1.5 J_c, and subcritical couplings; one more
checks that `solve_branches` finds all three roots on that line down to
J - J_c = 1e-8 J_c.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dimerfield import (
    ReducedParams,
    coexistence_field,
    critical_point,
    maximize_psi,
    solve_branches,
)
from dimerfield.critical import x_alpha, y_alpha

alphas = st.floats(1e-3, 0.5)


def reduced_point(d, alpha):
    x, y = x_alpha(d, alpha), y_alpha(d, alpha)
    return np.array([0.5 * x * x, 0.5 * y * y, d])


def assert_matches_global_roots(rp, tol, roots=None):
    if roots is None:
        roots = [b.d for b in solve_branches(rp) if b.stability == "global-max"]
    maxima = sorted(maximize_psi(rp.to_model_params()), key=lambda t: t[0].d_ab)
    assert len(maxima) == len(roots)
    for (point, _), d in zip(maxima, sorted(roots)):
        assert np.abs(point.vector - reduced_point(d, rp.alpha)).max() <= tol


@given(alphas)
def test_exact_critical_point(alpha):
    # psi is flat to fourth order at d_c, so float64 pins the maximizer only
    # to about eps^(1/3) relative; solve_branches agrees there is one
    cp = critical_point(alpha)
    rp = ReducedParams(alpha, cp.h_c, cp.j_c)
    assert len([b for b in solve_branches(rp) if b.stability == "global-max"]) == 1
    assert_matches_global_roots(rp, 1e-4 * cp.d_c, roots=[cp.d_c])


@given(alphas, st.floats(1e-3, 0.5))
def test_near_critical(alpha, eps):
    cp = critical_point(alpha)
    delta = eps * cp.j_c
    assert_matches_global_roots(ReducedParams(alpha, cp.h_c - cp.d_c * delta, cp.j_c + delta), 1e-8)


@given(alphas)
def test_coexistence(alpha):
    cp = critical_point(alpha)
    j = 1.5 * cp.j_c
    rp = ReducedParams(alpha, coexistence_field(alpha, j, cp=cp), j)
    assert len([b for b in solve_branches(rp) if b.stability == "global-max"]) == 2
    assert_matches_global_roots(rp, 1e-8)


@given(alphas, st.floats(0.2, 0.95), st.floats(-0.5, 0.5))
def test_subcritical(alpha, ratio, shift):
    cp = critical_point(alpha)
    assert_matches_global_roots(ReducedParams(alpha, cp.h_c + shift * cp.d_c * cp.j_c, ratio * cp.j_c), 1e-8)


@given(alphas, st.floats(-8.0, np.log10(0.05)))
def test_three_roots_on_pivot_line(alpha, log_rel):
    # solve_branches alone: the middle root sits at d_c, and the outer ones
    # close in on it like sqrt(delta) as delta / J_c falls to 1e-8
    cp = critical_point(alpha)
    delta = 10.0**log_rel * cp.j_c
    branches = solve_branches(ReducedParams(alpha, cp.h_c - cp.d_c * delta, cp.j_c + delta))
    assert [b.stability == "unstable" for b in branches] == [False, True, False]
