"""The public API: every name in ``dimerfield.__all__`` resolves, the names
deleted from it stay gone, from the package and its modules, and every
entry point that takes a raw alpha checks it with ``params._check_alpha``."""

import warnings

import numpy as np
import pytest

import dimerfield
from dimerfield import critical, gaussian, model, params, variational

REMOVED = [
    "x_alpha",
    "y_alpha",
    "f_alpha",
    "f_alpha_d1",
    "energy",
    "log_config_count",
    "hamiltonian",
    "DimerCounts",
    "STABILITIES",
]


def test_every_exported_name_resolves():
    assert [name for name in dimerfield.__all__ if not hasattr(dimerfield, name)] == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in dimerfield.__all__
    assert not any(hasattr(mod, name) for mod in (dimerfield, critical, gaussian, model, params, variational))


# every public entry point that takes a raw alpha, called with valid other arguments
TAKES_ALPHA = {
    "ModelParams": lambda a: dimerfield.ModelParams(a),
    "ReducedParams": lambda a: dimerfield.ReducedParams(a, 0.0, 1.0),
    "split_sizes": lambda a: dimerfield.split_sizes(10, a),
    "critical_point": dimerfield.critical_point,
    "z_star": lambda a: dimerfield.z_star(4, a, [0.0, 0.0, -1.0]),
    "z_via_gaussian": lambda a: dimerfield.z_via_gaussian(4, a, [0.0, 0.0, -1.0]),
    "solve_zero_coupling": lambda a: dimerfield.solve_zero_coupling([0.0, 0.0, 0.0], a),
    "superadditivity_check": lambda a: dimerfield.superadditivity_check(2, 3, a, [0.0, 0.0, -1.0]),
}


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("entry", sorted(TAKES_ALPHA))
def test_alpha_rejected_by_the_one_check(entry, alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        TAKES_ALPHA[entry](alpha)


@pytest.mark.parametrize("entry", sorted(TAKES_ALPHA))
def test_float32_alpha_accepted_without_warning(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TAKES_ALPHA[entry](np.float32(0.3))


# Input checks that no other test reaches, one case each, with the message
# each gives.
PARAMS_REJECTED = {
    "h of shape (2,)": (lambda: dimerfield.ModelParams(0.3, [0.0, 0.0]), "h must be a 3-vector"),
    "h with NaN": (lambda: dimerfield.ModelParams(0.3, [0.0, np.nan, 0.0]), "h must be finite"),
    "J of shape (2, 2)": (lambda: dimerfield.ModelParams(0.3, J=np.eye(2)), "J must be a 3x3 matrix"),
    "J with inf": (lambda: dimerfield.ModelParams(0.3, J=np.diag([0.0, np.inf, 0.0])), "J must be finite"),
    "fractional n": (lambda: dimerfield.PopulationSizes(4.5, 2, 2.5), "n must be an integer"),
    "infinite n": (lambda: dimerfield.PopulationSizes(np.inf, 1, 1), "n must be an integer"),
    "NaN n_a": (lambda: dimerfield.PopulationSizes(4, np.nan, 2), "n_a must be an integer"),
    "infinite n to split": (lambda: dimerfield.split_sizes(-np.inf, 0.5), "n must be an integer >= 2"),
    "NaN n to split": (lambda: dimerfield.split_sizes(np.nan, 0.5), "n must be an integer >= 2"),
    "infinite n to enumerate": (
        lambda: dimerfield.log_partition_exact(np.inf, dimerfield.ModelParams(0.5)),
        "n must be an integer >= 2",
    ),
    "empty population": (lambda: dimerfield.PopulationSizes(4, 0, 4), "at least one site"),
    "sizes not summing": (lambda: dimerfield.PopulationSizes(4, 2, 3), "must equal n"),
    "negative density": (lambda: dimerfield.DimerDensities(-1e-3, 0.0, 0.0), "d_a must be finite and >= 0"),
    "NaN density": (lambda: dimerfield.DimerDensities(0.0, 0.0, np.nan), "d_ab must be finite and >= 0"),
    "reduced NaN field": (lambda: dimerfield.ReducedParams(0.3, np.nan, 1.0), "h must be finite"),
    "reduced zero coupling": (lambda: dimerfield.ReducedParams(0.3, 0.0, 0.0), "j must be finite and > 0"),
    "d_c above alpha": (lambda: dimerfield.CriticalPoint(0.3, 0.5, 0.0, 1.0), r"d_c must lie in \(0, alpha\)"),
    "negative J_c": (lambda: dimerfield.CriticalPoint(0.3, 0.1, 0.0, -1.0), "j_c must be positive"),
}
GAUSSIAN_REJECTED = {
    "n = 0": (lambda: gaussian.z_star(0, 0.5, [0.0, 0.0, -1.0]), "n must be a positive integer"),
    "n = 2.5": (lambda: gaussian.z_star(2.5, 0.5, [0.0, 0.0, -1.0]), "n must be a positive integer"),
    "n = inf": (lambda: gaussian.z_star(np.inf, 0.5, [0.0, 0.0, -1.0]), "n must be a positive integer"),
    "n = NaN": (lambda: gaussian.z_star(np.nan, 0.5, [0.0, 0.0, -1.0]), "n must be a positive integer"),
    "trials = inf": (lambda: gaussian.mixing_lemma_checks(np.inf), "trials must be a positive integer"),
    "trials = NaN": (lambda: gaussian.mixing_lemma_checks(np.nan), "trials must be a positive integer"),
    "n above the cap": (
        lambda: gaussian.z_via_gaussian(gaussian.MOMENT_CAP + 1, 0.5, [0.0, 0.0, -1.0]),
        "exceeds the moment cap",
    ),
}
CRITICAL_REJECTED = {
    "one offset": (lambda: critical.exponent_scan(0.1, [1.0]), "at least two offsets"),
    "J below J_c": (
        lambda: critical.coexistence_field(0.1, 0.5 * critical.critical_point(0.1).j_c),
        "need j > J_c",
    ),
    "no alphas": (lambda: critical.d_mix_scan(3e4, []), "alphas must be nonempty"),
}


@pytest.mark.parametrize("case", sorted(PARAMS_REJECTED))
def test_params_rejects(case):
    call, message = PARAMS_REJECTED[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("case", sorted(GAUSSIAN_REJECTED))
def test_gaussian_rejects(case):
    call, message = GAUSSIAN_REJECTED[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("case", sorted(CRITICAL_REJECTED))
def test_critical_rejects(case):
    call, message = CRITICAL_REJECTED[case]
    with pytest.raises(ValueError, match=message):
        call()
