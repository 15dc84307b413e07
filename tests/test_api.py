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
