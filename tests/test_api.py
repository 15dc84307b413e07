"""The public API: every name in ``dimerfield.__all__`` resolves, and the
names deleted from it stay gone, from the package and its modules."""

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
]


def test_every_exported_name_resolves():
    assert [name for name in dimerfield.__all__ if not hasattr(dimerfield, name)] == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in dimerfield.__all__
    assert not any(hasattr(mod, name) for mod in (dimerfield, critical, gaussian, model, params, variational))
