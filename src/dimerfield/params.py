"""Parameter records and state types for the two-population monomer-dimer model.

Conventions used package-wide:

* populations are labelled A and B with relative size ``alpha = N_A / N``;
* 3-vectors are ordered ``(A, B, AB)`` for dimer fields, counts and
  densities;
* the coupling ``J`` is a real 3x3 matrix whose rows/columns follow the
  same ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

STABILITY_GLOBAL = "global-max"
STABILITY_LOCAL = "local-max"
STABILITY_UNSTABLE = "unstable"
#: Absolute pressure gap below which two maxima count as tied (global).
TIE_TOL = 1e-9


def _as_vector3(value, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {np.shape(value)}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


def _as_matrix3(value, name: str) -> np.ndarray:
    m = np.asarray(value, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {np.shape(value)}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    return m


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _is_integer(x) -> bool:
    """True when x is a finite whole number; int() would raise on NaN and inf."""
    return abs(x) < np.inf and int(x) == x


def _monomers(d_a, d_b, d_ab, alpha):
    """Monomer densities (m_A, m_B) of (d_A, d_B, d_AB); broadcasts."""
    return alpha - 2.0 * d_a - d_ab, 1.0 - alpha - 2.0 * d_b - d_ab


def quadratic_form(j, x, y, z):
    """d.J.d for d = (x, y, z) given by broadcastable components.

    Reads the upper triangle of ``j`` only, so pass the symmetric part.
    """
    return (
        j[0, 0] * x * x
        + j[1, 1] * y * y
        + j[2, 2] * z * z
        + 2.0 * (j[0, 1] * x * y + j[0, 2] * x * z + j[1, 2] * y * z)
    )


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full parameter set: population fraction, dimer fields, couplings.

    ``h = (h_A, h_B, h_AB)`` tunes the activity of each dimer type and the
    matrix ``J`` couples dimer densities pairwise.  Only the symmetric part
    of ``J`` affects any observable (the energy is a quadratic form), so
    ``j_sym`` is what the stationarity machinery uses.
    """

    alpha: float
    h: np.ndarray = field(default=None)
    J: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        h = np.zeros(3) if self.h is None else _as_vector3(self.h, "h")
        J = np.zeros((3, 3)) if self.J is None else _as_matrix3(self.J, "J")
        h.setflags(write=False)
        J.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", J)

    @cached_property
    def j_sym(self) -> np.ndarray:
        """(J + J^T)/2, computed on first use and kept read-only."""
        j_sym = 0.5 * (self.J + self.J.T)
        j_sym.setflags(write=False)
        return j_sym

    @classmethod
    def reduced(cls, alpha: float, h_ab: float, j_abab: float) -> "ModelParams":
        """Parameters with only the mixed-dimer field and coupling active."""
        J = np.zeros((3, 3))
        J[2, 2] = j_abab
        return cls(alpha=alpha, h=np.array([0.0, 0.0, float(h_ab)]), J=J)

    def swapped(self) -> "ModelParams":
        """Parameters with the two populations exchanged (A <-> B)."""
        perm = np.array([1, 0, 2])
        return ModelParams(
            alpha=1.0 - self.alpha,
            h=self.h[perm],
            J=self.J[np.ix_(perm, perm)],
        )


@dataclass(frozen=True)
class PopulationSizes:
    """Integer decomposition N = N_A + N_B of the site count."""

    n: int
    n_a: int
    n_b: int

    def __post_init__(self):
        for name in ("n", "n_a", "n_b"):
            v = getattr(self, name)
            if not _is_integer(v):
                raise ValueError(f"{name} must be an integer, got {v}")
            object.__setattr__(self, name, int(v))
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError(f"both populations need at least one site: {self}")
        if self.n_a + self.n_b != self.n:
            raise ValueError(f"n_a + n_b must equal n: {self}")


@dataclass(frozen=True)
class DimerDensities:
    """A density point d = (d_A, d_B, d_AB), per total site."""

    d_a: float
    d_b: float
    d_ab: float

    def __post_init__(self):
        for name in ("d_a", "d_b", "d_ab"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.d_a, self.d_b, self.d_ab])


@dataclass(frozen=True)
class ReducedParams:
    """Single-coupling restriction: only h_AB and J_AB^AB are nonzero."""

    alpha: float
    h: float
    j: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        h = float(self.h)
        j = float(self.j)
        if not np.isfinite(h):
            raise ValueError(f"h must be finite, got {h}")
        if not np.isfinite(j) or j <= 0.0:
            raise ValueError(f"j must be finite and > 0, got {j}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "j", j)


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """Where the mixed-dimer density starts branching: inflection tangency.

    ``d_c_refined`` keeps an extended-precision copy of the critical density
    so the defining residuals can be certified well below 1e-9 even when the
    curvature scale (~ 32/alpha^3) makes that impossible in float64.
    """

    alpha: float
    d_c: float
    h_c: float
    j_c: float
    d_c_refined: object = None

    def __post_init__(self):
        if not (0.0 < self.d_c < self.alpha):
            raise ValueError(f"d_c must lie in (0, alpha): {self}")
        if self.j_c <= 0.0:
            raise ValueError(f"j_c must be positive: {self}")
        if self.d_c_refined is None:
            object.__setattr__(self, "d_c_refined", np.longdouble(self.d_c))


@dataclass(frozen=True)
class BranchSolution:
    """One solution of the reduced consistency equation, classified by one
    of the ``STABILITY_*`` labels."""

    d: float
    psi1_value: float
    stability: str
