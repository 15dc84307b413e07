"""Two-population mean-field monomer-dimer model.

Exact finite-size enumeration, the three-density variational pressure with
its fixed-point system, the one-dimensional critical-point analysis of the
mixed-dimer transition, and the Gaussian-moment representation used to
cross-check the J = 0 sector -- every route verified against the others.
"""

from ._kernels import active_backend
from .critical import (
    DmixScan,
    ExponentScan,
    ScaledCritical,
    coexistence_field,
    critical_point,
    critical_residuals,
    d_mix_scan,
    exponent_scan,
    f_alpha_d2,
    f_alpha_d3,
    mixed_dimer_fraction,
    psi1,
    reduced_density_max,
    scaled_coupling_critical,
    solve_branches,
)
from .gaussian import (
    DimerWeightMatrix,
    GaussianEstimate,
    LaplaceMaximum,
    MixingLemmaReport,
    SuperadditivityResult,
    laplace_exponent,
    laplace_maximum,
    mixing_lemma_checks,
    superadditivity_check,
    weight_matrix,
    z_star,
    z_via_gaussian,
)
from .model import (
    DEFAULT_ENUMERATION_CAP,
    admissible_count,
    d_mix_finite,
    gibbs_expected_densities,
    log_partition_exact,
    split_sizes,
)
from .params import (
    BranchSolution,
    CriticalPoint,
    DimerDensities,
    ModelParams,
    PopulationSizes,
    ReducedParams,
)
from .variational import (
    entropy,
    fixed_point_residual,
    fixed_point_solve,
    grad_psi,
    maximize_psi,
    pressure,
    psi,
    solve_zero_coupling,
)

__version__ = "0.1.0"

__all__ = [
    "BranchSolution",
    "CriticalPoint",
    "DEFAULT_ENUMERATION_CAP",
    "DimerDensities",
    "DimerWeightMatrix",
    "DmixScan",
    "ExponentScan",
    "GaussianEstimate",
    "LaplaceMaximum",
    "MixingLemmaReport",
    "ModelParams",
    "PopulationSizes",
    "ReducedParams",
    "ScaledCritical",
    "SuperadditivityResult",
    "active_backend",
    "admissible_count",
    "coexistence_field",
    "critical_point",
    "critical_residuals",
    "d_mix_finite",
    "d_mix_scan",
    "entropy",
    "exponent_scan",
    "f_alpha_d2",
    "f_alpha_d3",
    "fixed_point_residual",
    "fixed_point_solve",
    "gibbs_expected_densities",
    "grad_psi",
    "laplace_exponent",
    "laplace_maximum",
    "log_partition_exact",
    "maximize_psi",
    "mixed_dimer_fraction",
    "mixing_lemma_checks",
    "pressure",
    "psi",
    "psi1",
    "reduced_density_max",
    "scaled_coupling_critical",
    "solve_branches",
    "solve_zero_coupling",
    "split_sizes",
    "superadditivity_check",
    "weight_matrix",
    "z_star",
    "z_via_gaussian",
]
