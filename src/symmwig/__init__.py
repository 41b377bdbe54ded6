"""Symmetry-class Wigner ensembles and their Chebyshev trace statistics."""

__version__ = "0.1.0"

from .ensemble import (
    EntryModel,
    EquivClass,
    SymmetryClass,
    build_equivalence_classes,
    derive_rng,
    sample_matrix,
    symmetry_stats,
)
from .chebyshev import ChebSpec, cheb_coefficients, trace_cheb_vector
from .patterns import (
    BudgetError,
    DeltaMatrix,
    DihedralElement,
    complete_reflection_sequence,
    dihedral_group,
    enumerate_delta_sequences,
    per_g_leading_term,
)
from .covariance import CovReport, V_asymptotic, V_n_exact, cov_report
from .oracles import cov_cheb_moment_oracle, cov_traces_config_oracle
from .montecarlo import (
    CLTPair,
    CLTReport,
    MomentAccumulator,
    SimulationConfig,
    SimulationResult,
    clt_report,
    estimate_cumulants,
    merge,
    run_simulation,
    theory_vector,
)

__all__ = [
    "__version__",
    "EntryModel",
    "EquivClass",
    "SymmetryClass",
    "build_equivalence_classes",
    "derive_rng",
    "sample_matrix",
    "symmetry_stats",
    "ChebSpec",
    "cheb_coefficients",
    "trace_cheb_vector",
    "BudgetError",
    "DeltaMatrix",
    "DihedralElement",
    "complete_reflection_sequence",
    "dihedral_group",
    "enumerate_delta_sequences",
    "per_g_leading_term",
    "CovReport",
    "V_asymptotic",
    "V_n_exact",
    "cov_cheb_moment_oracle",
    "cov_report",
    "cov_traces_config_oracle",
    "CLTPair",
    "CLTReport",
    "MomentAccumulator",
    "SimulationConfig",
    "SimulationResult",
    "clt_report",
    "estimate_cumulants",
    "merge",
    "run_simulation",
    "theory_vector",
]
