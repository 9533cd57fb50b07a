"""Spectral toolkit for the discretized polaron fiber family.

Layers: occupation bases (fock), mode grids and couplings (modes), sparse
operator assembly and factorization diagnostics (operators), eigensolvers and
positivity audits (solve), dispersion analysis (dispersion), finite-volume
blocks and Yukawa kernels (torus), and a deterministic CLI (cli).
"""

from .errors import CapacityError, ConfigError, ConvergenceError, NumericalError
from .fock import (
    BasisIndex,
    basis_dimension,
    enumerate_basis,
)
from .modes import (
    CutoffSchedule,
    ModeGrid,
    build_grid,
)
from .operators import (
    FiberConfig,
    FiberFamily,
    SparseOperator,
    annihilation_csr,
    assemble_KT,
    assemble_fiber,
    kinetic_diagonal,
    neumann_constant,
    neumann_norms,
    sign_flip,
    weighted_annihilation_norm,
)
from .solve import (
    PositivityReport,
    SpectralResult,
    dense_spectrum,
    ground_state,
    lowest_eigenpairs,
    resolvent_positivity_audit,
)
from .dispersion import (
    DispersionCurve,
    DispersionSample,
    ExtrapolationReport,
    HvzReport,
    MassReport,
    MinimumVerdict,
    check_minimum_samples,
    cutoff_extrapolate,
    dispersion_curve,
    effective_mass,
    fit_inverse_cutoff,
    hvz_edge_check,
    mass_momenta,
    minimum_check,
)
from .torus import (
    TorusConfig,
    TorusModel,
    TorusReport,
    assemble_torus,
    contradiction_check,
    degeneracy_analysis,
    lattice_fibers,
    periodized_yukawa,
    yukawa_converged,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ConfigError", "ConvergenceError", "NumericalError",
    "BasisIndex", "basis_dimension", "enumerate_basis",
    "CutoffSchedule", "ModeGrid", "build_grid",
    "FiberConfig", "FiberFamily", "SparseOperator", "annihilation_csr",
    "assemble_KT", "assemble_fiber", "kinetic_diagonal",
    "neumann_constant", "neumann_norms", "sign_flip", "weighted_annihilation_norm",
    "PositivityReport", "SpectralResult", "dense_spectrum", "ground_state",
    "lowest_eigenpairs", "resolvent_positivity_audit",
    "DispersionCurve", "DispersionSample", "ExtrapolationReport", "HvzReport",
    "MassReport", "MinimumVerdict", "cutoff_extrapolate", "dispersion_curve",
    "check_minimum_samples", "effective_mass", "fit_inverse_cutoff",
    "hvz_edge_check", "mass_momenta", "minimum_check",
    "TorusConfig", "TorusModel", "TorusReport", "assemble_torus",
    "contradiction_check", "degeneracy_analysis", "lattice_fibers",
    "periodized_yukawa", "yukawa_converged",
    "__version__",
]
