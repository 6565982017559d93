"""Correlated-projection master equations, exact dynamics and projector
diagnostics for a two-state system coupled to a two-branch energy band."""

from .linalg import (STRUCTURAL_TOL, eig_hermitian, is_density, is_hermitian,
                     singular_values)
from .model import ModelParams, build_hamiltonian, initial_state, sample_couplings
from .exact import (ensemble_average, evolve_exact, realization_seeds,
                    reduced_from_sector, sector_variables)
from .superop import (apply_superop, choi_matrix, delta_superop,
                      effective_generator_full, projector_superop, scan_delta,
                      tcl_generator, unvec, vec)
from .tcl import HomogeneityError, ecps_evolve, solve_tcl, steady_state

__version__ = "0.1.0"

__all__ = [
    "HomogeneityError", "ModelParams", "STRUCTURAL_TOL",
    "apply_superop", "build_hamiltonian", "choi_matrix",
    "delta_superop", "ecps_evolve", "effective_generator_full", "eig_hermitian",
    "ensemble_average", "evolve_exact", "initial_state", "is_density",
    "is_hermitian", "projector_superop", "realization_seeds",
    "reduced_from_sector", "sample_couplings", "scan_delta", "sector_variables",
    "singular_values", "solve_tcl", "steady_state", "tcl_generator", "unvec", "vec",
]
