"""Two-level multiscale Schwarz preconditioners for high-contrast 2D
elasticity, with spectral coarse spaces, randomized local eigensolvers,
PCG with condition estimation, and a SIMP topology-optimization loop."""

from .grid import FineMesh, CoarsePartition, build_fine_mesh
from .assembly import (
    CoefficientField,
    LoadSpec,
    SymmetricSparseOperator,
    assemble_elasticity,
    assemble_diffusion,
    assemble_weighted_mass,
    unit_elasticity_element,
    simp_modulus,
    DensityFilter,
)
from .krylov import pcg_solve, estimate_condition, SolveReport
from .spectral import build_local_eigproblem, solve_local_eig_dense, solve_local_eig_randomized, select_modes, EigSelection
from .coarse import build_coarse_basis, assemble_coarse_operator
from .schwarz import build_preconditioner, TwoLevelPreconditioner, block_split_preconditioner, block_split_condition_bound, VARIANTS
from .topopt import compliance_and_sensitivity, oc_update, optimize, OptimizeConfig
from .coefficients import generate_coefficient, export_field_image, read_pgm

__all__ = [
    "FineMesh", "CoarsePartition",
    "build_fine_mesh",
    "CoefficientField", "LoadSpec", "SymmetricSparseOperator",
    "assemble_elasticity", "assemble_diffusion", "assemble_weighted_mass",
    "unit_elasticity_element", "simp_modulus", "DensityFilter",
    "pcg_solve", "estimate_condition", "SolveReport",
    "build_local_eigproblem", "solve_local_eig_dense", "solve_local_eig_randomized",
    "select_modes", "EigSelection",
    "build_coarse_basis", "assemble_coarse_operator",
    "build_preconditioner", "TwoLevelPreconditioner", "block_split_preconditioner",
    "block_split_condition_bound", "VARIANTS",
    "compliance_and_sensitivity", "oc_update", "optimize", "OptimizeConfig",
    "generate_coefficient", "export_field_image", "read_pgm",
]
