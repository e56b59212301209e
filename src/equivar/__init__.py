"""Exact invariant theory for finite rational matrix groups.

Compute generators of invariant polynomial rings, module generators of
equivariant polynomial vector fields, and reductions of invariant dynamics
to the orbit space, all in exact rational arithmetic.
"""

from .actions import (
    ACTIONS,
    PHI_DAGGER,
    PSI,
    THETA,
    InvarianceCheck,
    PolyVectorField,
    act_phi_dagger,
    act_psi,
    act_theta,
    infer_action,
    is_invariant,
    pairing,
    reynolds,
    unpairing,
    xilinear_monomials,
)
from .equivariants import (
    EquivariantGens,
    equivariant_basis,
    equivariant_module_generators,
    express_equivariant,
)
from .errors import (
    ClosureExceedsCap,
    DimensionMismatch,
    DimensionMismatchWithMolien,
    EquivarError,
    NonFiniteState,
    NonInvertibleGenerator,
    NoSolution,
    NotInvariant,
    NotXiLinear,
    ParseError,
)
from .groups import DEFAULT_CAP, MatGroup, close_group
from .invariants import (
    InvariantGens,
    RelationSet,
    express,
    invariant_basis,
    invariant_ring_generators,
    relations,
)
from .linalg import RatMatrix, block_diag
from .molien import MolienSeries, molien, molien_equivariant
from .poly import MultiPoly, grlex_key, monomials_of_degree, variables, weighted_monomials
from .reduction import (
    RelatednessCheck,
    ReducedSystem,
    TrajectoryReport,
    check_related,
    integrate_pair,
    reduce_field,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIONS",
    "PHI_DAGGER",
    "PSI",
    "THETA",
    "ClosureExceedsCap",
    "DEFAULT_CAP",
    "DimensionMismatch",
    "DimensionMismatchWithMolien",
    "EquivarError",
    "EquivariantGens",
    "InvarianceCheck",
    "InvariantGens",
    "MatGroup",
    "MolienSeries",
    "MultiPoly",
    "NoSolution",
    "NonFiniteState",
    "NonInvertibleGenerator",
    "NotInvariant",
    "NotXiLinear",
    "ParseError",
    "PolyVectorField",
    "RatMatrix",
    "ReducedSystem",
    "RelatednessCheck",
    "RelationSet",
    "TrajectoryReport",
    "act_phi_dagger",
    "act_psi",
    "act_theta",
    "block_diag",
    "check_related",
    "close_group",
    "equivariant_basis",
    "equivariant_module_generators",
    "express",
    "express_equivariant",
    "grlex_key",
    "infer_action",
    "integrate_pair",
    "invariant_basis",
    "invariant_ring_generators",
    "is_invariant",
    "molien",
    "molien_equivariant",
    "monomials_of_degree",
    "pairing",
    "reduce_field",
    "relations",
    "reynolds",
    "unpairing",
    "variables",
    "weighted_monomials",
    "xilinear_monomials",
]
