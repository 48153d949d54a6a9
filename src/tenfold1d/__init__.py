"""Tenfold-way classification of gapped 1d operators via boundary planes.

A gapped operator on a half-line leaves a Lagrangian plane in the
symplectic space of boundary traces; a canonical splitting turns that
plane into a unitary matrix, symmetries pin the unitary into one of
ten matrix manifolds, and the discrete invariants of those manifolds
count the protected zero modes that appear when two bulks are glued.
This package computes each step and checks the predictions against
finite-size diagonalization.
"""

from . import errors
from .errors import (
    AmbiguousKernel,
    BranchCutHit,
    GapClosed,
    IncompatibleBoundary,
    NoLagrangianPlanes,
    NotInClass,
    NotInGap,
    NotLagrangian,
    NotUnitary,
    ProjectionSingular,
)
from .index import (
    IndexValue,
    bulk_consistency_check,
    topological_index,
)
from .junction import (
    HardJunction,
    JunctionReport,
    continuous_junction_report,
    hard_junction,
    predicted_zero_modes,
    protected_bound,
)
from .linalg import (
    TOL,
    Frame,
    Tolerances,
    hermitian_eig,
    orthonormalize,
    pfaffian,
    principal_log_trace,
    stable_unstable_split,
    subspace_intersection_dim,
)
from .modelfile import (
    ModelFile,
    build_bulk,
    build_profile,
    build_tb,
    parse_model,
    parse_model_text,
)
from .models import (
    BulkData,
    PiecewiseDiracProfile,
    TightBindingModel,
    dirac_bulk,
    dirac_form,
    propagate_plane,
    schrodinger_bulk,
    tb_bulk,
    tb_form,
)
from .symmetry import (
    AntiUnitary,
    CartanClass,
    SymmetrySet,
    canonical_symmetry_basis,
    cartan_class,
    check_J_compatibility,
    membership,
    plane_respects,
    random_member,
    realizable_indices,
    symplectic_grassmannian_check,
)
from .symplectic import (
    CanonicalSplit,
    LagrangianPlane,
    LerayUnitary,
    SymplecticForm,
    canonical_split,
    crossing_dim,
    is_lagrangian,
    plane_to_unitary,
    unitary_to_plane,
)
from .verify import (
    DiscretizationSpec,
    OracleReport,
    count_near_zero_localized,
    discretize_dirac_junction,
    finite_chain,
    oracle_compare,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    # tolerances and frames
    "TOL",
    "Tolerances",
    "Frame",
    "hermitian_eig",
    "orthonormalize",
    "subspace_intersection_dim",
    "stable_unstable_split",
    "pfaffian",
    "principal_log_trace",
    # symplectic boundary spaces
    "SymplecticForm",
    "CanonicalSplit",
    "canonical_split",
    "LagrangianPlane",
    "is_lagrangian",
    "LerayUnitary",
    "plane_to_unitary",
    "unitary_to_plane",
    "crossing_dim",
    # symmetry classes
    "CartanClass",
    "AntiUnitary",
    "SymmetrySet",
    "cartan_class",
    "check_J_compatibility",
    "plane_respects",
    "membership",
    "canonical_symmetry_basis",
    "symplectic_grassmannian_check",
    "random_member",
    "realizable_indices",
    # indices
    "IndexValue",
    "topological_index",
    "bulk_consistency_check",
    # models
    "BulkData",
    "dirac_form",
    "dirac_bulk",
    "schrodinger_bulk",
    "TightBindingModel",
    "tb_form",
    "tb_bulk",
    "PiecewiseDiracProfile",
    "propagate_plane",
    # junctions
    "HardJunction",
    "hard_junction",
    "predicted_zero_modes",
    "protected_bound",
    "JunctionReport",
    "continuous_junction_report",
    # finite-size oracles
    "DiscretizationSpec",
    "discretize_dirac_junction",
    "finite_chain",
    "OracleReport",
    "count_near_zero_localized",
    "oracle_compare",
    # model files
    "ModelFile",
    "parse_model",
    "parse_model_text",
    "build_bulk",
    "build_tb",
    "build_profile",
    # common exceptions
    "AmbiguousKernel",
    "BranchCutHit",
    "GapClosed",
    "IncompatibleBoundary",
    "NoLagrangianPlanes",
    "NotInClass",
    "NotInGap",
    "NotLagrangian",
    "NotUnitary",
    "ProjectionSingular",
]
