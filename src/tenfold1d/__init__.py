"""Tenfold-way classification of gapped 1d operators via boundary planes.

A gapped operator on a half-line leaves a Lagrangian plane in the
symplectic space of boundary traces; a canonical splitting turns that
plane into a unitary matrix, symmetries pin the unitary into one of
ten matrix manifolds, and the discrete invariants of those manifolds
count the protected zero modes that appear when two bulks are glued.
This package computes each step and checks the predictions against
finite-size diagonalization.

The names below are the documented entry points; every other public
name lives in its submodule (``tenfold1d.errors.GapClosed``,
``tenfold1d.linalg.Frame``, ``tenfold1d.symmetry.CartanClass``, ...).
"""

from . import errors
from .errors import BranchCutHit
from .index import bulk_consistency_check, topological_index
from .junction import (
    continuous_junction_report,
    hard_junction,
    predicted_zero_modes,
    protected_bound,
)
from .linalg import (
    TOL,
    Tolerances,
    pfaffian,
    principal_log_trace,
    subspace_intersection_dim,
)
from .models import (
    PiecewiseDiracProfile,
    TightBindingModel,
    dirac_bulk,
    dirac_form,
    propagate_plane,
    schrodinger_bulk,
    tb_bulk,
)
from .symmetry import (
    canonical_symmetry_basis,
    membership,
    plane_respects,
    random_member,
    realizable_indices,
)
from .symplectic import (
    LagrangianPlane,
    SymplecticForm,
    canonical_split,
    crossing_dim,
    plane_to_unitary,
    unitary_to_plane,
)
from .verify import (
    DiscretizationSpec,
    count_near_zero_localized,
    discretize_dirac_junction,
    finite_chain,
    oracle_compare,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    "BranchCutHit",
    # tolerances and linear algebra
    "TOL",
    "Tolerances",
    "subspace_intersection_dim",
    "pfaffian",
    "principal_log_trace",
    # symplectic boundary spaces
    "SymplecticForm",
    "canonical_split",
    "LagrangianPlane",
    "plane_to_unitary",
    "unitary_to_plane",
    "crossing_dim",
    # symmetry classes
    "plane_respects",
    "membership",
    "canonical_symmetry_basis",
    "random_member",
    "realizable_indices",
    # indices
    "topological_index",
    "bulk_consistency_check",
    # models
    "dirac_form",
    "dirac_bulk",
    "schrodinger_bulk",
    "TightBindingModel",
    "tb_bulk",
    "PiecewiseDiracProfile",
    "propagate_plane",
    # junctions
    "hard_junction",
    "predicted_zero_modes",
    "protected_bound",
    "continuous_junction_report",
    # finite-size oracles
    "DiscretizationSpec",
    "discretize_dirac_junction",
    "finite_chain",
    "count_near_zero_localized",
    "oracle_compare",
]
