import importlib
import pkgutil

import pytest

import tenfold1d

MODULES = [tenfold1d] + [
    importlib.import_module(f"tenfold1d.{info.name}")
    for info in pkgutil.iter_modules(tenfold1d.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    # nothing star-imports the package, so a stale entry would go unnoticed
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_top_level_names():
    # README's names, the acceptance gate's imports and the tolerances;
    # everything else is imported from its submodule
    assert set(tenfold1d.__all__) == {
        "__version__", "errors", "TOL", "Tolerances",
        # README
        "SymplecticForm", "canonical_split", "LagrangianPlane", "dirac_form",
        "plane_to_unitary", "unitary_to_plane", "crossing_dim", "membership",
        "topological_index", "bulk_consistency_check", "dirac_bulk",
        "schrodinger_bulk", "tb_bulk", "propagate_plane", "hard_junction",
        "predicted_zero_modes", "protected_bound", "continuous_junction_report",
        "discretize_dirac_junction", "finite_chain", "count_near_zero_localized",
        "oracle_compare",
        # tests/test_acceptance.py
        "BranchCutHit", "DiscretizationSpec", "PiecewiseDiracProfile",
        "TightBindingModel", "canonical_symmetry_basis", "pfaffian",
        "plane_respects", "principal_log_trace", "random_member",
        "realizable_indices", "subspace_intersection_dim",
    }
