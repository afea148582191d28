"""Release hygiene: registry-wide measure axioms and public API integrity."""

import inspect

import pytest

import repro
import repro.core
import repro.db
import repro.graph
import repro.measures
import repro.skyline
from repro.graph import is_isomorphic
from repro.measures import available_measures, get_measure
from tests.conftest import make_random_graph


# ----------------------------------------------------------------------
# Every registered measure obeys the basic axioms on a sample
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sample_graphs():
    return [make_random_graph(seed, max_vertices=5) for seed in range(5)]


@pytest.mark.parametrize("name", ["edit", "edit-normalized", "mcs", "union"])
def test_registered_measure_axioms(name, sample_graphs):
    measure = get_measure(name)
    for graph in sample_graphs:
        twin = graph.copy()
        assert is_isomorphic(graph, twin)
        assert measure.distance(graph, twin) == pytest.approx(0.0, abs=1e-9), (
            f"{name} violates identity on isomorphic graphs"
        )
    for i, g1 in enumerate(sample_graphs):
        for g2 in sample_graphs[i + 1:]:
            forward = measure.distance(g1, g2)
            backward = measure.distance(g2, g1)
            assert forward == pytest.approx(backward), f"{name} asymmetric"
            assert forward >= -1e-12, f"{name} negative"
            if measure.normalized:
                assert forward <= 1.0 + 1e-9, f"{name} exceeds [0, 1]"


def test_registry_covers_expected_measures():
    assert set(available_measures()) >= {"edit", "edit-normalized", "mcs", "union"}


# ----------------------------------------------------------------------
# __all__ integrity
# ----------------------------------------------------------------------
def _module(name: str):
    # repro.skyline the *module* is shadowed on the package by the
    # re-exported skyline() *function* (a datetime.datetime-style alias);
    # sys.modules always holds the real module.
    import importlib

    return importlib.import_module(name)


@pytest.mark.parametrize("module", [
    _module("repro"),
    _module("repro.graph"),
    _module("repro.measures"),
    _module("repro.skyline"),
    _module("repro.core"),
    _module("repro.db"),
], ids=lambda m: m.__name__)
def test_dunder_all_resolvable(module):
    assert module.__all__, f"{module.__name__} has an empty __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name} missing"
    assert len(set(module.__all__)) == len(module.__all__), "duplicate exports"


#: The public packages whose surface the product owns.
PUBLIC_PACKAGES = ("repro", "repro.graph", "repro.measures", "repro.core", "repro.index")

#: Names these packages no longer offer: deleted, or moved to
#: ``repro.testkit.reference`` because only tests compare against them.
WITHDRAWN = (
    "ged", "GedEstimate", "bipartite_ged", "ged_lower_bound",
    "find_subgraph_isomorphism", "is_subgraph_isomorphic",
    "count_subgraph_isomorphisms", "verify_embedding",
    "grid_graph", "star_graph", "mutation_database",
    "graph_to_text", "graph_from_text", "batch_bound_pruning",
    "WeightedSumMeasure", "ChebyshevMeasure",
    "weighted_sum_ranking_is_skyline_subset",
    "similarity_dominates", "similarity_incomparable",
    "graph_edit_distance_astar", "maximum_common_subgraph_clique",
    "edit_distance_lower_bound", "mcs_upper_bound",
    "dist_mcs_lower_bound", "dist_gu_lower_bound",
    "PropertyReport", "check_measure_properties", "check_gu_dominated_by_mcs",
)


@pytest.mark.parametrize("name", PUBLIC_PACKAGES)
def test_public_packages_export_nothing_from_the_testkit(name):
    module = _module(name)
    for export in module.__all__:
        owner = getattr(getattr(module, export), "__module__", None) or ""
        assert not owner.startswith("repro.testkit"), f"{name}.{export} is {owner}'s"


@pytest.mark.parametrize("name", PUBLIC_PACKAGES)
def test_withdrawn_names_do_not_resolve(name):
    module = _module(name)
    for withdrawn in WITHDRAWN:
        assert withdrawn not in module.__all__, f"{name} exports {withdrawn}"
        # A submodule of the same name (``repro.graph.ged``) may resolve.
        value = getattr(module, withdrawn, None)
        assert value is None or inspect.ismodule(value), f"{name}.{withdrawn}"


def test_import_as_yields_the_ged_submodule():
    import repro.graph.ged as ged_module

    assert inspect.ismodule(ged_module)
    assert ged_module.graph_edit_distance is repro.graph.graph_edit_distance


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_star_import_surface():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate
    assert "graph_similarity_skyline" in namespace
    assert "refine_by_diversity" in namespace
    assert "LabeledGraph" in namespace
