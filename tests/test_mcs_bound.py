"""The |mcs| bound: certified before McGregor, and where McGregor stops.

``mcs_edge_bound`` bounds ``|mcs|`` from one vertex-pair relaxation with
no search. ``PairContext.mcs_upper()`` memoises it, hands it to every MCS
run of the pair as the value at which the search may stop, and gives
``DistMcs`` / ``DistGu`` a search-free lower bound for the engine's
pre-cut. Sound only if

* the bound is never below the exact ``|mcs|``, with labels matched by
  equality (``1``, ``1.0`` and ``True`` are one label);
* a search that stops at the bound reports the exact size, and a
  truncated one never certifies more than the bound;
* the bare solver calls pinned in ``tests/data/solver_golden.json`` do not
  change.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.graph import Budget, LabeledGraph, graph_from_dict, maximum_common_subgraph
from repro.graph.mcs import mcs_edge_bound
from repro.graph.pairview import PairView
from repro.measures.base import PairContext
from repro.measures.graph_union import GraphUnionDistance
from repro.measures.mcs_distance import McsDistance
from tests import solver_golden
from tests.conftest import small_labeled_graphs

#: Equal-by-``==`` spellings beside plain strings.
MIXED_VERTEX_LABELS = (1, 1.0, True, "C", "N")
MIXED_EDGE_LABELS = (1, True, 1.0, "single", "double")

#: Node limits, and a wall clock that expired before the search began.
BUDGETS = (
    Budget(node_limit=0),
    Budget(node_limit=1),
    Budget(node_limit=8),
    Budget(node_limit=64),
    Budget(expires_at=0.0),
)


def _bound(g1: LabeledGraph, g2: LabeledGraph) -> int:
    return mcs_edge_bound(PairView(g1, g2))


@settings(max_examples=80, deadline=None)
@given(
    g1=small_labeled_graphs(6, MIXED_VERTEX_LABELS, MIXED_EDGE_LABELS),
    g2=small_labeled_graphs(6, MIXED_VERTEX_LABELS, MIXED_EDGE_LABELS),
)
def test_bound_is_never_below_the_exact_mcs(g1, g2):
    exact = maximum_common_subgraph(g1, g2)
    bound = _bound(g1, g2)
    assert exact.size <= bound <= min(g1.size, g2.size)
    # Stopping at the bound (or at the exact size) changes no size.
    for upper in {bound, exact.size}:
        stopped = maximum_common_subgraph(g1, g2, _upper=upper)
        assert stopped.optimal and stopped.size == exact.size


@settings(max_examples=30, deadline=None)
@given(
    g1=small_labeled_graphs(5, MIXED_VERTEX_LABELS, MIXED_EDGE_LABELS),
    g2=small_labeled_graphs(5, MIXED_VERTEX_LABELS, MIXED_EDGE_LABELS),
)
def test_bound_holds_against_the_clique_solver(g1, g2):
    pytest.importorskip("networkx")
    from repro.graph import maximum_common_subgraph_clique

    assert maximum_common_subgraph_clique(g1, g2).size <= _bound(g1, g2)


def test_bound_holds_against_the_stored_clique_references():
    checked = 0
    for entry in solver_golden.load():
        reference = entry.get("reference")
        if reference is None:
            continue
        g1, g2 = graph_from_dict(entry["g1"]), graph_from_dict(entry["g2"])
        assert reference["clique"] <= _bound(g1, g2)
        checked += 1
    assert checked > 0


def test_bound_is_tight_on_identical_graphs_and_zero_without_common_labels():
    g = LabeledGraph.from_edges(
        [(0, 1, "x"), (1, 2, "y"), (2, 0, 1)], {0: "a", 1: "b", 2: True}
    )
    assert _bound(g, g.copy()) == g.size == maximum_common_subgraph(g, g).size
    other = LabeledGraph.from_edges([(0, 1, "x")], {0: "c", 1: "d"})
    assert _bound(g, other) == 0
    assert _bound(g, LabeledGraph()) == 0


def test_context_mcs_equals_the_bare_call_on_every_golden_exact_pair():
    stopped_early = 0
    for g1, g2 in solver_golden.exact_pairs():
        bare = maximum_common_subgraph(g1, g2)
        context = PairContext(g1, g2)
        bound = context.mcs_upper()
        assert bare.size <= bound
        assert context.mcs.optimal and context.mcs.size == bare.size
        # Once solved, the context's bound is the exact size.
        assert context.mcs_upper() == bare.size
        stopped_early += bound == bare.size
    assert stopped_early > 0


def test_budgeted_mcs_never_certifies_more_than_the_bound():
    for g1, g2 in solver_golden.exact_pairs()[::2]:
        exact = maximum_common_subgraph(g1, g2).size
        for budget in BUDGETS:
            context = PairContext(g1, g2)
            bound = context.mcs_upper()
            result = context.mcs_within(budget)
            low, high = result.size_interval()
            assert low <= exact <= high <= bound, (g1.name, g2.name, budget)
            # Refinement keeps the interval inside the bound.
            low, high = context.mcs_within(Budget(node_limit=64)).size_interval()
            assert low <= exact <= high <= bound


def test_mcs_measures_lower_bounds_come_from_the_bound():
    for g1, g2 in solver_golden.exact_pairs()[:60]:
        for measure in (McsDistance(), GraphUnionDistance()):
            lower = measure.pair_lower_bound(g1, g2, PairContext(g1, g2))
            assert 0.0 <= lower <= measure.distance(g1, g2) + 1e-12
