"""The GED bracket: one assignment per pair, solved before any search.

``PairContext.ged_bracket()`` solves the bipartite assignment once. Its
optimum is a lower bound (BRANCH) under the uniform model with integral
prices, and the induced cost of its mapping is an upper bound (DF-GED's
seed) under every model. ``EditDistance.distance_below`` cuts a pair whose
lower side reaches the cap and settles one whose bracket is closed, in
both cases without calling the exact solver. Sound only if

* ``lower <= exact <= upper`` for every pair and cost model, with labels
  matched by equality (``1``, ``1.0`` and ``True`` are one label);
* the seed handed from the bracket to the search is the one the search
  would have computed itself, so the pinned search trees do not move.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings

from repro.graph import Budget, LabeledGraph, graph_edit_distance, graph_from_dict
from repro.graph.budget import Interval
from repro.graph.operations import UniformCostModel
from repro.measures import base as measures_base
from repro.measures.base import PairContext
from repro.measures.edit_distance import EditDistance, NormalizedEditDistance
from tests import solver_golden
from tests.conftest import small_labeled_graphs

pytest.importorskip("scipy")

#: Equal-by-``==`` spellings beside plain strings: the bracket must match
#: labels the way the cost models and the search do.
MIXED_VERTEX_LABELS = (1, 1.0, True, "C", "N")
MIXED_EDGE_LABELS = (1, True, 1.0, "single", "double")


def _claims_lower(costs) -> bool:
    return (
        isinstance(costs, UniformCostModel)
        and costs.indel_cost.is_integer()
        and costs.mismatch_cost.is_integer()
    )


@pytest.mark.parametrize("model", sorted(solver_golden.COST_MODELS))
@settings(max_examples=40, deadline=None)
@given(
    g1=small_labeled_graphs(5, MIXED_VERTEX_LABELS, MIXED_EDGE_LABELS),
    g2=small_labeled_graphs(5, MIXED_VERTEX_LABELS, MIXED_EDGE_LABELS),
)
def test_bracket_holds_the_exact_distance(model, g1, g2):
    costs = solver_golden.COST_MODELS[model]
    bracket = PairContext(g1, g2, costs).ged_bracket()
    exact = graph_edit_distance(g1, g2, costs=costs).distance
    assert exact <= bracket.upper + 1e-9
    if _claims_lower(costs):
        assert bracket.lower <= exact
        assert bracket.lower == math.floor(bracket.lower)
    else:
        assert bracket.lower == 0.0
    if bracket.settled:
        assert bracket.upper == exact


def test_bracket_of_empty_and_identical_graphs_is_closed():
    g = LabeledGraph.from_edges([(0, 1, "x"), (1, 2, "y")], {0: "a", 1: "b", 2: 1})
    empty = LabeledGraph()
    for g1, g2, want in ((empty, empty, 0.0), (g, g.copy(), 0.0), (empty, g, 5.0)):
        bracket = PairContext(g1, g2).ged_bracket()
        assert (bracket.lower, bracket.upper) == (want, want)
        assert bracket.settled


def test_bracket_agrees_with_networkx_on_small_uniform_pairs():
    pytest.importorskip("networkx")
    checked = 0
    for g1, g2 in solver_golden.exact_pairs():
        if max(g1.order, g2.order) > 6:
            continue
        bracket = PairContext(g1, g2).ged_bracket()
        reference = solver_golden.networkx_ged(g1, g2, cap=bracket.upper + 0.5)
        assert reference is not None
        assert bracket.lower <= reference <= bracket.upper, (g1.name, g2.name)
        checked += 1
        if checked == 40:
            break
    assert checked == 40


def _spy(monkeypatch) -> list:
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[:2])
        return graph_edit_distance(*args, **kwargs)

    monkeypatch.setattr(measures_base, "graph_edit_distance", spy)
    return calls


def test_decided_pairs_never_reach_the_search(monkeypatch):
    calls = _spy(monkeypatch)
    measure = EditDistance()
    settled = cut = searched = 0
    for g1, g2 in solver_golden.exact_pairs():
        bracket = PairContext(g1, g2).ged_bracket()
        exact = graph_edit_distance(g1, g2).distance
        if bracket.settled:
            for budget in (None, Budget(node_limit=0)):
                calls.clear()
                value = measure.distance_below(g1, g2, PairContext(g1, g2), budget=budget)
                want = exact if budget is None else Interval.exact(exact)
                assert value == want
                assert calls == []
            settled += 1
            continue
        if bracket.lower > 0:
            for budget in (None, Budget(node_limit=0)):
                calls.clear()
                value = measure.distance_below(
                    g1, g2, PairContext(g1, g2), bracket.lower, budget
                )
                assert value is None and exact >= bracket.lower
                assert calls == []
            cut += 1
        calls.clear()
        assert measure.distance_below(g1, g2, PairContext(g1, g2)) == exact
        assert len(calls) == 1  # an open bracket searches, once
        searched += 1
    assert settled > 20 and cut > 20 and searched > 20


def test_normalized_edit_distance_cuts_through_the_bracket(monkeypatch):
    calls = _spy(monkeypatch)
    measure = NormalizedEditDistance()
    cut = 0
    for g1, g2 in solver_golden.exact_pairs():
        lower = PairContext(g1, g2).ged_bracket().lower
        if lower == 0:
            continue
        calls.clear()
        # The normalised cap maps to a raw one a relative 1e-8 high; half
        # a unit below the lower side stays below it.
        cap = (lower - 0.5) / (0.5 + lower)
        assert measure.distance_below(g1, g2, PairContext(g1, g2), cap) is None
        assert calls == []
        cut += 1
    assert cut > 20


def test_seed_hand_off_leaves_the_solver_golden_byte_identical():
    # Re-derive every exact and budgeted GED call of the golden through
    # PairContext, whose seeded runs take the bracket's mapping instead
    # of solving the assignment again, and re-serialise the file.
    entries = solver_golden.load()
    for entry in entries:
        g1, g2 = graph_from_dict(entry["g1"]), graph_from_dict(entry["g2"])
        calls = entry["calls"]
        for name in list(calls):
            parts = name.split("/")
            if parts[0] != "ged" or len(parts) > 3:
                continue
            costs = solver_golden.COST_MODELS[parts[1]]
            context = PairContext(g1, g2, costs)
            if len(parts) == 2:
                result = context.ged
            elif parts[2].startswith("budget="):
                nodes = int(parts[2].removeprefix("budget="))
                result = context.ged_within(Budget(node_limit=nodes))
            else:
                continue
            calls[name] = solver_golden.ged_fields(result)
    text = json.dumps({"pairs": entries}, separators=(",", ":")) + "\n"
    golden = solver_golden.GOLDEN_PATH.read_text()
    if text != golden:  # not a bare assert: pytest would diff two 1 MB lines
        first = next(i for i, (a, b) in enumerate(zip(text, golden)) if a != b)
        pytest.fail(f"first difference at byte {first}: {text[first:first + 200]!r}")


def test_a_candidate_bound_at_the_cap_cuts_before_the_bracket(monkeypatch):
    # Once a candidate's MCS dimensions are exact, the skyline cap on its
    # edit distance can fall to its optimistic bound: it is cut there,
    # without an assignment. One vertex label and one edge label make
    # every edge one type, so the index's |mcs| bound stays the size
    # overlap and leaves such candidates to the evaluator.
    from repro import Query, connect
    from repro.graph.generators import random_labeled_graph

    brackets = []
    solve = PairContext.ged_bracket

    def spy(self):
        brackets.append((self.g1, self.g2))
        return solve(self)

    monkeypatch.setattr(PairContext, "ged_bracket", spy)
    graphs = [
        random_labeled_graph(
            4 + seed % 3, 5 + seed % 3, vertex_labels=("a",), seed=seed
        )
        for seed in range(40)
    ]
    query = random_labeled_graph(6, 7, vertex_labels=("a",), seed=10_001)
    with connect(graphs, backend="indexed") as session:
        stats = session.execute(Query(query).skyline()).stats
    solved = stats.exact_evaluations + stats.pruned_by_stage.get("solver-cutoff", 0)
    assert 0 < len(brackets) < solved
