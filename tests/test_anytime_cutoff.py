"""Budgeted reads solve against the cutoff.

Every budgeted evaluation asks the leading bound stage for the same cap
as the exact path and runs the budgeted search against it
(``PairContext.ged_within(budget, cap)``). Sound only if

* the capped, budgeted entry returns ``None`` only when the exact value
  reaches the cap, and otherwise an interval that brackets it, whose
  upper side is a realised mapping when the search was truncated;
* refinement under doubling budgets ends where the unbudgeted capped
  search does; and
* a pair cut on a budgeted read is booked like an exact-path cut (a
  ``solver-cutoff`` prune, absent from the intervals, its cap kept as
  the pair's floor) and the answers stay equal to the exhaustive
  oracle's.
"""

from __future__ import annotations

import math
import time

import pytest

from repro import PairCache, Query, connect
from repro.api.backends import create_backend
from repro.db import GraphDatabase
from repro.engine import anytime
from repro.engine.deadline import Deadline, deadline_scope
from repro.engine.evaluate import pair_values
from repro.engine.plan import RankBoundStage
from repro.graph import Budget, graph_edit_distance, induced_edit_cost
from repro.graph.generators import random_labeled_graph
from repro.measures import base as measures_base
from repro.measures.base import PairContext, resolve_measures
from repro.measures.edit_distance import NormalizedEditDistance
from repro.shard.store import ShardedGraphDatabase
from repro.testkit.oracle import Oracle
from repro.testkit.runner import OffByOneCutoffIndexedBackend
from tests import solver_golden

NODE_BUDGETS = (1, 8, 64, None)


def _caps(distance: float) -> tuple[float, ...]:
    return (
        distance,
        math.nextafter(distance, math.inf),
        distance + 1.0,
        distance - 0.5,
        math.inf,
    )


# ----------------------------------------------------------------------
# The capped, budgeted solver entry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", sorted(solver_golden.COST_MODELS))
def test_capped_budgeted_ged_brackets_or_proves_the_cap(model):
    costs = solver_golden.COST_MODELS[model]
    pairs = solver_golden.exact_pairs()
    assert len(pairs) >= 100
    truncated = cut = 0
    for g1, g2 in pairs:
        exact = graph_edit_distance(g1, g2, costs=costs).distance
        for nodes in NODE_BUDGETS:
            budget = None if nodes is None else Budget(node_limit=nodes)
            for cap in _caps(exact):
                where = (g1.name, g2.name, model, nodes, cap)
                result = PairContext(g1, g2, costs).ged_within(budget, cap)
                if result is None:
                    assert exact >= cap, where
                    cut += 1
                    continue
                interval = result.interval()
                assert interval.lower <= exact + 1e-9, where
                assert exact <= interval.upper + 1e-9, where
                if result.optimal:
                    assert result.distance == exact < cap, where
                    continue
                assert nodes is not None, where
                truncated += 1
                # A truncated upper is a realised mapping, never the cap.
                assert result.found and math.isfinite(interval.upper), where
                realised = induced_edit_cost(g1, g2, result.mapping, costs)
                assert realised <= result.distance + 1e-6, where
    assert truncated > 0 and cut > 0


def test_normalized_edit_distance_at_boundary_caps_under_a_budget():
    measure = NormalizedEditDistance()
    for g1, g2 in solver_golden.exact_pairs()[:40]:
        value = measure.distance(g1, g2)
        for cap in (
            value,
            math.nextafter(value, math.inf),
            math.nextafter(value, -math.inf),
            value + 1e-12,
            0.0,
            1.0,
            math.inf,
        ):
            for nodes in (1, 8, 64):
                below = measure.distance_below(
                    g1, g2, PairContext(g1, g2), cap, Budget(node_limit=nodes)
                )
                if below is None:
                    assert value >= cap, (value, cap, nodes)
                    continue
                assert below.lower <= value + 1e-12, (value, cap, nodes)
                assert value <= below.upper + 1e-12, (value, cap, nodes)
                assert below.lower < cap
            exact = measure.distance_below(g1, g2, PairContext(g1, g2), cap, Budget())
            if value < cap:
                assert exact.settled and exact.upper == value, (value, cap)
            else:
                assert exact is None, (value, cap)


@pytest.mark.parametrize("model", ["uniform", "weighted"])
def test_refinement_under_doubling_budgets_converges_to_the_capped_solve(model):
    costs = solver_golden.COST_MODELS[model]
    for g1, g2 in solver_golden.exact_pairs()[::3]:
        exact = graph_edit_distance(g1, g2, costs=costs).distance
        for cap in _caps(exact):
            expected = PairContext(g1, g2, costs).ged_within(None, cap)
            context = PairContext(g1, g2, costs)
            nodes, previous = 1, None
            while True:
                result = context.ged_within(Budget(node_limit=nodes), cap)
                if result is None or result.optimal:
                    break
                interval = result.interval()
                if previous is not None:
                    assert interval.lower >= previous.lower - 1e-9
                    assert interval.upper <= previous.upper + 1e-9
                previous = interval
                nodes *= 2
            if expected is None:
                assert result is None, (g1.name, g2.name, cap)
            else:
                assert result is not None, (g1.name, g2.name, cap)
                assert result.distance == expected.distance


def test_budgeted_cap_is_asked_with_the_other_dimensions_lower_bounds():
    # An exact vector no worse than a candidate's lower bounds is no
    # worse than its exact values; its upper bounds prove nothing. The
    # cap is asked twice: first on the search-free pair bounds (the
    # pre-cut), then on the solved dimensions' interval lower bounds,
    # which are never below the first.
    class Recording(RankBoundStage):
        def cap(self, values, dim):
            asked.append((list(values), dim))
            return None

    measures = resolve_measures(("mcs", "edit", "union"))
    checked = 0
    for g1, g2 in solver_golden.exact_pairs()[:30]:
        asked = []
        values = pair_values(
            g1, g2, measures, Recording(1), budget=Budget(node_limit=1)
        )
        (first, first_dim), (known, dim) = asked
        assert first_dim == dim == 1
        assert math.isnan(first[1]) and math.isnan(known[1])
        fresh = PairContext(g1, g2)
        for index in (0, 2):
            assert first[index] == measures[index].pair_lower_bound(g1, g2, fresh)
            assert first[index] <= known[index] == values[index].lower
        checked += not (values[0].settled and values[2].settled)
    assert checked > 0


# ----------------------------------------------------------------------
# Budgeted queries with cuts: oracle equality and bookkeeping
# ----------------------------------------------------------------------
def _graphs():
    return [
        random_labeled_graph(
            3 + seed % 3, 2 + seed % 3, vertex_labels=("a", "b"), seed=seed
        )
        for seed in range(40)
    ]


_QUERY = random_labeled_graph(4, 4, vertex_labels=("a", "b"), seed=10_001)


def _builders():
    return [
        Query(_QUERY).skyline(),
        Query(_QUERY).skyband(2),
        Query(_QUERY).topk(3, "edit"),
        Query(_QUERY).threshold(2.0, "edit"),
    ]


def _oracle(graphs) -> Oracle:
    oracle = Oracle()
    for index, graph in enumerate(graphs):
        oracle.add(f"g{index}", graph)
    return oracle


@pytest.mark.parametrize("backend_name", ["indexed", "sharded"])
def test_budgeted_cuts_keep_oracle_answers_and_partition(backend_name):
    graphs = _graphs()
    oracle = _oracle(graphs)
    if backend_name == "sharded":
        database = ShardedGraphDatabase.from_graphs(graphs, name="db", shards=3)
    else:
        database = GraphDatabase.from_graphs(graphs)
    backend = create_backend(backend_name, database)
    cut = 0
    for builder in _builders():
        unbudgeted = backend.run(builder.build())
        for nodes in (1, 64, 5000):
            spec = builder.budget(nodes=nodes).build()
            answer = backend.run(spec)
            assert answer.ids == unbudgeted.ids, (spec.kind, nodes)
            assert [f"g{i}" for i in answer.ids] == oracle.answer(spec)
            if backend_name == "indexed":
                # A shard certifies against its own intervals only; the
                # merge may then flag a correct answer approximate.
                assert answer.approximate is False
            stats = answer.stats
            cut += stats.pruned_by_stage.get("solver-cutoff", 0)
            # Cut ids are prunes, never intervals; together they cover
            # every candidate.
            assert not set(answer.intervals) & set(answer.pruned_ids)
            assert len(answer.intervals) + len(answer.pruned_ids) == (
                stats.candidates_considered
            )
            assert sum(stats.pruned_by_stage.values()) == stats.pruned_by_index
    assert cut > 0


def test_a_second_budgeted_run_cuts_at_the_floor_without_a_search(monkeypatch):
    graphs = _graphs()
    cache = PairCache()
    spec = Query(_QUERY).threshold(2.0, "edit").budget(nodes=5000).build()
    with connect(graphs, backend="indexed", cache=cache) as session:
        first = session.execute(spec)
    cut = first.stats.pruned_by_stage.get("solver-cutoff", 0)
    assert cut > 0
    searches = []
    solve = measures_base.graph_edit_distance

    def spy(*args, **kwargs):
        searches.append(kwargs.get("upper_bound"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(measures_base, "graph_edit_distance", spy)
    with connect(graphs, backend="indexed", cache=cache) as session:
        second = session.execute(spec)
    assert second.ids == first.ids
    assert second.stats.pruned_by_stage.get("solver-cutoff", 0) == cut
    assert searches == []
    assert len(cache) == first.stats.exact_evaluations


def test_tolerant_budgeted_spec_makes_no_cut():
    graphs = _graphs()
    with connect(graphs, backend="indexed") as session:
        for nodes in (1, 64):
            spec = Query(_QUERY).skyline(tolerance=0.25).budget(nodes=nodes).build()
            result = session.execute(spec)
            assert result.stats.pruned_by_stage.get("solver-cutoff", 0) == 0
            assert result.ids == session.execute(
                Query(_QUERY).skyline(tolerance=0.25)
            ).ids


def test_off_by_one_cutoff_diverges_on_budgeted_specs():
    # A cap one float low cuts a pair whose value ties the threshold or
    # the k-th best: the answer keeps it, so the fault must show.
    graphs = _graphs()
    oracle = _oracle(graphs)
    backend = OffByOneCutoffIndexedBackend(GraphDatabase.from_graphs(graphs))
    diverged = []
    for builder in _builders():
        spec = builder.budget(nodes=64).build()
        if [f"g{i}" for i in backend.run(spec).ids] != oracle.answer(spec):
            diverged.append(spec.kind)
    assert "threshold" in diverged


def test_deadline_after_a_pass_of_only_cuts_returns_the_certified_answer(
    monkeypatch,
):
    # Nothing is within 1 of the query, but some index bounds are.
    graphs = [
        graph
        for graph in _graphs()
        if graph_edit_distance(graph, _QUERY).distance > 1.0
    ]
    oracle = _oracle(graphs)
    backend = create_backend("indexed", GraphDatabase.from_graphs(graphs))
    spec = Query(_QUERY).threshold(1.0, "edit").budget(nodes=5000).build()
    assert oracle.answer(spec) == []
    deadline = Deadline.after(60.0)
    solve = anytime.solve_pair

    def expire_after(*args, **kwargs):
        values = solve(*args, **kwargs)
        deadline.expires_at = time.monotonic() - 1.0
        return values

    monkeypatch.setattr(anytime, "solve_pair", expire_after)
    with deadline_scope(deadline):
        answer = backend.run(spec)
    assert deadline.expired()
    assert answer.ids == [] and answer.intervals == {}
    assert answer.approximate is False
    assert answer.stats.pruned_by_stage.get("solver-cutoff", 0) > 0
