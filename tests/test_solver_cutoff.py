"""Solving against the cutoff: bound-stage caps and bounded GED search.

The serial evaluator asks the run's leading bound stage for a cap on one
dimension and solves it with the cap as DF-GED's incumbent; a pair that
reaches the cap is pruned as ``solver-cutoff``. Sound only if

* the cap is exactly where the stage's own rule starts to prune the
  candidate's exact vector (checked against brute-force dominance), and
* the bounded search returns ``None`` exactly when the value reaches the
  cap, and otherwise the unbounded run's distance and mapping.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import PairCache, Query, connect
from repro.db.cache import QueryCache
from repro.engine.plan import ParetoPruneStage, RankBoundStage, ThresholdBoundStage
from repro.engine.workers import FrontierCutoff, FrontierJudge
from repro.graph import graph_edit_distance
from repro.graph.generators import random_labeled_graph
from repro.measures import base as measures_base
from repro.measures.base import PairContext
from repro.measures.edit_distance import EditDistance, NormalizedEditDistance
from repro.skyline.utils import dominates
from repro.testkit.oracle import Oracle
from tests import solver_golden


# ----------------------------------------------------------------------
# Stage caps
# ----------------------------------------------------------------------
def _pareto_stages(prune_limit: int, tolerance: float = 0.0):
    stages = [ParetoPruneStage(prune_limit, tolerance)]
    try:
        from repro.index.source import BatchParetoStage
    except ImportError:  # pragma: no cover - NumPy-free leg
        return stages
    return stages + [BatchParetoStage(prune_limit, tolerance)]


def _brute_force_cap(exact, values, dim, prune_limit):
    """Smallest ``x`` at which ``prune_limit`` vectors dominate the
    candidate with ``values[dim] = x``; the dominator count only steps
    at a vector's own value or just past it."""
    points = {-math.inf, math.inf}
    for vector in exact:
        if not math.isnan(vector[dim]):
            points.update((vector[dim], math.nextafter(vector[dim], math.inf)))
    for x in sorted(points):
        candidate = list(values)
        candidate[dim] = x
        if sum(dominates(vector, candidate) for vector in exact) >= prune_limit:
            return x
    return None


_COORDINATE = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, math.nan, math.inf, -math.inf])


@given(
    data=st.data(),
    dims=st.integers(1, 3),
    prune_limit=st.sampled_from([1, 1, 2, 3]),
)
def test_pareto_cap_is_where_dominator_count_reaches_the_limit(data, dims, prune_limit):
    vector = st.tuples(*[_COORDINATE] * dims)
    exact = data.draw(st.lists(vector, max_size=8))
    values = data.draw(vector)
    dim = data.draw(st.integers(0, dims - 1))
    expected = _brute_force_cap(exact, values, dim, prune_limit)
    for stage in _pareto_stages(prune_limit):
        for graph_id, observed in enumerate(exact):
            stage.observe(graph_id, observed)
        assert stage.cap(values, dim) == expected, type(stage).__name__
    # The pool's shared frontier applies the same rule.
    frontier = FrontierCutoff(FrontierJudge("pareto", prune_limit), dict(enumerate(exact)))
    assert frontier.cap(values, dim) == expected


@given(
    best=st.lists(_COORDINATE, max_size=8),
    k=st.integers(1, 4),
)
def test_rank_frontier_cap_is_where_k_values_are_strictly_better(best, k):
    # FrontierJudge("rank") prunes once k published values are strictly
    # below the candidate's; its cap is the smallest such value.
    points = sorted({-math.inf, math.inf} | {
        x for value in best if not math.isnan(value)
        for x in (value, math.nextafter(value, math.inf))
    })
    expected = next(
        (x for x in points if sum(value < x for value in best) >= k), None
    )
    frontier = FrontierCutoff(
        FrontierJudge("rank", k), {i: (value,) for i, value in enumerate(best)}
    )
    assert frontier.cap((math.nan,), 0) == expected


_FINITE_OR_INF = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, math.inf])


def _no_cap_is_highest(cap: float | None) -> float:
    return math.inf if cap is None else cap


@given(
    data=st.data(),
    dims=st.integers(2, 3),
    limit=st.sampled_from([1, 1, 2, 3]),
)
def test_lowering_the_other_dimensions_never_lowers_a_cap(data, dims, limit):
    # The engine's pre-cut asks the cap with every other dimension at a
    # lower bound of its exact value; it may cut only because that cap
    # is never below the cap of the exact values.
    vector = st.tuples(*[_COORDINATE] * dims)
    exact = data.draw(st.lists(vector, max_size=8))
    values = list(data.draw(st.tuples(*[_FINITE_OR_INF] * dims)))
    dim = data.draw(st.integers(0, dims - 1))
    lowered = [
        value if index == dim else data.draw(
            st.sampled_from([x for x in (-math.inf, 0.0, 0.5, 1.0, 2.0, value)
                             if x <= value])
        )
        for index, value in enumerate(values)
    ]
    values[dim] = lowered[dim] = math.nan
    stages = _pareto_stages(limit) + [RankBoundStage(limit), ThresholdBoundStage(1.0)]
    for stage in stages:
        for graph_id, observed in enumerate(exact):
            stage.observe(graph_id, observed)
    vectors = dict(enumerate(exact))
    stages += [
        FrontierCutoff(FrontierJudge("pareto", limit), vectors),
        FrontierCutoff(FrontierJudge("rank", limit), vectors),
    ]
    for stage in stages:
        assert _no_cap_is_highest(stage.cap(lowered, dim)) >= _no_cap_is_highest(
            stage.cap(values, dim)
        ), type(stage).__name__


def test_pareto_cap_ties_and_tolerance():
    for stage in _pareto_stages(1):
        assert stage.cap((math.nan, 0.5), 0) is None  # nothing observed
        stage.observe(0, (2.0, 0.5))
        # Equal elsewhere: only a value past 2.0 is dominated.
        assert stage.cap((math.nan, 0.5), 0) == math.nextafter(2.0, math.inf)
        # Strictly better elsewhere: 2.0 itself is dominated.
        assert stage.cap((math.nan, 0.75), 0) == 2.0
        # Worse elsewhere: no cap.
        assert stage.cap((math.nan, 0.25), 0) is None
    for stage in _pareto_stages(1, tolerance=0.1):
        stage.observe(0, (2.0, 0.5))
        assert stage.cap((math.nan, 0.75), 0) is None


def test_rank_and_threshold_caps_still_solve_ties():
    stage = RankBoundStage(2)
    stage.observe(0, (3.0,))
    assert stage.cap((math.nan,), 0) is None  # fewer than k values
    stage.observe(1, (1.0,))
    assert stage.cap((math.nan,), 0) == math.nextafter(3.0, math.inf)
    assert ThresholdBoundStage(2.0).cap((math.nan,), 0) == math.nextafter(2.0, math.inf)
    assert ThresholdBoundStage(math.nan).cap((math.nan,), 0) is None
    # Nothing is above +inf: no cap, so an infinite value is not cut.
    assert ThresholdBoundStage(math.inf).cap((math.nan,), 0) is None
    stage = RankBoundStage(1)
    stage.observe(0, (math.inf,))
    assert stage.cap((math.nan,), 0) is None


# ----------------------------------------------------------------------
# Bounded GED search
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", sorted(solver_golden.COST_MODELS))
def test_capped_ged_is_none_iff_the_exact_value_reaches_the_cap(model):
    costs = solver_golden.COST_MODELS[model]
    pairs = solver_golden.exact_pairs()
    assert len(pairs) >= 100
    for g1, g2 in pairs:
        exact = graph_edit_distance(g1, g2, costs=costs)
        distance = exact.distance
        for cap in (
            distance,
            math.nextafter(distance, math.inf),
            distance + 1.0,
            distance - 0.5,
            math.inf,
        ):
            context = PairContext(g1, g2, costs)
            result = context.ged_within(None, cap)
            if distance >= cap:
                assert result is None, (g1.name, g2.name, model, cap)
                # Only a found (hence exact) result is ever memoised.
                memo = context._ged
                assert memo is None or (
                    memo.distance == distance and memo.mapping == exact.mapping
                )
                continue
            assert result is not None, (g1.name, g2.name, model, cap)
            assert result.distance == distance
            assert result.mapping == exact.mapping
            assert context.ged is result
            measure = EditDistance(costs)
            assert measure.distance_below(g1, g2, None, cap) == distance


def test_normalized_edit_distance_at_boundary_caps():
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
            below = measure.distance_below(g1, g2, PairContext(g1, g2), cap)
            assert below == (value if value < cap else None), (value, cap)


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def _database():
    return [
        random_labeled_graph(
            3 + seed % 3, 2 + seed % 3, vertex_labels=("a", "b"), seed=seed
        )
        for seed in range(40)
    ]


def _specs(query):
    return [
        Query(query).skyline().build(),
        Query(query).skyband(2).build(),
        Query(query).topk(3, "edit").build(),
        Query(query).threshold(2.0, "edit").build(),
        Query(query).threshold(0.6, "edit-normalized").build(),
    ]


def test_cutoffs_without_scipy_stay_oracle_equal(monkeypatch):
    # Without SciPy an unbounded solve seeds from the full rewrite; a
    # bounded one has no seed either way. Both must keep oracle answers.
    from repro.graph import ged_approx

    def no_scipy(*args, **kwargs):
        raise ImportError("scipy disabled")

    monkeypatch.setattr(ged_approx, "_bipartite_estimate", no_scipy)
    graphs = _database()
    query = random_labeled_graph(4, 4, vertex_labels=("a", "b"), seed=10_001)
    oracle = Oracle()
    for index, graph in enumerate(graphs):
        oracle.add(f"g{index}", graph)
    cut = 0
    with connect(graphs, backend="indexed") as session:
        for spec in _specs(query):
            result = session.execute(spec)
            expected = oracle.answer(spec)
            assert [f"g{graph_id}" for graph_id in result.ids] == expected, spec.kind
            cut += result.stats.pruned_by_stage.get("solver-cutoff", 0)
    assert cut > 0


def test_cut_pairs_are_pruned_not_evaluated_and_not_cached():
    graphs = _database()
    query = random_labeled_graph(4, 4, vertex_labels=("a", "b"), seed=10_001)
    cache = PairCache()
    with connect(graphs, backend="indexed", cache=cache) as session:
        result = session.execute(Query(query).topk(3, "edit"))
    stats = result.stats
    cut = stats.pruned_by_stage.get("solver-cutoff", 0)
    assert cut > 0
    # Isomorphic duplicates are served from the cache.
    assert stats.pruned_by_index + stats.exact_evaluations + (
        stats.served_from_cache
    ) == stats.candidates_considered
    assert sum(stats.pruned_by_stage.values()) == stats.pruned_by_index
    assert len(cache) == stats.exact_evaluations


def test_a_second_run_cuts_at_the_floor_without_a_search(monkeypatch):
    graphs = _database()
    query = random_labeled_graph(4, 4, vertex_labels=("a", "b"), seed=10_001)
    cache = PairCache()
    spec = Query(query).threshold(2.0, "edit").build()
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
    # A new session (no stored answer) over the same cache: solved pairs
    # are served, cut pairs are cut again at their floors.
    with connect(graphs, backend="indexed", cache=cache) as session:
        second = session.execute(spec)
    assert second.ids == first.ids
    assert second.stats.pruned_by_stage.get("solver-cutoff", 0) == cut
    assert searches == []
    # Floors are neither cached values nor hits.
    assert len(cache) == first.stats.exact_evaluations


def test_floors_never_cut_a_pair_below_a_later_cap():
    # Each run leaves floors at its own caps; a later run with a looser
    # cutoff over the same cache must still solve what it keeps.
    graphs = _database()
    query = random_labeled_graph(4, 4, vertex_labels=("a", "b"), seed=10_001)
    oracle = Oracle()
    for index, graph in enumerate(graphs):
        oracle.add(f"g{index}", graph)
    cache = PairCache()
    # Edit distances here are 1-5 (uniform costs): each threshold keeps
    # pairs the previous one cut.
    specs = [Query(query).threshold(t, "edit").build() for t in (1.0, 2.0, 3.0, 4.0)]
    specs += [
        Query(query).threshold(t, "edit-normalized").build()
        for t in (0.55, 0.7, 0.77, 0.81)
    ]
    specs += [
        Query(query).topk(2, "edit").build(),
        Query(query).topk(12, "edit").build(),
        Query(query).skyline().build(),
        Query(query).skyband(3).build(),
    ]
    for spec in specs:
        with connect(graphs, backend="indexed", cache=cache) as session:
            result = session.execute(spec)
        assert [f"g{graph_id}" for graph_id in result.ids] == oracle.answer(spec), spec


def test_a_pair_cut_on_its_bounds_runs_no_solver_and_keeps_the_cap(monkeypatch):
    # A dominator no worse than the pair's search-free lower bounds puts
    # it out before any dimension is solved.
    from repro.db import GraphDatabase
    from repro.engine.core import make_context
    from repro.engine.evaluate import SOLVER_CUTOFF, _floor_key, solve_pair

    query = random_labeled_graph(4, 4, vertex_labels=("a", "b"), seed=10_001)
    database = GraphDatabase()
    graph_id = database.insert(
        random_labeled_graph(4, 3, vertex_labels=("c",), seed=3)
    )
    cache = PairCache()
    ctx = make_context(database, Query(query).skyline().build(), cache)
    stage = ctx.cutoff = ParetoPruneStage(1, 0.0)
    stage.observe(-1, (0.0, 0.0, 0.0))  # the query itself, say
    context = PairContext(database.get(graph_id), query)
    lower = [math.nan] + [
        measure.pair_lower_bound(database.get(graph_id), query, context)
        for measure in ctx.measures[1:]
    ]
    assert lower[1:] == [1.0, 1.0]  # no common label: |mcs| <= 0
    cap = stage.cap(lower, 0)
    assert cap == 0.0

    def no_solver(*args, **kwargs):
        raise AssertionError("a pre-cut pair reached a solver")

    monkeypatch.setattr(measures_base, "maximum_common_subgraph", no_solver)
    monkeypatch.setattr(measures_base, "graph_edit_distance", no_solver)
    assert solve_pair(ctx, graph_id, context=context) == SOLVER_CUTOFF
    assert cache.floor(*_floor_key(ctx, graph_id)) == cap


def test_floor_bookkeeping_in_both_cache_flavours():
    cache = PairCache()
    assert cache.floor("a", "q", "edit") == -math.inf
    cache.raise_floor("a", "q", "edit", 2.0)
    cache.raise_floor("a", "q", "edit", 1.0)  # never lowered
    assert cache.floor("a", "q", "edit") == 2.0
    assert cache.floor("q", "a", "edit") == 2.0  # symmetric, like values
    assert cache.floor("a", "q", "mcs") == -math.inf
    assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
    cache.invalidate_subject("a")
    assert cache.floor("a", "q", "edit") == -math.inf
    cache.raise_floor("a", "q", "edit", 2.0)
    cache.clear()
    assert cache.floor("a", "q", "edit") == -math.inf

    legacy = QueryCache()
    legacy.raise_floor(7, "q", "edit", 3.0)
    legacy.raise_floor(8, "q", "edit", 4.0)
    legacy.invalidate_graph(7)
    assert legacy.floor(7, "q", "edit") == -math.inf
    assert legacy.floor(8, "q", "edit") == 4.0
