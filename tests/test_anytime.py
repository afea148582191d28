"""Budget-aware anytime measures and the interval-based engine path.

Covers the certified ``[lower, upper]`` interval contract end to end:
solver truncation (DF-GED, A*-GED, McGregor MCS, clique MCS), the
``distance_interval`` API of the four paper measures, the engine's
budgeted execution (node budgets refine until the answer is certified
and must then equal the exhaustive oracle's), and the acceptance
scenario — a top-k query whose exact evaluation would blow a 1-second
wall returns certified intervals within a ~100 ms budget.
"""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.api.backends import PRESETS, ExecutionBackend
from repro.api.spec import Query
from repro.db import GraphDatabase
from repro.engine.deadline import deadline_scope
from repro.errors import DeadlineExceeded
from repro.graph import Budget, Interval, induced_edit_cost
from repro.graph.cost_models import LabelMatrixCostModel, WeightedCostModel
from repro.graph.ged import graph_edit_distance
from repro.graph.generators import random_labeled_graph
from repro.graph.mcs import maximum_common_subgraph
from repro.measures import (
    EditDistance,
    GraphUnionDistance,
    McsDistance,
    NormalizedEditDistance,
    PairContext,
)
from repro.testkit.reference import (
    graph_edit_distance_astar,
    maximum_common_subgraph_clique,
)
from tests.conftest import make_random_graph, small_labeled_graphs

MEASURES = (
    EditDistance(),
    NormalizedEditDistance(),
    McsDistance(),
    GraphUnionDistance(),
)


def _pair(seed: int, n: int = 6, m: int = 8):
    g1 = random_labeled_graph(n, m, vertex_labels=("a", "b"), seed=seed)
    g2 = random_labeled_graph(n, m, vertex_labels=("a", "b"), seed=seed + 1000)
    return g1, g2


# ----------------------------------------------------------------------
# Budget / Interval primitives
# ----------------------------------------------------------------------
def test_budget_exhaustion_rules():
    assert Budget().unlimited
    assert not Budget().exhausted(10**9)
    assert Budget(node_limit=5).exhausted(5)
    assert not Budget(node_limit=5).exhausted(4)
    assert Budget(expires_at=time.monotonic() - 1).exhausted()
    assert not Budget.of(seconds=60).exhausted()


def test_interval_contract():
    interval = Interval(1.0, 3.0)
    assert not interval.settled and interval.width == 2.0
    assert 1.0 in interval and 3.0 in interval and 2.5 in interval
    assert 0.5 not in interval
    exact = Interval.exact(2.0)
    assert exact.settled
    meet = interval.intersect(Interval(2.0, 10.0))
    assert (meet.lower, meet.upper) == (2.0, 3.0)
    # crossing endpoints clamp instead of inverting
    crossed = Interval(3.0, 1.0)
    assert crossed.lower <= crossed.upper
    assert Interval(0.0, math.inf).to_wire() == [0.0, None]


# ----------------------------------------------------------------------
# Solver truncation: certified bounds and realized incumbents
# ----------------------------------------------------------------------
def test_ged_budget_interval_brackets_exact():
    g1, g2 = _pair(3)
    exact = graph_edit_distance(g1, g2)
    for nodes in (1, 5, 50, 5000):
        result = graph_edit_distance(g1, g2, budget=Budget(node_limit=nodes))
        interval = result.interval()
        assert interval.lower <= exact.distance + 1e-9
        assert exact.distance <= interval.upper + 1e-9
        assert result.found  # the incumbent seed realizes every budget
    # An expiry that never fires is no budget: the same search.
    far = graph_edit_distance(g1, g2, budget=Budget.of(seconds=3600))
    assert far.optimal
    assert (far.distance, far.expanded_nodes) == (
        exact.distance, exact.expanded_nodes
    )


@pytest.mark.parametrize(
    "costs",
    [
        WeightedCostModel(
            vertex_indel=2.0, vertex_mismatch=1.5,
            edge_indel=0.5, edge_mismatch=2.5,
        ),
        LabelMatrixCostModel(
            vertex_matrix={("a", "b"): 4.0},
            indel_cost=3.0, default_mismatch=2.0,
        ),
    ],
)
def test_ged_truncated_incumbent_is_finite_for_any_cost_model(costs):
    # Regression: node_limit with non-uniform costs and no upper_bound
    # used to report an unrealized/infinite "upper bound". Every run must
    # now carry a realized incumbent mapping whose induced cost *is* the
    # reported distance.
    g1, g2 = _pair(7)
    result = graph_edit_distance(g1, g2, costs=costs, node_limit=1)
    assert math.isfinite(result.distance)
    assert result.found
    assert result.mapping is not None
    realized = induced_edit_cost(g1, g2, result.mapping, costs)
    assert realized <= result.distance + 1e-6
    assert result.interval().lower <= result.distance + 1e-9


def test_ged_found_flag_distinguishes_unrealized_truncation():
    # An explicit (unrealizable) upper_bound with an immediate cutoff:
    # truncated with no solution found — found must be False and the
    # caller can tell this apart from "truncated with incumbent".
    g1, g2 = _pair(9)
    result = graph_edit_distance(
        g1, g2, upper_bound=1e-6, budget=Budget(node_limit=0)
    )
    assert not result.found
    assert not result.optimal


def test_unrealized_truncation_interval_has_an_open_upper_side():
    # Nothing was found below the bare cap: the cap is no realised
    # mapping, so it must not be reported as an upper bound.
    g1, g2 = _pair(9)
    exact = graph_edit_distance(g1, g2).distance
    result = graph_edit_distance(
        g1, g2, upper_bound=1e-6, budget=Budget(node_limit=0)
    )
    interval = result.interval()
    assert interval.upper == math.inf
    assert 0.0 <= interval.lower <= min(result.distance, exact)


def test_ged_astar_budget_interval_brackets_exact():
    g1, g2 = _pair(11, n=5, m=6)
    exact = graph_edit_distance_astar(g1, g2)
    for nodes in (1, 10, 100):
        result = graph_edit_distance_astar(
            g1, g2, budget=Budget(node_limit=nodes)
        )
        interval = result.interval()
        assert interval.lower <= exact.distance + 1e-9
        assert exact.distance <= interval.upper + 1e-9


def test_mcs_budget_size_interval_brackets_exact():
    g1, g2 = _pair(13)
    exact = maximum_common_subgraph(g1, g2)
    for nodes in (1, 10, 1000):
        result = maximum_common_subgraph(g1, g2, budget=Budget(node_limit=nodes))
        low, high = result.size_interval()
        assert low <= exact.size <= high
        if result.optimal:
            assert low == high == exact.size


def test_mcs_clique_budget_truncates_soundly():
    pytest.importorskip("networkx")
    g1, g2 = _pair(17)
    exact = maximum_common_subgraph_clique(g1, g2)
    result = maximum_common_subgraph_clique(g1, g2, budget=Budget(node_limit=1))
    low, high = result.size_interval()
    assert low <= exact.size <= high


# ----------------------------------------------------------------------
# Hypothesis: interval soundness across all four measures and budgets
# ----------------------------------------------------------------------
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    small_labeled_graphs(max_vertices=4),
    small_labeled_graphs(max_vertices=4),
    st.sampled_from([0, 1, 3, 25, 10_000]),
)
def test_interval_contains_exact_for_all_measures(g1, g2, nodes):
    budget = Budget(node_limit=nodes)
    for measure in MEASURES:
        exact = measure.distance(g1, g2, PairContext(g1, g2))
        interval = measure.distance_interval(
            g1, g2, PairContext(g1, g2), budget
        )
        assert interval.lower <= exact + 1e-9, (measure.name, nodes)
        assert exact <= interval.upper + 1e-9, (measure.name, nodes)
        # unlimited budgets must settle to the exact value
        settled = measure.distance_interval(g1, g2, PairContext(g1, g2))
        assert settled.settled
        assert settled.upper == pytest.approx(exact)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    small_labeled_graphs(max_vertices=4),
    small_labeled_graphs(max_vertices=4),
)
def test_shared_context_refinement_converges(g1, g2):
    # Repeated budgeted calls through one PairContext must monotonically
    # tighten and finally settle on the exact distance.
    measure = EditDistance()
    exact = measure.distance(g1, g2, PairContext(g1, g2))
    context = PairContext(g1, g2)
    previous = None
    for nodes in (1, 10, 100, 10_000, 10**7):
        interval = measure.distance_interval(
            g1, g2, context, Budget(node_limit=nodes)
        )
        assert interval.lower <= exact + 1e-9 <= interval.upper + 2e-9
        if previous is not None:
            assert interval.lower >= previous.lower - 1e-9
            assert interval.upper <= previous.upper + 1e-9
        previous = interval
    assert previous.settled


# ----------------------------------------------------------------------
# Engine: certified node-budget answers equal the exhaustive oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_db():
    graphs = [
        random_labeled_graph(5, 6, vertex_labels=("a", "b"), seed=s)
        for s in range(10)
    ]
    return GraphDatabase.from_graphs(graphs)


@pytest.fixture(scope="module")
def small_query():
    return random_labeled_graph(5, 6, vertex_labels=("a", "b"), seed=77)


@pytest.mark.parametrize("backend_name", ["memory", "indexed"])
def test_node_budget_answers_equal_oracle(backend_name, small_db, small_query):
    backend = ExecutionBackend(small_db, backend_name)
    builders = (
        Query(small_query).topk(3),
        Query(small_query).threshold(0.5),
        Query(small_query).skyline(),
        Query(small_query).skyband(2),
    )
    for builder in builders:
        oracle = backend.run(builder.build())
        budgeted = backend.run(builder.budget(nodes=100).build())
        assert budgeted.ids == oracle.ids, builder.build().kind
        assert budgeted.approximate is False
        assert budgeted.intervals is not None
        assert all(
            interval.settled or True  # intervals present for every state
            for vector in budgeted.intervals.values()
            for interval in vector
        )
        anytime = budgeted.stats.anytime
        assert anytime is not None and anytime["passes"] >= 1


@pytest.mark.parametrize(
    "backend_name, shards",
    [(name, None) for name in sorted(PRESETS) if name != "sharded"]
    + [(name, 2) for name in sorted(PRESETS)],
)
def test_tolerant_budgeted_skyline_selects_by_the_definition(
    backend_name, shards
):
    """A tolerant budgeted skyline takes the best-effort selection; under
    tolerance 0.25 graph 1 is dominated by graph 7, which graph 3
    dominates in turn, so graph 1 stays out."""
    graphs = [make_random_graph(5800 + i, max_vertices=5) for i in range(10)]
    query = make_random_graph(5899, max_vertices=5)
    spec = Query(query).skyline(tolerance=0.25).budget(nodes=100)
    with repro.connect(
        GraphDatabase.from_graphs(graphs),
        backend=backend_name,
        shards=shards,
        max_workers=2,
    ) as session:
        result = session.execute(spec)
    assert result.stats.anytime is not None
    assert result.ids == [0, 8]


def test_interval_payload_brackets_exact_distances(small_db, small_query):
    backend = ExecutionBackend(small_db, "memory")
    spec = Query(small_query).topk(3).budget(nodes=50).build()
    answer = backend.run(spec)
    exact = backend.run(Query(small_query).topk(len(small_db)).build())
    for graph_id, intervals in answer.intervals.items():
        value = exact.distances[graph_id]
        assert intervals[0].lower <= value + 1e-9 <= intervals[0].upper + 2e-9


def test_anytime_result_set_round_trip(small_db, small_query):
    from repro.api.session import Session

    with Session(small_db, backend="memory") as session:
        result = session.execute(Query(small_query).skyline().budget(nodes=100))
        assert result.approximate is False
        assert result.intervals is not None
        payload = result.to_dict()
        assert payload["approximate"] is False
        wire = payload["intervals"]
        assert set(wire) == {str(gid) for gid in result.intervals}
        for vector in wire.values():
            for lower, upper in vector:
                assert upper is None or lower <= upper + 1e-9
        assert "anytime" in payload["stats"]
        assert "anytime:" in result.explain()


def test_wall_budget_returns_promptly_and_flags_approximate(small_db):
    # A query graph large enough that exact evaluation of every pair
    # would take far longer than the budget.
    query = random_labeled_graph(13, 22, vertex_labels=("a", "b"), seed=5)
    backend = ExecutionBackend(small_db, "memory")
    backend.run(Query(query).topk(1).budget(ms=50).build())  # warm imports
    started = time.monotonic()
    answer = backend.run(Query(query).skyline().budget(ms=100).build())
    elapsed = time.monotonic() - started
    assert elapsed < 2.0
    assert answer.intervals is not None
    assert answer.stats.anytime["budget_spent_ms"] > 0


# ----------------------------------------------------------------------
# Acceptance: slow exact pair, 100 ms budget, certified intervals
# ----------------------------------------------------------------------
def test_topk_budget_beats_slow_exact_pair_with_certified_intervals():
    fast = [
        random_labeled_graph(5, 6, vertex_labels=("a", "b"), seed=s)
        for s in range(6)
    ]
    slow = random_labeled_graph(14, 26, vertex_labels=("a", "b"), seed=50)
    query = random_labeled_graph(13, 24, vertex_labels=("a", "b"), seed=51)
    database = GraphDatabase.from_graphs(fast + [slow])
    slow_id = database.ids()[-1]

    # The slow pair really does blow a 1-second wall for one exact GED.
    probe = graph_edit_distance(slow, query, budget=Budget.of(seconds=1.0))
    assert not probe.optimal

    backend = ExecutionBackend(database, "memory")
    backend.run(Query(query).topk(1).budget(ms=50).build())  # warm imports
    started = time.monotonic()
    answer = backend.run(Query(query).topk(3).budget(ms=100).build())
    elapsed = time.monotonic() - started
    assert elapsed < 1.0  # far under the slow pair's exact runtime
    assert answer.intervals is not None
    assert slow_id in answer.intervals

    # Oracle verification on every pair whose exact distance is cheap.
    for graph_id, intervals in answer.intervals.items():
        if graph_id == slow_id:
            assert intervals[0].lower <= intervals[0].upper
            continue
        exact = graph_edit_distance(database.get(graph_id), query).distance
        assert intervals[0].lower <= exact + 1e-9 <= intervals[0].upper + 2e-9


# ----------------------------------------------------------------------
# Deadlines: zero-pass raises; the block walk and the pair are interruptible
# ----------------------------------------------------------------------
def test_anytime_zero_pass_expired_deadline_raises(small_db, small_query):
    backend = ExecutionBackend(small_db, "memory")
    spec = Query(small_query).topk(2).budget(ms=5000).build()
    with deadline_scope(Budget.of(seconds=1e-9)):
        time.sleep(0.001)
        with pytest.raises(DeadlineExceeded):
            backend.run(spec)


def test_hard_deadline_stops_inside_the_slow_pair():
    # The slow pair alone: the walk enters it before the deadline
    # passes, so only the run budget inside its searches can stop it.
    slow = random_labeled_graph(14, 26, vertex_labels=("a", "b"), seed=50)
    query = random_labeled_graph(13, 24, vertex_labels=("a", "b"), seed=51)
    backend = ExecutionBackend(GraphDatabase.from_graphs([slow]), "memory")
    backend.run(Query(query).topk(1).budget(ms=50).build())  # warm imports
    for builder in (Query(query).topk(1), Query(query).skyline()):
        started = time.monotonic()
        with deadline_scope(Budget.of(seconds=0.15)):
            with pytest.raises(DeadlineExceeded, match="inside a pair"):
                backend.run(builder.build())
        assert time.monotonic() - started < 0.5


def test_anytime_expired_deadline_with_progress_returns_partial(
    small_db, small_query
):
    # Plenty of budget for at least one pass; the deadline expires during
    # the run — the engine must return the partial interval answer
    # instead of raising.
    backend = ExecutionBackend(small_db, "memory")
    spec = Query(small_query).skyline().budget(ms=10_000).build()
    with deadline_scope(Budget.of(seconds=0.15)):
        answer = backend.run(spec)
    assert answer.intervals is not None
    assert answer.stats.anytime["passes"] >= 1


def test_block_walk_stops_within_one_window_of_an_expired_deadline(
    monkeypatch,
):
    from types import SimpleNamespace

    from repro.engine import EvaluationPlan, run_plan
    from repro.engine.plan import BoundStage
    from repro.graph import budget as budget_module
    from repro.index import FeatureStore, IndexedSource

    class ExpiringStage(BoundStage):
        """Prunes every row; the deadline passes inside the first window."""

        def __init__(self, deadline):
            self.deadline = deadline
            self.windows = []

        def prune_mask(self, bounds):
            self.windows.append(len(bounds))
            # The budget's clock jumps past the expiry, whatever the host.
            later = SimpleNamespace(monotonic=lambda: self.deadline.expires_at)
            monkeypatch.setattr(budget_module, "time", later)
            return [True] * len(bounds)

    graphs = [
        random_labeled_graph(4, 4, vertex_labels=("a", "b"), seed=s)
        for s in range(600)
    ]
    store = FeatureStore(GraphDatabase.from_graphs(graphs))
    spec = Query(graphs[0]).topk(3, "edit").build()
    deadline = Budget.of(seconds=3600.0)
    stage = ExpiringStage(deadline)
    plan = EvaluationPlan(
        source=IndexedSource(store), cascade=(lambda ctx: stage,)
    )
    with deadline_scope(deadline):
        with pytest.raises(DeadlineExceeded, match="deadline exceeded"):
            run_plan(store.database, spec, plan)
    # One window was judged, the next window's check raised.
    assert len(stage.windows) == 1 and stage.windows[0] < len(graphs)
