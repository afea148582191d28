"""The staged engine: plans, stages, evaluators, and their composition.

The backends' answer parity is covered by ``test_api_backends_property``;
this module tests the engine pieces directly — that backends really are
plan configurations, that custom plans compose, and that the statistics
come from one place.
"""

import pytest

from repro import GraphDatabase, PairCache, Query, connect
from repro.datasets import make_workload
from repro.api.backends import ExecutionBackend
from repro.engine import (
    Candidate,
    DatabaseOrderSource,
    EvaluationPlan,
    ParetoPruneStage,
    PooledEvaluator,
    RankBoundStage,
    SerialEvaluator,
    Stage,
    ThresholdBoundStage,
    cached_pairs,
    run_plan,
)
from repro.index import IndexedSource


# The figure-3 fixtures live in conftest.py; module-local aliases keep
# the short parameter names this module's tests read naturally with.
@pytest.fixture
def db(paper_database):
    return paper_database


@pytest.fixture
def query(paper_query):
    return paper_query


# ----------------------------------------------------------------------
# Backends are plan configurations
# ----------------------------------------------------------------------
def test_backend_plans_are_declarative(db, query):
    spec = Query(query).skyline().build()
    memory = ExecutionBackend(db).build_plan(spec)
    assert isinstance(memory.source, DatabaseOrderSource)
    assert memory.cascade == ()
    indexed = ExecutionBackend(db, "indexed").build_plan(spec)
    assert isinstance(indexed.source, IndexedSource)
    assert len(indexed.cascade) == 1
    assert ExecutionBackend(db, "indexed").execution(spec).stages == (
        "pareto-bound(batch)",
    )
    parallel = ExecutionBackend(db, "parallel", max_workers=2).build_plan(spec)
    assert isinstance(parallel.evaluator, PooledEvaluator)
    cached = ExecutionBackend(db, cache=PairCache()).build_plan(spec)
    assert cached.cascade == (cached_pairs,)


def test_bound_stage_label_follows_kind(db, query):
    backend = ExecutionBackend(db, "indexed")
    labels = {
        kind: backend.execution(spec).stages[0]
        for kind, spec in {
            "skyline": Query(query).skyline().build(),
            "skyband": Query(query).skyband(2).build(),
            "topk": Query(query).topk(3).build(),
            "threshold": Query(query).threshold(5.0).build(),
        }.items()
    }
    assert labels == {
        "skyline": "pareto-bound(batch)",
        "skyband": "pareto-bound(batch)",
        "topk": "rank-bound",
        "threshold": "threshold-bound",
    }


def test_plan_describe_shows_cascade(db, query):
    with connect(db, backend="indexed", cache=PairCache()) as session:
        plan = session.plan(Query(query).skyline())
        assert plan.stages == ("pareto-bound(batch)", "cached-pairs")
        assert "pareto-bound(batch)" in plan.describe()


def test_run_plan_direct_matches_backend(db, query):
    spec = Query(query).skyline().build()
    direct = run_plan(db, spec, EvaluationPlan(source=DatabaseOrderSource()))
    via_backend = ExecutionBackend(db).run(spec)
    assert direct.ids == via_backend.ids
    assert direct.vectors.keys() == via_backend.vectors.keys()


# ----------------------------------------------------------------------
# Cross-cutting composition the old per-backend loops could not express
# ----------------------------------------------------------------------
def test_pruning_composes_with_cache(db, query):
    cache = PairCache()
    # Two sessions: a repeat in one session is served by its answer store.
    with connect(db, backend="indexed", cache=cache) as session:
        cold = session.execute(Query(query).skyline())
    with connect(db, backend="indexed", cache=cache) as session:
        warm = session.execute(Query(query).skyline())
    assert cold.stats.pruned_by_index == warm.stats.pruned_by_index
    assert warm.stats.exact_evaluations == 0
    assert warm.ids == cold.ids


def test_parallel_composes_with_cache(db, query):
    cache = PairCache()
    with connect(db, backend="parallel", max_workers=2, cache=cache) as session:
        cold = session.execute(Query(query).skyline())
    with connect(db, backend="parallel", max_workers=2, cache=cache) as session:
        warm = session.execute(Query(query).skyline())
    assert cold.stats.exact_evaluations == len(db)  # written back after drain
    assert warm.stats.exact_evaluations == 0
    assert warm.ids == cold.ids


def test_custom_plan_composition(db, query):
    """A plan the shipped backends don't offer: bound pruning with a
    cache, assembled from engine parts."""
    cache = PairCache()
    backend = ExecutionBackend(db, "indexed", cache=cache)
    spec = Query(query).skyband(2).build()
    first = run_plan(db, spec, backend.build_plan(spec), cache=cache)
    second = run_plan(db, spec, backend.build_plan(spec), cache=cache)
    assert second.stats.exact_evaluations == 0 or second.stats.pruned_by_index
    assert first.ids == second.ids


def test_custom_stage_plugs_in(db, query):
    class RejectEverything(Stage):
        name = "reject-all"

        def decide(self, candidate):
            return "prune"

    spec = Query(query).skyline().build()
    answer = run_plan(
        db,
        spec,
        EvaluationPlan(
            source=DatabaseOrderSource(), cascade=(lambda ctx: RejectEverything(),)
        ),
    )
    assert answer.ids == []
    assert answer.stats.pruned_by_index == len(db)
    assert sorted(answer.pruned_ids) == db.ids()


# ----------------------------------------------------------------------
# Stage semantics in isolation
# ----------------------------------------------------------------------
def test_pareto_stage_counts_dominators():
    stage = ParetoPruneStage(prune_limit=2, tolerance=0.0)
    stage.observe(1, (1.0, 1.0))
    assert stage.decide(Candidate(9, (2.0, 2.0))) is None  # one dominator < limit
    stage.observe(2, (0.5, 0.5))
    assert stage.decide(Candidate(9, (2.0, 2.0))) == "prune"
    assert stage.decide(Candidate(9, None)) is None  # no bounds, no opinion


def test_rank_stage_prunes_beyond_kth_best():
    stage = RankBoundStage(k=2)
    assert stage.decide(Candidate(1, (9.0,))) is None  # fewer than k known
    stage.observe(1, (1.0,))
    stage.observe(2, (2.0,))
    assert stage.decide(Candidate(3, (2.5,))) == "prune"
    assert stage.decide(Candidate(3, (2.0,))) is None  # ties are kept


def test_threshold_stage():
    stage = ThresholdBoundStage(threshold=1.5)
    assert stage.decide(Candidate(1, (2.0,))) == "prune"
    assert stage.decide(Candidate(1, (1.5,))) is None


# ----------------------------------------------------------------------
# Statistics come from the one engine loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["memory", "indexed", "parallel"])
def test_candidate_accounting_is_exhaustive(backend, query):
    workload = make_workload(n_graphs=16, query_size=6, seed=21)
    db = GraphDatabase.from_graphs(workload.database)
    with connect(db, backend=backend) as session:
        stats = session.execute(Query(query).skyline()).stats
    assert stats.candidates_considered == len(db)
    assert (
        stats.exact_evaluations + stats.pruned_by_index + stats.served_from_cache
        == len(db)
    )


def test_pruned_ids_reported(db, query):
    answer = ExecutionBackend(db, "indexed").run(Query(query).topk(2).build())
    assert len(answer.pruned_ids) == answer.stats.pruned_by_index
    assert set(answer.pruned_ids).isdisjoint(answer.evaluated_ids)


def test_serial_and_pooled_evaluators_agree(db, query):
    spec = Query(query).skyline().build()
    serial = run_plan(
        db, spec, EvaluationPlan(source=DatabaseOrderSource(), evaluator=SerialEvaluator())
    )
    pooled = run_plan(
        db,
        spec,
        EvaluationPlan(
            source=DatabaseOrderSource(),
            evaluator=PooledEvaluator(max_workers=2),
        ),
    )
    assert pooled.stats.pool["chunks"] > 1
    assert serial.ids == pooled.ids
    assert {i: v.values for i, v in serial.vectors.items()} == {
        i: v.values for i, v in pooled.vectors.items()
    }
