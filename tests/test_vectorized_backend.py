"""The ``indexed`` backend's batched path: parity, batch-prune
accounting, and pooled evaluation's shipped chunks.

Answer-set parity with the exhaustive reference is covered for all four
query kinds (the hypothesis parity suite in
``test_api_backends_property.py`` also rotates this backend); this file
pins the parts unique to the batched path — pre-filter statistics,
``explain()`` reporting, plan labels, mutation self-healing through the
feature store, cache composition — and the ``parallel`` evaluator, which
ships each chunk's graphs.
"""

import pytest

import repro
from repro import GraphDatabase, PairCache, Query
from repro.api.backends import available_backends
from repro.engine.workers import PooledEvaluator, shutdown_pool

from tests.conftest import make_random_graph


@pytest.fixture
def random_database() -> GraphDatabase:
    return GraphDatabase.from_graphs(
        [make_random_graph(seed, max_vertices=5) for seed in range(12)]
    )


def _reference(database, build):
    with repro.connect(database, backend="memory") as session:
        return session.execute(build())


def test_backend_is_registered():
    assert "indexed" in available_backends()
    assert "vectorized" not in available_backends()


@pytest.mark.parametrize(
    "build",
    [
        lambda q: Query(q).skyline(),
        lambda q: Query(q).skyband(2),
        lambda q: Query(q).topk(4, "edit"),
        lambda q: Query(q).threshold(2.0, "edit"),
        lambda q: Query(q).threshold(0.35, "edit-normalized"),
        lambda q: Query(q).threshold(0.6, "mcs"),
        lambda q: Query(q).threshold(0.5, "union"),
    ],
    ids=["skyline", "skyband", "topk", "edit", "edit-norm", "mcs", "union"],
)
def test_answers_match_memory_backend(random_database, build, paper_query):
    reference = _reference(random_database, lambda: build(paper_query))
    with repro.connect(random_database, backend="indexed") as session:
        result = session.execute(build(paper_query))
    assert result.ids == reference.ids
    if reference.distances is not None:
        assert all(
            result.distances[i] == reference.distances[i] for i in result.ids
        )


def test_threshold_prefilter_is_counted_and_explained(random_database, paper_query):
    spec = Query(paper_query).threshold(1.0, "edit")
    with repro.connect(random_database, backend="indexed") as session:
        result = session.execute(spec)
    stats = result.stats
    assert stats.pruned_by_batch > 0
    assert stats.pruned_by_index >= stats.pruned_by_batch
    assert stats.candidates_considered == len(random_database)
    assert (
        stats.exact_evaluations + stats.pruned_by_index
        == stats.candidates_considered
    )
    assert "batch pre-filter" in result.explain()
    assert result.to_dict()["stats"]["pruned_by_batch"] == stats.pruned_by_batch
    assert f"(batch={stats.pruned_by_batch})" in stats.summary()


def test_prefiltered_ids_are_sound(random_database, paper_query):
    """Nothing the batch pre-filter removes could have been an answer."""
    for threshold, measure in ((1.5, "edit"), (0.4, "edit-normalized")):
        spec = Query(paper_query).threshold(threshold, measure).build()
        reference = _reference(random_database, lambda: spec)
        with repro.connect(random_database, backend="indexed") as session:
            result = session.execute(spec)
            answer = session.backend.run(spec)
        assert set(answer.pruned_ids).isdisjoint(reference.ids)
        assert result.ids == reference.ids


def test_plan_reports_index_and_batch_stage(random_database, paper_query):
    with repro.connect(random_database, backend="indexed") as session:
        plan = session.plan(Query(paper_query).skyline())
        assert plan.uses_index
        assert "pareto-bound(batch)" in plan.stages
        plan = session.plan(Query(paper_query).threshold(1.0, "edit"))
        assert "threshold-bound" in plan.stages


def test_store_heals_after_mutation(random_database, paper_query):
    with repro.connect(random_database, backend="indexed") as session:
        before = session.execute(Query(paper_query).skyline())
        added = random_database.insert(make_random_graph(77))
        random_database.remove(random_database.ids()[0])
        after = session.execute(Query(paper_query).skyline())
        reference = _reference(random_database, lambda: Query(paper_query).skyline())
        assert after.ids == reference.ids
        backend = session.backend
        assert backend.name == "indexed"
        assert added in backend.store.matrix
        # Row-level repair: one add + one drop, not a rebuild.
        assert backend.store.rows_dropped == 1


def test_cache_composes_with_indexed_plan(random_database, paper_query):
    cache = PairCache()
    spec = Query(paper_query).skyline()
    with repro.connect(random_database, backend="indexed", cache=cache) as s:
        cold = s.execute(spec)
    with repro.connect(random_database, backend="indexed", cache=cache) as s:
        warm = s.execute(spec)
    assert warm.ids == cold.ids
    assert warm.stats.exact_evaluations == 0
    assert warm.stats.served_from_cache > 0
    assert warm.cache_info["served"] > 0


# ----------------------------------------------------------------------
# Pooled evaluation ships each chunk's graphs
# ----------------------------------------------------------------------
def test_pooled_answers_stay_exact_across_mutation(random_database, paper_query):
    spec = Query(paper_query).skyline().build()
    with repro.connect(
        random_database, backend="parallel", max_workers=2
    ) as session:
        first = session.execute(spec)
        assert first.stats.pool["chunks"] >= 1
        second = session.execute(spec)
        random_database.insert(make_random_graph(55))
        third = session.execute(spec)
    reference = _reference(random_database, lambda: Query(paper_query).skyline())
    assert third.ids == reference.ids
    assert first.ids == second.ids


def test_pooled_runs_need_no_temp_files(
    random_database, paper_query, monkeypatch
):
    import tempfile

    def broken_mkstemp(*args, **kwargs):
        raise OSError("no temp space")

    monkeypatch.setattr(tempfile, "mkstemp", broken_mkstemp)
    spec = Query(paper_query).skyline().build()
    with repro.connect(
        random_database, backend="parallel", max_workers=2
    ) as session:
        result = session.execute(spec)
        assert result.stats.pool["workers"] == 2
    reference = _reference(random_database, lambda: Query(paper_query).skyline())
    assert result.ids == reference.ids
