"""The block walk decides exactly like the per-candidate walk.

``run_plan`` judges whole windows of bound rows with one
``prune_mask`` call and re-judges only after feedback, and its serial
evaluator solves against the leading bound stage's cap. The reference
below is the plain per-candidate loop over the same sources and stages
(every candidate materialized, every stage's ``decide`` called in
order), solving every survivor exactly and applying the cutoff by brute
force: a solved pair is cut when the leading stage's own rule prunes its
exact vector. Twin setups run the same query/delete sequence, one
through each loop, and every observable decision must match: answers,
pruned ids in order, per-stage prune counts, the work counters and the
pair cache's hit/miss counts.
"""

from __future__ import annotations

import random

import pytest

from repro import PairCache, Query
from repro.api import backends as backends_module
from repro.api.backends import ExecutionBackend
from repro.db import GraphDatabase
from repro.engine import scatter as scatter_module
from repro.engine.consume import finish_distances, finish_vectors
from repro.engine.core import make_context
from repro.engine.evaluate import SerialEvaluator
from repro.engine.plan import BoundStage, Candidate
from repro.core.gcs import CompoundSimilarity
from repro.graph.generators import random_labeled_graph
from repro.measures.base import DistanceMeasure
from repro.shard.store import ShardedGraphDatabase


def _cut_by(stage, measures):
    """The stage whose rule cuts solved pairs, or ``None`` (no cap)."""
    if not isinstance(stage, BoundStage) or getattr(stage, "tolerance", 0) > 0:
        return None
    bounded = any(
        type(measure).distance_below is not DistanceMeasure.distance_below
        for measure in measures
    )
    return stage if bounded else None


def reference_run_plan(database, spec, plan, cache=None):
    """The per-candidate cascade walk: one ``decide`` chain per row."""
    spec.validate()
    ctx = make_context(database, spec, cache)
    stats = ctx.stats
    evaluator = plan.evaluator or SerialEvaluator()
    candidates = list(plan.source.candidates(ctx))
    stages = [factory(ctx) for factory in plan.cascade]
    cutter = None
    if stages and evaluator.interleaved:
        cutter = _cut_by(stages[0], ctx.measures)
    evaluator.begin(ctx, len(candidates))
    exact = {}
    pruned_ids = list(ctx.prefiltered)
    stats.candidates_considered += len(ctx.prefiltered)
    stats.pruned_by_index += len(ctx.prefiltered)
    stats.pruned_by_batch += len(ctx.prefiltered)
    if ctx.prefiltered:
        stats.count_prune("batch-prefilter", len(ctx.prefiltered))

    def record(graph_id, values):
        exact[graph_id] = values
        for stage in stages:
            stage.observe(graph_id, values)

    for candidate in candidates:
        stats.candidates_considered += 1
        verdict, decided = None, None
        for stage in stages:
            verdict = stage.decide(candidate)
            if verdict is not None:
                decided = stage
                break
        if verdict == "prune":
            stats.pruned_by_index += 1
            stats.count_prune(decided.name)
            pruned_ids.append(candidate.graph_id)
        elif isinstance(verdict, tuple):
            stats.served_from_cache += 1
            record(candidate.graph_id, verdict)
        else:
            values = evaluator.evaluate(ctx, candidate)
            if values is None:
                continue
            solved = Candidate(candidate.graph_id, values)
            if cutter is not None and cutter.decide(solved) == "prune":
                stats.pruned_by_index += 1
                stats.count_prune("solver-cutoff")
                pruned_ids.append(candidate.graph_id)
            else:
                stats.exact_evaluations += 1
                record(candidate.graph_id, values)
    for graph_id, values in evaluator.drain(ctx):
        stats.exact_evaluations += 1
        record(graph_id, values)
    if ctx.vector_kind:
        vectors = {
            graph_id: CompoundSimilarity(values=values, measures=ctx.names)
            for graph_id, values in exact.items()
        }
        return finish_vectors(spec, vectors, stats, pruned_ids)
    distances = {graph_id: values[0] for graph_id, values in exact.items()}
    return finish_distances(spec, distances, stats, pruned_ids)


def _graphs():
    # 300 small graphs over two labels: many bound ties, and more than
    # one window of rows per monolithic run.
    return [
        random_labeled_graph(
            3 + seed % 3, 2 + seed % 3, vertex_labels=("a", "b"), seed=seed
        )
        for seed in range(300)
    ]


def _database(shards: int):
    if shards:
        return ShardedGraphDatabase.from_graphs(_graphs(), shards=shards)
    return GraphDatabase.from_graphs(_graphs())


def _backend(name: str, database, cache):
    options = {"cache": cache}
    if name == "auto":
        options["max_workers"] = 1
    return ExecutionBackend(database, name, **options)


def _decisions(answer, cache):
    stats = answer.stats
    return (
        answer.ids,
        answer.pruned_ids,
        dict(stats.pruned_by_stage),
        stats.candidates_considered,
        stats.served_from_cache,
        stats.exact_evaluations,
        None if cache is None else (cache.hits, cache.misses),
    )


def _specs(query):
    return [
        Query(query).skyline().build(),
        Query(query).skyband(2).build(),
        Query(query).topk(3, "edit").build(),
        Query(query).threshold(2.0, "edit").build(),
        Query(query).threshold(0.5, "edit-normalized").build(),
    ]


def _run_twins(name: str, shards: int, cached: bool, monkeypatch):
    query = random_labeled_graph(4, 4, vertex_labels=("a", "b"), seed=10_001)
    rng = random.Random(5)
    twins = []
    for _ in range(2):
        database = _database(shards)
        cache = PairCache() if cached else None
        twins.append((database, cache, _backend(name, database, cache)))

    def run(twin, spec, reference: bool):
        _, cache, backend = twin
        with monkeypatch.context() as patch:
            if reference:
                for module in (backends_module, scatter_module):
                    patch.setattr(module, "run_plan", reference_run_plan)
            return _decisions(backend.run(spec), cache)

    def both(spec):
        block = run(twins[0], spec, reference=False)
        reference = run(twins[1], spec, reference=True)
        assert block == reference, spec.kind
        return block

    for _ in range(2):
        for spec in _specs(query):
            both(spec)
        victims = rng.sample(sorted(twins[0][0].ids()), 30)
        for database, _, _ in twins:
            for victim in victims:
                database.remove(victim)
    # The regret case: delete the query's nearest neighbours, then ask
    # for them again — the cutoff must be rebuilt from farther graphs.
    topk = Query(query).topk(5, "edit").build()
    nearest = both(topk)[0]
    for database, _, _ in twins:
        for victim in nearest:
            database.remove(victim)
    after = both(topk)
    assert not set(after[0]) & set(nearest)


@pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("name", ["indexed", "auto"])
def test_monolithic_block_walk_equals_reference(name, cached, monkeypatch):
    _run_twins(name, 0, cached, monkeypatch)


@pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("name", ["sharded", "auto"])
def test_sharded_block_walk_equals_reference(name, cached, monkeypatch):
    _run_twins(name, 2, cached, monkeypatch)
