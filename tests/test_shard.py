"""Sharded store + scatter-gather backend: interface, parity, round-trips.

The contract under test: a :class:`~repro.shard.store.ShardedGraphDatabase`
is indistinguishable from a monolithic :class:`~repro.db.GraphDatabase`
through the public interface, and the ``sharded`` backend's scatter-gather
execution (local cascades, cross-shard bound sharing, merge consumers)
returns exactly the answers of the serial exhaustive ``memory`` backend
for every query kind, placement and shard count.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import ExecutionBackend, PairCache, Query, connect
from repro.datasets import figure3_database, figure3_query
from repro.db import GraphDatabase, load_database, save_database
from repro.db import database as database_module
from repro.errors import DatasetError, QueryError
from repro.graph import GraphFeatures
from repro.shard import store as store_module
from repro.shard import (
    HashPlacement,
    ShardedGraphDatabase,
    SizeBalancedPlacement,
    available_placements,
    get_placement,
)

from tests.conftest import make_random_graph, small_labeled_graphs


@pytest.fixture
def sharded_fig3() -> ShardedGraphDatabase:
    return ShardedGraphDatabase.from_graphs(
        figure3_database(), name="fig3", shards=3
    )


def _kind_builders(query):
    return {
        "skyline": Query(query).measures("edit", "mcs").skyline(),
        "skyband": Query(query).measures("edit", "mcs").skyband(2),
        "topk": Query(query).topk(3, "edit"),
        "threshold": Query(query).threshold(3.0, "edit"),
    }


# ----------------------------------------------------------------------
# Store: the GraphDatabase interface over shards
# ----------------------------------------------------------------------
def test_store_presents_database_interface(sharded_fig3):
    monolith = GraphDatabase.from_graphs(figure3_database(), name="fig3")
    assert sharded_fig3.ids() == monolith.ids()
    assert len(sharded_fig3) == len(monolith)
    assert [g.name for g in sharded_fig3.graphs()] == [
        g.name for g in monolith.graphs()
    ]
    assert [e.graph_id for e in sharded_fig3.entries()] == monolith.ids()
    assert [gid for gid, _ in sharded_fig3] == monolith.ids()
    for graph_id in monolith.ids():
        assert graph_id in sharded_fig3
        assert sharded_fig3.get(graph_id) == monolith.get(graph_id)
        assert sharded_fig3.entry(graph_id).graph_id == graph_id
    assert sum(sharded_fig3.shard_sizes()) == len(monolith)
    assert "3 shards" in repr(sharded_fig3)


def test_hash_placement_routes_by_id(sharded_fig3):
    for graph_id in sharded_fig3.ids():
        assert sharded_fig3.shard_of(graph_id) == graph_id % 3
        shard = sharded_fig3.shards[graph_id % 3]
        assert graph_id in shard


def test_mutations_land_on_their_shards(sharded_fig3):
    query = figure3_query()
    before = sharded_fig3.version
    new_id = sharded_fig3.insert(query)
    assert sharded_fig3.version == before + 1
    owner = sharded_fig3.shard_of(new_id)
    assert new_id in sharded_fig3.shards[owner]
    # Only the owning shard's version moved: shard-local indexes on the
    # other shards stay valid (the point of per-shard versioning).
    shard_versions = [shard.version for shard in sharded_fig3.shards]
    sharded_fig3.remove(new_id)
    assert new_id not in sharded_fig3
    assert sharded_fig3.shards[owner].version == shard_versions[owner] + 1
    for index, shard in enumerate(sharded_fig3.shards):
        if index != owner:
            assert shard.version == shard_versions[index]
    with pytest.raises(DatasetError):
        sharded_fig3.remove(new_id)
    with pytest.raises(DatasetError):
        sharded_fig3.get(new_id)


def test_ids_are_never_reused_across_shards(sharded_fig3):
    query = figure3_query()
    first = sharded_fig3.insert(query)
    sharded_fig3.remove(first)
    second = sharded_fig3.insert(query)
    assert second > first


def test_find_isomorphic_searches_all_shards(sharded_fig3):
    for graph_id, graph in sharded_fig3:
        assert sharded_fig3.find_isomorphic(graph) == graph_id


def test_from_graphs_deduplicates_across_shards():
    graphs = figure3_database()
    doubled = graphs + [g.copy() for g in graphs]
    database = ShardedGraphDatabase.from_graphs(
        doubled, shards=3, deduplicate=True
    )
    assert len(database) == len(graphs)


def test_size_balanced_placement_balances_vertex_load():
    database = ShardedGraphDatabase.from_graphs(
        figure3_database(), shards=3, placement="size-balanced"
    )
    loads = [
        sum(e.graph.order for e in shard.entries()) for shard in database.shards
    ]
    assert max(loads) - min(loads) <= max(g.order for g in database.graphs())


def test_placement_registry():
    assert {"hash", "size-balanced"} <= set(available_placements())
    assert isinstance(get_placement("hash"), HashPlacement)
    policy = SizeBalancedPlacement()
    assert get_placement(policy) is policy
    with pytest.raises(QueryError, match="available"):
        get_placement("nope")
    with pytest.raises(DatasetError):
        ShardedGraphDatabase(shards=0)


def test_from_database_preserves_ids_and_metadata():
    monolith = GraphDatabase(name="meta")
    graphs = figure3_database()
    monolith.insert(graphs[0], metadata={"source": "paper"})
    monolith.insert(graphs[1])
    monolith.remove(0)
    monolith.insert(graphs[2], metadata={"n": 3})
    sharded = ShardedGraphDatabase.from_database(monolith, shards=2)
    assert sharded.ids() == monolith.ids() == [1, 2]
    assert sharded.entry(2).metadata == {"n": 3}
    # Fresh inserts continue after the preserved ids.
    assert sharded.insert(graphs[3]) == 3


@pytest.mark.parametrize("placement", ["hash", "size-balanced"])
def test_from_database_moves_entries_without_rehashing(placement, monkeypatch):
    monolith = GraphDatabase.from_graphs(
        make_random_graph(seed, max_vertices=5) for seed in range(30)
    )
    monolith.remove(3)
    monolith.insert(make_random_graph(99), metadata={"n": 1})
    reference = ShardedGraphDatabase(shards=3, placement=placement)
    for entry in monolith.entries():
        reference.insert(
            entry.graph, entry.metadata, copy=False, graph_id=entry.graph_id
        )

    def forbidden(*args, **kwargs):
        raise AssertionError("re-partitioning recomputed a graph summary")

    monkeypatch.setattr(database_module, "canonical_hash", forbidden)
    monkeypatch.setattr(store_module, "canonical_hash", forbidden)
    monkeypatch.setattr(GraphFeatures, "of", forbidden)
    sharded = ShardedGraphDatabase.from_database(
        monolith, shards=3, placement=placement
    )

    def fingerprint(database):
        return [
            (
                graph_id,
                database.shard_of(graph_id),
                database.entry(graph_id).iso_hash,
                database.entry(graph_id).features,
                database.entry(graph_id).metadata,
            )
            for graph_id in database.ids()
        ]

    assert fingerprint(sharded) == fingerprint(reference)
    assert [shard.ids() for shard in sharded.shards] == [
        shard.ids() for shard in reference.shards
    ]
    assert sharded.vertex_load == reference.vertex_load
    assert (sharded.next_id, sharded.version) == (
        reference.next_id, reference.version,
    )
    assert sharded.changes_since(0) == reference.changes_since(0)


# ----------------------------------------------------------------------
# Persistence: save/load round-trips a sharded database losslessly
# ----------------------------------------------------------------------
def test_save_load_round_trip_is_lossless(tmp_path, sharded_fig3):
    sharded_fig3.entry(0).metadata["origin"] = "fig3"
    # A removal leaves an id gap: preserve_ids must restore it verbatim
    # (the default load compacts, which is lossless for answers only).
    sharded_fig3.remove(1)
    path = tmp_path / "sharded.json"
    save_database(sharded_fig3, path)
    loaded = load_database(path, preserve_ids=True)
    assert loaded.ids() == sharded_fig3.ids()
    assert loaded.graphs() == sharded_fig3.graphs()
    assert loaded.entry(0).metadata == {"origin": "fig3"}
    # Re-sharding the loaded copy reproduces the exact same partitioning
    # (hash placement is a pure function of the preserved ids).
    resharded = ShardedGraphDatabase.from_database(loaded, shards=3)
    assert resharded.ids() == sharded_fig3.ids()
    for graph_id in resharded.ids():
        assert resharded.shard_of(graph_id) == sharded_fig3.shard_of(graph_id)
    query = figure3_query()
    with connect(resharded, backend="sharded") as session:
        answer = session.execute(Query(query).skyline()).ids
    with connect(sharded_fig3, backend="sharded") as session:
        assert session.execute(Query(query).skyline()).ids == answer


# ----------------------------------------------------------------------
# Backend: scatter-gather answers equal memory semantics
# ----------------------------------------------------------------------
def test_sharded_backend_matches_memory_all_kinds(sharded_fig3):
    query = figure3_query()
    with connect(figure3_database(), backend="memory") as session:
        expected = {
            kind: session.execute(builder).ids
            for kind, builder in _kind_builders(query).items()
        }
    with connect(sharded_fig3, backend="sharded") as session:
        for kind, builder in _kind_builders(query).items():
            assert session.execute(builder).ids == expected[kind], kind


def test_parallel_scatter_ships_shard_payloads(sharded_fig3, monkeypatch):
    # A zero pool break-even makes ``auto`` pool every non-empty shard.
    from repro.engine import planner

    monkeypatch.setattr(planner, "POOL_START_SECONDS", 0.0)
    monkeypatch.setattr(planner, "POOL_WARM_SECONDS", 0.0)
    query = figure3_query()
    with connect(figure3_database(), backend="memory") as session:
        expected = session.execute(Query(query).topk(3, "edit")).ids
    with connect(sharded_fig3, backend="auto", max_workers=2) as session:
        result = session.execute(Query(query).topk(3, "edit"))
        assert result.ids == expected
        assert result.plan.workers == 2
        assert result.stats.pool is not None
        # One pooled evaluator per touched shard, each holding (at most)
        # that shard's payload — never a whole-database payload.
        evaluators = session.backend._pooled
        assert evaluators and set(evaluators) <= set(
            range(sharded_fig3.shard_count)
        )


def test_tolerant_queries_fall_back_to_exhaustive_merge(sharded_fig3):
    query = figure3_query()
    tolerant = Query(query).skyline(tolerance=0.4).build()
    with connect(figure3_database(), backend="memory") as session:
        expected = session.execute(tolerant).ids
    with connect(sharded_fig3, backend="sharded") as session:
        result = session.execute(tolerant)
        assert result.ids == expected
        # Pruning is off under tolerance: every graph was evaluated.
        assert result.stats.exact_evaluations == len(sharded_fig3)


def test_sharded_backend_rejects_monolithic_database():
    database = GraphDatabase.from_graphs(figure3_database())
    with pytest.raises(QueryError, match="shards=N"):
        ExecutionBackend(database, "sharded")


def test_shards_rejected_with_backend_instance():
    # Re-partitioning would desynchronize session.database from the
    # database a ready-made backend instance is bound to.
    database = GraphDatabase.from_graphs(figure3_database())
    with pytest.raises(QueryError, match="backend instance"):
        repro.Session(database, backend=ExecutionBackend(database), shards=2)


def test_fuzz_backend_remap_keeps_tolerant_specs():
    from repro.cli import _remap_backend
    from repro.testkit import generate_workload
    from repro.testkit.workload import RunQuery

    # Seeds are cheap: find a workload containing a tolerant spec (never
    # drawn for indexed/vectorized steps).
    for seed in range(60):
        workload = generate_workload(seed=seed, n_steps=60)
        if any(
            isinstance(s, RunQuery) and s.query.tolerance > 0
            for s in workload.steps
        ):
            break
    else:  # pragma: no cover - generator always emits some within 60 seeds
        pytest.fail("no tolerant spec generated")
    remapped = _remap_backend(workload, "indexed")
    queries = [s for s in remapped.steps if isinstance(s, RunQuery)]
    assert queries and all(s.backend == "indexed" for s in queries)
    original = [s.query for s in workload.steps if isinstance(s, RunQuery)]
    assert [s.query for s in queries] == original
    # Every backend follows QueryPlanner.prunes, so tolerant specs on
    # indexed still match the oracle.
    from repro.testkit import run_workload

    assert run_workload(remapped).ok


def test_session_repartitions_and_follows_mutations(sharded_fig3):
    query = figure3_query()
    with connect(figure3_database(), backend="sharded", shards=4) as session:
        assert isinstance(session.database, ShardedGraphDatabase)
        assert session.database.shard_count == 4
        new_id = session.database.insert(query)
        result = session.execute(Query(query).topk(1, "edit"))
        assert result.ids == [new_id]
    # An already-sharded database with a matching count is used as-is.
    with connect(sharded_fig3, backend="sharded", shards=3) as session:
        assert session.database is sharded_fig3


def test_explain_and_to_dict_surface_per_shard_counts(sharded_fig3):
    query = figure3_query()
    with connect(sharded_fig3, backend="sharded") as session:
        result = session.execute(Query(query).measures("edit", "mcs").skyline())
    breakdown = result.stats.per_shard
    assert breakdown is not None and len(breakdown) == 3
    assert [row["shard"] for row in breakdown] == [0, 1, 2]
    assert [row["size"] for row in breakdown] == sharded_fig3.shard_sizes()
    assert sum(row["candidates"] for row in breakdown) == (
        result.stats.candidates_considered
    )
    assert sum(row["evaluated"] for row in breakdown) == (
        result.stats.exact_evaluations
    )
    assert result.to_dict()["stats"]["per_shard"] == breakdown
    text = result.explain()
    assert "3 shards" in text
    for row in breakdown:
        assert f"shard {row['shard']}: size={row['size']}" in text
    plan = session.plan(Query(query).skyline())
    assert plan.shards == 3
    assert "skyline-merge" in plan.stages


def test_shared_cache_composes_with_scatter(sharded_fig3):
    query = figure3_query()
    cache = PairCache()
    with connect(sharded_fig3, backend="sharded", cache=cache) as session:
        cold = session.execute(Query(query).skyline())
    with connect(sharded_fig3, backend="sharded", cache=cache) as session:
        warm = session.execute(Query(query).skyline())
    assert warm.ids == cold.ids
    # Every pair the cold run solved is served; a pair its solver cut at
    # the bound stage's cap was never cached, and is cut again.
    assert warm.cache_info["served"] == cold.stats.exact_evaluations
    assert warm.stats.exact_evaluations == 0
    assert warm.cache_info["pinned"] >= 1
    assert warm.cache_info["pin_limit"] == cache.pin_limit
    assert f"pinned={warm.cache_info['pinned']}/{cache.pin_limit}" in (
        warm.explain()
    )


def test_pair_cache_pin_limit_bounds_the_memo():
    cache = PairCache(pin_limit=2)
    graphs = figure3_database()
    for graph in graphs:
        cache.query_hash(graph)
    assert cache.pinned == 2  # LRU-capped, not one per query graph
    with pytest.raises(ValueError):
        PairCache(pin_limit=0)


def test_sharded_is_registered():
    assert "sharded" in repro.available_backends()


def test_representative_plan_runs_standalone(sharded_fig3):
    # build_plan returns the concatenated-scatter form of the same
    # cascade; running it through the ordinary engine loop (no merge
    # consumers involved) must still produce the memory answer.
    from repro.engine import run_plan

    query = figure3_query()
    spec = Query(query).measures("edit", "mcs").skyline().build()
    backend = ExecutionBackend(sharded_fig3, "sharded")
    answer = run_plan(sharded_fig3, spec, backend.build_plan(spec))
    with connect(figure3_database(), backend="memory") as session:
        assert answer.ids == session.execute(spec).ids


# ----------------------------------------------------------------------
# Property: parity with memory for random databases/placements/shards
# ----------------------------------------------------------------------
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    graphs=st.lists(
        small_labeled_graphs(max_vertices=4, connected=True),
        min_size=1,
        max_size=6,
    ),
    query=small_labeled_graphs(max_vertices=4, connected=True),
    shards=st.integers(min_value=1, max_value=4),
    placement=st.sampled_from(("hash", "size-balanced")),
    kind=st.sampled_from(("skyline", "skyband", "topk", "threshold")),
)
def test_sharded_parity_property(graphs, query, shards, placement, kind):
    builder = _kind_builders(query)[kind]
    with connect(graphs, backend="memory") as session:
        expected = session.execute(builder).ids
    with connect(
        graphs, backend="sharded", shards=shards, placement=placement
    ) as session:
        assert session.execute(builder).ids == expected
