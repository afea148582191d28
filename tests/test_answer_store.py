"""The session answer store: a spec repeated at an unchanged database
version is served whole, with stats of a read that did no work; a spec
answered at an older version is replayed over the change log's delta, or
runs in full when a replay could be wrong (log overflow, a removed answer
member, tolerant dominance, NaN values, dropped pair-cache values); a
query graph mutated in place, anytime budgets and measure instances make
the read run. Answers must always equal the exhaustive ``memory``
oracle's."""

from __future__ import annotations

import http.client
import itertools
import json
import math
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import GraphDatabase, PairCache, Query
from repro.api import session as session_module
from repro.api.backends import available_backends
from repro.api.ops import AddOp, RelabelOp, RemoveOp, apply_mutation
from repro.cli import _remap_backend
from repro.engine.core import run_plan
from repro.db import cache as cache_module
from repro.db import database as database_module
from repro.db.cache import ANSWER_STORE_LIMIT, AnswerStore
from repro.graph import LabeledGraph, mutate
from repro.graph.canonical import canonical_hash
from repro.measures import base as measures_base
from repro.measures.base import DistanceMeasure, get_measure
from repro.server import ServerConfig, serve_in_thread
from repro.shard import ShardedGraphDatabase
from repro.testkit import generate_workload, run_workload
from repro.testkit.workload import RunQuery, renumbered

from tests.conftest import make_random_graph

GRAPHS = [make_random_graph(seed, max_vertices=5) for seed in range(12)]

SPECS = {
    "skyline": lambda q: Query(q).measures("edit", "mcs").skyline(),
    "skyband": lambda q: Query(q).measures("edit", "mcs").skyband(2),
    "topk": lambda q: Query(q).topk(3, "edit"),
    "threshold": lambda q: Query(q).threshold(2.0, "edit"),
}


@pytest.fixture
def query_graph() -> LabeledGraph:
    return make_random_graph(99, max_vertices=5)


def _database(shards: int | None = None) -> GraphDatabase:
    if shards is not None:
        return ShardedGraphDatabase.from_graphs(GRAPHS, shards=shards)
    return GraphDatabase.from_graphs(GRAPHS)


def _cached(database, backend: str = "auto", cache=None):
    options = {"max_workers": 2} if backend == "parallel" else {}
    return repro.connect(
        database,
        backend=backend,
        cache=PairCache() if cache is None else cache,  # an empty cache is falsy
        **options,
    )


def _oracle(database, spec):
    with repro.connect(database, backend="memory") as session:
        return session.execute(spec)


def _answer(result) -> dict:
    """Answer ids with their exact values (the evaluated set may differ
    between a pruning backend and the oracle)."""
    values = result.distances if result.distances is not None else result.vectors
    return {graph_id: values[graph_id] for graph_id in result.ids}


# ----------------------------------------------------------------------
# Hits: the stored answer, no work, honest stats
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend,kind",
    [("auto", kind) for kind in SPECS]
    + [(name, "skyline") for name in available_backends() if name != "auto"],
)
def test_repeat_is_served_whole_with_zero_work(backend, kind, query_graph):
    spec = SPECS[kind](query_graph)
    with _cached(_database(), backend) as session:
        miss = session.execute(spec)
        hit = session.execute(spec)
        assert session.answer_store.snapshot() == {
            "hits": 1, "replays": 0, "misses": 1, "entries": 1,
        }
    assert not miss.stats.reused and hit.stats.reused
    assert hit.ids == miss.ids
    assert hit.evaluated_ids == miss.evaluated_ids
    assert hit.vectors == miss.vectors and hit.distances == miss.distances
    assert hit.plan == miss.plan
    stats = hit.stats
    assert (
        stats.candidates_considered,
        stats.pruned_by_index,
        stats.pruned_by_batch,
        stats.exact_evaluations,
        stats.served_from_cache,
    ) == (0, 0, 0, 0, 0)
    assert stats.pruned_by_stage == {} and stats.phase_seconds == {}
    assert stats.planner is None and stats.pool is None and stats.per_shard is None
    assert hit.cache_info["hits"] == hit.cache_info["misses"] == 0
    miss_wire, hit_wire = miss.to_dict(), hit.to_dict()
    optional = {"planner", "per_shard", "pool", "anytime"}  # present when set
    assert set(miss_wire["stats"]) - optional == set(hit_wire["stats"])
    assert (miss_wire["stats"]["reused"], hit_wire["stats"]["reused"]) == (
        False, True,
    )
    assert hit_wire["rows"] == miss_wire["rows"]
    assert "reused" in stats.summary() and "reused" not in miss.stats.summary()
    assert "no candidate was touched" in hit.explain()


def test_isomorphic_renumbered_query_hits(query_graph):
    database = _database()
    with _cached(database) as session:
        miss = session.execute(SPECS["skyline"](query_graph))
        hit = session.execute(SPECS["skyline"](renumbered(query_graph)))
    assert hit.stats.reused
    assert _answer(hit) == _answer(miss) == _answer(
        _oracle(database, SPECS["skyline"](query_graph))
    )


def test_limit_and_refine_variants_share_one_entry(paper_database, paper_query):
    base = Query(paper_query).skyline()  # the paper's four-graph skyline
    with _cached(paper_database) as session:
        full = session.execute(base)
        limited = session.execute(base.limit(1))
        refined = session.execute(base.refine(k=2))
        assert len(session.answer_store) == 1
        assert session.answer_store.hits == 2
    assert limited.stats.reused and limited.ids == full.ids[:1]
    assert refined.stats.reused and refined.ids == full.ids
    expected = _oracle(paper_database, base.refine(k=2)).refinement
    assert [g.name for g in refined.refinement.subset] == [
        g.name for g in expected.subset
    ]


@pytest.mark.parametrize("kind", ["skyline", "topk"])
def test_mutating_a_result_leaves_the_next_hit_intact(kind, query_graph):
    spec = SPECS[kind](query_graph)

    def contents(result):
        return (
            list(result.ids),
            list(result.evaluated_ids),
            dict(result.vectors),
            None if result.distances is None else dict(result.distances),
        )

    def vandalize(result):
        result.ids.append(-1)
        result.evaluated_ids.clear()
        result.vectors.clear()
        if result.distances is not None:
            result.distances.clear()

    with _cached(_database()) as session:
        first = session.execute(spec)
        expected = contents(first)
        vandalize(first)
        second = session.execute(spec)
        assert second.stats.reused and contents(second) == expected
        vandalize(second)
        third = session.execute(spec)
    assert third.stats.reused and contents(third) == expected


# ----------------------------------------------------------------------
# Misses: every change of version, graph or budget runs the query
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [None, 2], ids=["monolithic", "sharded"])
@pytest.mark.parametrize("op", ["add", "remove", "relabel"])
def test_mutation_forces_a_run_equal_to_the_oracle(shards, op, query_graph):
    database = _database(shards)
    handles = {f"g{i}": graph_id for i, graph_id in enumerate(database.ids())}
    ids = {graph_id: handle for handle, graph_id in handles.items()}
    spec = SPECS["skyline"](query_graph)
    with _cached(database) as session:
        before = session.execute(spec)
        assert session.execute(spec).stats.reused
        member = ids[before.ids[0]]
        mutation = {
            "add": AddOp("copy", query_graph.copy(name="copy")),
            "remove": RemoveOp(member),
            "relabel": RelabelOp(member, "relabeled", 0, "Z"),
        }[op]
        apply_mutation(database, mutation, handles, ids)
        after = session.execute(spec)
        again = session.execute(spec)
    assert not after.stats.reused and again.stats.reused
    assert after.ids != before.ids
    assert _answer(after) == _answer(again) == _answer(_oracle(database, spec))


def test_query_graph_mutated_in_place_misses(query_graph):
    database = _database()
    with _cached(database) as session:
        session.execute(SPECS["topk"](query_graph))
        query_graph.relabel_vertex(query_graph.vertices()[0], "Z")
        after = session.execute(SPECS["topk"](query_graph))
    assert not after.stats.reused
    assert _answer(after) == _answer(_oracle(database, SPECS["topk"](query_graph)))


@pytest.mark.parametrize(
    "build",
    [
        lambda q: Query(q).topk(3, "edit").budget(nodes=500),
        lambda q: Query(q).measures(get_measure("edit"), "mcs").skyline(),
        lambda q: Query(q).topk(3, get_measure("edit")),
    ],
    ids=["anytime", "measure-instances", "single-measure-instance"],
)
def test_bypassing_specs_always_run(build, query_graph):
    with _cached(_database()) as session:
        first = session.execute(build(query_graph))
        second = session.execute(build(query_graph))
        assert session.answer_store.snapshot() == {
            "hits": 0, "replays": 0, "misses": 0, "entries": 0,
        }
    assert not second.stats.reused
    assert second.ids == first.ids


def test_run_spanning_a_mutation_stores_nothing(query_graph, monkeypatch):
    database = _database()
    spec = SPECS["topk"](query_graph)
    with _cached(database) as session:
        run = session.backend.run

        def run_then_mutate(spec):
            answer = run(spec)
            database.insert(query_graph.copy(name="late"))
            return answer

        monkeypatch.setattr(session.backend, "run", run_then_mutate)
        session.execute(spec)
        assert len(session.answer_store) == 0
        monkeypatch.undo()
        after = session.execute(spec)
    assert not after.stats.reused
    assert _answer(after) == _answer(_oracle(database, spec))


def test_uncached_sessions_keep_no_store(query_graph):
    with repro.connect(_database(), backend="auto") as session:
        session.execute(SPECS["topk"](query_graph))
        second = session.execute(SPECS["topk"](query_graph))
        assert len(session.answer_store) == 0
    assert not second.stats.reused and second.stats.candidates_considered > 0


class _OrderGap(DistanceMeasure):
    name = "probe"

    def distance(self, g1, g2, context=None):
        return float(abs(g1.order - g2.order))


class _OrderSum(DistanceMeasure):
    name = "probe"

    def distance(self, g1, g2, context=None):
        return float(g1.order + g2.order)


@pytest.mark.parametrize("drop", ["clear", "invalidate_subject"])
def test_dropping_pair_cache_values_forces_a_run(drop, query_graph, monkeypatch):
    """A measure re-registered under the same name, with the pair cache
    told to forget the values its old implementation solved: answers
    stored from those values must not be served."""
    monkeypatch.setitem(measures_base._REGISTRY, "probe", _OrderGap)
    database = _database()
    cache = PairCache()
    spec = Query(query_graph).topk(3, "probe")
    with _cached(database, "memory", cache) as session:
        before = session.execute(spec)
        assert session.execute(spec).stats.reused
        monkeypatch.setitem(measures_base._REGISTRY, "probe", _OrderSum)
        if drop == "clear":
            cache.clear()
        else:
            for entry in database.entries():
                cache.invalidate_subject(cache.subject_key(entry))
        after = session.execute(spec)
    assert not after.stats.reused
    assert _answer(after) == _answer(_oracle(database, spec))
    assert _answer(after) != _answer(before)


# ----------------------------------------------------------------------
# Replays: a changed version is brought forward over the change log
# ----------------------------------------------------------------------
def _far_graph() -> LabeledGraph:
    """A graph whose feature bounds put it outside every spec's answer."""
    graph = LabeledGraph(name="far")
    for vertex in range(7):
        graph.add_vertex(vertex, "Q")
    for vertex in range(6):
        graph.add_edge(vertex, vertex + 1, "~")
    return graph


@pytest.mark.parametrize("kind", list(SPECS))
def test_replay_reports_its_own_work(kind, query_graph, monkeypatch):
    database = _database()
    spec = SPECS[kind](query_graph)
    cache = PairCache()
    with _cached(database, cache=cache) as session:
        session.execute(spec)
        since = database.version
        near = database.insert(query_graph.copy(name="near"))
        database.insert(_far_graph())
        written = []
        put = cache.put
        monkeypatch.setattr(
            cache, "put", lambda *args: written.append(args) or put(*args)
        )
        result = session.execute(spec)
        again = session.execute(spec)
        assert session.answer_store.snapshot() == {
            "hits": 1, "replays": 1, "misses": 1, "entries": 1,
        }
    stats = result.stats
    assert stats.replayed_from == since and not stats.reused
    assert stats.replayed_delta == (2, 0)
    assert stats.candidates_considered == 2
    # The far graph is pruned on its bounds; only the near one is judged
    # exactly, and the stored values are neither probed nor solved again.
    assert stats.pruned_by_index == 1 and sum(stats.pruned_by_stage.values()) == 1
    assert stats.exact_evaluations + stats.served_from_cache == 1
    assert result.cache_info["hits"] == stats.served_from_cache
    assert result.cache_info["misses"] == stats.exact_evaluations
    assert len(written) == stats.exact_evaluations  # stored values stay put
    assert {"bounds", "cascade", "evaluate"} <= set(stats.phase_seconds)
    assert near in result.ids
    assert result.plan.database_size == len(database) == len(GRAPHS) + 2
    wire = result.to_dict()["stats"]
    assert (wire["replayed_from"], wire["reused"]) == (since, False)
    assert f"replayed@v{since}(+2/-0)" in stats.summary()
    assert f"replayed the answer of version {since} over +2/−0" in result.explain()
    assert again.stats.reused and _answer(again) == _answer(result)
    assert _answer(result) == _answer(_oracle(database, spec))


@pytest.mark.parametrize("kind", list(SPECS))
def test_removing_an_answer_member_runs_in_full_except_for_threshold(
    kind, query_graph
):
    database = _database()
    # The copy dominates every graph and ranks first: once it is gone the
    # graphs it eclipsed (pruned by a bound-pruning run) return.
    copy = database.insert(query_graph.copy(name="copy"))
    spec = SPECS[kind](query_graph)
    with _cached(database) as session:
        before = session.execute(spec)
        assert copy in before.ids
        database.remove(copy)
        after = session.execute(spec)
    assert (after.stats.replayed_from is not None) == (kind == "threshold")
    assert copy not in after.ids
    assert _answer(after) == _answer(_oracle(database, spec))


@pytest.mark.parametrize("kind", list(SPECS))
def test_a_new_graph_under_an_old_id_is_judged_not_seeded(kind, query_graph):
    database = _database()
    spec = SPECS[kind](query_graph)
    with _cached(database, "memory") as session:
        before = session.execute(spec)
        victim = max(set(before.evaluated_ids) - set(before.ids))
        database.remove(victim)
        database.insert(query_graph.copy(name="reborn"), graph_id=victim)
        after = session.execute(spec)
    assert after.stats.replayed_from is not None
    assert victim in after.ids
    assert _answer(after) == _answer(_oracle(database, spec))


def test_an_old_id_reused_by_a_far_graph_drops_its_stored_value(query_graph):
    database = _database()
    copy = database.insert(query_graph.copy(name="copy"))
    spec = SPECS["threshold"](query_graph)
    with _cached(database, "memory") as session:
        assert copy in session.execute(spec).ids
        database.remove(copy)
        database.insert(_far_graph(), graph_id=copy)
        after = session.execute(spec)
    assert after.stats.replayed_from is not None
    assert copy not in after.ids
    assert _answer(after) == _answer(_oracle(database, spec))


def test_tolerant_dominance_runs_in_full(query_graph):
    database = _database()
    spec = Query(query_graph).measures("edit", "mcs").skyline(tolerance=0.05)
    with _cached(database, "memory") as session:
        session.execute(spec)
        database.insert(_far_graph())
        after = session.execute(spec)
        assert session.answer_store.replays == 0
    assert after.stats.replayed_from is None
    assert _answer(after) == _answer(_oracle(database, spec))


class _NanForNamed(DistanceMeasure):
    name = "nan-probe"

    def distance(self, g1, g2, context=None):
        return math.nan if "nan" in (g1.name, g2.name) else 0.0


def test_nan_values_run_in_full(query_graph, monkeypatch):
    monkeypatch.setitem(measures_base._REGISTRY, "nan-probe", _NanForNamed)
    database = _database()
    spec = Query(query_graph).measures("edit", "nan-probe").skyline()
    with _cached(database, "memory") as session:
        session.execute(spec)
        # Edit bound 0, so the copy is solved, and its vector holds a NaN.
        database.insert(query_graph.copy(name="nan"))
        after = session.execute(spec)
        assert session.answer_store.replays == 0
    assert after.stats.replayed_from is None
    assert after.ids == _oracle(database, spec).ids


def test_a_reader_behind_the_change_log_runs_in_full(query_graph, monkeypatch):
    monkeypatch.setattr(database_module, "CHANGE_LOG_LIMIT", 2)
    database = _database()
    spec = SPECS["skyline"](query_graph)
    with _cached(database) as session:
        session.execute(spec)
        for seed in range(3):
            database.insert(make_random_graph(200 + seed, max_vertices=5))
        overflowed = session.execute(spec)
        since = database.version
        database.insert(query_graph.copy(name="near"))
        replayed = session.execute(spec)
        assert session.answer_store.snapshot() == {
            "hits": 0, "replays": 1, "misses": 2, "entries": 1,
        }
    assert overflowed.stats.replayed_from is None
    assert replayed.stats.replayed_from == since
    assert _answer(replayed) == _answer(_oracle(database, spec))


def test_a_pair_cache_generation_bump_runs_in_full(query_graph, monkeypatch):
    """Values the pair cache was told to drop are never seeded into a
    replay: the generation is part of the key, so the read misses."""
    monkeypatch.setitem(measures_base._REGISTRY, "probe", _OrderGap)
    database = _database()
    cache = PairCache()
    spec = Query(query_graph).topk(3, "probe")
    with _cached(database, "memory", cache) as session:
        session.execute(spec)
        monkeypatch.setitem(measures_base._REGISTRY, "probe", _OrderSum)
        cache.clear()
        database.insert(make_random_graph(300, max_vertices=5))
        after = session.execute(spec)
    assert after.stats.replayed_from is None and not after.stats.reused
    assert _answer(after) == _answer(_oracle(database, spec))


def test_a_replay_spanning_a_mutation_stores_nothing(query_graph, monkeypatch):
    database = _database()
    spec = SPECS["skyline"](query_graph)
    with _cached(database) as session:
        session.execute(spec)
        since = database.version
        database.insert(_far_graph())

        def replay_then_mutate(*args, **kwargs):
            answer = run_plan(*args, **kwargs)
            database.insert(query_graph.copy(name="late"))
            return answer

        monkeypatch.setattr(session_module, "run_plan", replay_then_mutate)
        spanning = session.execute(spec)
        monkeypatch.undo()
        after = session.execute(spec)
    assert spanning.stats.replayed_from == since
    assert not after.stats.reused and after.stats.replayed_from == since
    assert _answer(after) == _answer(_oracle(database, spec))


@pytest.mark.parametrize("kind", list(SPECS))
def test_a_sharded_replay_equals_a_monolithic_one(kind, query_graph):
    spec = SPECS[kind](query_graph)
    replays = []
    for shards in (None, 2):
        database = _database(shards)
        with _cached(database) as session:
            before = session.execute(spec)
            database.remove(max(set(database.ids()) - set(before.ids)))
            database.insert(query_graph.copy(name="near"))
            replays.append(session.execute(spec))
    monolithic, sharded = replays
    assert monolithic.stats.replayed_from is not None
    assert sharded.stats.replayed_from == monolithic.stats.replayed_from
    assert sharded.stats.replayed_delta == monolithic.stats.replayed_delta == (1, 1)
    assert _answer(sharded) == _answer(monolithic)
    assert _answer(sharded) == _answer(_oracle(database, spec))


def test_replays_over_a_large_delta_equal_a_full_run(query_graph):
    """Sixty added graphs, every third a near mutant of the query (its
    bounds tight, its exact values at the cutoffs): top-k, skyline and
    threshold replays return a full run's ids and values."""
    rng = random.Random(5)
    added = [
        mutate(
            query_graph, rng.randint(1, 2), ("A", "B", "C"), ("-",),
            seed=rng, name=f"near-{index}",
        )
        if index % 3 == 0
        else make_random_graph(1000 + index, max_vertices=5)
        for index in range(60)
    ]
    specs = [
        Query(query_graph).topk(3, "edit"),
        Query(query_graph).measures("edit-normalized", "union").topk(4),
        Query(query_graph).measures("edit", "mcs", "union").skyline(),
        Query(query_graph).measures("edit", "mcs").skyband(2),
        Query(query_graph).threshold(2.0, "edit"),
        Query(query_graph).threshold(0.5, "mcs"),
    ]
    database = _database()
    with _cached(database) as session:
        for spec in specs:
            session.execute(spec)
        for graph in added:
            database.insert(graph)
        replays = [session.execute(spec) for spec in specs]
    with repro.connect(database, backend="auto") as full:
        for spec, replay in zip(specs, replays):
            assert replay.stats.replayed_delta == (60, 0)
            run = full.execute(spec)
            assert replay.ids == run.ids
            assert _answer(replay) == _answer(run) == _answer(_oracle(database, spec))
    assert any(
        database.get(graph_id).name.startswith("near-")
        for replay in replays
        for graph_id in replay.ids
    )


_BATCHES = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "relabel", "remove-member"]),
            st.integers(0, 10_000),
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=4,
)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seeds=st.lists(st.integers(0, 10_000), min_size=3, max_size=9, unique=True),
    setup=st.sampled_from(["memory", "auto", "sharded"]),
    batches=_BATCHES,
)
def test_replays_equal_the_oracle_under_random_mutation(seeds, setup, batches):
    graphs = [make_random_graph(seed, max_vertices=4) for seed in seeds]
    if setup == "sharded":
        database = ShardedGraphDatabase.from_graphs(graphs, shards=2)
    else:
        database = GraphDatabase.from_graphs(graphs)
    query = make_random_graph(seeds[0] + 1, max_vertices=4)
    specs = [build(query) for build in SPECS.values()]
    handles = {f"g{i}": graph_id for i, graph_id in enumerate(database.ids())}
    ids = {graph_id: handle for handle, graph_id in handles.items()}
    fresh = itertools.count()
    members: list[int] = []
    with _cached(database, setup) as session:
        for batch in [[]] + batches:
            for op, draw in batch:
                live = sorted(handles)
                alive = [graph_id for graph_id in members if graph_id in ids]
                if op == "add" or not live:
                    handle = f"n{next(fresh)}"
                    graph = make_random_graph(draw, max_vertices=4).copy(name=handle)
                    mutation = AddOp(handle, graph)
                elif op == "remove-member" and alive:
                    mutation = RemoveOp(ids[alive[draw % len(alive)]])
                elif op == "relabel":
                    mutation = RelabelOp(
                        live[draw % len(live)], f"r{next(fresh)}", draw, "Z"
                    )
                else:
                    mutation = RemoveOp(live[draw % len(live)])
                apply_mutation(database, mutation, handles, ids)
            for spec in specs:
                result = session.execute(spec)
                assert _answer(result) == _answer(_oracle(database, spec))
                members.extend(result.ids)
        assert session.answer_store.replays > 0


# ----------------------------------------------------------------------
# Sharing and bounds
# ----------------------------------------------------------------------
def test_threads_sharing_one_memory_session_get_the_serial_answers(
    query_graph, monkeypatch
):
    database = _database()
    cache = PairCache()
    # A four-entry store: hot specs stay resident and hit while the cold
    # sweep evicts on nearly every put, so threads race hits, misses and
    # evictions of the entries other threads are reading.
    monkeypatch.setattr(cache_module, "ANSWER_STORE_LIMIT", 4)
    hot = [SPECS["topk"](query_graph), SPECS["skyline"](query_graph)]
    cold = [Query(query_graph).threshold(0.25 * step, "edit") for step in range(16)]
    specs = hot + cold
    with _cached(database, "memory", cache) as serial:
        expected = [serial.execute(spec).ids for spec in specs]
    shared = _cached(database, "memory", cache)
    results, errors = [], []

    def client(offset: int) -> None:
        try:
            for step in range(200):
                for index in (
                    (offset + step) % len(hot),
                    len(hot) + (4 * offset + step) % len(cold),
                ):
                    result = shared.execute(specs[index])
                    results.append((index, list(result.ids)))
                    result.ids.clear()  # no other client may see this
        except Exception as exc:  # collected; asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        shared.close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 4 * 200 * 2
    assert all(ids == expected[index] for index, ids in results)
    counters = shared.answer_store.snapshot()
    assert counters["hits"] + counters["misses"] == len(results)
    assert counters["hits"] > 0 and counters["entries"] <= 4


def test_entry_bound_and_version_rules(monkeypatch):
    """The newest entry per key, with its version, within the LRU bound."""
    monkeypatch.setattr(cache_module, "ANSWER_STORE_LIMIT", 3)
    store = AnswerStore()
    for key in range(5):
        store.put(1, key, f"answer{key}")
    assert len(store) == 3
    assert store.get(0) is None and store.get(4) == (1, "answer4")
    store.put(2, 4, "newer")  # a newer version replaces the key's entry
    assert store.get(4) == (2, "newer") and len(store) == 3
    store.put(1, 4, "stale")  # older than the key's entry: ignored
    assert store.get(4) == (2, "newer")
    store.put(3, "other", "fresh")  # other keys' older entries stay
    assert store.get(3) == (1, "answer3") and store.get(4) == (2, "newer")
    assert store.get(2) is None and len(store) == 3  # LRU eviction only


def test_session_store_stays_within_its_bound(query_graph):
    with _cached(_database(), "memory") as session:
        for step in range(ANSWER_STORE_LIMIT + 3):
            session.execute(Query(query_graph).threshold(0.5 + step, "edit"))
        assert len(session.answer_store) == ANSWER_STORE_LIMIT


def test_server_reports_the_store_per_session(query_graph):
    body = json.dumps(SPECS["topk"](query_graph).build().to_dict())
    with serve_in_thread(_database(), ServerConfig()) as server:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            payloads = []
            for _ in range(2):
                conn.request("POST", "/v1/query", body=body)
                payloads.append(json.loads(conn.getresponse().read()))
            conn.request("GET", "/v1/stats")
            stats = json.loads(conn.getresponse().read())
        finally:
            conn.close()
    assert [payload["stats"]["reused"] for payload in payloads] == [False, True]
    assert payloads[0]["ids"] == payloads[1]["ids"]
    assert stats["answers"] == {
        "memory": {"hits": 1, "replays": 0, "misses": 1, "entries": 1}
    }


# ----------------------------------------------------------------------
# Fuzzing: repeated specs meet the store, against the oracle
# ----------------------------------------------------------------------
def test_fuzz_repeats_queries_and_replays_them_through_the_store():
    workload = generate_workload(seed=1, n_steps=120)
    queries = [step for step in workload.steps if isinstance(step, RunQuery)]
    verbatim = isomorphic = 0
    for index, step in enumerate(queries):
        fields = dict(step.query.to_dict(), graph=None)
        for earlier in queries[:index]:
            if earlier.backend != step.backend or fields != dict(
                earlier.query.to_dict(), graph=None
            ):
                continue
            if earlier.query.to_dict()["graph"] == step.query.to_dict()["graph"]:
                verbatim += 1
                break
            if canonical_hash(earlier.query.graph) == canonical_hash(step.query.graph):
                isomorphic += 1
                break
    assert verbatim > 0 and isomorphic > 0

    report = run_workload(_remap_backend(workload, "auto"))
    assert report.ok, report.divergence.describe()
    assert report.answer_hits > 0 and report.answer_misses > 0
    assert report.answer_replays > 0
    assert (
        f"answer store {report.answer_hits} hits / {report.answer_replays} "
        f"replays / {report.answer_misses} misses" in report.summary()
    )
