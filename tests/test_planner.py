"""The rule-based planner and the ``auto`` backend.

Answer-set parity with the exhaustive reference across all four kinds is
also fuzzed (``auto`` sits in the testkit backend rotation); this file
pins the decision layer itself — the rule's soundness gates and
crossovers, plans that do not depend on read history, batched bounds
at every row count, the regret pins (a plan chosen once never evaluates much
more than ``indexed``), ``auto`` against the fixed backend the rule
names, the ``explain()`` / ``to_dict()`` reporting, the sharded scatter
path, the ``repro backends`` CLI, and plans behind the server.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import GraphDatabase, PairCache, Query
from repro.api.backends import ExecutionBackend, available_backends
from repro.api.spec import GraphQuery
from repro.datasets import make_workload
from repro.engine.planner import QueryPlanner, availability
from repro.shard import ShardedGraphDatabase

from tests.conftest import make_random_graph


def _random_database(n_graphs: int) -> GraphDatabase:
    return GraphDatabase.from_graphs(
        [make_random_graph(seed, max_vertices=5) for seed in range(n_graphs)]
    )


@pytest.fixture
def database() -> GraphDatabase:
    return _random_database(14)


@pytest.fixture
def query_graph():
    return make_random_graph(99, max_vertices=5)


def _reference(database, build):
    with repro.connect(database, backend="memory") as session:
        return session.execute(build())


def _skyline_spec(graph) -> GraphQuery:
    return Query(graph).measures("edit", "mcs").skyline().build()


# ----------------------------------------------------------------------
# Registration + parity
# ----------------------------------------------------------------------
def test_backend_is_registered():
    assert "auto" in available_backends()


@pytest.mark.parametrize(
    "build",
    [
        lambda q: Query(q).measures("edit", "mcs").skyline(),
        lambda q: Query(q).measures("edit", "mcs").skyline(tolerance=0.25),
        lambda q: Query(q).measures("edit", "mcs").skyband(2),
        lambda q: Query(q).topk(3, "edit"),
        lambda q: Query(q).threshold(0.5, "edit"),
    ],
    ids=["skyline", "skyline-tolerant", "skyband", "topk", "threshold"],
)
def test_auto_matches_memory(database, query_graph, build):
    expected = _reference(database, lambda: build(query_graph))
    with repro.connect(database, backend="auto") as session:
        result = session.execute(build(query_graph))
    assert result.ids == expected.ids
    planner = result.stats.planner
    assert planner is not None and planner["backend"] == "auto"
    # The decision names source, stages, evaluator, and the rule's reasons.
    assert planner["source"] in ("database-order", "indexed")
    assert planner["evaluator"]
    assert planner["reasons"]


def test_tolerant_skyline_disables_pruning(database, query_graph):
    with repro.connect(database, backend="auto") as session:
        result = session.execute(
            Query(query_graph).measures("edit", "mcs").skyline(tolerance=0.25)
        )
    planner = result.stats.planner
    assert planner["summary"].startswith("database-order+no-prune")
    assert any("tolerant" in reason for reason in planner["reasons"])
    assert result.stats.exact_evaluations == len(database)


def test_explain_and_to_dict_carry_the_decision(database, query_graph):
    with repro.connect(database, backend="auto") as session:
        result = session.execute(_skyline_spec(query_graph))
    text = result.explain()
    assert "planner: chose indexed+pareto-bound(batch)/" in text
    assert "rule: pruning is sound: batched bounds over 14 rows" in text
    payload = result.to_dict()
    planner = payload["stats"]["planner"]
    assert planner["summary"] == result.stats.planner["summary"]
    assert planner["reasons"] == result.stats.planner["reasons"]
    assert set(planner) == {
        "backend", "summary", "source", "stages", "evaluator", "reasons"
    }
    assert payload["stats"]["pruned_by_stage"] == dict(
        result.stats.pruned_by_stage
    )
    for key in ("source_ms", "cascade_ms", "evaluate_ms"):
        assert payload["stats"][key] >= 0.0


def test_execute_decides_once_and_explains_the_plan_that_ran(
    database, query_graph, monkeypatch
):
    decisions = []
    decide = QueryPlanner.decide

    def spy(self, *args, **kwargs):
        decisions.append(decide(self, *args, **kwargs))
        return decisions[-1]

    monkeypatch.setattr(QueryPlanner, "decide", spy)
    with repro.connect(database, backend="auto", cache=PairCache()) as session:
        result = session.execute(_skyline_spec(query_graph))
    assert len(decisions) == 1
    ran = tuple(result.stats.planner["stages"])
    assert ran[0] == decisions[0].stage and ran[-1] == "cached-pairs"
    assert result.plan.stages == ran
    assert f"cascade: {' → '.join(ran)}" in result.explain()


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------
_KINDS = {
    "skyline": (
        lambda q: Query(q).measures("edit", "mcs").skyline(),
        "pareto-bound(batch)",
    ),
    "skyband": (
        lambda q: Query(q).measures("edit", "mcs").skyband(2),
        "pareto-bound(batch)",
    ),
    "topk": (lambda q: Query(q).topk(3, "edit"), "rank-bound"),
    "threshold": (lambda q: Query(q).threshold(0.5, "edit"), "threshold-bound"),
}


@pytest.mark.parametrize("rows", [8, 30])
@pytest.mark.parametrize("kind", list(_KINDS))
def test_small_databases_plan_batched_bounds(query_graph, rows, kind):
    build, stage = _KINDS[kind]
    database = _random_database(rows)
    with repro.connect(database, backend="auto", max_workers=1) as session:
        result = session.execute(build(query_graph))
    assert result.stats.planner["summary"] == f"indexed+{stage}/serial"
    assert result.stats.planner["reasons"][0] == (
        f"pruning is sound: batched bounds over {rows} rows"
    )
    assert result.ids == _reference(database, lambda: build(query_graph)).ids


def test_decide_anytime_is_serial(query_graph):
    spec = Query(query_graph).measures("edit", "mcs").skyline().budget(
        ms=50
    ).build()
    assert QueryPlanner().decide(spec, 500).evaluator == "serial"


def test_decide_offers_exhaustive_only_when_pruning_is_unsound(query_graph):
    planner = QueryPlanner()
    topk = planner.decide(Query(query_graph).topk(3, "edit").build(), 150)
    assert topk.stage == "rank-bound" and topk.source == "indexed"
    tolerant_spec = (
        Query(query_graph).measures("edit", "mcs").skyline(tolerance=0.25)
    ).build()
    tolerant = planner.decide(tolerant_spec, 150)
    assert tolerant.stage is None and tolerant.source == "database-order"
    assert tolerant.summary == "database-order+no-prune/serial"
    assert "tolerant" in tolerant.reasons[0]


# ----------------------------------------------------------------------
# Plans follow the input, not the read history
# ----------------------------------------------------------------------
def test_threshold_plan_does_not_follow_a_read_that_pruned_nothing(
    query_graph,
):
    # threshold(20.0) prunes nothing; a planner that priced stages from
    # observed prune rates would plan the next threshold read on the
    # batched source.
    database = _random_database(30)
    with repro.connect(database, backend="auto", max_workers=1) as session:
        loose = session.execute(Query(query_graph).threshold(20.0, "edit"))
        tight = session.execute(Query(query_graph).threshold(0.5, "edit"))
    expected = "indexed+threshold-bound/serial"
    assert loose.stats.planner["summary"] == expected
    assert tight.stats.planner["summary"] == expected


_READS = [
    lambda q: Query(q).threshold(20.0, "edit"),
    lambda q: Query(q).threshold(0.5, "edit"),
    lambda q: Query(q).topk(1, "edit"),
    lambda q: Query(q).topk(12, "edit"),
    lambda q: Query(q).measures("edit", "mcs").skyline(),
    lambda q: Query(q).measures("edit", "mcs").skyband(3),
    lambda q: Query(q).measures("edit", "mcs").skyline(tolerance=0.25),
]


@settings(max_examples=15, deadline=None)
@given(
    history=st.lists(st.sampled_from(_READS), max_size=4),
    final=st.sampled_from(_READS),
)
def test_decisions_do_not_depend_on_prior_reads(history, final):
    database = _random_database(12)
    query = make_random_graph(99, max_vertices=5)
    spec = final(query).build()
    fresh = ExecutionBackend(database, "auto", max_workers=1)
    trained = ExecutionBackend(database, "auto", max_workers=1)
    for build in history:
        trained.run(build(query).build())
    assert trained.decide(spec) == fresh.decide(spec)


# ----------------------------------------------------------------------
# Regret pins: a plan chosen once keeps its sound bound stage
# ----------------------------------------------------------------------
def _topk_workload(n_graphs: int):
    workload = make_workload(
        n_graphs,
        n_queries=1,
        query_size=4,
        mutant_fraction=0.3,
        radius=(1, 3),
        seed=1,
    )
    return GraphDatabase.from_graphs(workload.database), workload.queries[0]


def _indexed_and_memory(database, build):
    with repro.connect(database, backend="indexed") as session:
        indexed = session.execute(build())
    return indexed, _reference(database, build)


def test_topk_after_neighbours_removed_evaluates_like_indexed():
    # After one read the query's 20 nearest neighbours are deleted: the
    # next read's bound-sorted prefix prunes nothing for well over 32
    # candidates before the rank cutoff starts biting.
    database, query = _topk_workload(150)
    build = lambda: Query(query).topk(3, "edit")  # noqa: E731
    with repro.connect(database, backend="auto", max_workers=1) as session:
        session.execute(build())
        for graph_id in _reference(
            database, lambda: Query(query).topk(20, "edit")
        ).ids:
            database.remove(graph_id)
        result = session.execute(build())
    indexed, expected = _indexed_and_memory(database, build)
    assert result.ids == expected.ids
    assert result.stats.planner["stages"][0] == "rank-bound"
    assert (
        result.stats.exact_evaluations
        <= 1.25 * indexed.stats.exact_evaluations
    )


def test_poisoned_topk_profile_keeps_the_rank_stage():
    # k = |db| top-k queries prune nothing; a later k = 3 read must
    # still plan the stage, or every top-k query becomes a full scan.
    database, query = _topk_workload(150)
    build = lambda: Query(query).topk(3, "edit")  # noqa: E731
    with repro.connect(database, backend="auto", max_workers=1) as session:
        session.execute(build())
        for _ in range(13):
            session.execute(Query(query).topk(len(database), "edit"))
        result = session.execute(build())
    indexed, expected = _indexed_and_memory(database, build)
    assert result.ids == expected.ids
    assert "no-prune" not in result.stats.planner["summary"]
    assert (
        result.stats.exact_evaluations
        <= 1.25 * indexed.stats.exact_evaluations
    )


# ----------------------------------------------------------------------
# auto never pools: bound feedback needs each vector before the next pair
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def p1_database():
    """1 500 graphs of ~8 vertices: a 2-worker pool's break-even used to
    read as paid here for every kind, and the pooled reads lost."""
    workload = make_workload(
        1500, n_queries=1, query_size=8, mutant_fraction=0.3, seed=3
    )
    return GraphDatabase.from_graphs(workload.database), workload.queries[0]


@pytest.mark.parametrize("shards", [None, 4], ids=["monolith", "4-shards"])
@pytest.mark.parametrize(
    "build",
    [
        lambda q: Query(q).threshold(3, "edit"),
        lambda q: Query(q).skyline(),
        lambda q: Query(q).topk(5),
        lambda q: Query(q).skyband(3),
    ],
    ids=["threshold", "skyline", "topk", "skyband"],
)
def test_auto_plans_serial_with_workers_to_spare(p1_database, build, shards):
    # Plan only: nothing runs, so no pool could start.
    database, query = p1_database
    if shards is not None:
        database = ShardedGraphDatabase.from_database(database, shards=shards)
    backend = ExecutionBackend(database, "auto", max_workers=2)
    execution = backend.execution(build(query).build())
    assert execution.decision.evaluator == "serial"
    assert execution.workers == 1
    assert execution.scattered == (shards is not None)


@pytest.mark.parametrize("shards", [None, 3], ids=["monolith", "3-shards"])
@pytest.mark.parametrize("build", list(_READS), ids=range(len(_READS)))
def test_auto_with_workers_evaluates_like_one_worker(build, shards):
    database = _random_database(12)
    query = make_random_graph(99, max_vertices=5)
    results = {}
    for workers in (1, 2):
        with repro.connect(
            database, backend="auto", shards=shards, max_workers=workers
        ) as session:
            results[workers] = session.execute(build(query))
    assert results[2].stats.pool is None
    assert results[2].stats.planner["evaluator"] == "serial"
    assert results[2].ids == results[1].ids
    assert (
        results[2].stats.exact_evaluations == results[1].stats.exact_evaluations
    )


# ----------------------------------------------------------------------
# auto runs the plan of the fixed backend the rule names
# ----------------------------------------------------------------------
#: Two database shapes on which the rule must name the serial indexed
#: plan: a small one with every query kind, where a pool's start-up
#: would cost more than the pairs, and a larger one, where bound pruning
#: decides most pairs. Graphs, query size, seed and spec mix.
_BENCH_CLASSES = {
    "interactive": (36, 6, 101, [
        lambda q: Query(q).measures("edit", "mcs").skyline(),
        lambda q: Query(q).measures("edit", "mcs").skyband(2),
        lambda q: Query(q).topk(3, "edit"),
        lambda q: Query(q).threshold(0.5, "edit"),
    ]),
    "bulk-pruned": (120, 5, 202, [
        lambda q: Query(q).measures("edit", "mcs").skyline(),
        lambda q: Query(q).topk(5, "edit"),
        lambda q: Query(q).threshold(0.4, "edit"),
    ]),
}


@pytest.mark.parametrize("name", list(_BENCH_CLASSES))
def test_auto_runs_the_plan_of_the_fixed_backend_the_rule_names(name):
    n_graphs, query_size, seed, builds = _BENCH_CLASSES[name]
    workload = make_workload(
        n_graphs=n_graphs, query_size=query_size, seed=seed
    )
    database = GraphDatabase.from_graphs(workload.database)
    query = workload.queries[0]
    for build in builds:
        with repro.connect(database, backend="indexed") as session:
            named = session.execute(build(query))
        with repro.connect(database, backend="auto") as session:
            result = session.execute(build(query))
        shape = f"indexed+{named.plan.stages[0]}/serial"
        assert result.stats.planner["summary"] == shape
        assert (
            result.stats.exact_evaluations == named.stats.exact_evaluations
        )
        assert result.ids == _reference(database, lambda: build(query)).ids


# ----------------------------------------------------------------------
# Sharded scatter path
# ----------------------------------------------------------------------
def test_sharded_auto_parity_and_serial_shards(database, query_graph):
    expected = _reference(database, lambda: _skyline_spec(query_graph))
    sharded = ShardedGraphDatabase.from_database(database, shards=3)
    with repro.connect(sharded, backend="auto") as session:
        result = session.execute(_skyline_spec(query_graph))
    assert result.ids == expected.ids
    planner = result.stats.planner
    assert planner["summary"] == "scatter×3+pareto-bound(batch)/serial"
    assert planner["source"] == "scatter×3"
    assert "per_shard" not in planner
    rows = result.stats.per_shard
    assert [row["shard"] for row in rows] == [0, 1, 2]
    assert sum(row["size"] for row in rows) == len(database)
    assert "shard 0:" in result.explain()


# ----------------------------------------------------------------------
# Diagnostics: availability() + the ``repro backends`` CLI
# ----------------------------------------------------------------------
def test_availability_reports_planner_inputs():
    info = availability()
    assert "auto" in info["backends"]
    assert info["cpu_count"] >= 1
    assert isinstance(info["pools_started"], list)
    assert set(info) == {"backends", "numpy", "cpu_count", "pools_started"}


def test_cli_backends_lists_every_backend(capsys):
    from repro.cli import main

    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    for name in ("auto", "memory", "indexed", "parallel", "sharded"):
        assert name in out
    assert "cpu" in out
    assert "auto rule: " in out and "serial evaluation" in out
    assert "break-even" not in out


def test_cli_fuzz_accepts_auto_backend():
    from repro.cli import main

    assert main(["fuzz", "--seed", "3", "--steps", "12", "--backend", "auto"]) == 0


# ----------------------------------------------------------------------
# Server: every client gets the plan its spec names
# ----------------------------------------------------------------------
def test_server_clients_get_the_same_plan(database, query_graph):
    import http.client
    import json

    from repro.server import ServerConfig, serve_in_thread

    # Budgeted specs always run (the answer store never serves them), so
    # both clients' reads are planned; another client's read that prunes
    # nothing runs between them.
    spec = Query(query_graph).threshold(0.5, "edit").budget(ms=60_000)
    specs = [
        spec.build(),
        Query(query_graph).threshold(20.0, "edit").budget(ms=60_000).build(),
        spec.build(),
    ]
    with serve_in_thread(database, ServerConfig()) as server:
        seen = []
        for spec in specs:  # fresh connection each time: distinct clients
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60.0
            )
            try:
                conn.request(
                    "POST",
                    "/v1/query?backend=auto",
                    body=json.dumps(spec.to_dict()),
                )
                response = conn.getresponse()
                assert response.status == 200
                payload = json.loads(response.read())
            finally:
                conn.close()
            seen.append(payload["stats"]["planner"]["summary"])
    assert seen[0] == seen[2] == "indexed+threshold-bound/serial"
