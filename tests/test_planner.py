"""The cost-based adaptive planner and the ``auto`` backend.

Answer-set parity with the exhaustive reference across all four kinds is
also fuzzed (``auto`` sits in the testkit backend rotation); this file
pins the decision layer itself — selectivity-profile feedback, soundness
gates, static cost crossovers, NumPy-absent degradation, the regret
pins (a plan chosen once never evaluates much more than ``indexed``),
the ``explain()`` / ``to_dict()`` reporting, the sharded scatter path,
the ``repro backends`` CLI, and the shared profile behind the server.
"""

from __future__ import annotations

import pytest

import repro
from repro import GraphDatabase, PairCache, Query
from repro.api.auto import AutoBackend
from repro.api.backends import available_backends
from repro.api.spec import GraphQuery
from repro.datasets import make_workload
from repro.db.stats import QueryStats
from repro.engine.planner import QueryPlanner, SelectivityProfile, availability
from repro.shard import ShardedGraphDatabase

from tests.conftest import make_random_graph


@pytest.fixture
def database() -> GraphDatabase:
    return GraphDatabase.from_graphs(
        [make_random_graph(seed, max_vertices=5) for seed in range(14)]
    )


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
    # The decision names source, stages, evaluator, and selectivities.
    assert planner["source"] in ("database-order", "bound-ordered", "indexed")
    assert planner["evaluator"]
    assert set(planner["observed"]) == set(planner["predicted"])


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
    assert "planner: chose" in text
    assert "predicted" in text and "observed" in text
    assert "considered:" in text
    payload = result.to_dict()
    planner = payload["stats"]["planner"]
    assert planner["summary"] == result.stats.planner["summary"]
    assert "scalar-index/serial" in planner["costs_ms"]
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


def test_profile_learns_across_queries(database, query_graph):
    backend = AutoBackend(database)
    spec = _skyline_spec(query_graph)
    first = backend.run(spec)
    assert first.stats.planner["profile_queries"] == 0
    second = backend.run(spec)
    assert second.stats.planner["profile_queries"] == 1
    kind_stage = backend.profile.selectivity(
        "skyline", first.stats.planner["stages"][0]
    )
    assert kind_stage is not None
    assert backend.profile.pair_seconds("skyline") > 0.0


# ----------------------------------------------------------------------
# SelectivityProfile
# ----------------------------------------------------------------------
def _stats(considered, pruned_by_stage=None, batch=0, evals=0, evaluate_s=0.0):
    stats = QueryStats(
        candidates_considered=considered,
        pruned_by_batch=batch,
        exact_evaluations=evals,
    )
    stats.pruned_by_stage.update(pruned_by_stage or {})
    if evaluate_s:
        stats.phase_seconds["evaluate"] = evaluate_s
    return stats


def test_profile_ewma_update():
    profile = SelectivityProfile(alpha=0.5)
    profile.observe(
        "skyline",
        _stats(100, {"pareto-bound": 80}),
        stage_names=("pareto-bound",),
    )
    assert profile.selectivity("skyline", "pareto-bound") == pytest.approx(0.8)
    profile.observe(
        "skyline",
        _stats(100, {"pareto-bound": 40}),
        stage_names=("pareto-bound",),
    )
    # EWMA: 0.8 + 0.5 * (0.4 - 0.8)
    assert profile.selectivity("skyline", "pareto-bound") == pytest.approx(0.6)
    assert profile.queries == 2


def test_profile_records_zero_selectivity_for_planned_stages():
    profile = SelectivityProfile()
    profile.observe("topk", _stats(50), stage_names=("rank-bound",))
    assert profile.selectivity("topk", "rank-bound") == 0.0


def test_profile_pair_seconds_and_prefilter():
    profile = SelectivityProfile()
    profile.observe(
        "threshold",
        _stats(40, batch=30, evals=10, evaluate_s=0.02),
        stage_names=("batch-prefilter", "threshold-bound"),
    )
    assert profile.selectivity("threshold", "batch-prefilter") == pytest.approx(
        0.75
    )
    assert profile.pair_seconds("threshold") == pytest.approx(0.002)
    snapshot = profile.snapshot()
    assert snapshot["queries"] == 1
    assert "threshold/batch-prefilter" in snapshot["selectivity"]
    assert snapshot["pair_ms"]["threshold"] == pytest.approx(2.0)


def test_batch_and_scalar_stage_names_share_observations():
    profile = SelectivityProfile()
    profile.observe(
        "skyline",
        _stats(100, {"pareto-bound(batch)": 70}),
        stage_names=("pareto-bound(batch)",),
    )
    planner = QueryPlanner(profile, numpy_available=True, max_workers=1)
    assert planner._predicted_selectivity(
        "skyline", "pareto-bound"
    ) == pytest.approx(0.7)
    assert planner._predicted_selectivity(
        "skyline", "pareto-bound(batch)"
    ) == pytest.approx(0.7)


# ----------------------------------------------------------------------
# Static decisions
# ----------------------------------------------------------------------
def test_decide_prefers_scalar_small_batch_large(query_graph):
    planner = QueryPlanner(
        SelectivityProfile(), numpy_available=True, max_workers=1
    )
    spec = _skyline_spec(query_graph)
    small = planner.decide(spec, db_size=20, avg_order=5.0)
    assert small.stage == "pareto-bound" and not small.batch
    large = planner.decide(spec, db_size=2000, avg_order=5.0)
    assert large.stage == "pareto-bound(batch)" and large.batch
    assert large.source == "indexed"


def test_decide_without_numpy_never_batches(query_graph):
    planner = QueryPlanner(
        SelectivityProfile(), numpy_available=False, max_workers=1
    )
    for build in (
        lambda q: Query(q).measures("edit", "mcs").skyline(),
        lambda q: Query(q).topk(3, "edit"),
        lambda q: Query(q).threshold(0.5, "edit"),
    ):
        decision = planner.decide(build(query_graph).build(), 2000, 5.0)
        assert not decision.batch
        assert decision.source in ("database-order", "bound-ordered")


def test_decide_anytime_is_serial(query_graph):
    planner = QueryPlanner(
        SelectivityProfile(), numpy_available=True, max_workers=8
    )
    spec = Query(query_graph).measures("edit", "mcs").skyline().budget(
        ms=50
    ).build()
    decision = planner.decide(spec, 500, 5.0)
    assert decision.evaluator == "serial"
    assert any("anytime" in reason for reason in decision.reasons)


def test_decide_single_core_cannot_pool(query_graph):
    planner = QueryPlanner(
        SelectivityProfile(), numpy_available=True, max_workers=1
    )
    decision = planner.decide(_skyline_spec(query_graph), 500, 5.0)
    assert decision.evaluator == "serial"
    assert all("/pooled" not in label for label in decision.costs)


def test_decide_serial_winner_still_costs_the_pool(query_graph):
    planner = QueryPlanner(
        SelectivityProfile(), numpy_available=True, max_workers=4
    )
    decision = planner.decide(_skyline_spec(query_graph), 40, 4.0)
    assert decision.evaluator == "serial"
    assert "scalar-index/pooled" in decision.costs


def test_decide_offers_exhaustive_only_when_pruning_is_unsound(query_graph):
    profile = SelectivityProfile()
    # A profile that has seen the rank stage prune nothing, ever.
    profile.observe(
        "topk",
        _stats(100, {"rank-bound": 0}, evals=100, evaluate_s=0.01),
        stage_names=("rank-bound",),
    )
    planner = QueryPlanner(profile, numpy_available=True, max_workers=1)
    topk = planner.decide(Query(query_graph).topk(3, "edit").build(), 150, 5.0)
    assert topk.stage == "rank-bound"
    assert not any(label.startswith("exhaustive") for label in topk.costs)
    tolerant_spec = (
        Query(query_graph).measures("edit", "mcs").skyline(tolerance=0.25)
    ).build()
    tolerant = planner.decide(tolerant_spec, 150, 5.0)
    assert tolerant.stage is None and tolerant.source == "database-order"
    assert set(tolerant.costs) == {"exhaustive/serial"}


def test_decide_huge_survivor_count_goes_pooled(query_graph):
    profile = SelectivityProfile()
    # Teach the profile that pairs are expensive and pruning is useless.
    profile.observe(
        "skyline",
        _stats(100, {"pareto-bound": 0}, evals=100, evaluate_s=5.0),
        stage_names=("pareto-bound",),
    )
    planner = QueryPlanner(profile, numpy_available=True, max_workers=4)
    decision = planner.decide(_skyline_spec(query_graph), 5000, 8.0)
    assert decision.evaluator == "pooled"


# ----------------------------------------------------------------------
# NumPy-absent degradation (satellite: mirror the vectorized gating)
# ----------------------------------------------------------------------
def test_auto_degrades_to_scalar_without_numpy(
    database, query_graph, monkeypatch
):
    monkeypatch.setattr("repro.api.auto._numpy_available", lambda: False)
    backend = AutoBackend(database)
    assert not backend.planner.numpy_available
    for build in (
        lambda q: Query(q).measures("edit", "mcs").skyline(),
        lambda q: Query(q).topk(3, "edit"),
        lambda q: Query(q).threshold(0.5, "edit"),
    ):
        expected = _reference(database, lambda: build(query_graph))
        answer = backend.run(build(query_graph).build())
        assert answer.ids == expected.ids
        planner = answer.stats.planner
        assert "(batch)" not in (planner["summary"] or "")
        assert planner["source"] != "indexed"


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
    # A read trains the profile, then the query's 20 nearest neighbours
    # are deleted: the next read's bound-ordered prefix prunes nothing
    # for well over 32 candidates before the rank cutoff starts biting.
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
    # k = |db| top-k queries prune nothing and drive the profile's
    # rank-bound estimate towards zero; a later k = 3 read must still
    # plan the stage, or every top-k query becomes a full scan.
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


@pytest.mark.parametrize(
    "build",
    [
        lambda q: Query(q).measures("edit", "mcs").skyline(),
        lambda q: Query(q).topk(3, "edit"),
    ],
    ids=["skyline", "topk"],
)
def test_pooled_monolithic_plan_prunes_like_serial(build):
    # Expensive pairs and a middling prune rate: the planner keeps the
    # bound stage and goes pooled. The pooled drain must prune against
    # the query's exact vectors, not ship every survivor in one wave.
    database, query = _topk_workload(60)
    spec = build(query).build()
    stage = "rank-bound" if spec.kind == "topk" else "pareto-bound"
    profile = SelectivityProfile()
    profile.observe(
        spec.kind,
        _stats(100, {stage: 50}, evals=100, evaluate_s=500.0),
        stage_names=(stage,),
    )
    backend = AutoBackend(database, profile=profile, max_workers=2)
    with repro.connect(database, backend=backend) as session:
        result = session.execute(build(query))
    indexed, expected = _indexed_and_memory(database, lambda: build(query))
    assert result.ids == expected.ids
    assert result.stats.planner["summary"].endswith("/pooled")
    assert result.stats.pool is not None
    assert (
        result.stats.exact_evaluations <= 2 * indexed.stats.exact_evaluations
    )


# ----------------------------------------------------------------------
# Sharded scatter path
# ----------------------------------------------------------------------
def test_sharded_auto_parity_and_per_shard_plans(database, query_graph):
    expected = _reference(database, lambda: _skyline_spec(query_graph))
    sharded = ShardedGraphDatabase.from_database(database, shards=3)
    with repro.connect(sharded, backend="auto") as session:
        result = session.execute(_skyline_spec(query_graph))
    assert result.ids == expected.ids
    planner = result.stats.planner
    assert planner["summary"].startswith("scatter×3+")
    assert planner["source"] == "scatter×3"
    rows = planner["per_shard"]
    assert [row["shard"] for row in rows] == [0, 1, 2]
    assert all(row["evaluator"] for row in rows)
    assert sum(row["size"] for row in rows) == len(database)
    assert "shard 0:" in result.explain()


# ----------------------------------------------------------------------
# Diagnostics: availability() + the ``repro backends`` CLI
# ----------------------------------------------------------------------
def test_availability_reports_planner_inputs():
    info = availability()
    assert "auto" in info["backends"]
    assert info["cpu_count"] >= 1
    assert info["pool_usable"] == (info["cpu_count"] > 1)
    assert isinstance(info["pools_started"], list)


def test_cli_backends_lists_every_backend(capsys):
    from repro.cli import main

    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    for name in ("auto", "memory", "indexed", "parallel", "sharded"):
        assert name in out
    assert "cpu" in out


def test_cli_fuzz_accepts_auto_backend():
    from repro.cli import main

    assert main(["fuzz", "--seed", "3", "--steps", "12", "--backend", "auto"]) == 0


# ----------------------------------------------------------------------
# Server: one shared profile across clients
# ----------------------------------------------------------------------
def test_server_clients_share_one_profile(database, query_graph):
    import http.client
    import json

    from repro.server import ServerConfig, serve_in_thread

    # Distinct specs: a repeat would be served by the answer store, not
    # planned.
    specs = [
        _skyline_spec(query_graph),
        Query(query_graph).measures("edit", "mcs").skyband(2).build(),
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
            seen.append(payload["stats"]["planner"]["profile_queries"])
    # The second client's query ran against a profile already trained by
    # the first — the server shares one auto session across clients.
    assert seen == [0, 1]
