"""Tests for the declarative query API: specs, sessions, backends, results."""

import json

import pytest

import repro
from repro import GraphQuery, Query, connect
from repro.api import ExecutionBackend, available_backends
from repro.api.backends import BackendAnswer
from repro.core import graph_similarity_skyline, top_k_by_measure
from repro.datasets import figure3_database, figure3_query
from repro.db import GraphDatabase, save_database
from repro.errors import QueryError, SerializationError
from repro.graph import graph_to_json
from repro.measures import EditDistance
from tests.conftest import make_random_graph

SEED_SKYLINE = ["g1", "g4", "g5", "g7"]

# ``paper_database`` / ``paper_query`` come from the shared conftest.


# ----------------------------------------------------------------------
# GraphQuery validation
# ----------------------------------------------------------------------
def test_spec_defaults_validate(paper_query):
    spec = GraphQuery(graph=paper_query).validate()
    assert spec.kind == "skyline"
    assert spec.measures is None


def test_unknown_kind_rejected_with_hint(paper_query):
    with pytest.raises(QueryError, match="available: skyline, skyband"):
        GraphQuery(graph=paper_query, kind="nearest").validate()


def test_unknown_measure_rejected_with_hint(paper_query):
    with pytest.raises(QueryError, match="available: .*edit"):
        Query(paper_query).measures("edit", "nope").build()


def test_topk_requires_positive_k(paper_query):
    with pytest.raises(QueryError, match="k must be at least 1"):
        Query(paper_query).topk(0).build()
    with pytest.raises(QueryError, match="k must be at least 1"):
        Query(paper_query).skyband(0).build()


def test_threshold_requires_value(paper_query):
    with pytest.raises(QueryError, match="threshold"):
        GraphQuery(graph=paper_query, kind="threshold").validate()
    with pytest.raises(QueryError, match="non-negative"):
        Query(paper_query).threshold(-1.0).build()


def test_refinement_only_for_vector_kinds(paper_query):
    with pytest.raises(QueryError, match="refinement"):
        Query(paper_query).topk(3).refine(k=2).build()


def test_unknown_refine_method_rejected(paper_query):
    with pytest.raises(QueryError, match="available: exhaustive, greedy"):
        Query(paper_query).skyline().refine(k=2, method="magic").build()


def test_limit_must_be_positive(paper_query):
    with pytest.raises(QueryError, match="limit"):
        Query(paper_query).limit(0).build()


def test_empty_measures_rejected(paper_query):
    with pytest.raises(QueryError, match="at least one measure"):
        Query(paper_query).measures().build()


def test_builder_steps_do_not_mutate(paper_query):
    base = Query(paper_query).measures("edit")
    fork_a = base.skyline(tolerance=0.25)
    fork_b = base.topk(2)
    assert fork_a.build().kind == "skyline"
    assert fork_b.build().kind == "topk"
    assert base.build().kind == "skyline"
    assert base.build().tolerance == 0.0  # untouched by fork_a


# ----------------------------------------------------------------------
# JSON wire format
# ----------------------------------------------------------------------
def test_query_json_round_trip(paper_query):
    spec = (
        Query(paper_query)
        .measures("edit", "mcs")
        .skyline(tolerance=0.25)
        .refine(k=2, method="greedy")
        .limit(3)
        .build()
    )
    restored = GraphQuery.from_json(spec.to_json())
    assert restored == spec
    assert restored.measures == ("edit", "mcs")
    assert restored.tolerance == 0.25
    assert restored.refine_k == 2
    assert restored.refine_method == "greedy"
    assert restored.limit == 3
    # from_dict ignores keys it does not know, so an older payload that
    # names a skyline algorithm still parses, to the same spec.
    assert GraphQuery.from_dict({**spec.to_dict(), "algorithm": "sfs"}) == spec


@pytest.mark.parametrize("legacy", ["bnl", "dnc", "naive", "sfs"])
def test_legacy_algorithm_payload_gets_the_definitional_answer(legacy):
    """A payload naming a retired skyline algorithm runs the one selector:
    under tolerance 0.25 graph 1 is dominated (by graph 7) although its
    dominator is itself dominated, which window algorithms missed."""
    graphs = [make_random_graph(5800 + i, max_vertices=5) for i in range(10)]
    spec = Query(make_random_graph(5899, max_vertices=5)).skyline(
        tolerance=0.25
    ).build()
    legacy_spec = GraphQuery.from_json(
        json.dumps({**json.loads(spec.to_json()), "algorithm": legacy})
    )
    assert legacy_spec == spec
    with connect(GraphDatabase.from_graphs(graphs)) as session:
        assert session.execute(legacy_spec).ids == [0, 8]


def test_query_json_round_trip_threshold(paper_query):
    spec = Query(paper_query).threshold(2.5, measure="mcs").build()
    restored = GraphQuery.from_json(spec.to_json())
    assert restored.kind == "threshold"
    assert restored.threshold == 2.5
    assert restored.measure == "mcs"


def test_measure_instances_serialize_by_name(paper_query):
    spec = Query(paper_query).measures(EditDistance()).build()
    payload = json.loads(spec.to_json())
    assert payload["measures"] == ["edit"]


def test_from_json_validates(paper_query):
    spec = Query(paper_query).skyline().build()
    payload = json.loads(spec.to_json())
    payload["measures"] = ["nope"]
    with pytest.raises(QueryError, match="available"):
        GraphQuery.from_dict(payload)
    payload["measures"] = None
    payload["kind"] = "weird"
    with pytest.raises(QueryError, match="unknown query kind"):
        GraphQuery.from_dict(payload)


def test_malformed_json_reported():
    with pytest.raises(SerializationError):
        GraphQuery.from_json("{not json")
    with pytest.raises(SerializationError):
        GraphQuery.from_dict({"kind": "skyline"})  # no graph


# ----------------------------------------------------------------------
# Sessions and connect()
# ----------------------------------------------------------------------
def test_connect_accepts_graphs_database_and_path(tmp_path, paper_database, paper_query):
    path = tmp_path / "db.json"
    save_database(paper_database, path)
    for source in (figure3_database(), paper_database, str(path), path):
        with connect(source) as session:
            result = session.execute(Query(paper_query).skyline())
            assert result.names == SEED_SKYLINE


def test_connect_unknown_backend(paper_database):
    with pytest.raises(QueryError, match="available: .*indexed.*memory"):
        connect(paper_database, backend="turbo")


def test_session_accepts_backend_instance(paper_database, paper_query):
    backend = ExecutionBackend(paper_database, "indexed")
    with connect(paper_database, backend=backend) as session:
        assert session.backend is backend
        assert session.execute(Query(paper_query).skyline()).names == SEED_SKYLINE


def test_session_rejects_options_with_instance(paper_database):
    backend = ExecutionBackend(paper_database)
    with pytest.raises(QueryError, match="backend options"):
        connect(paper_database, backend=backend, max_workers=2)


def test_closed_session_rejects_queries(paper_database, paper_query):
    session = connect(paper_database)
    session.close()
    with pytest.raises(QueryError, match="closed"):
        session.execute(Query(paper_query).skyline())


def test_session_default_measures(paper_database, paper_query):
    with connect(paper_database, measures=("edit",)) as session:
        result = session.execute(Query(paper_query).skyline())
        assert result.measures == ("edit",)
        assert result.names == ["g4"]
        # per-spec measures still win over the session default
        full = session.execute(Query(paper_query).measures("edit", "mcs", "union").skyline())
        assert full.names == SEED_SKYLINE


def test_session_plan_describes_execution(paper_database, paper_query):
    with connect(paper_database, backend="indexed") as session:
        plan = session.plan(Query(paper_query).skyline())
        assert plan.backend == "indexed"
        assert plan.uses_index
        assert plan.database_size == 7
        assert "index lower-bound pruning" in plan.describe()


# ----------------------------------------------------------------------
# Acceptance: every entry point reproduces the seed skyline
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["memory", "indexed", "parallel"])
def test_backends_match_seed_skyline(backend, paper_database, paper_query):
    seed = [g.name for g in graph_similarity_skyline(figure3_database(), paper_query).skyline]
    with connect(paper_database, backend=backend) as session:
        result = session.execute(Query(paper_query).skyline())
    assert result.names == seed == SEED_SKYLINE


@pytest.mark.parametrize("backend", ["memory", "indexed", "parallel"])
def test_cli_skyline_matches_seed_for_every_backend(backend, tmp_path, capsys, paper_database):
    from repro.cli import main

    db_path = tmp_path / "db.json"
    query_path = tmp_path / "q.json"
    save_database(paper_database, db_path)
    query_path.write_text(graph_to_json(figure3_query()), encoding="utf-8")
    assert main(["skyline", str(db_path), str(query_path), "--backend", backend]) == 0
    assert "skyline: ['g1', 'g4', 'g5', 'g7']" in capsys.readouterr().out


def test_backends_match_seed_topk(paper_database, paper_query):
    seed = top_k_by_measure(figure3_database(), paper_query, "edit", 3)
    for backend in ("memory", "indexed", "parallel"):
        with connect(paper_database, backend=backend) as session:
            result = session.execute(Query(paper_query).topk(3, "edit"))
            assert result.ids == seed.indices, backend


# ----------------------------------------------------------------------
# ResultSet surface
# ----------------------------------------------------------------------
def test_result_rows_and_json(paper_database, paper_query):
    with connect(paper_database) as session:
        result = session.execute(Query(paper_query).skyline().refine(k=2))
    rows = result.to_rows()
    assert len(rows) == 7
    by_name = {row["graph"]: row for row in rows}
    assert by_name["g4"]["edit"] == 2.0
    assert by_name["g4"]["in_answer"] is True
    assert by_name["g3"]["in_answer"] is False
    payload = json.loads(result.to_json())
    assert payload["answer"] == SEED_SKYLINE
    assert payload["refined"] == ["g1", "g4"]
    assert payload["stats"]["exact_evaluations"] == 7


def test_result_explain_mentions_plan_and_members(paper_database, paper_query):
    with connect(paper_database, backend="indexed") as session:
        result = session.execute(Query(paper_query).skyline())
    text = result.explain()
    assert "indexed" in text
    assert "g1" in text and "in answer" in text
    assert "n=7" in text


def test_result_limit_caps_answer(paper_database, paper_query):
    with connect(paper_database) as session:
        result = session.execute(Query(paper_query).skyline().limit(2))
    assert result.names == SEED_SKYLINE[:2]
    assert len(result) == 2


def test_result_distance_and_vector_accessors(paper_database, paper_query):
    with connect(paper_database) as session:
        sky = session.execute(Query(paper_query).skyline())
        top = session.execute(Query(paper_query).topk(1, "edit"))
    assert sky.vector(3).values[0] == 2.0
    with pytest.raises(KeyError):
        sky.distance(3)
    assert top.distance(top.ids[0]) == 2.0
    assert top.names == ["g4"]


def test_result_iteration_and_contains(paper_database, paper_query):
    with connect(paper_database) as session:
        result = session.execute(Query(paper_query).skyline())
    graphs = list(result)
    assert [g.name for g in graphs] == SEED_SKYLINE
    assert graphs[0] in result


def test_skyband_contains_skyline(paper_database, paper_query):
    with connect(paper_database, backend="indexed") as session:
        sky = session.execute(Query(paper_query).skyline())
        band = session.execute(Query(paper_query).skyband(2))
    assert set(sky.ids) <= set(band.ids)


def test_threshold_query_matches_executor(paper_database, paper_query):
    """The pruned ``indexed`` range query equals the exhaustive one."""
    answers = []
    for backend in ("memory", "indexed"):
        with connect(paper_database, backend=backend) as session:
            result = session.execute(Query(paper_query).threshold(3.0, "edit"))
        answers.append([(i, result.distance(i)) for i in result.ids])
    assert answers[0] == answers[1]


# ----------------------------------------------------------------------
# Self-healing index (dirty flag on database mutations)
# ----------------------------------------------------------------------
def test_indexed_backend_heals_after_insert(paper_db, paper_query):
    database = GraphDatabase.from_graphs(paper_db[:3])
    with connect(database, backend="indexed") as session:
        before = session.execute(Query(paper_query).skyline())
        assert before.stats.database_size == 3
        for graph in paper_db[3:]:
            database.insert(graph)
        after = session.execute(Query(paper_query).skyline())
    assert after.stats.database_size == 7
    assert after.names == SEED_SKYLINE


def test_executor_heals_without_refresh_index(paper_db, paper_query):
    database = GraphDatabase.from_graphs(paper_db[:3])
    backend = ExecutionBackend(database, "indexed")
    database.insert(paper_db[3])
    answer = backend.run(Query(paper_query).skyline().build())  # no refresh
    assert answer.stats.database_size == 4
    assert 3 in backend.store.matrix.row_of


def test_index_heals_after_remove(paper_db, paper_query):
    database = GraphDatabase.from_graphs(paper_db)
    backend = ExecutionBackend(database, "indexed")
    backend.run(Query(paper_query).skyline().build())
    database.remove(0)  # drop g1
    answer = backend.run(Query(paper_query).skyline().build())
    names = sorted(database.get(i).name for i in answer.ids)
    assert "g1" not in names
    assert 0 not in backend.store.matrix.row_of


def test_database_version_counts_mutations(paper_db):
    database = GraphDatabase()
    assert database.version == 0
    database.insert(paper_db[0])
    database.insert(paper_db[1])
    assert database.version == 2
    database.remove(0)
    assert database.version == 3


# ----------------------------------------------------------------------
# Backend names
# ----------------------------------------------------------------------
def test_registry_lists_shipped_backends():
    assert available_backends() == [
        "auto", "indexed", "memory", "parallel", "sharded"
    ]


def test_parallel_backend_empty_database(paper_query):
    with connect(GraphDatabase(), backend="parallel") as session:
        result = session.execute(Query(paper_query).skyline())
    assert result.ids == []


def test_parallel_backend_chunking(paper_database, paper_query):
    # Auto-sized: about four chunks per worker.
    backend = ExecutionBackend(paper_database, "parallel", max_workers=2)
    chunks = backend._evaluator("pooled").chunk(list(paper_database))
    assert [len(c) for c in chunks] == [1] * 7
    with connect(paper_database, backend=backend) as session:
        assert session.execute(Query(paper_query).skyline()).names == SEED_SKYLINE


# ----------------------------------------------------------------------
# Sessions over a view database
# ----------------------------------------------------------------------
def test_engine_shim_preserves_graph_identity(paper_db, paper_query):
    """A session over ``from_graphs(..., copy=False)`` answers with the
    caller's own graph objects."""
    database = GraphDatabase.from_graphs(paper_db, copy=False)
    result = connect(database).execute(Query(paper_query).skyline())
    assert result.graphs[0] is paper_db[0]  # no defensive copies


def test_backend_answer_shape(paper_database, paper_query):
    answer = ExecutionBackend(paper_database).run(
        Query(paper_query).skyline().build()
    )
    assert isinstance(answer, BackendAnswer)
    assert sorted(answer.vectors) == answer.evaluated_ids
    assert set(answer.ids) <= set(answer.evaluated_ids)
