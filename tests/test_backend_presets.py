"""Every backend name is a preset of the one executor.

Each name picks one plan decision per query and
:class:`~repro.api.backends.ExecutionBackend` runs it, so every name
must return ``memory``'s answer — over a monolith and over shards, for
every query kind, tolerant dominance included — and the plan a session
reports must be the plan that ran.
"""

from __future__ import annotations

import pytest

import repro
from repro import GraphDatabase, Query
from repro.api.backends import PRESETS
from repro.api.spec import GraphQuery
from repro.datasets import make_workload

from tests.conftest import make_random_graph

_KINDS = {
    "skyline": lambda q: Query(q).measures("edit", "mcs").skyline(),
    "tolerant-skyline": lambda q: Query(q)
    .measures("edit", "mcs")
    .skyline(tolerance=0.25),
    "skyband": lambda q: Query(q).measures("edit", "mcs").skyband(2),
    "topk": lambda q: Query(q).topk(3, "edit"),
    "threshold": lambda q: Query(q).threshold(2.0, "edit"),
    # Below: a third measure's bounds, ranked ties at the cut, and a
    # fractional cutoff between two normalized distances.
    "union-skyband": lambda q: Query(q).measures("edit", "union").skyband(3),
    "mcs-topk": lambda q: Query(q).topk(3, "mcs"),
    "normalized-threshold": lambda q: Query(q).threshold(
        0.86, "edit-normalized"
    ),
}


@pytest.fixture(scope="module")
def graphs():
    return [make_random_graph(seed, max_vertices=5) for seed in range(12)]


@pytest.fixture(scope="module")
def query_graph():
    return make_random_graph(99, max_vertices=5)


@pytest.fixture(scope="module")
def expected(graphs, query_graph):
    with repro.connect(GraphDatabase.from_graphs(graphs)) as session:
        return {
            kind: session.execute(build(query_graph)).ids
            for kind, build in _KINDS.items()
        }


@pytest.mark.parametrize("kind", list(_KINDS))
@pytest.mark.parametrize("shards", [None, 2], ids=["monolith", "2-shards"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_matches_memory_and_reports_the_plan_that_ran(
    name, shards, kind, graphs, query_graph, expected
):
    spec = _KINDS[kind](query_graph).build()
    database = GraphDatabase.from_graphs(graphs)
    with repro.connect(
        database, backend=name, shards=shards, max_workers=2
    ) as session:
        planned = session.plan(spec)
        result = session.execute(spec)
    assert result.ids == expected[kind]
    assert planned == result.plan
    assert result.stats.planner["backend"] == name
    # Pruning follows QueryPlanner.prunes on every name that prunes.
    assert result.plan.uses_index == (
        PRESETS[name].prunes and kind != "tolerant-skyline"
    )


def _tolerant_skyband():
    workload = make_workload(
        n_graphs=30, query_size=4, seed=24, mutant_fraction=0.5
    )
    spec = GraphQuery(
        graph=workload.queries[0],
        kind="skyband",
        k=2,
        tolerance=0.2,
        measures=("edit-normalized", "mcs"),
    )
    return workload.database, spec, [1, 16, 18, 19]


def _intransitive_skyline():
    """Under tolerance 0.25 graph 7 dominates graph 1, and graph 3
    dominates graph 7 but not graph 1: graph 1 is dominated, though a
    selection that drops graph 7 before comparing it keeps graph 1."""
    graphs = [make_random_graph(5800 + i, max_vertices=5) for i in range(10)]
    query = make_random_graph(5899, max_vertices=5)
    return graphs, Query(query).skyline(tolerance=0.25).build(), [0, 8]


@pytest.mark.parametrize("case", [_tolerant_skyband, _intransitive_skyline])
@pytest.mark.parametrize("shards", [None, 2], ids=["monolith", "2-shards"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_tolerant_selection_is_exhaustive_and_definitional_on_every_name(
    name, shards, case
):
    graphs, spec, expected = case()
    database = GraphDatabase.from_graphs(graphs)
    with repro.connect(
        database, backend=name, shards=shards, max_workers=2
    ) as session:
        assert session.execute(spec).ids == expected


def test_auto_plan_reports_the_work_it_did(graphs, query_graph):
    spec = _KINDS["tolerant-skyline"](query_graph)
    database = GraphDatabase.from_graphs(graphs)
    with repro.connect(database, backend="auto", max_workers=2) as session:
        result = session.execute(spec)
    assert result.stats.planner["summary"] == "database-order+no-prune/serial"
    plan = result.plan
    assert (plan.uses_index, plan.workers, plan.shards) == (False, 1, 1)
    assert "full scan" in plan.describe()
    assert "workers" not in plan.describe()
    assert result.stats.exact_evaluations == len(database)
