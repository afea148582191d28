"""Failure injection: the system's behaviour under misbehaving parts.

Verifies that failures surface loudly and leave no corrupted state:
measures that raise mid-query, non-finite distance values, partially
and partially invalid inputs.
"""

import math

import pytest

from repro import Query, connect
from repro.core import graph_similarity_skyline
from repro.db import GraphDatabase, PairCache
from repro.engine.deadline import deadline_scope
from repro.graph import Budget
from repro.measures import FunctionMeasure
from repro.skyline import dominates, skyline


def _nan(g1, g2):
    return math.nan


class _Exploding(Exception):
    pass


def _exploding_measure(after: int) -> FunctionMeasure:
    calls = {"n": 0}

    def distance(g1, g2):
        calls["n"] += 1
        if calls["n"] > after:
            raise _Exploding(f"boom on call {calls['n']}")
        return float(abs(g1.size - g2.size))

    return FunctionMeasure(distance, name="exploding")


def test_executor_propagates_measure_failure_and_recovers(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    with connect(db, backend="memory") as session:
        with pytest.raises(_Exploding):
            session.execute(
                Query(paper_query).measures(_exploding_measure(after=3)).skyline()
            )
        # the session holds no corrupted state: a fresh measure works
        result = session.execute(Query(paper_query).skyline())
    assert result.stats.exact_evaluations == len(paper_db)


def test_failure_does_not_poison_shared_cache(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    cache = PairCache()
    exploding = Query(paper_query).measures(_exploding_measure(after=2)).skyline()
    with connect(db, backend="memory", cache=cache) as session:
        with pytest.raises(_Exploding):
            session.execute(exploding)
    # entries cached before the failure are for the exploding measure's
    # name only; the default-measure query is unaffected
    with connect(db, backend="memory", cache=cache) as session:
        result = session.execute(Query(paper_query).skyline())
    assert sorted(result.names) == ["g1", "g4", "g5", "g7"]


def test_gss_with_nan_producing_measure(paper_db, paper_query):
    """NaN never satisfies a strict comparison, so a NaN vector neither
    dominates nor is dominated — it floats into the skyline rather than
    silently vanishing. Pinned here so the behaviour is a documented
    contract, not an accident."""
    nan_measure = FunctionMeasure(lambda a, b: float("nan"), name="nan")
    result = graph_similarity_skyline(paper_db, paper_query, measures=[nan_measure])
    assert len(result.skyline) == len(paper_db)
    # A NaN value is an exact (settled) one, also under a deadline that
    # bounds every search of the run, serial and pooled alike.
    spec = Query(paper_query).measures(FunctionMeasure(_nan, name="nan")).skyline()
    for backend, options in (("memory", {}), ("parallel", {"max_workers": 2})):
        with connect(paper_db, backend=backend, **options) as session:
            with deadline_scope(Budget.of(seconds=30)):
                answer = session.execute(spec)
        assert len(answer.names) == len(paper_db), backend


def test_dominates_with_nan_and_inf():
    """NaN coordinates behave as ties (neither strictly better nor
    worse); dominance can still be decided by the finite dimensions.
    Documented contract of :func:`repro.skyline.utils.dominates`."""
    nan = float("nan")
    inf = float("inf")
    assert dominates((nan, 1.0), (1.0, 2.0))  # tie on dim 0, strict on dim 1
    assert not dominates((nan, 1.0), (1.0, 1.0))  # ties everywhere
    assert not dominates((nan, 2.0), (1.0, 1.0))  # worse on the finite dim
    assert dominates((1.0, 1.0), (inf, 1.0))
    assert not dominates((inf, 1.0), (1.0, 1.0))
    # skyline over vectors containing NaN still terminates and is stable
    vectors = [(nan, 1.0), (1.0, 1.0), (2.0, 2.0)]
    members = skyline(vectors)
    assert 1 in members and 2 not in members


def test_database_survives_failed_bulk_load():
    """An exception mid-bulk-load must not leave half-registered hashes."""
    from repro.graph import path_graph

    good = path_graph(["A", "B"], name="good")
    db = GraphDatabase()
    db.insert(good)
    with pytest.raises(AttributeError):
        db.insert("not a graph")  # type: ignore[arg-type]
    assert len(db) == 1
    assert db.find_isomorphic(good) == 0
