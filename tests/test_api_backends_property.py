"""Property test: every execution backend returns identical answer sets.

The api layer's core contract — ``memory``, ``indexed``, ``parallel``
and ``sharded`` may do arbitrarily different amounts of work, but for
any database and any query they must return exactly the same skyline /
skyband / top-k ids. Hypothesis drives random small databases and query
graphs through all backends and compares the id sets; the serial
exhaustive ``memory`` backend is the reference semantics.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Query, connect
from repro.api.backends import available_backends
from repro.db import GraphDatabase

from tests.conftest import small_labeled_graphs

# ``sharded`` sessions are opened through the same ``connect`` call — the
# session re-partitions the database into the default 2 shards.
BACKENDS = tuple(
    name
    for name in ("memory", "indexed", "parallel", "sharded")
    if name in available_backends()
)

databases = st.lists(
    small_labeled_graphs(max_vertices=4, connected=True), min_size=1, max_size=5
)
queries = small_labeled_graphs(max_vertices=4, connected=True)

relaxed = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _answers(graphs, build):
    database = GraphDatabase.from_graphs(graphs)
    ids = {}
    for backend in BACKENDS:
        options = {"max_workers": 2} if backend == "parallel" else {}
        with connect(database, backend=backend, **options) as session:
            ids[backend] = set(session.execute(build()).ids)
    return ids


@relaxed
@given(graphs=databases, query=queries)
def test_skyline_parity_across_backends(graphs, query):
    ids = _answers(graphs, lambda: Query(query).measures("edit", "mcs").skyline())
    assert all(ids[backend] == ids["memory"] for backend in BACKENDS)
    assert ids["memory"]  # a non-empty database always has a skyline


@relaxed
@given(graphs=databases, query=queries, k=st.integers(min_value=1, max_value=3))
def test_skyband_parity_across_backends(graphs, query, k):
    ids = _answers(graphs, lambda: Query(query).measures("edit", "mcs").skyband(k))
    assert all(ids[backend] == ids["memory"] for backend in BACKENDS)


@relaxed
@given(graphs=databases, query=queries, k=st.integers(min_value=1, max_value=4))
def test_topk_parity_across_backends(graphs, query, k):
    database = GraphDatabase.from_graphs(graphs)
    rankings = {}
    for backend in BACKENDS:
        options = {"max_workers": 2} if backend == "parallel" else {}
        with connect(database, backend=backend, **options) as session:
            result = session.execute(Query(query).topk(k, "edit"))
            rankings[backend] = [(i, result.distance(i)) for i in result.ids]
    assert all(rankings[backend] == rankings["memory"] for backend in BACKENDS)


@relaxed
@given(
    graphs=databases,
    query=queries,
    threshold=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
def test_threshold_parity_across_backends(graphs, query, threshold):
    ids = _answers(
        graphs, lambda: Query(query).measures("edit").threshold(threshold, "edit")
    )
    assert all(ids[backend] == ids["memory"] for backend in BACKENDS)
