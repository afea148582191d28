"""Vectorized bound kernels must equal the scalar bounds *bit for bit*.

The acceptance contract of the packed index: a full run bounds with the
kernels and a replay bounds its added graphs one at a time with the
scalar bounds, and both must prune on the same vectors. Every kernel output is compared to its
scalar ``features.py`` counterpart with exact ``==`` (no tolerance), on
hypothesis-generated graph populations and queries — including graphs
with disjoint label vocabularies, empty graphs, and a matrix that
reached its state through incremental adds/removes rather than a bulk
build.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import LabeledGraph
from repro.graph.features import (
    GraphFeatures,
    _normalized_edit_bound,
    dist_gu_lower_bound,
    dist_mcs_lower_bound,
    edit_distance_lower_bound,
    mcs_upper_bound,
    optimistic_vector,
)
from repro.index import (
    FeatureStore,
    SignatureMatrix,
    bound_matrix,
    dist_gu_lower_bounds,
    dist_mcs_lower_bounds,
    dominator_counts,
    edit_lower_bounds,
    mcs_upper_bounds,
    normalized_edit_lower_bounds,
)
from repro.db import GraphDatabase
from repro.measures.base import resolve_measures
from repro.skyline.utils import dominates

from tests.conftest import make_random_graph, small_labeled_graphs

relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Two disjoint label alphabets, so vocabularies are genuinely partial.
pop_graphs = st.lists(
    st.one_of(
        small_labeled_graphs(max_vertices=5),
        small_labeled_graphs(
            max_vertices=4, vertex_labels=("D", "E"), edge_labels=("z",)
        ),
    ),
    min_size=0,
    max_size=8,
)
query_graphs = st.one_of(
    small_labeled_graphs(max_vertices=5),
    small_labeled_graphs(max_vertices=4, vertex_labels=("D",), edge_labels=("z",)),
)


def _matrix_of(graphs) -> tuple[SignatureMatrix, list[GraphFeatures]]:
    matrix = SignatureMatrix()
    features = [GraphFeatures.of(g) for g in graphs]
    for graph_id, f in enumerate(features):
        matrix.add(graph_id, f)
    return matrix, features


@relaxed
@given(graphs=pop_graphs, query=query_graphs)
def test_kernels_bit_identical_to_scalar_bounds(graphs, query):
    matrix, features = _matrix_of(graphs)
    query_features = GraphFeatures.of(query)
    packed = matrix.pack_query(query_features)

    edit = edit_lower_bounds(matrix, packed)
    norm = normalized_edit_lower_bounds(matrix, packed)
    mcs_ub = mcs_upper_bounds(matrix, packed)
    d_mcs = dist_mcs_lower_bounds(matrix, packed)
    d_gu = dist_gu_lower_bounds(matrix, packed)

    for row, graph_id in enumerate(matrix.ids.tolist()):
        f = features[graph_id]
        assert edit[row] == edit_distance_lower_bound(f, query_features)
        assert norm[row] == _normalized_edit_bound(f, query_features)
        assert mcs_ub[row] == mcs_upper_bound(f, query_features)
        assert d_mcs[row] == dist_mcs_lower_bound(f, query_features)
        assert d_gu[row] == dist_gu_lower_bound(f, query_features)


@relaxed
@given(graphs=pop_graphs, query=query_graphs)
def test_bound_matrix_matches_scalar_optimistic_vectors(graphs, query):
    """The full (n, d) matrix equals the per-row optimistic vectors."""
    matrix, features = _matrix_of(graphs)
    query_features = GraphFeatures.of(query)
    measures = resolve_measures(("edit", "edit-normalized", "mcs", "union"))
    packed = matrix.pack_query(query_features)
    batched = bound_matrix(matrix, packed, measures)

    for row, graph_id in enumerate(matrix.ids.tolist()):
        scalar = optimistic_vector(features[graph_id], query_features, measures)
        assert tuple(batched[row].tolist()) == scalar


def test_unknown_measure_gets_zero_column():
    matrix, _ = _matrix_of([make_random_graph(3), make_random_graph(4)])
    query_features = GraphFeatures.of(make_random_graph(5))
    measures = resolve_measures(("edit", "jaccard-edges"))
    batched = bound_matrix(matrix, matrix.pack_query(query_features), measures)
    assert batched.shape == (2, 2)
    assert np.all(batched[:, 1] == 0.0)


def test_empty_matrix_and_empty_graphs():
    matrix = SignatureMatrix()
    empty_features = GraphFeatures.of(LabeledGraph())
    measures = resolve_measures(("edit", "mcs", "union"))
    packed = matrix.pack_query(empty_features)
    assert bound_matrix(matrix, packed, measures).shape == (0, 3)

    matrix.add(0, empty_features)
    packed = matrix.pack_query(empty_features)
    assert tuple(bound_matrix(matrix, packed, measures)[0].tolist()) == (
        0.0,
        0.0,
        0.0,
    )


# ----------------------------------------------------------------------
# Incremental maintenance: the matrix state after arbitrary add/remove
# interleavings equals a bulk rebuild (row-level invalidation is exact).
# ----------------------------------------------------------------------
@relaxed
@given(
    graphs=st.lists(small_labeled_graphs(max_vertices=4), min_size=1, max_size=10),
    removals=st.lists(st.integers(min_value=0, max_value=9), max_size=6),
    query=query_graphs,
)
def test_incremental_maintenance_equals_rebuild(graphs, removals, query):
    incremental = SignatureMatrix()
    live: dict[int, GraphFeatures] = {}
    for graph_id, graph in enumerate(graphs):
        features = GraphFeatures.of(graph)
        incremental.add(graph_id, features)
        live[graph_id] = features
    for victim in removals:
        incremental.discard(victim)  # no-op when already gone
        live.pop(victim, None)

    rebuilt = SignatureMatrix()
    for graph_id, features in live.items():
        rebuilt.add(graph_id, features)

    assert set(incremental.ids.tolist()) == set(rebuilt.ids.tolist())
    query_features = GraphFeatures.of(query)
    measures = resolve_measures(("edit", "mcs", "union"))
    bounds_a = bound_matrix(incremental, incremental.pack_query(query_features), measures)
    bounds_b = bound_matrix(rebuilt, rebuilt.pack_query(query_features), measures)
    by_id_a = dict(zip(incremental.ids.tolist(), map(tuple, bounds_a.tolist())))
    by_id_b = dict(zip(rebuilt.ids.tolist(), map(tuple, bounds_b.tolist())))
    assert by_id_a == by_id_b


def test_feature_store_row_level_invalidation():
    database = GraphDatabase.from_graphs(
        [make_random_graph(seed) for seed in range(6)]
    )
    store = FeatureStore(database)
    store.sync()
    assert store.rows_added == 6 and store.rows_dropped == 0

    # An unmutated database costs one version comparison, no row work.
    store.sync()
    assert store.rows_added == 6 and store.syncs == 1

    removed = database.ids()[2]
    database.remove(removed)
    inserted = database.insert(make_random_graph(99))
    store.sync()
    # Only the touched rows moved — the other five were never refreshed.
    assert store.rows_added == 7 and store.rows_dropped == 1
    assert removed not in store.matrix and inserted in store.matrix


def test_vocabulary_growth_backfills_zero():
    matrix = SignatureMatrix()
    matrix.add(0, GraphFeatures.of(make_random_graph(1, labels=("A", "B"))))
    # A later graph introduces labels the first row has never seen.
    newcomer = make_random_graph(2, labels=("X", "Y"), edge_labels=("q",))
    matrix.add(1, GraphFeatures.of(newcomer))
    query_features = GraphFeatures.of(newcomer)
    packed = matrix.pack_query(query_features)
    edit = edit_lower_bounds(matrix, packed)
    f0 = GraphFeatures.of(make_random_graph(1, labels=("A", "B")))
    assert edit[matrix.row_of[0]] == edit_distance_lower_bound(f0, query_features)
    assert edit[matrix.row_of[1]] == 0.0


def test_signature_distances_is_a_metric_on_samples():
    """Spot-check that the signature edit bound (edit_lower_bounds) is a metric."""
    graphs = [make_random_graph(seed, max_vertices=6) for seed in range(12)]
    matrix, features = _matrix_of(graphs)
    n = len(graphs)
    d = np.zeros((n, n))
    for i in range(n):
        d[i] = edit_lower_bounds(matrix, matrix.pack_query(features[i]))
    for i in range(n):
        assert d[i, i] == 0.0
        for j in range(n):
            assert d[i, j] == d[j, i]
            for k in range(n):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


@relaxed
@given(
    graphs=pop_graphs,
    query=query_graphs,
    threshold=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    measure=st.sampled_from(("edit", "edit-normalized", "mcs", "union")),
)
def test_threshold_prefilter_is_the_flat_bound_mask(graphs, query, threshold, measure):
    """The vectorized source keeps exactly the rows whose bound is ≤ t."""
    from repro import Query
    from repro.engine.core import make_context
    from repro.index import IndexedSource

    database = GraphDatabase.from_graphs(graphs)
    store = FeatureStore(database)
    spec = Query(query).threshold(threshold, measure).build()
    ctx = make_context(database, spec)
    block = IndexedSource(store).candidates(ctx)

    matrix = store.matrix
    packed = matrix.pack_query(GraphFeatures.of(query))
    values = bound_matrix(matrix, packed, ctx.measures)[:, 0]
    by_id = dict(zip(matrix.ids.tolist(), values.tolist()))
    assert block.ids == sorted(g for g, v in by_id.items() if v <= threshold)
    assert [c.bounds for c in block] == [(by_id[g],) for g in block.ids]
    assert ctx.prefiltered == sorted(g for g, v in by_id.items() if v > threshold)


coordinates = st.one_of(
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    st.sampled_from((0.0, 1.0, 2.0)),
    st.just(float("nan")),
)


@relaxed
@given(
    dims=st.integers(min_value=1, max_value=3),
    data=st.data(),
    tolerance=st.sampled_from((0.0, 0.0, 0.25, 1.0)),
)
def test_dominator_counts_equal_dominates(dims, data, tolerance):
    vectors = st.lists(
        st.tuples(*[coordinates] * dims), min_size=0, max_size=12
    )
    exact = data.draw(vectors)
    bounds = data.draw(vectors)
    counts = dominator_counts(
        np.asarray(exact, dtype=np.float64).reshape(-1, dims),
        np.asarray(bounds, dtype=np.float64).reshape(-1, dims),
        tolerance,
    )
    assert counts.tolist() == [
        sum(dominates(p, q, tolerance) for p in exact) for q in bounds
    ]


def test_dominator_counts_chunks_large_windows(monkeypatch):
    from repro.index import kernels

    rng = np.random.default_rng(7)
    exact = rng.integers(0, 4, size=(9, 3)).astype(np.float64)
    bounds = rng.integers(0, 4, size=(40, 3)).astype(np.float64)
    whole = dominator_counts(exact, bounds)
    monkeypatch.setattr(kernels, "_DOMINANCE_CELLS", 30)  # one row per chunk
    assert dominator_counts(exact, bounds).tolist() == whole.tolist()
    assert whole.tolist() == [
        sum(dominates(tuple(p), tuple(q), 0.0) for p in exact) for q in bounds
    ]
