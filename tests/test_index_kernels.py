"""Vectorized bound kernels must equal the scalar bounds *bit for bit*.

The acceptance contract of the packed index: a full run bounds with the
kernels and a replay bounds its added graphs one at a time with
:class:`QueryBounds`, and both must prune on the same vectors. Every
kernel output is compared to its scalar ``features.py`` counterpart with
exact ``==`` (no tolerance), on hypothesis-generated graph populations
and queries — including graphs with disjoint label vocabularies, empty
graphs, and a matrix that reached its state through incremental
adds/removes rather than a bulk build. Labels mix spellings that are
equal by ``==`` (``1``, ``1.0``, ``True``) with plain strings, so the
edge-type columns are keyed the way the scalar bound matches labels.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import LabeledGraph
from repro.graph.features import (
    GraphFeatures,
    QueryBounds,
    _normalized_edit_bound,
    dist_gu_lower_bound,
    dist_mcs_lower_bound,
    edit_distance_lower_bound,
    mcs_upper_bound,
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
from repro.measures import FunctionMeasure
from repro.measures.base import resolve_measures
from repro.skyline.utils import dominates

from tests.conftest import make_random_graph, small_labeled_graphs

relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Equal-by-``==`` spellings beside plain strings.
MIXED_LABELS = (1, 1.0, True, "D", "E")

# Disjoint label alphabets, so vocabularies are genuinely partial, and a
# mixed one whose equal spellings must share a column.
pop_graph = st.one_of(
    small_labeled_graphs(max_vertices=5),
    small_labeled_graphs(max_vertices=4, vertex_labels=("D", "E"), edge_labels=("z",)),
    small_labeled_graphs(
        max_vertices=4, vertex_labels=MIXED_LABELS, edge_labels=(1, "z")
    ),
)
pop_graphs = st.lists(pop_graph, min_size=0, max_size=8)
query_graphs = st.one_of(
    small_labeled_graphs(max_vertices=5),
    small_labeled_graphs(max_vertices=4, vertex_labels=("D", "E"), edge_labels=("z",)),
    small_labeled_graphs(
        max_vertices=4, vertex_labels=(1.0, True, "E", "F"), edge_labels=(True, "z")
    ),
)


def _rows(pairs):
    """``(graph_id, graph)`` pairs as the matrix's row triples."""
    return [(graph_id, graph, GraphFeatures.of(graph)) for graph_id, graph in pairs]


def _matrix_of(graphs) -> tuple[SignatureMatrix, list[GraphFeatures]]:
    matrix = SignatureMatrix()
    matrix.add_many(_rows(enumerate(graphs)))
    return matrix, [GraphFeatures.of(g) for g in graphs]


@relaxed
@given(graphs=pop_graphs, query=query_graphs)
def test_kernels_bit_identical_to_scalar_bounds(graphs, query):
    matrix, features = _matrix_of(graphs)
    query_features = GraphFeatures.of(query)
    packed = matrix.pack_query(query)

    edit = edit_lower_bounds(matrix, packed)
    norm = normalized_edit_lower_bounds(matrix, packed)
    mcs_ub = mcs_upper_bounds(matrix, packed)
    d_mcs = dist_mcs_lower_bounds(matrix, packed)
    d_gu = dist_gu_lower_bounds(matrix, packed)

    for row, graph_id in enumerate(matrix.ids.tolist()):
        f = features[graph_id]
        cap = mcs_upper_bound(graphs[graph_id], query)
        assert edit[row] == edit_distance_lower_bound(f, query_features)
        assert norm[row] == _normalized_edit_bound(f, query_features)
        assert mcs_ub[row] == cap
        assert d_mcs[row] == dist_mcs_lower_bound(f, query_features, cap)
        assert d_gu[row] == dist_gu_lower_bound(f, query_features, cap)


@relaxed
@given(graphs=pop_graphs, query=query_graphs)
def test_bound_matrix_matches_scalar_optimistic_vectors(graphs, query):
    """The full (n, d) matrix equals the per-row optimistic vectors a
    replay bounds its added graphs with."""
    matrix, features = _matrix_of(graphs)
    measures = resolve_measures(("edit", "edit-normalized", "mcs", "union"))
    packed = matrix.pack_query(query)
    batched = bound_matrix(matrix, packed, measures)
    bounds = QueryBounds(query, measures)

    for row, graph_id in enumerate(matrix.ids.tolist()):
        scalar = bounds.vector(graphs[graph_id], features[graph_id])
        assert tuple(batched[row].tolist()) == scalar


#: A measure with no registered bound: its dimension is 0.0 everywhere.
UNBOUNDED = FunctionMeasure(lambda g1, g2: 1.0, name="unbounded")


def _edgeless(graph: LabeledGraph) -> LabeledGraph:
    bare = LabeledGraph()
    for vertex in graph.vertices():
        bare.add_vertex(vertex, graph.vertex_label(vertex))
    return bare


#: Vertex and edge labels mixing equal spellings with strings, and
#: edgeless graphs.
prepared_graph = st.one_of(
    small_labeled_graphs(
        max_vertices=5, vertex_labels=MIXED_LABELS, edge_labels=(1, 1.0, True, "z")
    ),
    small_labeled_graphs(max_vertices=4, vertex_labels=(True, "D")).map(_edgeless),
    small_labeled_graphs(max_vertices=4, vertex_labels=("D", "E"), edge_labels=("z",)),
)


@relaxed
@given(
    graphs=st.lists(prepared_graph, min_size=1, max_size=8),
    query=st.one_of(st.just(LabeledGraph()), prepared_graph),
    names=st.lists(
        st.sampled_from(("edit", "edit-normalized", "mcs", "union", "unbounded")),
        min_size=1,
        max_size=5,
    ),
)
def test_prepared_bound_equals_per_pair_bounds_and_matrix_rows(graphs, query, names):
    """One query side, prepared once, bounds every graph bit for bit like
    the per-pair functions and the packed matrix's row, under any measure
    tuple (repeats and an unbounded measure included)."""
    measures = [
        UNBOUNDED if name == "unbounded" else resolve_measures((name,))[0]
        for name in names
    ]
    matrix, features = _matrix_of(graphs)
    batched = bound_matrix(matrix, matrix.pack_query(query), measures)
    bounds = QueryBounds(query, measures)
    query_features = GraphFeatures.of(query)
    for row, graph_id in enumerate(matrix.ids.tolist()):
        graph, f = graphs[graph_id], features[graph_id]
        cap = mcs_upper_bound(graph, query)
        per_pair = {
            "edit": edit_distance_lower_bound(f, query_features),
            "edit-normalized": _normalized_edit_bound(f, query_features),
            "mcs": dist_mcs_lower_bound(f, query_features, cap),
            "union": dist_gu_lower_bound(f, query_features, cap),
            "unbounded": 0.0,
        }
        prepared = bounds.vector(graph, f)
        assert prepared == tuple(per_pair[name] for name in names)
        assert prepared == tuple(batched[row].tolist())
        assert all(type(value) is float for value in prepared)


def test_unknown_measure_gets_zero_column():
    matrix, _ = _matrix_of([make_random_graph(3), make_random_graph(4)])
    measures = (resolve_measures(("edit",))[0], UNBOUNDED)
    batched = bound_matrix(matrix, matrix.pack_query(make_random_graph(5)), measures)
    assert batched.shape == (2, 2)
    assert np.all(batched[:, 1] == 0.0)


def test_empty_matrix_and_empty_graphs():
    matrix = SignatureMatrix()
    measures = resolve_measures(("edit", "mcs", "union"))
    packed = matrix.pack_query(LabeledGraph())
    assert bound_matrix(matrix, packed, measures).shape == (0, 3)

    matrix.add(0, LabeledGraph())
    packed = matrix.pack_query(LabeledGraph())
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
    live: dict[int, LabeledGraph] = {}
    for graph_id, graph in enumerate(graphs):
        incremental.add(graph_id, graph)
        live[graph_id] = graph
    for victim in removals:
        incremental.discard(victim)  # no-op when already gone
        live.pop(victim, None)

    rebuilt = SignatureMatrix()
    rebuilt.add_many(_rows(live.items()))

    assert set(incremental.ids.tolist()) == set(rebuilt.ids.tolist())
    measures = resolve_measures(("edit", "mcs", "union"))
    bounds_a = bound_matrix(incremental, incremental.pack_query(query), measures)
    bounds_b = bound_matrix(rebuilt, rebuilt.pack_query(query), measures)
    by_id_a = dict(zip(incremental.ids.tolist(), map(tuple, bounds_a.tolist())))
    by_id_b = dict(zip(rebuilt.ids.tolist(), map(tuple, bounds_b.tolist())))
    assert by_id_a == by_id_b


def _state(matrix: SignatureMatrix):
    """Every array and vocabulary of ``matrix``, comparable with ``==``."""
    arrays = (
        matrix.ids,
        matrix.orders,
        matrix.sizes,
        matrix.vertex_counts,
        matrix.edge_counts,
        matrix.type_counts,
    )
    blocks = (matrix.vertex_block, matrix.edge_block, matrix.type_block)
    return (
        [array.tolist() for array in arrays],
        [list(block.vocab._ids.items()) for block in blocks],
        dict(matrix.row_of),
    )


@relaxed
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), pop_graph),
            max_size=4,
        ),
        min_size=1,
        max_size=4,
    ),
    removals=st.lists(st.integers(min_value=0, max_value=7), max_size=4),
)
def test_bulk_writer_equals_row_by_row_adds(batches, removals):
    """``add_many`` leaves the arrays and vocabularies ``add`` would, across
    adds, discards and re-adds of present ids (overwrites)."""
    bulk, single = SignatureMatrix(), SignatureMatrix()
    for index, batch in enumerate(batches):
        bulk.add_many(_rows(batch))
        for graph_id, graph in batch:
            single.add(graph_id, graph)
        for victim in removals[index::len(batches)]:
            bulk.discard(victim)
            single.discard(victim)
        assert _state(bulk) == _state(single)


def test_bulk_writer_grows_every_block_at_once():
    graphs = [make_random_graph(seed, labels=("A", "B", 1, 2.0)) for seed in range(40)]
    bulk = SignatureMatrix()
    bulk.add_many(_rows(enumerate(graphs)))
    single = SignatureMatrix()
    for graph_id, graph in enumerate(graphs):
        single.add(graph_id, graph)
    assert _state(bulk) == _state(single)
    assert len(bulk) == 40 and len(bulk.type_block.vocab) > 8


def test_pooled_row_subsets_bound_like_the_parent_matrix():
    """A worker's bounds over the shared-memory export equal the parent's
    ``bound_matrix`` rows, edge-type column included."""
    from collections import OrderedDict

    from repro.engine.workers import shared_memory_available
    from repro.index.shm import SharedMatrixExport, matrix_bounds

    if not shared_memory_available():
        pytest.skip("multiprocessing.shared_memory unavailable")
    graphs = [
        make_random_graph(seed, labels=("A", "B", 1, 1.0), edge_labels=("-", "=", True))
        for seed in range(30)
    ]
    database = GraphDatabase.from_graphs(graphs)
    store = FeatureStore(database)
    export = SharedMatrixExport(store)
    measures = resolve_measures(("edit", "edit-normalized", "mcs", "union"))
    query = make_random_graph(77, labels=("A", 1.0, True), edge_labels=("-", 1))
    cache: OrderedDict = OrderedDict()
    try:
        meta, matrix = export.refresh()
        packed = matrix.pack_query(query)
        qsig = (
            packed.order,
            packed.size,
            packed.vertex_vector.tolist(),
            packed.edge_vector.tolist(),
            packed.type_vector.tolist(),
        )
        expected = bound_matrix(matrix, packed, measures)
        rows = [3, 0, 17, 29, 11]
        pooled = matrix_bounds(meta, rows, qsig, measures, cache)
        ids = matrix.ids.tolist()
        assert pooled == {ids[row]: tuple(expected[row]) for row in rows}
    finally:
        for attached in cache.values():
            attached.release()
        export.release()


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
    matrix.add(0, make_random_graph(1, labels=("A", "B")))
    # A later graph introduces labels the first row has never seen.
    newcomer = make_random_graph(2, labels=("X", "Y"), edge_labels=("q",))
    matrix.add(1, newcomer)
    query_features = GraphFeatures.of(newcomer)
    packed = matrix.pack_query(newcomer)
    edit = edit_lower_bounds(matrix, packed)
    f0 = GraphFeatures.of(make_random_graph(1, labels=("A", "B")))
    assert edit[matrix.row_of[0]] == edit_distance_lower_bound(f0, query_features)
    assert edit[matrix.row_of[1]] == 0.0


def test_signature_distances_is_a_metric_on_samples():
    """Spot-check that the signature edit bound (edit_lower_bounds) is a metric."""
    graphs = [make_random_graph(seed, max_vertices=6) for seed in range(12)]
    matrix, _ = _matrix_of(graphs)
    n = len(graphs)
    d = np.zeros((n, n))
    for i in range(n):
        d[i] = edit_lower_bounds(matrix, matrix.pack_query(graphs[i]))
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
    packed = matrix.pack_query(query)
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
