"""Gather-phase soundness: merge consumers equal the monolithic answer.

These properties drive the exact production merge path
(:class:`~repro.engine.scatter.SkylineMerge` /
:class:`~repro.engine.scatter.FrontierMerge` over per-shard
:class:`~repro.api.backends.BackendAnswer` objects built by the
monolithic consumers in :mod:`repro.engine.consume`) with synthetic
vector sets — arbitrary values including NaN coordinates — and arbitrary
placements, and require bit-identical agreement with the single-pass
monolithic selection. This isolates the distributed-decomposition
argument (local answer union + global pass == monolithic answer) from
graph evaluation entirely, so the edge cases the docstrings reason about
(NaN dominance non-transitivity, tolerant dominance) are actually
exercised rather than just argued.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.spec import GraphQuery
from repro.core.gcs import CompoundSimilarity
from repro.datasets import figure3_query
from repro.db.stats import QueryStats
from repro.engine.consume import finish_distances, finish_vectors
from repro.engine.scatter import FrontierMerge, SkylineMerge, merge_consumer

MEASURES = ("edit", "mcs")  # registry names; the values are synthetic

# Values from a tiny grid (plus NaN) maximize dominance ties/duplicates,
# the regimes where merge bugs would hide.
coordinates = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False, width=32),
    st.just(math.nan),
)
vector_sets = st.lists(
    st.tuples(coordinates, coordinates), min_size=1, max_size=12
)

relaxed = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _spec(kind: str, **kwargs) -> GraphQuery:
    return GraphQuery(
        graph=figure3_query(), kind=kind, measures=MEASURES, **kwargs
    ).validate()


def _shard_answers(spec, vectors, placement, shards):
    """Per-shard local answers through the real monolithic consumer."""
    answers = []
    for index in range(shards):
        local = {
            graph_id: vector
            for graph_id, vector in vectors.items()
            if placement[graph_id] % shards == index
        }
        if not local:
            continue
        if spec.kind in ("skyline", "skyband"):
            answers.append(finish_vectors(spec, local, QueryStats(), []))
        else:
            distances = {i: v.values[0] for i, v in local.items()}
            answers.append(finish_distances(spec, distances, QueryStats(), []))
    return answers


def _compound(values):
    return {
        graph_id: CompoundSimilarity(values=vector, measures=MEASURES)
        for graph_id, vector in enumerate(values)
    }


@relaxed
@given(
    values=vector_sets,
    placement=st.lists(st.integers(min_value=0, max_value=7), min_size=12, max_size=12),
    shards=st.integers(min_value=1, max_value=4),
    tolerance=st.sampled_from([0.0, 0.0, 0.5]),
)
def test_skyline_merge_equals_monolithic(values, placement, shards, tolerance):
    spec = _spec("skyline", tolerance=tolerance)
    vectors = _compound(values)
    monolithic = finish_vectors(spec, dict(vectors), QueryStats(), [])
    merged = SkylineMerge().merge(
        spec, _shard_answers(spec, vectors, placement, shards), QueryStats()
    )
    assert merged.ids == monolithic.ids
    assert merged.stats.skyline_size == len(merged.ids)
    assert sorted(merged.evaluated_ids) == sorted(monolithic.evaluated_ids)


@relaxed
@given(
    values=vector_sets,
    placement=st.lists(st.integers(min_value=0, max_value=7), min_size=12, max_size=12),
    shards=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=4),
)
def test_skyband_merge_equals_monolithic(values, placement, shards, k):
    spec = _spec("skyband", k=k)
    vectors = _compound(values)
    monolithic = finish_vectors(spec, dict(vectors), QueryStats(), [])
    merged = SkylineMerge().merge(
        spec, _shard_answers(spec, vectors, placement, shards), QueryStats()
    )
    assert merged.ids == monolithic.ids


@relaxed
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False, width=32),
        min_size=1,
        max_size=12,
    ),
    placement=st.lists(st.integers(min_value=0, max_value=7), min_size=12, max_size=12),
    shards=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=5),
)
def test_topk_frontier_merge_equals_monolithic(values, placement, shards, k):
    spec = GraphQuery(graph=figure3_query(), kind="topk", k=k).validate()
    distances = dict(enumerate(values))
    monolithic = finish_distances(spec, dict(distances), QueryStats(), [])
    answers = []
    for index in range(shards):
        local = {
            i: d for i, d in distances.items() if placement[i] % shards == index
        }
        if local:
            answers.append(finish_distances(spec, local, QueryStats(), []))
    merged = FrontierMerge().merge(spec, answers, QueryStats())
    assert merged.ids == monolithic.ids
    assert merged.distances == distances


@relaxed
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False, width=32),
        min_size=1,
        max_size=12,
    ),
    placement=st.lists(st.integers(min_value=0, max_value=7), min_size=12, max_size=12),
    shards=st.integers(min_value=1, max_value=4),
    threshold=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_threshold_merge_equals_monolithic(values, placement, shards, threshold):
    spec = GraphQuery(
        graph=figure3_query(), kind="threshold", threshold=threshold
    ).validate()
    distances = dict(enumerate(values))
    monolithic = finish_distances(spec, dict(distances), QueryStats(), [])
    answers = []
    for index in range(shards):
        local = {
            i: d for i, d in distances.items() if placement[i] % shards == index
        }
        if local:
            answers.append(finish_distances(spec, local, QueryStats(), []))
    merged = FrontierMerge().merge(spec, answers, QueryStats())
    assert merged.ids == monolithic.ids


def test_merge_consumer_dispatch():
    assert isinstance(merge_consumer(_spec("skyline")), SkylineMerge)
    assert isinstance(merge_consumer(_spec("skyband", k=2)), SkylineMerge)
    assert isinstance(
        merge_consumer(GraphQuery(graph=figure3_query(), kind="topk", k=1)),
        FrontierMerge,
    )
    assert isinstance(
        merge_consumer(
            GraphQuery(graph=figure3_query(), kind="threshold", threshold=1.0)
        ),
        FrontierMerge,
    )


def test_empty_scatter_yields_empty_answer():
    spec = _spec("skyline")
    merged = SkylineMerge().merge(spec, [], QueryStats())
    assert merged.ids == [] and merged.vectors == {}
    topk = GraphQuery(graph=figure3_query(), kind="topk", k=2).validate()
    merged = FrontierMerge().merge(topk, [], QueryStats())
    assert merged.ids == [] and merged.distances == {}
