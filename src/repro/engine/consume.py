"""Consumers: turn exact vectors into the answer for each query kind.

The selection step over exact vectors is cheap but semantically load
bearing: tolerance and tie-breaking define the backend-parity contract.
Every plan the engine runs funnels through these functions, and every
vector answer (the shard merges' and anytime's best effort too) is
chosen by :func:`select`, so answer-set semantics are defined exactly
once and cannot drift per backend.
"""

from __future__ import annotations

from repro.core.gcs import CompoundSimilarity
from repro.db.stats import PhaseTimer, QueryStats
from repro.skyline import k_skyband
from repro.api.spec import GraphQuery


def select(
    spec: GraphQuery,
    vectors: dict[int, CompoundSimilarity],
    pool: list[int] | None = None,
) -> list[int]:
    """Sorted ids of ``spec``'s skyline (or k-skyband) over ``pool``'s
    vectors; ``pool`` defaults to every id in ``vectors``."""
    ids = list(vectors) if pool is None else pool
    k = spec.k if spec.kind == "skyband" else 1
    positions = k_skyband([vectors[i].values for i in ids], k, spec.tolerance)
    return sorted(ids[p] for p in positions)


def finish_vectors(
    spec: GraphQuery,
    vectors: dict[int, CompoundSimilarity],
    stats: QueryStats,
    pruned_ids: list[int],
) -> "BackendAnswer":
    """Skyline or k-skyband selection over exact vectors."""
    from repro.api.backends import BackendAnswer

    with PhaseTimer(stats, "skyline"):
        answer = select(spec, vectors)
    stats.skyline_size = len(answer)
    return BackendAnswer(answer, list(vectors), vectors, None, stats, pruned_ids)


def finish_distances(
    spec: GraphQuery,
    distances: dict[int, float],
    stats: QueryStats,
    pruned_ids: list[int],
) -> "BackendAnswer":
    """Top-k cut or threshold filter over exact distances, ties by id."""
    from repro.api.backends import BackendAnswer

    if spec.kind == "topk":
        answer = sorted(distances, key=lambda i: (distances[i], i))[: spec.k]
    else:
        answer = [i for i in distances if distances[i] <= spec.threshold]
        answer.sort(key=lambda i: (distances[i], i))
    return BackendAnswer(answer, list(distances), {}, distances, stats, pruned_ids)
