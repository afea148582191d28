"""Bench A8 — vectorized bound kernels versus the scalar bounds.

Times the candidate-filtering layer at database sizes where interpreter
overhead dominates the scalar path: all four feature bounds (edit lb,
|mcs| ub, DistMcs lb, DistGu lb) for every graph against one query, the
per-graph scalar loop over ``repro.graph.features`` versus one batched
kernel pass over the packed :class:`~repro.index.SignatureMatrix`.

Results go to ``BENCH_bounds.json`` next to this file (archived by CI).
The regression floor asserted here: **≥ 5× bound-stage speedup at 2 000
graphs**, with the vectorized pass returning the same numbers.
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.datasets.synthetic import molecule_like_graph
from repro.graph.features import (
    GraphFeatures,
    dist_gu_lower_bound,
    dist_mcs_lower_bound,
    edit_distance_lower_bound,
    mcs_upper_bound,
)
from repro.index import SignatureMatrix, bound_matrix
from repro.bench import render_table
from repro.measures.base import resolve_measures

SIZES = (2_000, 10_000)
SPEEDUP_FLOOR = 5.0  # asserted at the smallest size; CI fails below it
OUTPUT = Path(__file__).resolve().parent / "BENCH_bounds.json"


@pytest.fixture(scope="module")
def populations():
    """Graph populations per size with their features, and a query."""
    rng = random.Random(42)
    graphs = [
        molecule_like_graph(rng.randint(4, 9), seed=rng) for _ in range(max(SIZES))
    ]
    query = molecule_like_graph(6, seed=rng, name="q")
    return graphs, [GraphFeatures.of(g) for g in graphs], query


def _scalar_pass(graphs, features, query):
    query_features = GraphFeatures.of(query)
    rows = []
    for graph, f in zip(graphs, features):
        cap = mcs_upper_bound(graph, query)
        rows.append((
            edit_distance_lower_bound(f, query_features),
            cap,
            dist_mcs_lower_bound(f, query_features, cap),
            dist_gu_lower_bound(f, query_features, cap),
        ))
    return rows


def _best_of(repeats, fn):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


@pytest.mark.benchmark(group="a8-bound-kernels")
def test_bound_kernel_throughput(populations):
    all_graphs, all_features, query = populations
    measures = resolve_measures(("edit", "mcs", "union"))
    rows = []
    payload = {"sizes": {}, "speedup_floor": SPEEDUP_FLOOR}

    for size in SIZES:
        graphs, features = all_graphs[:size], all_features[:size]
        matrix = SignatureMatrix()
        matrix.add_many(zip(range(size), graphs, features))

        scalar_s, scalar_values = _best_of(
            3, lambda: _scalar_pass(graphs, features, query)
        )
        vector_s, batched = _best_of(
            3, lambda: bound_matrix(matrix, matrix.pack_query(query), measures)
        )
        # The vectorized pass must be the same numbers, not just faster.
        sample = random.Random(7).sample(range(size), 50)
        for row in sample:
            assert batched[row, 0] == scalar_values[row][0]
            assert batched[row, 1] == scalar_values[row][2]
            assert batched[row, 2] == scalar_values[row][3]
        speedup = scalar_s / vector_s

        rows.append([
            size,
            round(scalar_s * 1e3, 2),
            round(vector_s * 1e3, 3),
            round(speedup, 1),
        ])
        payload["sizes"][str(size)] = {
            "scalar_bound_seconds": scalar_s,
            "vector_bound_seconds": vector_s,
            "bound_speedup": speedup,
            "bounds_per_second_scalar": size / scalar_s,
            "bounds_per_second_vector": size / vector_s,
        }

    print()
    print(render_table(
        ["n", "scalar ms", "vector ms", "speedup"],
        rows,
        title="A8 — bound kernels: scalar vs vectorized",
    ))
    OUTPUT.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"wrote {OUTPUT}")

    floor_speedup = payload["sizes"][str(SIZES[0])]["bound_speedup"]
    assert floor_speedup >= SPEEDUP_FLOOR, (
        f"vectorized bound stage only {floor_speedup:.1f}x over scalar at "
        f"n={SIZES[0]}; the floor is {SPEEDUP_FLOOR}x"
    )
