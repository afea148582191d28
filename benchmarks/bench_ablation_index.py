"""Bench A4 — ablation: index pruning on (``indexed``) vs off (``memory``).

The ``indexed`` backend can skip the exact GED/MCS of candidates whose optimistic
(lower-bound) GCS vector is already dominated by an evaluated exact
vector. This bench runs the same query on ``indexed`` and on the
exhaustive ``memory`` backend, asserts identical skylines, and reports
how many exact evaluations the index saved. Expected shape: identical answers; pruning saves most work on
workloads with many far-away distractors.
"""

import pytest

import repro
from repro.bench import render_table
from repro.datasets import make_workload
from repro.db import GraphDatabase


@pytest.fixture(scope="module")
def setup():
    workload = make_workload(
        n_graphs=40, query_size=7, mutant_fraction=0.3, radius=(1, 3), seed=77
    )
    db = GraphDatabase.from_graphs(workload.database)
    return db, workload.queries[0]


@pytest.mark.benchmark(group="a4-index")
@pytest.mark.parametrize("use_index", [True, False], ids=["pruned", "full"])
def test_executor_index_ablation(benchmark, setup, use_index):
    db, query = setup
    spec = repro.Query(query).skyline()
    session = repro.connect(db, backend="indexed" if use_index else "memory")

    result = benchmark.pedantic(
        session.execute, args=(spec,), rounds=1, iterations=1
    )

    with repro.connect(db, backend="memory") as reference:
        assert result.ids == reference.execute(spec).ids
    session.close()

    stats = result.stats
    print()
    print(render_table(
        ["mode", "evaluated", "pruned", "pruning ratio", "skyline"],
        [[
            "pruned" if use_index else "full",
            stats.exact_evaluations,
            stats.pruned_by_index,
            round(stats.pruning_ratio, 3),
            stats.skyline_size,
        ]],
        title="A4 — index pruning",
    ))
