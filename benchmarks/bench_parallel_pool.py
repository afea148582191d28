"""Bench A10 — the persistent worker pool at the 10k-graph tier.

The economics this PR had to fix (see ``ISSUE`` 7 / ROADMAP): the old
per-query ``ProcessPoolExecutor`` path re-shipped the database on every
query and forfeited cross-shard pruning — parallel shards evaluated ~7×
more pairs than serial and lost wall-clock by seconds. This bench runs a
10k-graph workload through serial sharded execution and the
persistent-pool parallel path (skyline and top-k), separating the
**cold** first query (workers fork, database parks in shared memory)
from the **steady state** every later query of every session enjoys.

Gates, in order of what can actually regress:

* **Answers identical** across every variant — always.
* **Pruning recovered**: pairs the parallel run hands to a solver
  (evaluations plus solves cut at a cap) within 2× of serial's (the
  shared frontier at work; the old path was ~7×) — always.
* **Wall-clock**: the host's usable parallelism is *measured* (a fixed
  CPU-bound probe run 1-way then 2-way). Where hardware concurrency is
  real (probe speedup ≥ 1.5×, e.g. CI runners) steady-state parallel
  must beat serial outright. On a single effective core no parallel
  scheme can win wall-clock, so the gate degrades to a bounded-overhead
  cap — steady-state parallel within 1.5× of serial — which still fails
  the old spawn-per-query economics by a wide margin. The probe result
  is recorded in ``BENCH_parallel.json`` so the archived numbers say
  which gate applied.
"""

import json
import multiprocessing
import time
from pathlib import Path

import pytest

import repro
from repro import Query
from repro.bench import render_table
from repro.datasets import make_workload
from repro.engine.workers import shutdown_pool
from repro.shard import ShardedGraphDatabase

N_GRAPHS = 10_000
K = 10
SHARDS = 4
WORKERS = 2
REPEATS = 3
#: Probe speedup above which the host is treated as genuinely parallel.
PARALLEL_HOST_SPEEDUP = 1.5
#: Steady-state overhead cap on a serialized host (old path: ~5-10×).
OVERHEAD_CAP = 1.5
OUTPUT = Path(__file__).resolve().parent / "BENCH_parallel.json"


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _probe_parallelism() -> float:
    """Measured speedup of running two fixed CPU-bound halves in two
    processes versus serially in one — ~2.0 on a real dual core, ~1.0
    on a single effective core (containers with cpu quotas, CI noise)."""
    work = 2_000_000
    start = time.perf_counter()
    _spin(work)
    _spin(work)
    serial = time.perf_counter() - start
    processes = [
        multiprocessing.Process(target=_spin, args=(work,)) for _ in range(2)
    ]
    start = time.perf_counter()
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    concurrent = time.perf_counter() - start
    return serial / concurrent if concurrent > 0 else 1.0


def _handed(stats) -> int:
    """Pairs handed to a solver: evaluations plus solves cut at a cap."""
    return stats.exact_evaluations + stats.pruned_by_stage.get("solver-cutoff", 0)


@pytest.fixture(scope="module")
def workload_store():
    workload = make_workload(n_graphs=N_GRAPHS, query_size=6, seed=41)
    store = ShardedGraphDatabase.from_graphs(workload.database, shards=SHARDS)
    return store, workload.queries[0]


@pytest.mark.benchmark(group="a10-parallel-pool")
def test_persistent_pool_parallel_wins_at_10k(workload_store):
    store, query = workload_store
    specs = {
        "skyline": Query(query).skyline(),
        "topk": Query(query).topk(K, "edit"),
    }
    probe_speedup = _probe_parallelism()
    parallel_host = probe_speedup >= PARALLEL_HOST_SPEEDUP

    shutdown_pool()  # measure the cold fork/park honestly
    rows = []
    runs = {}
    payload = {
        "workload": {"n_graphs": N_GRAPHS, "shards": SHARDS, "seed": 41, "k": K},
        "repeats": REPEATS,
        "workers": WORKERS,
        "probe_speedup": round(probe_speedup, 3),
        "parallel_host": parallel_host,
        "wall_clock_gate": "parallel < serial"
        if parallel_host
        else f"parallel <= {OVERHEAD_CAP}x serial (single effective core)",
        "variants": {},
    }
    for kind, spec in specs.items():
        with repro.connect(store, backend="sharded") as session:
            best = None
            for _ in range(REPEATS):
                start = time.perf_counter()
                result = session.execute(spec)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best[1]:
                    best = (result, elapsed)
            runs[(kind, "serial")] = best + (None,)
        with repro.connect(
            store, backend="sharded", parallel=True, max_workers=WORKERS
        ) as session:
            start = time.perf_counter()
            cold_result = session.execute(spec)
            cold = time.perf_counter() - start
            best = None
            for _ in range(REPEATS):
                start = time.perf_counter()
                result = session.execute(spec)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best[1]:
                    best = (result, elapsed)
            assert cold_result.ids == best[0].ids
            runs[(kind, "parallel")] = best + (cold,)

    for (kind, variant), (result, elapsed, cold) in runs.items():
        stats = result.stats
        pool = stats.pool or {}
        rows.append([
            kind,
            variant,
            round(elapsed * 1000, 1),
            round(cold * 1000, 1) if cold is not None else "-",
            stats.exact_evaluations,
            pool.get("frontier_pruned", "-"),
            len(result.ids),
        ])
        payload["variants"][f"{kind}/{variant}"] = {
            "seconds": elapsed,
            "cold_seconds": cold,
            "exact_evaluations": stats.exact_evaluations,
            "answer_size": len(result.ids),
            "pool": pool or None,
        }
    print()
    print(render_table(
        ["kind", "variant", "ms", "cold ms", "exact evals", "frontier", "answer"],
        rows,
        title=(
            f"A10 — persistent pool at n={N_GRAPHS} "
            f"(best of {REPEATS}, probe speedup {probe_speedup:.2f}x)"
        ),
    ))
    OUTPUT.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"wrote {OUTPUT}")

    for kind in specs:
        serial_result, serial_time, _ = runs[(kind, "serial")]
        parallel_result, parallel_time, _ = runs[(kind, "parallel")]
        # Identical answers.
        assert parallel_result.ids == serial_result.ids, kind
        # Cross-shard pruning recovered: within 2× of serial (was ~7×).
        # Both sides count every pair handed to a solver: evaluations
        # plus the solves cut at a cap (the serial bound stage's, the
        # pool's shared frontier's).
        serial_handed = _handed(serial_result.stats)
        parallel_handed = _handed(parallel_result.stats)
        assert parallel_handed <= 2 * serial_handed, (
            kind,
            parallel_handed,
            serial_handed,
        )
        # Wall-clock, against what the hardware can actually deliver.
        cap = serial_time if parallel_host else OVERHEAD_CAP * serial_time
        assert parallel_time <= cap, (
            f"{kind}: steady-state parallel {parallel_time * 1000:.1f}ms vs "
            f"serial {serial_time * 1000:.1f}ms "
            f"(probe speedup {probe_speedup:.2f}x, cap {cap * 1000:.1f}ms)"
        )
