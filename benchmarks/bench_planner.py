"""Bench A10 — rule-based adaptive planner: ``auto`` versus every fixed backend.

Runs two workload classes through every fixed backend (``memory``,
``indexed``, ``parallel``, ``vectorized`` (the same plan as ``indexed``
under its second name), ``sharded`` over a 2-shard split) plus the adaptive ``auto`` backend:

* ``interactive`` — a small database with the full testkit query-kind
  mix (skyline, skyband, top-k, threshold). Fixed overheads dominate
  here, so the exhaustive process-pool plan (``parallel``) is the wrong
  choice and the planner must stay serial.
* ``bulk-pruned`` — a larger database where the pruning cascade pays:
  the exhaustive plans (``memory``, ``parallel``) evaluate every pair
  exactly while the index-backed plans prune most of them.

Each session runs the whole spec list once untimed (index/store build,
pool spawn — both session-persistent), then the
timed measurements interleave backends round-robin for ``REPEATS``
rounds — slow drift in machine load hits every backend equally instead
of whichever ran last. Per spec the best round counts, and the class
total is the sum of the per-spec bests. The acceptance gates are the
ISSUE-10 criteria:

* per class, ``auto`` total wall clock ≤ 1.1× the best fixed backend;
* on at least one class ``auto`` strictly beats the worst fixed backend
  by ≥ 1.5×;
* answers are property-equal to ``memory`` on every spec.

Results are printed as a table and written to ``BENCH_planner.json``
next to this file, so CI can archive the numbers.
"""

import json
import time
from pathlib import Path

import pytest

import repro
from repro import GraphDatabase, Query
from repro.bench import render_table
from repro.datasets import make_workload
from repro.engine.planner import availability

REPEATS = 5
EXTRA_ROUNDS = 3
WORKERS = 2
OUTPUT = Path(__file__).resolve().parent / "BENCH_planner.json"

#: Workload classes: database shape + the testkit query-kind mix.
CLASSES = {
    "interactive": {"n_graphs": 36, "query_size": 6, "seed": 101},
    "bulk-pruned": {"n_graphs": 120, "query_size": 5, "seed": 202},
}


def _specs(query, kind_class):
    if kind_class == "interactive":
        return [
            Query(query).measures("edit", "mcs").skyline(),
            Query(query).measures("edit", "mcs").skyband(2),
            Query(query).topk(3, "edit"),
            Query(query).threshold(0.5, "edit"),
        ]
    return [
        Query(query).measures("edit", "mcs").skyline(),
        Query(query).topk(5, "edit"),
        Query(query).threshold(0.4, "edit"),
    ]


def _fixed_backends():
    return ["memory", "indexed", "vectorized", "parallel", "sharded"]


def _session_options(backend):
    if backend == "parallel":
        return {"max_workers": WORKERS}
    return {}


def _run_class(database, specs, backends):
    """{backend: (results, class seconds)} with interleaved timing rounds.

    Class seconds = sum over specs of the best-of-``REPEATS`` rounds.
    """
    sessions = {
        backend: repro.connect(
            database, backend=backend, **_session_options(backend)
        )
        for backend in backends
    }
    try:
        for session in sessions.values():
            for spec in specs:  # warmup: index/store build, pool spawn
                session.execute(spec)
        best = {}

        def _round(names):
            for backend in names:
                session = sessions[backend]
                for i, spec in enumerate(specs):
                    start = time.perf_counter()
                    result = session.execute(spec)
                    elapsed = time.perf_counter() - start
                    key = (backend, i)
                    if key not in best or elapsed < best[key][1]:
                        best[key] = (result, elapsed)

        for _ in range(REPEATS):
            _round(backends)
        # Gate 1 compares the *fast* backends against each other with a
        # tight 1.1x margin; give those extra rounds so a noise spike in
        # one round cannot decide the gate (the slow exhaustive backends
        # lose by >10x — no extra precision needed there).
        cheap = [
            backend
            for backend in backends
            if sum(best[(backend, i)][1] for i in range(len(specs))) < 0.25
        ]
        for _ in range(EXTRA_ROUNDS):
            _round(cheap)
    finally:
        for session in sessions.values():
            session.close()
    return {
        backend: (
            [best[(backend, i)][0] for i in range(len(specs))],
            sum(best[(backend, i)][1] for i in range(len(specs))),
        )
        for backend in backends
    }


@pytest.fixture(scope="module")
def class_workloads():
    out = {}
    for name, shape in CLASSES.items():
        workload = make_workload(
            n_graphs=shape["n_graphs"],
            query_size=shape["query_size"],
            seed=shape["seed"],
        )
        database = GraphDatabase.from_graphs(workload.database)
        out[name] = (database, _specs(workload.queries[0], name))
    return out


@pytest.mark.benchmark(group="a10-planner")
def test_auto_backend_beats_the_wrong_fixed_choice(class_workloads):
    fixed = _fixed_backends()
    rows = []
    payload = {
        "classes": {
            name: dict(shape, specs=len(class_workloads[name][1]))
            for name, shape in CLASSES.items()
        },
        "repeats": REPEATS,
        "availability": availability(),
        "results": {},
        "gates": {},
    }

    beat_ratio = 0.0
    for class_name, (database, specs) in class_workloads.items():
        runs = _run_class(database, specs, fixed + ["auto"])

        reference = [r.ids for r in runs["memory"][0]]
        for backend, (results, _) in runs.items():
            answers = [r.ids for r in results]
            assert answers == reference, (class_name, backend)

        times = {backend: elapsed for backend, (_, elapsed) in runs.items()}
        best_fixed = min(fixed, key=times.get)
        worst_fixed = max(fixed, key=times.get)
        auto_s = times["auto"]
        beat_ratio = max(beat_ratio, times[worst_fixed] / auto_s)

        plans = [
            (r.stats.planner or {}).get("summary", "?")
            for r in runs["auto"][0]
        ]
        for backend in fixed + ["auto"]:
            rows.append([
                class_name,
                backend,
                round(times[backend] * 1000, 1),
                round(times[backend] / auto_s, 2),
                {best_fixed: "best fixed", worst_fixed: "worst fixed"}.get(
                    backend, ""
                ),
            ])
        payload["results"][class_name] = {
            "seconds": times,
            "best_fixed": best_fixed,
            "worst_fixed": worst_fixed,
            "auto_vs_best": auto_s / times[best_fixed],
            "worst_vs_auto": times[worst_fixed] / auto_s,
            "auto_plans": plans,
        }

        # Gate 1: auto is within 1.1x of the best fixed backend per class.
        payload["gates"][f"{class_name}/auto<=1.1x-best"] = (
            auto_s <= 1.1 * times[best_fixed]
        )
        assert auto_s <= 1.1 * times[best_fixed], (
            f"{class_name}: auto {auto_s * 1000:.1f}ms vs best fixed "
            f"{best_fixed} {times[best_fixed] * 1000:.1f}ms"
        )

    # Gate 2: on at least one class auto beats the worst fixed backend 1.5x.
    payload["gates"]["some-class-worst>=1.5x-auto"] = beat_ratio >= 1.5
    print()
    print(render_table(
        ["class", "backend", "ms", "x auto", "note"],
        rows,
        title=f"A10 — adaptive planner vs fixed backends (best of {REPEATS})",
    ))
    OUTPUT.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"wrote {OUTPUT}")
    assert beat_ratio >= 1.5, (
        f"auto never beat the worst fixed backend by 1.5x (max {beat_ratio:.2f}x)"
    )
