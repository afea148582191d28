"""Differential conformance: the testkit harness versus the oracle.

The acceptance contract of the testkit PR: the pinned-seed corpus —
including one >= 500-step workload mixing mutations, all four query
kinds x all three backends x cache on/off, live views and persistence
round-trips — replays divergence-free, and an intentionally broken
pruning stage (sign-flipped bound) is caught and shrunk to a printable
minimal repro.
"""

import json
from pathlib import Path

import pytest

from repro import PairCache, Query, connect
from repro.cli import _remap_backend, main
from repro.testkit import (
    FAULTS,
    Workload,
    WorkloadRunner,
    format_repro,
    generate_workload,
    run_workload,
    shrink_workload,
)
from repro.testkit.workload import RunQuery, WatchView

CORPUS = json.loads(
    (Path(__file__).parent / "fuzz_corpus.json").read_text(encoding="utf-8")
)
BIG = max(CORPUS, key=lambda entry: entry["steps"])


# ----------------------------------------------------------------------
# Pinned corpus conformance (the standing safety net)
# ----------------------------------------------------------------------
def test_corpus_has_a_500_step_workload():
    assert BIG["steps"] >= 500


@pytest.mark.parametrize(
    "entry", CORPUS, ids=[f"seed{e['seed']}-{e['steps']}steps" for e in CORPUS]
)
def test_pinned_corpus_replays_divergence_free(entry):
    workload = generate_workload(seed=entry["seed"], n_steps=entry["steps"])
    report = run_workload(workload)
    assert report.ok, report.divergence.describe()
    assert report.steps_run == entry["steps"]
    # Coverage: every (kind, backend) combination actually executed —
    # including the NumPy ``vectorized`` backend when present — and the
    # cross-query pair cache saw real traffic (cache-on runs served
    # identical answers — the runner compared them — with nonzero hits).
    from repro.testkit.workload import WORKLOAD_BACKENDS

    assert len(report.combos) == 4 * len(WORKLOAD_BACKENDS), report.combos
    assert report.cache_hits > 0
    assert report.view_checks > 0
    assert report.saveloads > 0
    assert report.mutations > 0


# ----------------------------------------------------------------------
# Harness self-test: a sign-flipped bound must be caught and shrunk
# ----------------------------------------------------------------------
def test_sign_flipped_bound_is_caught_and_shrunk():
    workload = generate_workload(seed=1, n_steps=80)
    report = run_workload(workload, fault="flip-bound")
    assert not report.ok, "the unsound bound stage went undetected"
    assert report.divergence.backend == "indexed"

    minimal, divergence = shrink_workload(
        workload, lambda cand: run_workload(cand, fault="flip-bound").divergence
    )
    assert len(minimal) < len(workload)
    assert len(minimal) <= 10  # a handful of steps, not the whole workload
    # The shrunk workload still reproduces in a fresh runner.
    assert run_workload(minimal, fault="flip-bound").divergence is not None
    # ... and removing any single remaining step makes the failure vanish
    # (1-minimality), which is what "minimal reproducing step list" means.
    for index in range(len(minimal)):
        reduced = Workload(
            seed=minimal.seed,
            steps=minimal.steps[:index] + minimal.steps[index + 1:],
        )
        if reduced.steps:
            assert run_workload(reduced, fault="flip-bound").ok

    repro_text = format_repro(minimal, divergence)
    assert "minimal reproducing workload" in repro_text
    assert "diverges here" in repro_text
    assert '"kind"' in repro_text  # the exact GraphQuery JSON is printed
    assert "expected" in divergence.describe()


def test_off_by_one_solver_cutoff_is_caught_and_shrunk():
    # Caps one float low (no nextafter, no equal-coordinate rule) cut a
    # pair sitting exactly at the cutoff: a tie the answer keeps.
    workload = generate_workload(seed=1, n_steps=120)
    assert run_workload(workload).ok
    report = run_workload(workload, fault="cutoff-off-by-one")
    assert not report.ok, "the off-by-one cutoff went undetected"
    assert report.divergence.backend == "indexed"
    minimal, _ = shrink_workload(
        workload,
        lambda cand: run_workload(cand, fault="cutoff-off-by-one").divergence,
    )
    assert len(minimal) <= 10
    assert run_workload(minimal, fault="cutoff-off-by-one").divergence is not None


def test_raised_bracket_lower_side_is_caught_and_shrunk():
    # A lower side one above what the assignment proves cuts pairs at a
    # cap they stay below, or settles them one too high.
    pytest.importorskip("scipy")
    workload = generate_workload(seed=1, n_steps=120)
    report = run_workload(workload, fault="bracket-lower-plus-one")
    assert not report.ok, "the raised bracket went undetected"
    assert report.divergence.backend == "indexed"
    minimal, _ = shrink_workload(
        workload,
        lambda cand: run_workload(cand, fault="bracket-lower-plus-one").divergence,
    )
    assert len(minimal) <= 10


def test_raised_replay_bound_is_caught_and_shrunk():
    # A replay's edit bound one high drops a burst's near mutant that the
    # answer keeps; only cached sessions and live views (which read over
    # the cached memory session) replay, and full runs stay right.
    workload = _remap_backend(generate_workload(seed=3, n_steps=120), "auto")
    assert run_workload(workload).ok
    report = run_workload(workload, fault="replay-bound-plus-one")
    assert not report.ok, "the raised replay bound went undetected"
    divergence = report.divergence
    assert divergence.cached or divergence.check.startswith("view:")
    minimal, _ = shrink_workload(
        workload,
        lambda cand: run_workload(cand, fault="replay-bound-plus-one").divergence,
    )
    assert len(minimal) <= 10
    queries = [step for step in minimal.steps if isinstance(step, RunQuery)]
    watched = any(isinstance(step, WatchView) for step in minimal.steps)
    # a re-read: the same query again, or a view read after a write
    assert watched or (len(queries) >= 2 and queries[0] == queries[-1])


@pytest.mark.parametrize(
    "fault,names,lowered",
    [
        # Both halves of the index's |mcs| bound drop by one edge.
        ("mcs-column-minus-one", ("mcs",), (0.5,)),
        # Only the replay bound moves: the kernel column stays put.
        ("replay-bound-plus-one", ("edit", "edit-normalized"), (1.0, 0.5)),
    ],
)
def test_installed_faults_reach_the_replay_bound(fault, names, lowered):
    """A fault patched into ``graph.features`` reaches the per-row bound
    every replay computes (``QueryBounds``) and, for the |mcs| column,
    the batched kernel full runs bound with."""
    from repro.graph import GraphFeatures, path_graph
    from repro.graph.features import QueryBounds
    from repro.index import SignatureMatrix, bound_matrix
    from repro.measures.base import resolve_measures

    graph = path_graph(["A", "B", "A"])
    measures = resolve_measures(names)
    matrix = SignatureMatrix()
    matrix.add_many([(0, graph, GraphFeatures.of(graph))])
    with FAULTS[fault].installed():
        replay = QueryBounds(graph, measures).vector(graph, GraphFeatures.of(graph))
        column = tuple(bound_matrix(matrix, matrix.pack_query(graph), measures)[0])
    assert replay == lowered
    assert column == (lowered if fault == "mcs-column-minus-one" else (0.0, 0.0))
    assert QueryBounds(graph, measures).vector(graph, GraphFeatures.of(graph)) == (
        (0.0,) * len(names)
    )


def test_summary_counts_solver_cutoffs():
    report = run_workload(generate_workload(seed=2, n_steps=60))
    assert report.ok and report.solver_cutoffs > 0
    assert f"{report.solver_cutoffs} solver cutoffs" in report.summary()
    # Budgeted specs solve against the cutoff too.
    assert 0 < report.anytime_cutoffs <= report.solver_cutoffs
    assert f"{report.anytime_cutoffs} anytime cutoffs" in report.summary()


def test_unknown_fault_rejected():
    from repro.errors import QueryError

    with pytest.raises(QueryError, match="flip-bound"):
        WorkloadRunner(fault="nope")
    assert "flip-bound" in FAULTS
    # The CLI turns it into a clean error line, not a traceback.
    assert main(["fuzz", "--seed", "1", "--steps", "5", "--fault", "nope"]) == 1


# ----------------------------------------------------------------------
# Runner robustness: subsequences replay, dead handles are no-ops
# ----------------------------------------------------------------------
def test_any_subsequence_of_a_workload_replays_clean():
    workload = generate_workload(seed=31, n_steps=60)
    # Drop every other step: removed adds turn later removes/queries into
    # skips, never into crashes or false divergences.
    thinned = Workload(seed=31, steps=workload.steps[::2])
    report = run_workload(thinned)
    assert report.ok, report.divergence.describe()


def test_workload_json_round_trip_replays_identically():
    workload = generate_workload(seed=13, n_steps=50)
    restored = Workload.from_json(workload.to_json())
    assert restored.to_dict() == workload.to_dict()
    assert run_workload(restored).ok


# ----------------------------------------------------------------------
# Satellite: PairCache counters surface through ResultSet.explain()
# ----------------------------------------------------------------------
def test_cache_counters_in_result_and_explain(paper_database, paper_query):
    cache = PairCache()
    with connect(paper_database, cache=cache) as session:
        cold = session.execute(Query(paper_query).skyline())
    with connect(paper_database, cache=cache) as session:
        warm = session.execute(Query(paper_query).skyline())
    assert cold.cache_info is not None
    assert cold.cache_info["hits"] == 0
    assert cold.cache_info["misses"] == len(paper_database)
    assert warm.cache_info["hits"] == len(paper_database)
    assert warm.cache_info["served"] == len(paper_database)
    assert warm.ids == cold.ids  # cache-served answers identical
    n = len(paper_database)
    assert f"pair cache: hits={n} misses=0 served={n}" in warm.explain()
    assert warm.to_dict()["cache"] == warm.cache_info


def test_uncached_result_has_no_cache_info(paper_database, paper_query):
    with connect(paper_database) as session:
        result = session.execute(Query(paper_query).skyline())
    assert result.cache_info is None
    assert "pair cache:" not in result.explain()
    assert "cache" not in result.to_dict()


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def test_fuzz_cli_clean_run(capsys):
    assert main(["fuzz", "--seed", "11", "--steps", "30"]) == 0
    out = capsys.readouterr().out
    assert "seed 11: OK" in out


def test_fuzz_cli_catches_fault_and_saves_repro(tmp_path, capsys):
    failure = tmp_path / "failure.json"
    code = main([
        "fuzz", "--seed", "1", "--steps", "60",
        "--fault", "flip-bound", "--save-failure", str(failure),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "minimal reproducing workload" in err
    assert failure.exists()
    # The saved shrunk workload replays: red with the fault, green without.
    assert main(["fuzz", "--replay", str(failure), "--fault", "flip-bound"]) == 1
    capsys.readouterr()
    assert main(["fuzz", "--replay", str(failure)]) == 0


def test_fuzz_cli_corpus_mode(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"seed": 3, "steps": 25}]), encoding="utf-8")
    assert main(["fuzz", "--corpus", str(corpus)]) == 0
    assert "seed 3: OK" in capsys.readouterr().out
