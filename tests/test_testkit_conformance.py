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
from repro.cli import main
from repro.testkit import (
    FAULTS,
    Workload,
    WorkloadRunner,
    format_repro,
    generate_workload,
    run_workload,
    shrink_workload,
)

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
    workload = generate_workload(seed=7, n_steps=80)
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
        "fuzz", "--seed", "7", "--steps", "60",
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
