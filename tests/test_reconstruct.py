"""Tests for the reconstruction constraints, verifier and search."""

import pytest

from repro.datasets import database_by_name, figure3_query
from repro.graph import path_graph
from repro.reconstruct import (
    PAPER_CONSTRAINTS,
    PairSolverCache,
    SKYLINE_NAMES,
    search_reconstruction,
    verify_assignment,
)


@pytest.fixture(scope="module")
def shipped():
    return database_by_name(), figure3_query()


def test_constraint_counts():
    assert PAPER_CONSTRAINTS.hard_cell_count() == 22
    assert PAPER_CONSTRAINTS.soft_cell_count() == 12


def test_shipped_dataset_satisfies_all_hard_constraints(shipped):
    assignment, query = shipped
    report = verify_assignment(assignment, query)
    assert report.hard_ok, [c for c in report.hard_cells if not c.exact]


def test_shipped_dataset_soft_agreement(shipped):
    """All 6 pairwise-mcs cells exact; 3 of 6 pairwise-ged cells exact;
    total soft deviation is exactly 3 edits (see the
    repro.datasets.paper_example docstring)."""
    assignment, query = shipped
    report = verify_assignment(assignment, query)
    mcs_cells = [c for c in report.soft_cells if c.kind == "pair-mcs"]
    ged_cells = [c for c in report.soft_cells if c.kind == "pair-ged"]
    assert all(cell.exact for cell in mcs_cells)
    assert sum(1 for cell in ged_cells if cell.exact) == 3
    assert report.soft_deviation == 3.0


def test_report_summary_and_mismatches(shipped):
    assignment, query = shipped
    report = verify_assignment(assignment, query)
    assert "cells exact" in report.summary()
    assert "hard=OK" in report.summary()
    mismatched_keys = {cell.key for cell in report.mismatches()}
    assert mismatched_keys == {"(g1,g5)", "(g1,g7)", "(g4,g7)"}


def test_verifier_detects_hard_violation(shipped):
    assignment, query = shipped
    broken = dict(assignment)
    broken["g1"] = path_graph(["a", "b", "c"], name="g1")  # wrong size
    report = verify_assignment(broken, query)
    assert not report.hard_ok


def test_verifier_detects_disconnected(shipped):
    assignment, query = shipped
    bad = assignment["g1"].copy()
    # split g1 into two components without changing the edge count
    bad.remove_edge("a", "g")
    bad.add_edge("f", "g")
    broken = dict(assignment)
    broken["g1"] = bad
    report = verify_assignment(broken, query)
    # the structural cells may pass (still connected) but Table cells move;
    # at minimum the report must notice *something* changed
    assert not report.hard_ok or report.soft_deviation != 3.0


def test_pair_cache_reuses_results(shipped):
    assignment, query = shipped
    cache = PairSolverCache()
    first = cache.ged(assignment["g1"], query)
    second = cache.ged(assignment["g1"], query)
    assert first == second
    assert cache.mcs(assignment["g1"], query) == cache.mcs(query, assignment["g1"])


def test_search_rejects_infeasible_start(shipped):
    assignment, query = shipped
    broken = dict(assignment)
    broken["g1"] = path_graph(["a", "b"], name="g1")
    with pytest.raises(ValueError):
        search_reconstruction(broken, query, iterations=1)


def test_search_never_worsens_soft_deviation(shipped):
    assignment, query = shipped
    result = search_reconstruction(assignment, query, iterations=15, seed=3)
    assert result.report.hard_ok
    assert result.report.soft_deviation <= 3.0
    assert result.iterations == 15
    assert len(result.history) == 16  # initial value + one per iteration
    assert result.history == sorted(result.history, reverse=True)


def test_search_preserves_sizes(shipped):
    assignment, query = shipped
    result = search_reconstruction(assignment, query, iterations=10, seed=7)
    for name in SKYLINE_NAMES:
        assert result.assignment[name].size == PAPER_CONSTRAINTS.sizes[name]
