"""Tests for repro.bench: table rendering and the paper-example report."""

import pytest

from repro.bench import compute_paper_example_report, format_value, render_table
from repro.core.gcs import gcs_matrix
from repro.datasets import figure3_database, figure3_query


# ----------------------------------------------------------------------
# format_value / render_table
# ----------------------------------------------------------------------
def test_format_value():
    assert format_value(True) == "yes"
    assert format_value(False) == "no"
    assert format_value(4.0) == "4"
    assert format_value(0.3333, digits=2) == "0.33"
    assert format_value(0.3333, digits=3) == "0.333"
    assert format_value("text") == "text"
    assert format_value(7) == "7"


def test_render_table_alignment():
    table = render_table(
        ["name", "value"],
        [["alpha", 1.5], ["b", 20]],
        title="demo",
    )
    lines = table.splitlines()
    assert lines[0] == "demo"
    assert lines[1].startswith("name")
    assert set(lines[2]) == {"-"}
    assert "alpha" in lines[3]
    assert "20" in lines[4]
    assert all(line == line.rstrip() for line in lines)


def test_render_table_empty_rows():
    table = render_table(["a", "b"], [])
    assert "a" in table and "b" in table


# ----------------------------------------------------------------------
# paper-example report
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def report():
    return compute_paper_example_report()


def test_report_covers_all_artifacts(report):
    assert len(report.mcs_with_query) == 7
    assert len(report.gcs) == 7
    assert report.skyline == ["g1", "g4", "g5", "g7"]
    assert len(report.pairwise_mcs) == 6
    assert len(report.diversity_vectors) == 6
    assert len(report.diversity_ranks) == 6
    assert report.diverse_subset == ["g1", "g4"]
    assert "g3" in report.topk_edit


def test_report_val_equals_rank_sum(report):
    for key, ranks in report.diversity_ranks.items():
        assert report.diversity_val[key] == sum(ranks)


def test_report_table1_and_figure_values(report):
    """Example 1's hotel skyline and Examples 2-4's values for Figs. 1-2."""
    assert report.hotel_skyline == ["H2", "H4", "H6"]
    assert report.figure1_ged == 4
    assert report.figure1_operations == [
        "EdgeDeletion", "EdgeInsertion", "EdgeRelabeling", "VertexRelabeling",
    ]
    assert report.figure1_mcs == 4
    assert report.figure1_dist_mcs == pytest.approx(0.33, abs=0.005)
    assert report.figure1_dist_gu == pytest.approx(0.50, abs=0.005)


def test_report_gcs_equals_gcs_matrix(report):
    """The skyline run's GCS vectors equal the standalone computation."""
    database = figure3_database()
    matrix = gcs_matrix(database, figure3_query())
    assert list(report.gcs) == [graph.name for graph in database]
    for graph, vector in zip(database, matrix):
        assert report.gcs[graph.name] == pytest.approx(tuple(vector.values))
