"""Golden tests: every numeric artifact of the paper, solver-verified.

These are the reproduction's core guarantees. Each test pins one published
quantity (Table I, Examples 2-4 / Figs. 1-2, Table II, Table III, the GSS,
the Section-VI top-k contrast, Tables IV-V) against the exact solvers run
on the reconstructed datasets.
"""

import itertools

import pytest

from repro.bench import compute_paper_example_report
from repro.core import graph_similarity_skyline, refine_by_diversity
from repro.datasets import (
    EXPECTED_DIVERSE_SUBSET,
    EXPECTED_DOMINANCE,
    EXPECTED_GSS,
    EXPECTED_SKYLINE,
    FIGURE1_EDIT_SEQUENCE,
    HOTELS,
    TABLE2_MCS,
    TABLE3_GCS,
    TABLE4_PAIRWISE_GED_MEASURED,
    TABLE4_PAIRWISE_MCS,
    TABLE4_PAPER,
    database_by_name,
    figure1_pair,
    figure3_database,
    figure3_query,
    hotel_names,
    hotel_vectors,
)
from repro.graph import (
    edit_path_from_mapping,
    graph_edit_distance,
    mcs_size,
)
from repro.measures import PairContext, default_measures
from repro.skyline import skyline
from tests.conftest import embeds


# ----------------------------------------------------------------------
# Table I (Example 1)
# ----------------------------------------------------------------------
def test_table1_hotel_skyline():
    indices = skyline(hotel_vectors())
    assert tuple(hotel_names()[i] for i in indices) == EXPECTED_SKYLINE


def test_table1_values_verbatim():
    assert HOTELS[0].price == 4.0 and HOTELS[0].distance_km == 150.0
    assert HOTELS[5].name == "H6" and HOTELS[5].price == 1.0


# ----------------------------------------------------------------------
# Figs. 1-2 / Examples 2-4
# ----------------------------------------------------------------------
def test_fig1_sizes():
    g1, g2 = figure1_pair()
    assert g1.size == 6 and g2.size == 6


def test_example2_edit_distance_four():
    g1, g2 = figure1_pair()
    assert graph_edit_distance(g1, g2).distance == 4.0


def test_example2_operation_kinds():
    """The optimal sequence is one edge deletion, one edge relabeling,
    one vertex relabeling, one edge insertion — exactly as narrated."""
    g1, g2 = figure1_pair()
    result = graph_edit_distance(g1, g2)
    path = edit_path_from_mapping(g1, g2, result.mapping)
    kinds = sorted(type(op).__name__ for op in path)
    expected = {
        "edge deletion": "EdgeDeletion",
        "edge relabeling": "EdgeRelabeling",
        "vertex relabeling": "VertexRelabeling",
        "edge insertion": "EdgeInsertion",
    }
    assert kinds == sorted(expected[kind] for kind in FIGURE1_EDIT_SEQUENCE)


def test_example3_mcs_distance():
    g1, g2 = figure1_pair()
    assert mcs_size(g1, g2) == 4
    assert 1 - 4 / max(g1.size, g2.size) == pytest.approx(0.33, abs=0.005)


def test_example4_gu_distance():
    g1, g2 = figure1_pair()
    assert 1 - 4 / (g1.size + g2.size - 4) == pytest.approx(0.50, abs=0.005)


# ----------------------------------------------------------------------
# Fig. 3 sizes and Table II
# ----------------------------------------------------------------------
def test_fig3_sizes():
    sizes = [g.size for g in figure3_database()]
    assert sizes == [6, 7, 7, 6, 8, 9, 10]
    assert figure3_query().size == 6


def test_fig3_g7_is_supergraph_of_query():
    """The paper: g7 ⊃ q."""
    by_name = database_by_name()
    assert embeds(figure3_query(), by_name["g7"])


def test_table2_mcs_values():
    query = figure3_query()
    measured = tuple(mcs_size(g, query) for g in figure3_database())
    assert measured == TABLE2_MCS


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------
def test_table3_full_matrix():
    query = figure3_query()
    measures = default_measures()
    for graph, expected in zip(figure3_database(), TABLE3_GCS):
        context = PairContext(graph, query)
        measured = tuple(m.distance(graph, query, context) for m in measures)
        assert measured[0] == pytest.approx(expected[0]), graph.name
        assert measured[1] == pytest.approx(expected[1]), graph.name
        assert measured[2] == pytest.approx(expected[2]), graph.name


def test_table3_printed_roundings():
    """The printed two-decimal values of Table III match our measurements
    within printing tolerance."""
    printed = [
        (4, 0.33, 0.50), (4, 0.43, 0.56), (3, 0.43, 0.56), (2, 0.50, 0.67),
        (3, 0.38, 0.44), (4, 0.44, 0.50), (4, 0.40, 0.40),
    ]
    for expected, full in zip(printed, TABLE3_GCS):
        for printed_value, full_value in zip(expected, full):
            assert abs(printed_value - full_value) <= 0.005 + 1e-9


# ----------------------------------------------------------------------
# GSS and dominance (Section VI)
# ----------------------------------------------------------------------
def test_gss_membership():
    result = graph_similarity_skyline(figure3_database(), figure3_query())
    assert tuple(g.name for g in result.skyline) == EXPECTED_GSS


def test_dominance_pairs_from_paper():
    result = graph_similarity_skyline(figure3_database(), figure3_query())
    names = [g.name for g in result.graphs]
    for dominated, dominator in EXPECTED_DOMINANCE:
        dominators = {
            names[j] for j in result.dominators_of(names.index(dominated))
        }
        assert dominator in dominators, (dominated, dominator)


# ----------------------------------------------------------------------
# Tables IV and V (Section VII)
# ----------------------------------------------------------------------
def test_table4_pairwise_mcs_all_exact():
    by_name = database_by_name()
    for (a, b), expected in TABLE4_PAIRWISE_MCS.items():
        assert mcs_size(by_name[a], by_name[b]) == expected, (a, b)


def test_table4_pairwise_ged_matches_frozen_measurements():
    by_name = database_by_name()
    for (a, b), expected in TABLE4_PAIRWISE_GED_MEASURED.items():
        assert graph_edit_distance(by_name[a], by_name[b]).distance == expected, (a, b)


def test_table4_mcs_columns_match_paper_printout():
    """Columns v2 (DistMcs) and v3 (DistGu) agree with the paper in every
    cell (the paper truncates some values, hence 0.011 tolerance)."""
    report = compute_paper_example_report()
    for key, (_, v2_paper, v3_paper) in TABLE4_PAPER.items():
        measured = report.diversity_vectors[key]
        assert measured[1] == pytest.approx(v2_paper, abs=0.011), key
        assert measured[2] == pytest.approx(v3_paper, abs=0.011), key


def test_table4_v1_column_agreement():
    """v1 (DistN-Ed) agrees in the three cells whose pairwise edit
    distances are realisable together with Table III (see the
    repro.datasets.paper_example docstring and Table IV of
    ``python -m repro paper-example``); the remaining cells are within
    0.04."""
    report = compute_paper_example_report()
    exact_cells = {("g1", "g4"), ("g4", "g5"), ("g5", "g7")}
    for key, (v1_paper, _, _) in TABLE4_PAPER.items():
        measured = report.diversity_vectors[key][0]
        if key in exact_cells:
            assert measured == pytest.approx(v1_paper, abs=0.011), key
        else:
            assert measured == pytest.approx(v1_paper, abs=0.04), key


def test_table5_final_subset():
    result = graph_similarity_skyline(figure3_database(), figure3_query())
    refined = refine_by_diversity(result.skyline, k=2)
    assert tuple(g.name for g in refined.subset) == EXPECTED_DIVERSE_SUBSET


def test_table5_s6_is_worst_candidate():
    """S6 = {g5, g7} has the maximal val in the paper (15) and here."""
    result = graph_similarity_skyline(figure3_database(), figure3_query())
    refined = refine_by_diversity(result.skyline, k=2)
    worst = max(refined.candidates, key=lambda c: c.val)
    assert worst.names == ("g5", "g7")


def test_fig3_graphs_connected():
    """All reconstructed Fig. 3 graphs are connected (like the drawings)."""
    for graph in figure3_database() + [figure3_query()]:
        assert graph.is_connected(), graph.name
