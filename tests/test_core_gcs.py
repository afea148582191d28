"""Tests for GCS vectors and similarity-dominance (Definitions 11-12)."""

import pytest

from repro.core import (
    CompoundSimilarity,
    compound_similarity,
    gcs_matrix,
)
from repro.graph import path_graph
from repro.measures import EditDistance, FunctionMeasure
from repro.skyline import dominates, incomparable


def test_gcs_default_measures(fig1_g1, fig1_g2):
    vector = compound_similarity(fig1_g1, fig1_g2)
    assert vector.measures == ("edit", "mcs", "union")
    assert vector.values[0] == 4.0
    assert vector.values[1] == pytest.approx(1 - 4 / 6)
    assert vector.values[2] == pytest.approx(0.5)


def test_gcs_container_protocol(fig1_g1, fig1_g2):
    vector = compound_similarity(fig1_g1, fig1_g2)
    assert len(vector) == 3
    assert vector[0] == 4.0
    assert list(vector) == list(vector.values)
    assert vector.as_dict()["edit"] == 4.0
    assert "edit=4" in repr(vector)


def test_gcs_custom_measures(fig1_g1, fig1_g2):
    size_gap = FunctionMeasure(
        lambda a, b: abs(a.size - b.size), name="size-gap"
    )
    vector = compound_similarity(fig1_g1, fig1_g2, measures=[size_gap, "edit"])
    assert vector.measures == ("size-gap", "edit")
    assert vector.values == (0.0, 4.0)


def test_gcs_by_name_specs(fig1_g1, fig1_g2):
    vector = compound_similarity(fig1_g1, fig1_g2, measures=("mcs", "union"))
    assert vector.measures == ("mcs", "union")


def test_gcs_matrix_orders_and_dimensions(paper_db, paper_query):
    matrix = gcs_matrix(paper_db, paper_query)
    assert len(matrix) == len(paper_db)
    assert all(isinstance(vector, CompoundSimilarity) for vector in matrix)
    assert all(len(vector) == 3 for vector in matrix)


def test_gcs_matrix_empty_database(paper_query):
    assert gcs_matrix([], paper_query) == []


def test_self_gcs_is_zero(paper_query):
    vector = compound_similarity(paper_query, paper_query.copy())
    assert all(value == pytest.approx(0.0) for value in vector.values)


# ----------------------------------------------------------------------
# Definition 12: g dominates g' when GCS(g, q) Pareto-dominates GCS(g', q)
# ----------------------------------------------------------------------
def _similarity_dominates(a, b, query, measures=None):
    return dominates(
        compound_similarity(a, query, measures=measures).values,
        compound_similarity(b, query, measures=measures).values,
    )


def test_similarity_dominance_on_paper_pairs(paper_db, paper_query):
    by_name = {graph.name: graph for graph in paper_db}
    # The paper: g7 dominates g2, g5 dominates g3, g1 dominates g6.
    assert _similarity_dominates(by_name["g7"], by_name["g2"], paper_query)
    assert _similarity_dominates(by_name["g5"], by_name["g3"], paper_query)
    assert _similarity_dominates(by_name["g1"], by_name["g6"], paper_query)
    # ... and never the other way round.
    assert not _similarity_dominates(by_name["g2"], by_name["g7"], paper_query)
    assert not _similarity_dominates(by_name["g6"], by_name["g1"], paper_query)


def test_similarity_dominance_is_irreflexive(paper_db, paper_query):
    g1 = paper_db[0]
    assert not _similarity_dominates(g1, g1.copy(), paper_query)


def test_skyline_members_pairwise_incomparable(paper_db, paper_query):
    by_name = {graph.name: graph for graph in paper_db}
    members = [by_name[name] for name in ("g1", "g4", "g5", "g7")]
    vectors = [compound_similarity(g, paper_query).values for g in members]
    for i, a in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            assert incomparable(a, vectors[j]), (members[i].name, members[j].name)


def test_dominance_with_single_measure(paper_db, paper_query):
    by_name = {graph.name: graph for graph in paper_db}
    # On DistEd alone, g4 (distance 2) dominates g1 (distance 4).
    assert _similarity_dominates(
        by_name["g4"], by_name["g1"], paper_query, measures=[EditDistance()]
    )
