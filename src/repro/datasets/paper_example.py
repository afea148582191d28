"""Reconstructions of the paper's figures (Figs. 1–3, Sections IV & VI).

The paper's figures are drawings whose machine-readable content is lost;
only their derived statistics survive (sizes, Table II mcs values, Table
III distance triples, the Example 2 edit sequence, Table IV diversity
vectors). This module provides concrete labeled graphs, found by
constraint analysis and verified against the exact solvers in the test
suite, that reproduce those statistics:

* :func:`figure1_pair` — ``g1``/``g2`` with ``DistEd = 4`` whose *optimal*
  edit sequence is exactly the paper's: one edge deletion, one edge
  relabeling, one vertex relabeling, one edge insertion; ``|mcs| = 4``,
  ``DistMcs = 1/3``, ``DistGu = 1/2`` (Examples 2–4).
* :func:`figure3_database` / :func:`figure3_query` — ``D = {g1..g7}`` and
  ``q`` with the exact sizes (6,7,7,6,8,9,10; |q| = 6), the exact Table II
  column (4,4,4,3,5,5,6), and the exact Table III matrix — hence the same
  skyline {g1, g4, g5, g7}, the same dominance pairs (g2 ≺ g7, g3 ≺ g5,
  g6 ≺ g1) and the same top-3-vs-skyline contrast. ``g7`` is a strict
  supergraph of ``q`` as the paper notes.

Pairwise values among the skyline members (Table IV): all six ``|mcs|``
values are reproduced exactly; the three edit distances realisable
together with the (exactly reproduced) query-side constraints are
(g1,g4) = 6, (g4,g5) = 4, (g5,g7) = 3; the remaining three come out at 6
instead of the paper's 5/7/5 — constraint analysis shows the paper's full
pairwise matrix is not simultaneously realisable with Table III (the
value 5 for (g4,g7) in particular contradicts GED(q,g4) = 2,
GED(q,g7) = 4 and q ⊆ g7 for any label assignment). Table IV of
``python -m repro paper-example`` prints both matrices cell by cell.
"""

from __future__ import annotations

from repro.graph.labeled_graph import LabeledGraph

#: Uniform edge label used by the Fig. 3 graphs (vertices carry identity).
PLAIN = "-"


def _graph(name: str, edges: list[tuple[str, str]]) -> LabeledGraph:
    return LabeledGraph.from_edges([(u, v, PLAIN) for u, v in edges], name=name)


# ----------------------------------------------------------------------
# Fig. 1 / Fig. 2 (Examples 2-4)
# ----------------------------------------------------------------------
def figure1_pair() -> tuple[LabeledGraph, LabeledGraph]:
    """The labeled pair of Fig. 1 (edge labels matter here).

    ``DistEd(g1, g2) = 4`` via (edge deletion, edge relabeling, vertex
    relabeling, edge insertion); ``|mcs(g1, g2)| = 4`` (Fig. 2 — the path
    B-C-D-E-F); ``DistMcs = 0.33``; ``DistGu = 0.50``.
    """
    g1 = LabeledGraph.from_edges(
        [
            ("A", "B", "x"),
            ("B", "C", "x"),
            ("C", "D", "x"),
            ("D", "E", "x"),
            ("E", "F", "x"),
            ("B", "E", "y"),
        ],
        name="fig1-g1",
    )
    g2 = LabeledGraph.from_edges(
        [
            ("G", "B", "y"),
            ("B", "C", "x"),
            ("C", "D", "x"),
            ("D", "E", "x"),
            ("E", "F", "x"),
            ("C", "F", "y"),
        ],
        name="fig1-g2",
    )
    return g1, g2


#: The edit sequence Example 2 narrates, as (operation kind) names.
FIGURE1_EDIT_SEQUENCE = (
    "edge deletion",
    "edge relabeling",
    "vertex relabeling",
    "edge insertion",
)


# ----------------------------------------------------------------------
# Fig. 3 (Section VI)
# ----------------------------------------------------------------------
def figure3_query() -> LabeledGraph:
    """The query ``q``: a 6-edge path a-b-c-d-e-f-g."""
    return _graph(
        "q", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "g")]
    )


def figure3_database() -> list[LabeledGraph]:
    """The database ``D = {g1, ..., g7}`` of Fig. 3 (reconstructed)."""
    g1 = _graph(
        "g1", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("d", "f"), ("a", "g")]
    )
    g2 = _graph(
        "g2",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("f", "g"),
         ("u", "e"), ("u", "f")],
    )
    g3 = _graph(
        "g3",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("f", "g"),
         ("d", "f"), ("b", "g")],
    )
    g4 = _graph(
        "g4", [("a", "u"), ("u", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "w")]
    )
    g5 = _graph(
        "g5",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"),
         ("f", "h"), ("h", "c"), ("h", "e")],
    )
    g6 = _graph(
        "g6",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"),
         ("f", "y"), ("a", "c"), ("b", "d"), ("c", "e")],
    )
    g7 = _graph(
        "g7",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "g"),
         ("g", "c"), ("g", "e"), ("a", "d"), ("b", "e")],
    )
    return [g1, g2, g3, g4, g5, g6, g7]


#: Table II: |mcs(gi, q)| in database order.
TABLE2_MCS: tuple[int, ...] = (4, 4, 4, 3, 5, 5, 6)

#: Table III: (DistEd, DistMcs, DistGu) per graph, full precision.
TABLE3_GCS: tuple[tuple[float, float, float], ...] = (
    (4.0, 1 - 4 / 6, 1 - 4 / 8),    # g1: (4, 0.33, 0.50)
    (4.0, 1 - 4 / 7, 1 - 4 / 9),    # g2: (4, 0.43, 0.56)
    (3.0, 1 - 4 / 7, 1 - 4 / 9),    # g3: (3, 0.43, 0.56)
    (2.0, 1 - 3 / 6, 1 - 3 / 9),    # g4: (2, 0.50, 0.67)
    (3.0, 1 - 5 / 8, 1 - 5 / 9),    # g5: (3, 0.38, 0.44)
    (4.0, 1 - 5 / 9, 1 - 5 / 10),   # g6: (4, 0.44, 0.50)
    (4.0, 1 - 6 / 10, 1 - 6 / 10),  # g7: (4, 0.40, 0.40)
)

#: The skyline the paper derives from Table III.
EXPECTED_GSS: tuple[str, ...] = ("g1", "g4", "g5", "g7")

#: Dominance pairs the paper calls out (dominated, dominator).
EXPECTED_DOMINANCE: tuple[tuple[str, str], ...] = (
    ("g2", "g7"),
    ("g3", "g5"),
    ("g6", "g1"),
)

#: Section VII / Table V outcome: the maximally diverse pair.
EXPECTED_DIVERSE_SUBSET: tuple[str, ...] = ("g1", "g4")

#: Table IV as printed in the paper (subset -> (v1, v2, v3)).
TABLE4_PAPER: dict[tuple[str, str], tuple[float, float, float]] = {
    ("g1", "g4"): (0.86, 0.67, 0.80),
    ("g1", "g5"): (0.83, 0.50, 0.60),
    ("g1", "g7"): (0.87, 0.60, 0.67),
    ("g4", "g5"): (0.80, 0.62, 0.73),
    ("g4", "g7"): (0.83, 0.70, 0.77),
    ("g5", "g7"): (0.75, 0.50, 0.61),
}

#: Table V as printed (subset -> (ranks, val)).
TABLE5_PAPER: dict[tuple[str, str], tuple[tuple[int, int, int], int]] = {
    ("g1", "g4"): ((2, 2, 1), 5),
    ("g1", "g5"): ((3, 5, 6), 14),
    ("g1", "g7"): ((1, 4, 4), 9),
    ("g4", "g5"): ((4, 3, 3), 10),
    ("g4", "g7"): ((3, 1, 2), 6),
    ("g5", "g7"): ((5, 5, 5), 15),
}

#: Pairwise |mcs| among skyline members implied by Table IV (all exact here).
TABLE4_PAIRWISE_MCS: dict[tuple[str, str], int] = {
    ("g1", "g4"): 2,
    ("g1", "g5"): 4,
    ("g1", "g7"): 4,
    ("g4", "g5"): 3,
    ("g4", "g7"): 3,
    ("g5", "g7"): 5,
}

#: Pairwise DistEd among skyline members implied by Table IV (paper values).
TABLE4_PAIRWISE_GED_PAPER: dict[tuple[str, str], int] = {
    ("g1", "g4"): 6,
    ("g1", "g5"): 5,
    ("g1", "g7"): 7,
    ("g4", "g5"): 4,
    ("g4", "g7"): 5,
    ("g5", "g7"): 3,
}

#: Pairwise DistEd this reconstruction realises (see module docstring).
TABLE4_PAIRWISE_GED_MEASURED: dict[tuple[str, str], int] = {
    ("g1", "g4"): 6,
    ("g1", "g5"): 6,
    ("g1", "g7"): 6,
    ("g4", "g5"): 4,
    ("g4", "g7"): 6,
    ("g5", "g7"): 3,
}


def database_by_name() -> dict[str, LabeledGraph]:
    """``{"g1": g1, ..., "g7": g7}`` for convenient lookups."""
    return {graph.name: graph for graph in figure3_database()}
