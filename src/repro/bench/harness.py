"""The paper's worked example, measured end to end.

:func:`compute_paper_example_report` runs the exact solvers over the
reconstructed datasets (:mod:`repro.datasets`) and collects every
quantity the paper prints: Table I, Figs. 1–2 (Examples 2–4) and Tables
II–V. ``python -m repro paper-example`` prints the report beside the
paper's values, and the golden tests assert on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.diversity import refine_by_diversity
from repro.core.gss import graph_similarity_skyline
from repro.core.topk import top_k_by_measure
from repro.datasets import hotels, paper_example
from repro.graph.ged import edit_path_from_mapping, graph_edit_distance
from repro.graph.mcs import mcs_size
from repro.measures.base import PairContext, default_measures
from repro.measures.graph_union import GraphUnionDistance
from repro.measures.mcs_distance import McsDistance
from repro.skyline import skyline


@dataclass
class PaperExampleReport:
    """Every measured quantity of the paper's worked example."""

    hotel_skyline: list[str] = field(default_factory=list)
    figure1_ged: float = 0.0
    figure1_operations: list[str] = field(default_factory=list)
    figure1_mcs: int = 0
    figure1_dist_mcs: float = 0.0
    figure1_dist_gu: float = 0.0
    mcs_with_query: dict[str, int] = field(default_factory=dict)
    gcs: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    skyline: list[str] = field(default_factory=list)
    topk_edit: list[str] = field(default_factory=list)
    pairwise_mcs: dict[tuple[str, str], int] = field(default_factory=dict)
    pairwise_ged: dict[tuple[str, str], int] = field(default_factory=dict)
    diversity_vectors: dict[tuple[str, str], tuple[float, float, float]] = field(
        default_factory=dict
    )
    diversity_ranks: dict[tuple[str, str], tuple[int, ...]] = field(default_factory=dict)
    diversity_val: dict[tuple[str, str], int] = field(default_factory=dict)
    diverse_subset: list[str] = field(default_factory=list)


def compute_paper_example_report(k: int = 2, topk: int = 3) -> PaperExampleReport:
    """Run Examples 1–4 and the Section VI + VII pipeline on the datasets."""
    report = PaperExampleReport()
    names = hotels.hotel_names()
    report.hotel_skyline = [names[i] for i in skyline(hotels.hotel_vectors())]

    g1, g2 = paper_example.figure1_pair()
    edit = graph_edit_distance(g1, g2)
    report.figure1_ged = edit.distance
    report.figure1_operations = sorted(
        type(op).__name__ for op in edit_path_from_mapping(g1, g2, edit.mapping)
    )
    context = PairContext(g1, g2)
    report.figure1_mcs = context.mcs.size
    report.figure1_dist_mcs = McsDistance().distance(g1, g2, context)
    report.figure1_dist_gu = GraphUnionDistance().distance(g1, g2, context)

    database = paper_example.figure3_database()
    query = paper_example.figure3_query()

    for graph in database:
        report.mcs_with_query[graph.name] = mcs_size(graph, query)

    result = graph_similarity_skyline(database, query, measures=default_measures())
    for graph, vector in zip(result.graphs, result.vectors):
        report.gcs[graph.name] = tuple(vector.values)
    report.skyline = [graph.name for graph in result.skyline]

    ranked = top_k_by_measure(database, query, "edit", topk)
    report.topk_edit = [database[i].name for i in ranked.indices]

    members = result.skyline
    for a, b in itertools.combinations(members, 2):
        key = (a.name, b.name)
        report.pairwise_mcs[key] = mcs_size(a, b)
        report.pairwise_ged[key] = int(graph_edit_distance(a, b).distance)

    refined = refine_by_diversity(members, k=k)
    for candidate in refined.candidates:
        key = tuple(candidate.names)
        report.diversity_vectors[key] = candidate.diversity
        report.diversity_ranks[key] = candidate.ranks
        report.diversity_val[key] = candidate.val
    report.diverse_subset = [graph.name for graph in refined.subset]
    return report
