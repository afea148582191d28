"""Graph distance measures (Section IV of the paper).

The paper's three local measures — ``DistEd`` (edit distance), ``DistMcs``
(Bunke–Shearer), ``DistGu`` (graph union / Jaccard-like) — with the
normalised edit distance used by the diversity refinement. The checks of
their semantic properties live in :mod:`repro.testkit.reference`.
"""

from repro.graph.budget import Budget, Interval
from repro.measures.base import (
    DistanceMeasure,
    FunctionMeasure,
    PairContext,
    available_measures,
    default_measures,
    diversity_measures,
    get_measure,
    measure_names,
    register_measure,
    resolve_measures,
)
from repro.measures.edit_distance import EditDistance, NormalizedEditDistance
from repro.measures.mcs_distance import McsDistance, mcs_similarity
from repro.measures.graph_union import GraphUnionDistance, graph_union_similarity

__all__ = [
    "Budget",
    "Interval",
    "DistanceMeasure",
    "FunctionMeasure",
    "PairContext",
    "available_measures",
    "default_measures",
    "diversity_measures",
    "get_measure",
    "measure_names",
    "register_measure",
    "resolve_measures",
    "EditDistance",
    "NormalizedEditDistance",
    "McsDistance",
    "mcs_similarity",
    "GraphUnionDistance",
    "graph_union_similarity",
]
