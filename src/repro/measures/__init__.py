"""Graph distance measures (Section IV of the paper).

The paper's three local measures — ``DistEd`` (edit distance), ``DistMcs``
(Bunke–Shearer), ``DistGu`` (graph union / Jaccard-like) — with the
normalised edit distance used by the diversity refinement, plus
aggregations and the measures' semantic-property checks.
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
from repro.measures.properties import (
    PropertyReport,
    check_gu_dominated_by_mcs,
    check_measure_properties,
)
from repro.measures.aggregation import (
    ChebyshevMeasure,
    WeightedSumMeasure,
    weighted_sum_ranking_is_skyline_subset,
)

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
    "PropertyReport",
    "check_measure_properties",
    "check_gu_dominated_by_mcs",
    "WeightedSumMeasure",
    "ChebyshevMeasure",
    "weighted_sum_ranking_is_skyline_subset",
]
