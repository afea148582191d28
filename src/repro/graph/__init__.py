"""Graph substrate: labeled graphs, isomorphism, MCS, edit distance.

This subpackage implements every graph-theoretic building block the paper
relies on (Definitions 3–8): the labeled-graph type, label-preserving
(sub)graph isomorphism, the maximum common connected subgraph, and exact
plus approximate graph edit distance, together with generators, features,
canonical forms and serialization.
"""

from repro.graph.budget import Budget, Interval
from repro.graph.labeled_graph import DEFAULT_EDGE_LABEL, LabeledGraph, edge_key
from repro.graph.vocabulary import LabelVocabulary
from repro.graph.operations import (
    CostModel,
    EdgeDeletion,
    EdgeInsertion,
    EdgeRelabeling,
    EditOperation,
    EditPath,
    UNIFORM_COSTS,
    UniformCostModel,
    VertexDeletion,
    VertexInsertion,
    VertexRelabeling,
)
from repro.graph.isomorphism import (
    count_subgraph_isomorphisms,
    find_isomorphism,
    find_subgraph_isomorphism,
    is_isomorphic,
    is_subgraph_isomorphic,
    iter_subgraph_isomorphisms,
    verify_embedding,
)
from repro.graph.mcs import McsResult, maximum_common_subgraph, mcs_size
from repro.graph.mcs_clique import maximum_common_subgraph_clique
from repro.graph.ged import GedResult, edit_path_from_mapping, ged, graph_edit_distance
from repro.graph.ged_astar import graph_edit_distance_astar
from repro.graph.ged_approx import (
    GedEstimate,
    beam_ged,
    bipartite_ged,
    ged_lower_bound,
    induced_edit_cost,
)
from repro.graph.canonical import canonical_form, canonical_hash, wl_colors
from repro.graph.features import (
    GraphFeatures,
    dist_gu_lower_bound,
    dist_mcs_lower_bound,
    edit_distance_lower_bound,
    mcs_upper_bound,
)
from repro.graph.generators import (
    cycle_graph,
    grid_graph,
    mutate,
    mutation_database,
    path_graph,
    random_labeled_graph,
    star_graph,
)
from repro.graph.serialization import (
    graph_from_dict,
    graph_from_json,
    graph_from_text,
    graph_to_dict,
    graph_to_json,
    graph_to_text,
)
from repro.graph.algebra import graph_difference, graph_intersection, graph_union
from repro.graph.cost_models import LabelMatrixCostModel, WeightedCostModel
from repro.graph.statistics import (
    CollectionStatistics,
    GraphStatistics,
    collection_statistics,
    describe_graph,
    graph_statistics,
)

__all__ = [
    "Budget",
    "Interval",
    "DEFAULT_EDGE_LABEL",
    "LabeledGraph",
    "edge_key",
    "LabelVocabulary",
    "CostModel",
    "UniformCostModel",
    "UNIFORM_COSTS",
    "EditOperation",
    "EditPath",
    "VertexInsertion",
    "VertexDeletion",
    "VertexRelabeling",
    "EdgeInsertion",
    "EdgeDeletion",
    "EdgeRelabeling",
    "find_isomorphism",
    "is_isomorphic",
    "find_subgraph_isomorphism",
    "is_subgraph_isomorphic",
    "iter_subgraph_isomorphisms",
    "count_subgraph_isomorphisms",
    "verify_embedding",
    "McsResult",
    "maximum_common_subgraph",
    "maximum_common_subgraph_clique",
    "mcs_size",
    "GedResult",
    "graph_edit_distance",
    "graph_edit_distance_astar",
    "ged",
    "edit_path_from_mapping",
    "GedEstimate",
    "bipartite_ged",
    "beam_ged",
    "ged_lower_bound",
    "induced_edit_cost",
    "canonical_form",
    "canonical_hash",
    "wl_colors",
    "GraphFeatures",
    "edit_distance_lower_bound",
    "mcs_upper_bound",
    "dist_mcs_lower_bound",
    "dist_gu_lower_bound",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "grid_graph",
    "random_labeled_graph",
    "mutate",
    "mutation_database",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "graph_to_text",
    "graph_from_text",
    "graph_union",
    "graph_intersection",
    "graph_difference",
    "WeightedCostModel",
    "LabelMatrixCostModel",
    "GraphStatistics",
    "CollectionStatistics",
    "graph_statistics",
    "collection_statistics",
    "describe_graph",
]
