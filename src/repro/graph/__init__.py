"""Graph substrate: labeled graphs, isomorphism, MCS, edit distance.

This subpackage implements the graph-theoretic building blocks the engine
runs on (Definitions 3–8): the labeled-graph type with its edit
operations and cost models, label-preserving isomorphism (the database's
duplicate check), the maximum common connected subgraph, and exact graph
edit distance with the bracket it starts from, together with the
features the index bounds pairs with, canonical forms, the generators of
the synthetic workloads and JSON serialization. The reference solvers
the tests compare these with live in :mod:`repro.testkit.reference`.
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
    find_isomorphism,
    is_isomorphic,
    iter_subgraph_isomorphisms,
)
from repro.graph.mcs import McsResult, maximum_common_subgraph, mcs_size
from repro.graph.ged import GedResult, edit_path_from_mapping, graph_edit_distance
from repro.graph.ged_approx import induced_edit_cost
from repro.graph.canonical import canonical_form, canonical_hash, wl_colors
from repro.graph.features import GraphFeatures
from repro.graph.generators import (
    cycle_graph,
    mutate,
    path_graph,
    random_labeled_graph,
)
from repro.graph.serialization import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
)
from repro.graph.cost_models import LabelMatrixCostModel, WeightedCostModel

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
    "iter_subgraph_isomorphisms",
    "McsResult",
    "maximum_common_subgraph",
    "mcs_size",
    "GedResult",
    "graph_edit_distance",
    "edit_path_from_mapping",
    "induced_edit_cost",
    "canonical_form",
    "canonical_hash",
    "wl_colors",
    "GraphFeatures",
    "path_graph",
    "cycle_graph",
    "random_labeled_graph",
    "mutate",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "WeightedCostModel",
    "LabelMatrixCostModel",
]
