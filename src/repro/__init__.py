"""repro — similarity skyline queries over graph databases.

A faithful, self-contained reproduction of

    K. Abbaci, A. Hadjali, L. Liétard, D. Rocacher.
    "A Similarity Skyline Approach for Handling Graph Queries —
    A Preliminary Report." GDM workshop @ IEEE ICDE, 2011.

Quick tour
----------
The declarative session API is the front door: open a session over any
graph collection, describe the query with the fluent builder, and execute
it on a pluggable backend (``memory``, ``indexed``, ``parallel``,
``sharded``, ``auto``):

>>> import repro
>>> from repro.datasets import figure3_database, figure3_query
>>> session = repro.connect(figure3_database())
>>> result = session.execute(repro.Query(figure3_query()).skyline().refine(k=2))
>>> result.names
['g1', 'g4', 'g5', 'g7']
>>> [g.name for g in result.refinement.subset]
['g1', 'g4']

The original functional core remains available:

>>> from repro import graph_similarity_skyline, refine_by_diversity
>>> result = graph_similarity_skyline(figure3_database(), figure3_query())
>>> [g.name for g in result.skyline]
['g1', 'g4', 'g5', 'g7']

Packages
--------
``repro.api``       declarative queries, sessions, pluggable backends
``repro.engine``    staged evaluation engine: plans, cascade, live views
``repro.graph``     labeled graphs, isomorphism, MCS, exact/approx GED
``repro.measures``  DistEd / DistMcs / DistGu
``repro.skyline``   Pareto skyline and k-skyband selection
``repro.core``      GCS, similarity-dominance, GSS, diversity refinement
``repro.db``        database storage, caches, persistence, write-ahead log
``repro.shard``     sharded store, placement policies, scatter-gather backend
``repro.index``     packed feature store and batched bound kernels
``repro.datasets``  paper examples and synthetic workloads
``repro.testkit``   differential workload fuzzing against a trusted oracle
``repro.bench``     the paper-example report and its plain-text tables
"""

from repro.errors import (
    DatasetError,
    GraphError,
    InvalidEditOperationError,
    QueryError,
    ReproError,
    SerializationError,
)
from repro.graph import (
    LabeledGraph,
    UniformCostModel,
    ged,
    graph_edit_distance,
    is_isomorphic,
    is_subgraph_isomorphic,
    maximum_common_subgraph,
    mcs_size,
)
from repro.measures import (
    DistanceMeasure,
    EditDistance,
    GraphUnionDistance,
    McsDistance,
    NormalizedEditDistance,
    default_measures,
    diversity_measures,
    get_measure,
)
from repro.skyline import dominates, skyline
from repro.core import (
    CompoundSimilarity,
    SkylineResult,
    compound_similarity,
    gcs_matrix,
    graph_similarity_skyline,
    refine_by_diversity,
    similarity_dominates,
    top_k_by_measure,
)
from repro.db import GraphDatabase, PairCache
from repro.shard import ShardedGraphDatabase
from repro.api import (
    ExecutionBackend,
    GraphQuery,
    LiveView,
    Query,
    QueryPlan,
    ResultSet,
    Session,
    available_backends,
    connect,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "InvalidEditOperationError",
    "QueryError",
    "DatasetError",
    "SerializationError",
    # graphs
    "LabeledGraph",
    "UniformCostModel",
    "ged",
    "graph_edit_distance",
    "is_isomorphic",
    "is_subgraph_isomorphic",
    "maximum_common_subgraph",
    "mcs_size",
    # measures
    "DistanceMeasure",
    "EditDistance",
    "NormalizedEditDistance",
    "McsDistance",
    "GraphUnionDistance",
    "default_measures",
    "diversity_measures",
    "get_measure",
    # skyline
    "skyline",
    "dominates",
    # core
    "CompoundSimilarity",
    "compound_similarity",
    "gcs_matrix",
    "similarity_dominates",
    "graph_similarity_skyline",
    "SkylineResult",
    "refine_by_diversity",
    "top_k_by_measure",
    # db
    "GraphDatabase",
    "PairCache",
    # shard
    "ShardedGraphDatabase",
    # api
    "GraphQuery",
    "Query",
    "Session",
    "connect",
    "ResultSet",
    "QueryPlan",
    "ExecutionBackend",
    "available_backends",
    "LiveView",
]
