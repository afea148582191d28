"""Reference implementations the tests compare the product against.

None of these is on a query's path; each is an independent (or
deliberately unoptimised) form of something the engine computes:

* :func:`graph_edit_distance_astar` — best-first exact GED, beside the
  depth-first solver of :mod:`repro.graph.ged`;
* :func:`maximum_common_subgraph_clique` — exact MCS through the
  edge-product graph (needs NetworkX), beside :mod:`repro.graph.mcs`,
  and :func:`verify_embedding`, the check of any mapping either returns;
* :mod:`~repro.testkit.reference.bounds` — the per-pair forms of the
  batched bound kernels of :mod:`repro.index.kernels`;
* :func:`check_measure_properties` / :func:`check_gu_dominated_by_mcs` —
  the semantic properties of Section IV over a sample of graphs.
"""

from repro.testkit.reference.bounds import (
    dist_gu_lower_bound,
    dist_mcs_lower_bound,
    edit_distance_lower_bound,
    mcs_upper_bound,
    normalized_edit_lower_bound,
)
from repro.testkit.reference.ged_astar import graph_edit_distance_astar
from repro.testkit.reference.mcs_clique import (
    maximum_common_subgraph_clique,
    verify_embedding,
)
from repro.testkit.reference.properties import (
    PropertyReport,
    check_gu_dominated_by_mcs,
    check_measure_properties,
)

__all__ = [
    "PropertyReport",
    "check_gu_dominated_by_mcs",
    "check_measure_properties",
    "dist_gu_lower_bound",
    "dist_mcs_lower_bound",
    "edit_distance_lower_bound",
    "graph_edit_distance_astar",
    "maximum_common_subgraph_clique",
    "mcs_upper_bound",
    "normalized_edit_lower_bound",
    "verify_embedding",
]
