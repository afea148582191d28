"""The paper's contribution: GCS, GSS, diversity.

* :func:`compound_similarity` / :func:`gcs_matrix` — Definition 11.
* :func:`graph_similarity_skyline` — Equation 4 / Section V, whose
  dominance (Definition 12) is :func:`repro.skyline.dominates` over GCS
  vectors.
* :func:`refine_by_diversity` — Section VII.
* :func:`top_k_by_measure` — the single-measure baseline of Section VI.

Database-backed queries over the same semantics go through
:func:`repro.connect` (:mod:`repro.api`).
"""

from repro.core.gcs import CompoundSimilarity, compound_similarity, gcs_matrix
from repro.core.gss import SkylineResult, graph_similarity_skyline
from repro.core.diversity import (
    DiversityCandidate,
    DiversityResult,
    dense_ranks_descending,
    pairwise_distance_matrix,
    refine_by_diversity,
    subset_diversity,
)
from repro.core.topk import TopKResult, top_k_by_measure
from repro.core.explain import (
    Domination,
    MembershipExplanation,
    explain_all,
    explain_membership,
)

__all__ = [
    "CompoundSimilarity",
    "compound_similarity",
    "gcs_matrix",
    "SkylineResult",
    "graph_similarity_skyline",
    "DiversityCandidate",
    "DiversityResult",
    "dense_ranks_descending",
    "pairwise_distance_matrix",
    "refine_by_diversity",
    "subset_diversity",
    "TopKResult",
    "top_k_by_measure",
    "Domination",
    "MembershipExplanation",
    "explain_membership",
    "explain_all",
]
