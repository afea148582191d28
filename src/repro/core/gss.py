"""Graph Similarity Skyline — GSS (Section V, Equation 4).

``GSS(D, q)`` is the set of graphs of the database that no other graph
similarity-dominates in the context of the query: the maximally-similar
graphs in the Pareto sense. Computation proceeds in two phases:

1. evaluate the GCS vector of every database graph against the query
   (the expensive part — exact GED and MCS per pair);
2. select the skyline (:func:`repro.skyline.skyline`) of the resulting
   n × d matrix.

The :class:`SkylineResult` keeps the full matrix so callers can render
Table-III-style reports, inspect who dominated whom, and feed the skyline
into the diversity refinement without recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.graph.labeled_graph import LabeledGraph
from repro.measures.base import DistanceMeasure
from repro.core.gcs import CompoundSimilarity, gcs_matrix
from repro.skyline import skyline as vector_skyline
from repro.skyline.utils import dominates


@dataclass
class SkylineResult:
    """Outcome of a graph-similarity-skyline query.

    Attributes
    ----------
    query:
        The query graph.
    graphs:
        The database graphs, in database order.
    vectors:
        ``GCS(graphs[i], query)`` for every i (same order).
    skyline_indices:
        Sorted indices of the Pareto-optimal graphs.
    measures:
        Names of the GCS dimensions.
    """

    query: LabeledGraph
    graphs: list[LabeledGraph]
    vectors: list[CompoundSimilarity]
    skyline_indices: list[int]
    measures: tuple[str, ...]
    tolerance: float = 0.0
    _dominators: dict[int, list[int]] | None = field(default=None, repr=False)

    @property
    def skyline(self) -> list[LabeledGraph]:
        """The Pareto-optimal graphs — ``GSS(D, q)`` itself."""
        return [self.graphs[i] for i in self.skyline_indices]

    @property
    def skyline_vectors(self) -> list[CompoundSimilarity]:
        """GCS vectors of the skyline members (aligned with ``skyline``)."""
        return [self.vectors[i] for i in self.skyline_indices]

    def __len__(self) -> int:
        return len(self.skyline_indices)

    def __contains__(self, graph: LabeledGraph) -> bool:
        return any(member is graph for member in self.skyline)

    def dominators_of(self, index: int) -> list[int]:
        """Indices of graphs that similarity-dominate ``graphs[index]``.

        Empty exactly for skyline members. Computed lazily for the whole
        database on first use.
        """
        if self._dominators is None:
            self._dominators = {}
            for i, vector in enumerate(self.vectors):
                self._dominators[i] = [
                    j
                    for j, other in enumerate(self.vectors)
                    if j != i and dominates(other.values, vector.values, self.tolerance)
                ]
        return self._dominators[index]

    def to_rows(self) -> list[dict[str, object]]:
        """Table-III-style rows: one dict per graph with name, GCS, membership."""
        rows = []
        member = set(self.skyline_indices)
        for i, (graph, vector) in enumerate(zip(self.graphs, self.vectors)):
            row: dict[str, object] = {"graph": graph.name or f"g{i + 1}"}
            row.update(vector.as_dict())
            row["in_skyline"] = i in member
            rows.append(row)
        return rows


def graph_similarity_skyline(
    graphs: Sequence[LabeledGraph],
    query: LabeledGraph,
    measures: Iterable["str | DistanceMeasure"] | None = None,
    tolerance: float = 0.0,
) -> SkylineResult:
    """Compute ``GSS(D, q)`` (Equation 4).

    Parameters
    ----------
    graphs:
        The database ``D``.
    query:
        The graph similarity query ``q``.
    measures:
        GCS dimensions; defaults to the paper's (DistEd, DistMcs, DistGu).
    tolerance:
        Treat dimension values within ``tolerance`` as equal when checking
        dominance (useful for floating-point measure values).
    """
    vectors = gcs_matrix(graphs, query, measures)
    raw = [vector.values for vector in vectors]
    indices = vector_skyline(raw, tolerance)
    measure_labels = vectors[0].measures if vectors else ()
    return SkylineResult(
        query=query,
        graphs=list(graphs),
        vectors=vectors,
        skyline_indices=indices,
        measures=measure_labels,
        tolerance=tolerance,
    )
