"""Constraint specification for the Fig. 3 reconstruction.

The paper's Fig. 3 drawings are lost; what survives is a system of
constraints over the database ``{g1..g7}`` and the query ``q``:

* the graph sizes (edge counts) stated in Section VI;
* the Table II column ``|mcs(gi, q)|``;
* the Table III column ``DistEd(gi, q)`` (DistMcs / DistGu follow from
  Table II and the sizes);
* the pairwise ``|mcs|`` and ``DistEd`` values among the skyline members
  implied by Table IV.

This module encodes those targets declaratively so the verifier
(:mod:`repro.reconstruct.verify`) can score any candidate assignment and
the local search (:mod:`repro.reconstruct.search`) can optimise one.
Query-side constraints are *hard* (Tables II/III must stay exact — they
determine the skyline and the top-k contrast); pairwise constraints are
*soft* (the :mod:`repro.datasets.paper_example` docstring shows they
cannot all hold simultaneously).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Database order used throughout (matches Fig. 3).
GRAPH_NAMES: tuple[str, ...] = ("g1", "g2", "g3", "g4", "g5", "g6", "g7")

#: Names of the skyline members appearing in Tables IV-V.
SKYLINE_NAMES: tuple[str, ...] = ("g1", "g4", "g5", "g7")


@dataclass(frozen=True)
class PaperConstraints:
    """All numeric targets the reconstruction must (try to) satisfy."""

    query_size: int = 6
    sizes: dict[str, int] = field(
        default_factory=lambda: {
            "g1": 6, "g2": 7, "g3": 7, "g4": 6, "g5": 8, "g6": 9, "g7": 10,
        }
    )
    mcs_with_query: dict[str, int] = field(
        default_factory=lambda: {
            "g1": 4, "g2": 4, "g3": 4, "g4": 3, "g5": 5, "g6": 5, "g7": 6,
        }
    )
    ged_with_query: dict[str, int] = field(
        default_factory=lambda: {
            "g1": 4, "g2": 4, "g3": 3, "g4": 2, "g5": 3, "g6": 4, "g7": 4,
        }
    )
    pairwise_mcs: dict[tuple[str, str], int] = field(
        default_factory=lambda: {
            ("g1", "g4"): 2, ("g1", "g5"): 4, ("g1", "g7"): 4,
            ("g4", "g5"): 3, ("g4", "g7"): 3, ("g5", "g7"): 5,
        }
    )
    pairwise_ged: dict[tuple[str, str], int] = field(
        default_factory=lambda: {
            ("g1", "g4"): 6, ("g1", "g5"): 5, ("g1", "g7"): 7,
            ("g4", "g5"): 4, ("g4", "g7"): 5, ("g5", "g7"): 3,
        }
    )
    #: The query must embed into g7 ("g7 ⊃ q").
    query_subgraph_of: str = "g7"
    #: All Fig. 3 drawings look connected.
    require_connected: bool = True

    def hard_cell_count(self) -> int:
        """Number of query-side (hard) numeric constraints."""
        return (
            len(self.sizes) + len(self.mcs_with_query) + len(self.ged_with_query) + 1
        )

    def soft_cell_count(self) -> int:
        """Number of pairwise (soft) numeric constraints."""
        return len(self.pairwise_mcs) + len(self.pairwise_ged)


#: The default constraint set — the paper's published numbers.
PAPER_CONSTRAINTS = PaperConstraints()
