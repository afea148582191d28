"""Cell-by-cell verification of a Fig. 3 reconstruction candidate.

Given an assignment ``{"g1": graph, ..., "g7": graph}`` plus the query,
:func:`verify_assignment` computes every constrained quantity with the
exact solvers and returns a :class:`VerificationReport` listing each cell
as (target, measured, deviation). Pairwise solver calls are memoised on
canonical hashes so repeated verification during search stays affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.graph.canonical import canonical_hash
from repro.graph.ged import graph_edit_distance
from repro.graph.isomorphism import is_subgraph_isomorphic
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.mcs import mcs_size
from repro.reconstruct.constraints import PAPER_CONSTRAINTS, PaperConstraints


@dataclass(frozen=True)
class Cell:
    """One verified constraint cell."""

    kind: str  # "size" | "mcs-q" | "ged-q" | "pair-mcs" | "pair-ged" | "structure"
    key: str
    target: float
    measured: float

    @property
    def deviation(self) -> float:
        """Absolute gap between target and measured value."""
        return abs(self.target - self.measured)

    @property
    def exact(self) -> bool:
        """Whether the cell matches the paper exactly."""
        return self.deviation == 0


@dataclass
class VerificationReport:
    """Outcome of verifying one candidate assignment."""

    cells: list[Cell] = field(default_factory=list)

    @property
    def hard_cells(self) -> list[Cell]:
        """Query-side + structural cells (must be exact)."""
        return [c for c in self.cells if c.kind in ("size", "mcs-q", "ged-q", "structure")]

    @property
    def soft_cells(self) -> list[Cell]:
        """Pairwise Table-IV cells (best effort)."""
        return [c for c in self.cells if c.kind in ("pair-mcs", "pair-ged")]

    @property
    def hard_ok(self) -> bool:
        """All hard constraints exact."""
        return all(cell.exact for cell in self.hard_cells)

    @property
    def soft_deviation(self) -> float:
        """Total absolute deviation over the soft cells (search objective)."""
        return sum(cell.deviation for cell in self.soft_cells)

    @property
    def exact_cell_count(self) -> int:
        """Number of cells (hard + soft) matching the paper exactly."""
        return sum(1 for cell in self.cells if cell.exact)

    def mismatches(self) -> list[Cell]:
        """Every non-exact cell."""
        return [cell for cell in self.cells if not cell.exact]

    def summary(self) -> str:
        """One-line report."""
        return (
            f"{self.exact_cell_count}/{len(self.cells)} cells exact, "
            f"hard={'OK' if self.hard_ok else 'VIOLATED'}, "
            f"soft deviation={self.soft_deviation:g}"
        )


class PairSolverCache:
    """Memoises exact GED / MCS on canonical-hash pairs across candidates."""

    def __init__(self) -> None:
        self._mcs: dict[tuple[str, str], int] = {}
        self._ged: dict[tuple[str, str], float] = {}

    def _key(self, g1: LabeledGraph, g2: LabeledGraph) -> tuple[str, str]:
        h1, h2 = canonical_hash(g1), canonical_hash(g2)
        return (h1, h2) if h1 <= h2 else (h2, h1)

    def mcs(self, g1: LabeledGraph, g2: LabeledGraph) -> int:
        key = self._key(g1, g2)
        if key not in self._mcs:
            self._mcs[key] = mcs_size(g1, g2)
        return self._mcs[key]

    def ged(self, g1: LabeledGraph, g2: LabeledGraph) -> float:
        key = self._key(g1, g2)
        if key not in self._ged:
            self._ged[key] = graph_edit_distance(g1, g2).distance
        return self._ged[key]


def verify_assignment(
    assignment: Mapping[str, LabeledGraph],
    query: LabeledGraph,
    constraints: PaperConstraints = PAPER_CONSTRAINTS,
    cache: PairSolverCache | None = None,
) -> VerificationReport:
    """Measure every constrained quantity for ``assignment`` vs the paper."""
    cache = cache if cache is not None else PairSolverCache()
    report = VerificationReport()

    report.cells.append(
        Cell("size", "q", constraints.query_size, query.size)
    )
    for name, target in constraints.sizes.items():
        report.cells.append(Cell("size", name, target, assignment[name].size))
    for name, target in constraints.mcs_with_query.items():
        report.cells.append(
            Cell("mcs-q", name, target, cache.mcs(assignment[name], query))
        )
    for name, target in constraints.ged_with_query.items():
        report.cells.append(
            Cell("ged-q", name, target, cache.ged(assignment[name], query))
        )
    if constraints.query_subgraph_of:
        host = assignment[constraints.query_subgraph_of]
        report.cells.append(
            Cell(
                "structure",
                f"q ⊆ {constraints.query_subgraph_of}",
                1.0,
                1.0 if is_subgraph_isomorphic(query, host) else 0.0,
            )
        )
    if constraints.require_connected:
        for name, graph in assignment.items():
            report.cells.append(
                Cell("structure", f"{name} connected", 1.0,
                     1.0 if graph.is_connected() else 0.0)
            )
    for (a, b), target in constraints.pairwise_mcs.items():
        report.cells.append(
            Cell("pair-mcs", f"({a},{b})", target,
                 cache.mcs(assignment[a], assignment[b]))
        )
    for (a, b), target in constraints.pairwise_ged.items():
        report.cells.append(
            Cell("pair-ged", f"({a},{b})", target,
                 cache.ged(assignment[a], assignment[b]))
        )
    return report
