"""Local search for Fig. 3 reconstructions maximising paper agreement.

Starting from any hard-feasible assignment (the shipped dataset by
default), the search perturbs one database graph at a time with random
edit moves and keeps the mutation only when

1. every *hard* constraint (sizes, Table II, Table III, connectivity,
   q ⊆ g7) still holds exactly, and
2. the total deviation over the *soft* pairwise cells does not get worse
   (with occasional sideways moves to escape plateaus).

This is the tool that produced / validated the shipped reconstruction.
Because the soft system cannot reach deviation 0 (the
:mod:`repro.datasets.paper_example` docstring shows why), the
search is expected to terminate at a positive floor; its value is in
certifying "no better neighbour" and in exploring alternative label
assignments (including repeated labels) without hand analysis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.graph.labeled_graph import LabeledGraph
from repro.reconstruct.constraints import (
    PAPER_CONSTRAINTS,
    PaperConstraints,
    SKYLINE_NAMES,
)
from repro.reconstruct.verify import (
    PairSolverCache,
    VerificationReport,
    verify_assignment,
)

#: Labels the mutation moves may introduce (superset of the shipped ones).
LABEL_POOL: tuple[str, ...] = ("a", "b", "c", "d", "e", "f", "g", "h", "u", "w", "y")


@dataclass
class SearchResult:
    """Outcome of a reconstruction search run."""

    assignment: dict[str, LabeledGraph]
    report: VerificationReport
    iterations: int
    accepted: int
    improved: bool
    history: list[float] = field(default_factory=list)


def _random_move(graph: LabeledGraph, rng: random.Random) -> LabeledGraph | None:
    """One random structure-preserving-size mutation, or None if inapplicable.

    Moves keep the edge count fixed (sizes are hard constraints): either
    rewire one edge, or relabel one vertex from the pool. Vertex set may
    grow/shrink implicitly through rewiring to a fresh vertex.
    """
    clone = graph.copy()
    move = rng.choice(("rewire", "relabel"))
    if move == "relabel" and clone.order > 0:
        vertex = rng.choice(clone.vertices())
        new_label = rng.choice(LABEL_POOL)
        if new_label == clone.vertex_label(vertex):
            return None
        clone.relabel_vertex(vertex, new_label)
        return clone
    if move == "rewire" and clone.size > 0:
        u, v, label = rng.choice(list(clone.edges()))
        vertices = clone.vertices()
        candidates = [
            (x, y)
            for i, x in enumerate(vertices)
            for y in vertices[i + 1:]
            if not clone.has_edge(x, y)
        ]
        if not candidates:
            return None
        x, y = rng.choice(candidates)
        clone.remove_edge(u, v)
        clone.add_edge(x, y, label)
        # drop vertices isolated by the rewire (keeps graphs tidy)
        for vertex in (u, v):
            if clone.has_vertex(vertex) and clone.degree(vertex) == 0:
                clone.remove_vertex(vertex)
        return clone
    return None


def search_reconstruction(
    start: Mapping[str, LabeledGraph],
    query: LabeledGraph,
    constraints: PaperConstraints = PAPER_CONSTRAINTS,
    iterations: int = 200,
    seed: int = 0,
    mutable: Sequence[str] = SKYLINE_NAMES,
    sideways_probability: float = 0.15,
) -> SearchResult:
    """Hill-climb (with sideways moves) from ``start``.

    Parameters
    ----------
    start:
        A hard-feasible assignment ``{"g1": graph, ...}``.
    mutable:
        Which graphs the search may perturb; defaults to the skyline
        members (the only graphs the soft constraints mention).
    iterations:
        Mutation attempts; each costs a handful of exact GED/MCS calls
        (memoised across repeats).
    """
    rng = random.Random(seed)
    cache = PairSolverCache()
    current = {name: graph.copy() for name, graph in start.items()}
    current_report = verify_assignment(current, query, constraints, cache)
    if not current_report.hard_ok:
        raise ValueError("the starting assignment violates hard constraints")
    best_deviation = current_report.soft_deviation
    start_deviation = best_deviation
    accepted = 0
    history = [best_deviation]

    for _ in range(iterations):
        name = rng.choice(list(mutable))
        mutated = _random_move(current[name], rng)
        if mutated is None:
            history.append(best_deviation)
            continue
        candidate = dict(current)
        candidate[name] = mutated
        report = verify_assignment(candidate, query, constraints, cache)
        acceptable = report.hard_ok and (
            report.soft_deviation < best_deviation
            or (
                report.soft_deviation == best_deviation
                and rng.random() < sideways_probability
            )
        )
        if acceptable:
            current = candidate
            current_report = report
            best_deviation = report.soft_deviation
            accepted += 1
        history.append(best_deviation)

    return SearchResult(
        assignment=current,
        report=current_report,
        iterations=iterations,
        accepted=accepted,
        improved=best_deviation < start_deviation,
        history=history,
    )
