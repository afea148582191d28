"""Diversity-based refinement of a graph similarity skyline (Section VII).

A large skyline is reduced to a representative subset ``S`` of user-chosen
size ``k`` that is *as diverse as possible*. Following the paper (adapted
from Kukkonen & Lampinen's ranking-dominance):

1. The diversity of a candidate subset ``S`` is the vector
   ``Div(S) = (v_1, ..., v_d)`` with
   ``v_i = min{ Dist_i(g, g') | g, g' in S }`` — the *smallest* pairwise
   distance inside ``S`` on dimension ``i`` (larger = more diverse). The
   dimensions are the normalised measures ``(DistN-Ed, DistMcs, DistGu)``.
2. For every dimension, candidates are rank-ordered by decreasing ``v_i``;
   ties share a rank and the next distinct value gets the next integer
   (*dense* ranking — required to reproduce Table V, where two candidates
   share rank 3 on v1 and two share rank 5 on v2).
3. ``val(S)`` is the sum of the d ranks; the candidate minimising it wins.
   Ties on ``val`` are broken by candidate enumeration order
   (lexicographic in skyline order), making the result deterministic.

The exhaustive method enumerates all C(|GSS|, k) subsets, exactly as the
paper describes. For large skylines this explodes, so a greedy max-min
heuristic (classic farthest-point diversity) is provided as a documented
extension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.errors import QueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.measures.base import (
    DistanceMeasure,
    PairContext,
    diversity_measures,
    measure_names,
    resolve_measures,
)


@dataclass(frozen=True)
class DiversityCandidate:
    """One size-k subset with its diversity vector, ranks and val(S)."""

    indices: tuple[int, ...]
    names: tuple[str, ...]
    diversity: tuple[float, ...]
    ranks: tuple[int, ...] = ()
    val: int = 0


@dataclass
class DiversityResult:
    """Outcome of the Section-VII refinement.

    ``candidates`` holds every evaluated subset (Table IV/V material);
    ``best_index`` points into it; ``subset`` returns the winning graphs.
    """

    graphs: list[LabeledGraph]
    k: int
    measures: tuple[str, ...]
    candidates: list[DiversityCandidate]
    best_index: int
    method: str = "exhaustive"

    @property
    def best(self) -> DiversityCandidate:
        """The winning candidate (minimal ``val``, ties by enumeration order)."""
        return self.candidates[self.best_index]

    @property
    def subset(self) -> list[LabeledGraph]:
        """The maximally diverse size-k subset of the skyline."""
        return [self.graphs[i] for i in self.best.indices]


def pairwise_distance_matrix(
    graphs: Sequence[LabeledGraph],
    measures: Sequence[DistanceMeasure],
) -> dict[tuple[int, int], tuple[float, ...]]:
    """All pairwise measure vectors among ``graphs`` (one context per pair)."""
    matrix: dict[tuple[int, int], tuple[float, ...]] = {}
    for i, j in itertools.combinations(range(len(graphs)), 2):
        context = PairContext(graphs[i], graphs[j])
        vector = tuple(
            measure.distance(graphs[i], graphs[j], context) for measure in measures
        )
        matrix[(i, j)] = vector
        matrix[(j, i)] = vector
    return matrix


def subset_diversity(
    subset: Sequence[int],
    matrix: dict[tuple[int, int], tuple[float, ...]],
    dimension: int,
) -> tuple[float, ...]:
    """``Div(S)``: per-dimension minimum over all pairs inside the subset."""
    values = []
    for d in range(dimension):
        values.append(
            min(matrix[(i, j)][d] for i, j in itertools.combinations(subset, 2))
        )
    return tuple(values)


def dense_ranks_descending(values: Sequence[float]) -> list[int]:
    """Dense ranks with 1 = largest value; equal values share a rank.

    Example: [0.86, 0.83, 0.87, 0.80, 0.83, 0.75] -> [2, 3, 1, 4, 3, 5].
    """
    distinct = sorted(set(values), reverse=True)
    rank_of = {value: rank for rank, value in enumerate(distinct, start=1)}
    return [rank_of[value] for value in values]


def refine_by_diversity(
    graphs: Sequence[LabeledGraph],
    k: int,
    measures: Iterable["str | DistanceMeasure"] | None = None,
    method: str = "exhaustive",
) -> DiversityResult:
    """Select the maximally diverse size-``k`` subset of ``graphs``.

    Parameters
    ----------
    graphs:
        Typically the skyline ``GSS(D, q)`` (any graph list works).
    k:
        Target subset size (``2 <= k <= len(graphs)``).
    measures:
        Diversity dimensions; defaults to the paper's
        ``(DistN-Ed, DistMcs, DistGu)``.
    method:
        ``"exhaustive"`` — the paper's rank-sum over all C(n, k) subsets;
        ``"greedy"`` — max-min farthest-point heuristic (extension), which
        evaluates only the returned subset.
    """
    if k < 2:
        raise QueryError("diversity needs k >= 2 (it is defined on pairs)")
    if k > len(graphs):
        raise QueryError(f"cannot pick {k} graphs out of {len(graphs)}")
    resolved = (
        diversity_measures() if measures is None else resolve_measures(measures)
    )
    names = measure_names(resolved)
    matrix = pairwise_distance_matrix(graphs, resolved)
    graph_names = tuple(
        graph.name or f"g{i + 1}" for i, graph in enumerate(graphs)
    )

    if method == "exhaustive":
        candidates = _exhaustive_candidates(graphs, k, matrix, len(resolved), graph_names)
        best_index = min(
            range(len(candidates)), key=lambda i: (candidates[i].val, i)
        )
    elif method == "greedy":
        subset = _greedy_maxmin(len(graphs), k, matrix, len(resolved))
        diversity = subset_diversity(subset, matrix, len(resolved))
        candidates = [
            DiversityCandidate(
                indices=tuple(subset),
                names=tuple(graph_names[i] for i in subset),
                diversity=diversity,
                ranks=(1,) * len(resolved),
                val=len(resolved),
            )
        ]
        best_index = 0
    else:
        raise QueryError(f"unknown diversity method {method!r}")

    return DiversityResult(
        graphs=list(graphs),
        k=k,
        measures=names,
        candidates=candidates,
        best_index=best_index,
        method=method,
    )


def _exhaustive_candidates(
    graphs: Sequence[LabeledGraph],
    k: int,
    matrix: dict[tuple[int, int], tuple[float, ...]],
    dimension: int,
    graph_names: tuple[str, ...],
) -> list[DiversityCandidate]:
    """Step 1 + Step 2 of Section VII over every size-k subset."""
    subsets = list(itertools.combinations(range(len(graphs)), k))
    diversities = [subset_diversity(s, matrix, dimension) for s in subsets]
    ranks_per_dim = [
        dense_ranks_descending([div[d] for div in diversities])
        for d in range(dimension)
    ]
    candidates = []
    for index, (subset, diversity) in enumerate(zip(subsets, diversities)):
        ranks = tuple(ranks_per_dim[d][index] for d in range(dimension))
        candidates.append(
            DiversityCandidate(
                indices=subset,
                names=tuple(graph_names[i] for i in subset),
                diversity=diversity,
                ranks=ranks,
                val=sum(ranks),
            )
        )
    return candidates


def _greedy_maxmin(
    n: int,
    k: int,
    matrix: dict[tuple[int, int], tuple[float, ...]],
    dimension: int,
) -> list[int]:
    """Farthest-point heuristic on the mean of the distance dimensions."""

    def scalar(i: int, j: int) -> float:
        return sum(matrix[(i, j)]) / dimension

    # Seed with the overall farthest pair, then grow by max-min distance.
    best_pair = max(
        itertools.combinations(range(n), 2), key=lambda pair: scalar(*pair)
    )
    subset = list(best_pair)
    while len(subset) < k:
        remaining = [i for i in range(n) if i not in subset]
        subset.append(
            max(remaining, key=lambda i: min(scalar(i, j) for j in subset))
        )
    return sorted(subset)
