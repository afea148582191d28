"""Best-first (A*) exact graph edit distance.

An independent second exact engine for Definition 8, the reference the
tests cross-check the depth-first branch-and-bound solver
(:mod:`repro.graph.ged`) against. Same state space (partial
vertex assignments in a fixed order, incremental edge costs, completion
by inserting the untouched part of ``g2``) but explored best-first with a
priority queue ordered by ``g + h``, where ``h`` is the admissible
label-multiset bound. A* expands the provably minimal number of states
for a given heuristic at the price of keeping the frontier in memory —
the classic trade-off between the two engines.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from collections.abc import Hashable

from repro.graph.budget import Budget
from repro.graph.ged import DELETED, GedResult
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.operations import CostModel, UNIFORM_COSTS, UniformCostModel
from repro.graph.pairview import assignment_bound

VertexId = Hashable


def multiset_bound(
    counter1: Counter, counter2: Counter, indel: float, mismatch: float
) -> float:
    """:func:`~repro.graph.pairview.assignment_bound` of two label multisets."""
    return assignment_bound(
        sum(counter1.values()),
        sum(counter2.values()),
        sum((counter1 & counter2).values()),
        indel,
        mismatch,
    )


class _AStarGed:
    """One best-first run."""

    def __init__(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        costs: CostModel,
        node_limit: int | None,
        budget: Budget | None = None,
    ) -> None:
        self.g1 = g1
        self.g2 = g2
        self.costs = costs
        self.node_limit = node_limit
        self.budget = budget
        self.order = sorted(g1.vertices(), key=lambda v: (-g1.degree(v), repr(v)))
        self.g2_vertices = list(g2.vertices())
        self.uniform = isinstance(costs, UniformCostModel)
        self.expanded = 0

    # -- heuristics / costs (mirrors the DF engine) ---------------------
    def _heuristic(self, level: int, used: frozenset) -> float:
        if not self.uniform:
            return 0.0
        indel = self.costs.indel_cost
        mismatch = self.costs.mismatch_cost
        rem1 = Counter(self.g1.vertex_label(v) for v in self.order[level:])
        rem2 = Counter(
            self.g2.vertex_label(w) for w in self.g2_vertices if w not in used
        )
        bound = multiset_bound(rem1, rem2, indel, mismatch)
        processed = set(self.order[:level])
        open1 = Counter(
            label
            for u, v, label in self.g1.edges()
            if u not in processed or v not in processed
        )
        open2 = Counter(
            label
            for u, v, label in self.g2.edges()
            if u not in used or v not in used
        )
        return bound + multiset_bound(open1, open2, indel, mismatch)

    def _step_cost(
        self,
        u: VertexId,
        w: VertexId | None,
        mapping: dict[VertexId, VertexId | None],
    ) -> float:
        if w is DELETED:
            cost = self.costs.vertex_deletion(self.g1.vertex_label(u))
            for prev in mapping:
                if self.g1.has_edge(u, prev):
                    cost += self.costs.edge_deletion(self.g1.edge_label(u, prev))
            return cost
        cost = self.costs.vertex_substitution(
            self.g1.vertex_label(u), self.g2.vertex_label(w)
        )
        for prev, image in mapping.items():
            edge1 = self.g1.has_edge(u, prev)
            edge2 = image is not DELETED and self.g2.has_edge(w, image)
            if edge1 and edge2:
                cost += self.costs.edge_substitution(
                    self.g1.edge_label(u, prev), self.g2.edge_label(w, image)
                )
            elif edge1:
                cost += self.costs.edge_deletion(self.g1.edge_label(u, prev))
            elif edge2:
                cost += self.costs.edge_insertion(self.g2.edge_label(w, image))
        return cost

    def _completion_cost(self, used: frozenset) -> float:
        cost = 0.0
        for w in self.g2_vertices:
            if w not in used:
                cost += self.costs.vertex_insertion(self.g2.vertex_label(w))
        for a, b, label in self.g2.edges():
            if a not in used or b not in used:
                cost += self.costs.edge_insertion(label)
        return cost

    # -- search ----------------------------------------------------------
    def run(self) -> GedResult:
        tie = itertools.count()
        start = (self._heuristic(0, frozenset()), next(tie), 0.0, {}, frozenset())
        frontier: list[tuple[float, int, float, dict, frozenset]] = [start]
        while frontier:
            f, _, g_cost, mapping, used = heapq.heappop(frontier)
            if (
                self.node_limit is not None and self.expanded >= self.node_limit
            ) or (self.budget is not None and self.budget.exhausted(self.expanded)):
                # Fall back: greedily complete the current best partial
                # state. The popped f is min over the whole frontier, so it
                # is a certified global lower bound at truncation.
                return self._truncate(f, g_cost, mapping, used)
            self.expanded += 1
            level = len(mapping)
            if level == len(self.order):
                total = g_cost + self._completion_cost(used)
                return GedResult(
                    distance=total,
                    mapping=dict(mapping),
                    optimal=True,
                    expanded_nodes=self.expanded,
                    lower_bound=total,
                )
            u = self.order[level]
            options: list[VertexId | None] = [
                w for w in self.g2_vertices if w not in used
            ]
            options.append(DELETED)
            for w in options:
                step = self._step_cost(u, w, mapping)
                new_mapping = dict(mapping)
                new_mapping[u] = w
                new_used = used if w is DELETED else used | {w}
                new_g = g_cost + step
                h = self._heuristic(level + 1, new_used)
                heapq.heappush(
                    frontier, (new_g + h, next(tie), new_g, new_mapping, new_used)
                )
        raise RuntimeError("A* frontier exhausted without a goal")  # pragma: no cover

    def _truncate(
        self, frontier_bound: float, g_cost: float, mapping: dict, used: frozenset
    ) -> GedResult:
        """Cheapest greedy completion of a partial state (upper bound)."""
        mapping = dict(mapping)
        used_set = set(used)
        for u in self.order[len(mapping):]:
            options: list[VertexId | None] = [
                w for w in self.g2_vertices if w not in used_set
            ]
            options.append(DELETED)
            best_w = min(options, key=lambda w: self._step_cost(u, w, mapping))
            g_cost += self._step_cost(u, best_w, mapping)
            mapping[u] = best_w
            if best_w is not DELETED:
                used_set.add(best_w)
        total = g_cost + self._completion_cost(frozenset(used_set))
        return GedResult(
            distance=total,
            mapping=mapping,
            optimal=False,
            expanded_nodes=self.expanded,
            lower_bound=min(frontier_bound, total),
        )


def graph_edit_distance_astar(
    g1: LabeledGraph,
    g2: LabeledGraph,
    costs: CostModel = UNIFORM_COSTS,
    node_limit: int | None = None,
    budget: Budget | None = None,
) -> GedResult:
    """Exact ``DistEd`` via best-first search (see module docstring).

    With a ``node_limit`` or exhausted :class:`Budget` the search degrades
    gracefully to a certified interval (``optimal=False``): the greedy
    completion of the best frontier state is the upper bound, the popped
    frontier minimum the lower bound.
    """
    return _AStarGed(g1, g2, costs, node_limit, budget).run()
