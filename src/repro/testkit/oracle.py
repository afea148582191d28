"""The trusted oracle: naive exhaustive evaluation over memory semantics.

The oracle answers any :class:`~repro.api.spec.GraphQuery` by computing
the exact measure vector of *every* live graph and selecting the answer
from first principles — a direct transcription of the paper's
definitions with no index, no pruning cascade, no shared cache, no
canonical hashing, and its own dominator count instead of
:mod:`repro.skyline`. Everything it shares
with the system under test is the measure registry and the per-pair
solvers (:func:`repro.engine.evaluate.pair_values`), which *are* the
semantics being queried over; everything the staged engine adds on top
is re-derived here independently so the differential harness can catch
it drifting.

Graphs are tracked by workload handle with a monotonically increasing
insertion sequence number. The runner inserts graphs into the real
database in the same order it adds them here, so sequence order and
database-id order coincide — which is what lets answer lists (sorted by
id on the system side, by sequence here) be compared positionally.

Per-pair values are memoized by ``(handle, deterministic query
serialization, measure name)`` — plain dictionary keys with no
iso-invariant hashing involved, so a canonical-hash collision in the
production cache cannot silently infect the oracle.
"""

from __future__ import annotations

import copy
import json
from typing import TYPE_CHECKING

from repro.api.spec import GraphQuery
from repro.engine.evaluate import pair_values
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.serialization import graph_to_dict
from repro.measures.base import (
    default_measures,
    get_measure,
    measure_names,
    resolve_measures,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measures.base import DistanceMeasure


def _dominates(p: tuple[float, ...], q: tuple[float, ...], tolerance: float) -> bool:
    """Pareto dominance (minimization), transcribed from Definition 1."""
    strictly_better = False
    for pi, qi in zip(p, q):
        if pi > qi + tolerance:
            return False
        if pi < qi - tolerance:
            strictly_better = True
    return strictly_better


def _query_key(graph: LabeledGraph) -> str:
    """Deterministic serialization of a query graph (memo key component)."""
    return json.dumps(graph_to_dict(graph), sort_keys=True, default=str)


class Oracle:
    """Mirror of the database keyed by workload handles, plus answers."""

    def __init__(self) -> None:
        self._graphs: dict[str, LabeledGraph] = {}
        self._seq: dict[str, int] = {}
        self._counter = 0
        self._memo: dict[tuple[str, str, str], float] = {}

    # -- mirror maintenance ---------------------------------------------
    def add(self, handle: str, graph: LabeledGraph) -> None:
        if handle in self._graphs:
            raise ValueError(f"handle {handle!r} is already live")
        # A deep copy, not the copy-on-write ``graph.copy()``: the mirror
        # must share no dictionary with the database's stored graphs, so
        # a product write that skips copy-on-write shows up as a
        # divergence instead of changing both sides alike.
        self._graphs[handle] = copy.deepcopy(graph)
        self._seq[handle] = self._counter
        self._counter += 1

    def remove(self, handle: str) -> None:
        del self._graphs[handle]
        del self._seq[handle]
        self._memo = {
            key: value for key, value in self._memo.items() if key[0] != handle
        }

    def __contains__(self, handle: object) -> bool:
        return handle in self._graphs

    def __len__(self) -> int:
        return len(self._graphs)

    def handles(self) -> list[str]:
        """Live handles in insertion order (== database id order)."""
        return sorted(self._graphs, key=self._seq.__getitem__)

    def graph(self, handle: str) -> LabeledGraph:
        return self._graphs[handle]

    # -- exhaustive evaluation ------------------------------------------
    def _measures(self, spec: GraphQuery) -> tuple["DistanceMeasure", ...]:
        if spec.kind in ("skyline", "skyband"):
            if spec.measures is None:
                return default_measures()
            return resolve_measures(spec.measures)
        if spec.measure is not None:
            return (get_measure(spec.measure),)
        if spec.measures is not None:
            return (resolve_measures(spec.measures)[0],)
        return (default_measures()[0],)

    def vectors(self, spec: GraphQuery) -> dict[str, tuple[float, ...]]:
        """Exact vector of every live graph under the spec's measures."""
        measures = self._measures(spec)
        names = measure_names(measures)
        query_key = _query_key(spec.graph)
        out: dict[str, tuple[float, ...]] = {}
        for handle in self.handles():
            values = []
            for name, measure in zip(names, measures):
                memo_key = (handle, query_key, name)
                if memo_key not in self._memo:
                    self._memo[memo_key] = pair_values(
                        self._graphs[handle], spec.graph, (measure,)
                    )[0]
                values.append(self._memo[memo_key])
            out[handle] = tuple(values)
        return out

    def answer(self, spec: GraphQuery) -> list[str]:
        """The handles a correct system must return for ``spec``.

        Selection is definitional: skyline membership is "no other live
        vector dominates mine", the k-skyband counts dominators, topk
        and threshold sort by (distance, insertion order). Vector-kind
        answers come back in insertion order (matching the engine's
        sorted-by-id contract), distance kinds in rank order;
        ``spec.limit`` is applied last, mirroring the session.
        """
        spec.validate()
        vectors = self.vectors(spec)
        handles = self.handles()
        if spec.kind in ("skyline", "skyband"):
            prune_limit = 1 if spec.kind == "skyline" else spec.k
            answer = []
            for handle in handles:
                dominators = sum(
                    1
                    for other in handles
                    if other != handle
                    and _dominates(
                        vectors[other], vectors[handle], spec.tolerance
                    )
                )
                if dominators < prune_limit:
                    answer.append(handle)
        elif spec.kind == "topk":
            ranked = sorted(
                handles, key=lambda h: (vectors[h][0], self._seq[h])
            )
            answer = ranked[: spec.k]
        else:  # threshold
            answer = sorted(
                (h for h in handles if vectors[h][0] <= spec.threshold),
                key=lambda h: (vectors[h][0], self._seq[h]),
            )
        if spec.limit is not None:
            answer = answer[: spec.limit]
        return answer
