"""Evaluation plans: candidate sources and the pruning cascade.

An :class:`EvaluationPlan` is the declarative configuration the staged
engine (:mod:`repro.engine.core`) executes for every query:

    candidate source  →  pruning cascade  →  exact evaluator  →  consumer

* the **source** returns a :class:`CandidateBlock` of candidate database
  graphs, optionally with optimistic (lower-bound) vectors, in a
  visiting order that makes the downstream pruning effective;
* the **cascade** is an ordered list of :class:`Stage` factories; each
  stage may soundly prune a candidate (provably outside the answer set),
  serve its exact vector without solving (cached pairs), or pass it on.
  A :class:`BoundStage` prunes on bounds alone and judges a whole window
  of bound rows per :meth:`BoundStage.prune_mask` call;
* the **evaluator** (:mod:`repro.engine.evaluate`) solves the survivors
  exactly, serially or batched across a process pool;
* the **consumer** (:mod:`repro.engine.consume`) turns exact vectors into
  the answer for the query kind.

Stages receive feedback: every exact vector the engine obtains (solved,
cached, or returned by a worker) is :meth:`Stage.observe`-d, which is how
Pareto pruning accumulates dominators and how the cached-pair stage
writes back. A stage that never observes enough evidence simply never
prunes — cascade soundness cannot depend on the evaluator choice, which
is what lets pruning, caching and parallelism compose freely.
"""

from __future__ import annotations

import abc
import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.db.index import optimistic_vector
from repro.skyline.utils import dominates

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.core import RunContext
    from repro.engine.evaluate import Evaluator


@dataclass(frozen=True)
class Candidate:
    """One database graph headed into the cascade.

    ``bounds`` is the optimistic (componentwise lower-bound) vector under
    the run's measures, or ``None`` when the source computes no bounds —
    bound-based stages then pass such candidates through untouched.
    """

    graph_id: int
    bounds: tuple[float, ...] | None = None


class CandidateBlock:
    """A run's candidates as two columns, in visiting order.

    ``ids`` is a list of graph ids; ``bounds`` holds the matching
    optimistic vectors — an ``(n, d)`` NumPy array from the vectorized
    index, a list of tuples from the scalar index, or ``None`` when the
    source computes no bounds. The engine walks the columns directly;
    :class:`Candidate` objects are built only when a row is indexed or
    the block is iterated (survivors, the anytime driver, the pool).
    """

    __slots__ = ("ids", "bounds")

    def __init__(self, ids: list[int], bounds=None) -> None:
        self.ids = ids
        self.bounds = bounds

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, position: int) -> Candidate:
        if self.bounds is None:
            return Candidate(self.ids[position])
        bounds = self.bounds[position]
        if not isinstance(bounds, tuple):
            bounds = tuple(bounds.tolist())
        return Candidate(self.ids[position], bounds)

    def __iter__(self) -> Iterator[Candidate]:
        return (self[position] for position in range(len(self.ids)))

    def rows(self, positions: list[int]):
        """The bound rows at ``positions``, in the column's own form."""
        if isinstance(self.bounds, list):
            return [self.bounds[position] for position in positions]
        return self.bounds[positions]

    @classmethod
    def concat(cls, blocks: "list[CandidateBlock]") -> "CandidateBlock":
        """One block visiting ``blocks`` in order (same bound form)."""
        ids = [graph_id for block in blocks for graph_id in block.ids]
        columns = [block.bounds for block in blocks if len(block)]
        if not columns or columns[0] is None:
            return cls(ids)
        if isinstance(columns[0], list):
            return cls(ids, [row for column in columns for row in column])
        import numpy as np

        return cls(ids, np.concatenate(columns))


class Stage(abc.ABC):
    """One cascade member: prune, serve, or pass each candidate.

    :meth:`decide` returns ``"prune"`` (the candidate provably cannot
    change the answer set), an exact vector ``tuple`` (served without
    solving), or ``None`` (no opinion — next stage, then the evaluator).
    """

    #: Registry/display name, used in plan descriptions and per-stage stats.
    name: str = "stage"

    @abc.abstractmethod
    def decide(self, candidate: Candidate) -> "str | tuple[float, ...] | None":
        """Judge one candidate before exact evaluation."""

    def observe(self, graph_id: int, values: tuple[float, ...]) -> None:
        """Feedback: an exact vector became known (solved, cached or pooled)."""


class BoundStage(Stage):
    """A stage that prunes on optimistic bounds alone, a window at a time.

    :meth:`prune_mask` judges a window of bound rows at once (an ``(n,
    d)`` array, or a list of tuples on the NumPy-free path) and returns
    one flag per row. Two rules let the engine judge whole windows and
    still decide exactly like a per-candidate walk:

    * pruning is monotone in feedback — a row pruned under the current
      observations stays pruned after any further :meth:`observe`;
    * :attr:`revision` changes whenever an observation may have changed
      a verdict, so the engine re-judges the rows still alive only then.

    :meth:`decide` is the one-row case of the same rule.
    """

    #: Bumped by :meth:`observe` whenever a verdict may have changed.
    revision: int = 0

    @abc.abstractmethod
    def prune_mask(self, bounds) -> "Sequence[bool]":
        """Per-row prune flags for a window of bound rows."""

    def decide(self, candidate: Candidate) -> "str | None":
        if candidate.bounds is None:
            return None
        return "prune" if self.prune_mask([candidate.bounds])[0] else None


def _exceeds(bounds, cutoff: float) -> "Sequence[bool]":
    """``bounds[:, 0] > cutoff`` for an array or a list of tuples."""
    if isinstance(bounds, list):
        return [row[0] > cutoff for row in bounds]
    return bounds[:, 0] > cutoff


StageFactory = Callable[["RunContext"], Stage]


class ParetoPruneStage(BoundStage):
    """Skyline/skyband pruning by exact dominators of the optimistic bound.

    Optimistic vectors are componentwise ≤ the exact vectors, so a
    candidate whose optimistic vector already has ≥ ``prune_limit`` exact
    dominators is dominated by at least that many graphs — and by
    transitivity so is anything it would have dominated. ``prune_limit``
    is 1 for the skyline and ``k`` for the k-skyband.
    """

    name = "pareto-bound"

    def __init__(self, prune_limit: int, tolerance: float) -> None:
        self.prune_limit = prune_limit
        self.tolerance = tolerance
        self._exact: list[tuple[float, ...]] = []

    def _dominated(self, bounds: tuple[float, ...]) -> bool:
        count = 0
        for vector in self._exact:
            if dominates(vector, bounds, self.tolerance):
                count += 1
                if count >= self.prune_limit:
                    return True
        return False

    def prune_mask(self, bounds) -> list[bool]:
        return [self._dominated(row) for row in bounds]

    def observe(self, graph_id: int, values: tuple[float, ...]) -> None:
        self._exact.append(values)
        self.revision += 1


class RankBoundStage(BoundStage):
    """Top-k pruning: bound exceeds the current k-th best exact distance.

    With candidates visited in ascending bound order, the first prune
    implies every later candidate is pruned too — the classic sorted-scan
    cutoff, expressed per candidate so it stays sound under any order.
    """

    name = "rank-bound"

    def __init__(self, k: int) -> None:
        self.k = k
        self._best: list[float] = []

    def prune_mask(self, bounds) -> "Sequence[bool]":
        cutoff = self._best[-1] if len(self._best) >= self.k else math.inf
        return _exceeds(bounds, cutoff)

    def observe(self, graph_id: int, values: tuple[float, ...]) -> None:
        position = bisect_right(self._best, values[0])
        if position < self.k:
            self._best.insert(position, values[0])
            del self._best[self.k :]
            self.revision += 1


class ThresholdBoundStage(BoundStage):
    """Range pruning: the lower bound already exceeds the threshold."""

    name = "threshold-bound"

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold

    def prune_mask(self, bounds) -> "Sequence[bool]":
        return _exceeds(bounds, self.threshold)


class CachedPairStage(Stage):
    """Serve exact vectors from a shared pair cache; write back new ones.

    Works with both cache flavours in :mod:`repro.db.cache` through the
    ``subject_key``/``get``/``put`` protocol. The stage never prunes —
    a hit replaces the exact solve, a miss passes through — so it is
    sound in any cascade position; placing it after the bound stages
    keeps cache traffic off already-pruned candidates.
    """

    name = "cached-pairs"

    def __init__(self, ctx: "RunContext") -> None:
        self.cache = ctx.cache
        self.ctx = ctx
        self.query_hash = self.cache.query_hash(ctx.spec.graph)
        # Values the cache served or the run was seeded with are not
        # written back: only values solved by this run are.
        self._served: set[int] = set(ctx.seeded)

    def _subject(self, graph_id: int):
        return self.cache.subject_key(self.ctx.database.entry(graph_id))

    def decide(self, candidate: Candidate) -> "tuple[float, ...] | None":
        values = self.cache.get(
            self._subject(candidate.graph_id), self.query_hash, self.ctx.names
        )
        if values is not None:
            self._served.add(candidate.graph_id)
        return values

    def observe(self, graph_id: int, values: tuple[float, ...]) -> None:
        if graph_id not in self._served:
            self.cache.put(
                self._subject(graph_id), self.query_hash, self.ctx.names, values
            )


def bound_stage_for(spec) -> Stage:
    """The scalar bound-pruning stage for ``spec``'s query kind.

    The single definition of the kind → stage dispatch: Pareto dominator
    counting for skyline/skyband, the k-th-best cutoff for topk, the
    bound-vs-threshold test for range queries. Callers that hold a spec
    but no run context (e.g. the sharded backend, which shares one stage
    instance across its per-shard runs) use this directly.
    """
    if spec.kind == "skyline":
        return ParetoPruneStage(1, spec.tolerance)
    if spec.kind == "skyband":
        return ParetoPruneStage(spec.k, spec.tolerance)
    if spec.kind == "topk":
        return RankBoundStage(spec.k)
    return ThresholdBoundStage(spec.threshold)


def bound_pruning(ctx: "RunContext") -> Stage:
    """Cascade entry for :func:`bound_stage_for` (one pluggable factory
    covers all four kinds, so plans stay kind-agnostic)."""
    return bound_stage_for(ctx.spec)


def cached_pairs(ctx: "RunContext") -> Stage:
    """Cascade entry for the shared pair cache (requires ``ctx.cache``)."""
    return CachedPairStage(ctx)


# ----------------------------------------------------------------------
# Candidate sources
# ----------------------------------------------------------------------
class CandidateSource(abc.ABC):
    """Enumerates (and orders) the candidates of one run.

    A source may also *pre-filter*: candidates it can soundly prove
    irrelevant in one batched pass (e.g. the vectorized threshold
    pre-filter of :class:`repro.index.IndexedSource`) are appended to
    ``ctx.prefiltered`` instead of being returned — the engine counts
    them exactly like cascade prunes (``QueryStats.pruned_by_batch``)
    and the cascade runs only on the survivors.
    """

    #: Whether :meth:`candidates` computes index bounds (timed as "bounds").
    computes_bounds: bool = False

    @abc.abstractmethod
    def candidates(self, ctx: "RunContext") -> CandidateBlock:
        """The run's candidates, in visiting order."""


class DatabaseOrderSource(CandidateSource):
    """Every database graph in insertion order, no bounds."""

    def candidates(self, ctx: "RunContext") -> CandidateBlock:
        return CandidateBlock(list(ctx.database.ids()))


class BoundOrderedSource(CandidateSource):
    """Candidates with feature-index lower bounds, most promising first.

    Vector kinds are visited in ascending optimistic-sum order (strong
    dominators surface early, maximizing Pareto prunes); topk in ascending
    scalar-bound order (the sorted-scan cutoff); threshold keeps database
    order (pruning there is order-independent). Ties break by id, so the
    order is deterministic.
    """

    computes_bounds = True

    def __init__(self, index_provider: Callable[[], "object"]) -> None:
        self._index_provider = index_provider

    def pairs(
        self, query_features, measures
    ) -> list[tuple[int, tuple[float, ...]]]:
        """(id, optimistic vector) pairs sorted by (sum, id) — the legacy
        executor's candidate order, kept observable for its tests."""
        index = self._index_provider()
        order = [
            (graph_id, index.optimistic_vector(graph_id, query_features, measures))
            for graph_id in index.ids()
        ]
        order.sort(key=lambda item: (sum(item[1]), item[0]))
        return order

    def candidates(self, ctx: "RunContext") -> CandidateBlock:
        index = self._index_provider()
        return _bound_ordered(
            ctx,
            [
                (
                    graph_id,
                    index.optimistic_vector(
                        graph_id, ctx.query_features, ctx.measures
                    ),
                )
                for graph_id in index.ids()
            ],
        )


def _bound_ordered(
    ctx: "RunContext", bounded: list[tuple[int, tuple[float, ...]]]
) -> CandidateBlock:
    """``(id, bounds)`` pairs as a block in :class:`BoundOrderedSource`'s
    visiting order."""
    if ctx.spec.kind in ("skyline", "skyband"):
        bounded.sort(key=lambda item: (sum(item[1]), item[0]))
    elif ctx.spec.kind == "topk":
        bounded.sort(key=lambda item: (item[1][0], item[0]))
    return CandidateBlock(
        [graph_id for graph_id, _ in bounded],
        [bounds for _, bounds in bounded],
    )


class DeltaSource(CandidateSource):
    """A replay's candidates: the graphs added since a stored answer.

    Each added graph is bounded from its stored features by the scalar
    index's bound functions and visited in :class:`BoundOrderedSource`'s
    order. The stored answer's exact values (``known``, removed graphs
    already dropped) become ``ctx.seeded``: the engine records them
    before the walk, so the bound stage prunes added graphs against them
    and the consumer selects over them. See
    :meth:`repro.api.session.Session._replay` for when a replay equals a
    full run.
    """

    computes_bounds = True

    def __init__(
        self, added: list[int], known: dict[int, tuple[float, ...]]
    ) -> None:
        self.added = added
        self.known = known

    def candidates(self, ctx: "RunContext") -> CandidateBlock:
        ctx.seeded.update(self.known)
        entry = ctx.database.entry
        return _bound_ordered(
            ctx,
            [
                (
                    graph_id,
                    optimistic_vector(
                        entry(graph_id).features,
                        ctx.query_features,
                        ctx.measures,
                    ),
                )
                for graph_id in self.added
            ],
        )


@dataclass(frozen=True)
class EvaluationPlan:
    """One engine configuration: source → cascade → evaluator.

    The three shipped backends are nothing but instances of this — see
    :mod:`repro.api.backends` — and custom plans compose the same parts
    (e.g. bound pruning with a pooled evaluator, or a cache-only cascade
    over database order).
    """

    source: CandidateSource
    cascade: tuple[StageFactory, ...] = ()
    evaluator: "Evaluator | None" = None
    #: Cascade stage labels for plan descriptions (no stages instantiated).
    stage_labels: tuple[str, ...] = field(default=())
