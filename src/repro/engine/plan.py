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
  exactly, serially or batched across a process pool. A serial
  evaluator also receives the leading bound stage's live cutoff
  (:meth:`BoundStage.cap`) and solves against it: a pair whose exact
  value would reach the cutoff is cut by the solver, not computed;
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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.graph.features import QueryBounds
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
    optimistic vectors — an ``(n, d)`` NumPy array from the packed
    index, a list of tuples from a replay's per-row bounds, or ``None``
    when the source computes no bounds. The engine walks the columns
    directly; :class:`Candidate` objects are built only when a row is
    indexed or the block is iterated (survivors, the anytime driver, the
    pool).
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
        """One block visiting ``blocks`` in order (the per-shard blocks of
        :class:`~repro.engine.scatter.ShardedSource`: bound arrays, or
        no bounds at all)."""
        ids = [graph_id for block in blocks for graph_id in block.ids]
        columns = [block.bounds for block in blocks if len(block)]
        if not columns or columns[0] is None:
            return cls(ids)
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
    d)`` array, or a list of tuples on a replay) and returns
    one flag per row. Two rules let the engine judge whole windows and
    still decide exactly like a per-candidate walk:

    * pruning is monotone in feedback — a row pruned under the current
      observations stays pruned after any further :meth:`observe`;
    * :attr:`revision` changes whenever an observation may have changed
      a verdict, so the engine re-judges the rows still alive only then.

    :meth:`decide` is the one-row case of the same rule, and :meth:`cap`
    states it for one exact dimension still unknown.
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

    def cap(self, values: Sequence[float], dim: int) -> float | None:
        """The smallest value of dimension ``dim`` at which a candidate is
        provably out, given its other dimensions exact in ``values``
        (``values[dim]`` is ignored); ``None`` when no cutoff is known.

        A candidate whose exact value reaches the cap would be pruned by
        this stage's own rule applied to its exact vector, so the solver
        may stop once it proves that instead of computing the value.

        The cap is monotone: lowering ``values`` outside ``dim`` never
        lowers it (``None`` counts as highest). So a cap asked with lower
        bounds in place of exact values is never below the exact one,
        and a pair whose ``dim`` value provably reaches it is out; the
        evaluator's pre-cut (:func:`~repro.engine.evaluate.pair_values`)
        rests on this. Every override must keep it.
        """
        return None


def _exceeds(bounds, cutoff: float) -> "Sequence[bool]":
    """``bounds[:, 0] > cutoff`` for an array or a list of tuples."""
    if isinstance(bounds, list):
        return [row[0] > cutoff for row in bounds]
    return bounds[:, 0] > cutoff


def cap_above(cutoff: float | None) -> float | None:
    """The cap of a "value > cutoff" rule: the next float up (``None``
    where no value passes: a missing, NaN or +inf cutoff)."""
    if cutoff is None or not cutoff < math.inf:
        return None
    return math.nextafter(cutoff, math.inf)


def kth_smallest(thresholds: Sequence[float], k: int) -> float | None:
    """The ``k``-th smallest threshold (``None`` when there are fewer)."""
    if len(thresholds) < k:
        return None
    return sorted(thresholds)[k - 1]


def pareto_cap(
    exact: "Sequence[Sequence[float]]",
    values: Sequence[float],
    dim: int,
    prune_limit: int,
) -> float | None:
    """:meth:`BoundStage.cap` of Pareto dominator counting (tolerance 0).

    An exact vector ``v`` no worse than the candidate outside ``dim``
    dominates it once the candidate's ``dim`` value reaches ``v[dim]``
    if ``v`` is strictly better elsewhere, and once it passes ``v[dim]``
    otherwise. NaN compares as a tie, as in
    :func:`~repro.skyline.utils.dominates`: a NaN ``v[dim]`` dominates
    at every value or at none. The cap is the ``prune_limit``-th
    smallest such threshold.
    """
    thresholds = []
    for vector in exact:
        strictly = False
        for index, (mine, theirs) in enumerate(zip(vector, values)):
            if index == dim:
                continue
            if mine > theirs:
                break
            if mine < theirs:
                strictly = True
        else:
            threshold = vector[dim]
            if strictly:
                thresholds.append(-math.inf if math.isnan(threshold) else threshold)
            elif threshold < math.inf:  # NaN and +inf are never passed
                thresholds.append(math.nextafter(threshold, math.inf))
    return kth_smallest(thresholds, prune_limit)


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

    def cap(self, values: Sequence[float], dim: int) -> float | None:
        if self.tolerance > 0:
            return None
        return pareto_cap(self._exact, values, dim, self.prune_limit)

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

    def cap(self, values: Sequence[float], dim: int) -> float | None:
        # Ties at the k-th value are still solved: their ids decide.
        return cap_above(self._best[-1]) if len(self._best) >= self.k else None

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

    def cap(self, values: Sequence[float], dim: int) -> float | None:
        return cap_above(self.threshold)


class CachedPairStage(Stage):
    """Serve exact vectors from a shared pair cache; write back new ones.

    Works with :class:`~repro.db.cache.PairCache` through its
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


def bound_pruning(ctx: "RunContext") -> Stage:
    """The per-row bound-pruning stage for the run's query kind: Pareto
    dominator counting for skyline/skyband, the k-th-best cutoff for
    topk, the bound-vs-threshold test for range queries. A replay's
    cascade (:class:`DeltaSource`) runs it; full runs run the batched
    stages of :func:`repro.index.source.batch_bound_stage_for`."""
    spec = ctx.spec
    if spec.kind == "skyline":
        return ParetoPruneStage(1, spec.tolerance)
    if spec.kind == "skyband":
        return ParetoPruneStage(spec.k, spec.tolerance)
    if spec.kind == "topk":
        return RankBoundStage(spec.k)
    return ThresholdBoundStage(spec.threshold)


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


def _bound_ordered(
    ctx: "RunContext", bounded: list[tuple[int, tuple[float, ...]]]
) -> CandidateBlock:
    """``(id, bounds)`` pairs as a block in the visiting order of
    :class:`~repro.index.IndexedSource`: ascending optimistic sum for
    skyline/skyband (strong dominators surface early), ascending bound
    for topk (the sorted-scan cutoff), id order for threshold; ties
    break by id."""
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

    The query's side of the bound is prepared once per read
    (:class:`~repro.graph.features.QueryBounds`); each added graph is
    then bounded from its stored features and its edge list, one
    :meth:`~repro.graph.features.QueryBounds.vector` call per graph, and
    visited in a full run's order. Replays stay per-row: packing the
    added graphs into a fresh matrix costs more than bounding them one
    by one, from one added graph to the ~60 a write-heavy replay judges.
    The stored answer's exact values
    (``known``, removed graphs already dropped) become ``ctx.seeded``:
    the engine records them before the walk, so the bound stage prunes
    added graphs against them and the consumer selects over them. See
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
        bounds = QueryBounds(ctx.spec.graph, ctx.measures, ctx.query_features)
        return _bound_ordered(
            ctx,
            [
                (entry.graph_id, bounds.vector(entry.graph, entry.features))
                for entry in map(ctx.database.entry, self.added)
            ],
        )


@dataclass(frozen=True)
class EvaluationPlan:
    """One engine configuration: source → cascade → evaluator.

    Every backend name's plan decision materialises as one of these —
    see :mod:`repro.api.backends` — and custom plans compose the same parts
    (e.g. bound pruning with a pooled evaluator, or a cache-only cascade
    over database order).
    """

    source: CandidateSource
    cascade: tuple[StageFactory, ...] = ()
    evaluator: "Evaluator | None" = None
