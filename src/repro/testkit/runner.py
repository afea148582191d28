"""Differential execution: replay a workload against system and oracle.

The :class:`WorkloadRunner` holds one real :class:`~repro.db.database.
GraphDatabase` and one :class:`~repro.testkit.oracle.Oracle` mirror and
applies every workload step to both. Query steps run on the step's
backend twice — cache off and cache on (one :class:`~repro.db.cache.
PairCache` shared across all cached sessions, exactly like a production
deployment) — and both answers must equal the oracle's. A cached session
also keeps its answer store, so a repeated query is served whole when
no mutation landed since, or replayed over the mutations that did, and
must still equal the oracle; a served-whole read's rendered ``answer``
and ``rows`` must also equal a render from the database, bypassing the
stored answer's memo. Live-view checks
compare every open :class:`~repro.engine.views.LiveView` against the
oracle's skyline; persistence steps save/load the database and require
payload and answer parity.

Steps that reference a dead handle are skipped (counted, not failed) so
any subsequence of a workload replays — the property the shrinker needs.
The first check that disagrees stops the run and is reported as a
:class:`Divergence`; an unexpected exception inside a step is reported
the same way, so crash bugs shrink just like wrong-answer bugs.

``fault=`` injects a deliberately broken engine stage (see
:data:`FAULTS`) — the harness's own smoke test: a sign-flipped bound, a
solver cutoff one float too low, a GED bracket whose lower side is one
too high, an |mcs| bound one too low (the solvers' per-pair bound, or
the index's edge-type bound), or a replay's edit bound one too high must
be caught and shrunk to a printable repro.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.api.backends import PRESETS, ExecutionBackend
from repro.api.ops import applicable, apply_mutation, relabeled_copy
from repro.api.session import Session
from repro.api.spec import GraphQuery
from repro.db.cache import PairCache
from repro.db.database import GraphDatabase
from repro.db.persistence import load_database, save_database
from repro.engine.plan import (
    BoundStage,
    RankBoundStage,
    ThresholdBoundStage,
    kth_smallest,
)
from repro.errors import QueryError
from repro.engine.evaluate import SOLVER_CUTOFF, SerialEvaluator, solve_pair
from repro.graph.serialization import graph_to_dict
from repro.index import BatchParetoStage
from repro.measures.base import PairContext
from repro.shard.store import ShardedGraphDatabase
from repro.skyline.utils import dominates
from repro.testkit.oracle import Oracle
from repro.testkit.workload import (
    AddGraph,
    CheckViews,
    RelabelGraph,
    RemoveGraph,
    RunQuery,
    SaveLoad,
    Step,
    WatchView,
    Workload,
)


# ----------------------------------------------------------------------
# Fault injection: deliberately unsound engine stages
# ----------------------------------------------------------------------
class _FlippedParetoStage(BatchParetoStage):
    """Pareto pruning with the dominance test backwards: prunes a
    candidate when its *optimistic bound* dominates a known exact vector
    — i.e. exactly the promising candidates."""

    name = "pareto-bound(sign-flipped)"

    def prune_mask(self, bounds) -> list[bool]:
        exact = self._observed
        return [
            any(dominates(row, vector, self.tolerance) for vector in exact)
            for row in bounds
        ]


class _FlippedRankStage(RankBoundStage):
    """Top-k cutoff backwards: prunes bounds *at or below* the k-th best."""

    name = "rank-bound(sign-flipped)"

    def prune_mask(self, bounds):
        if len(self._best) < self.k:
            return [False] * len(bounds)
        return np.asarray(bounds)[:, 0] <= self._best[-1]


class _FlippedThresholdStage(ThresholdBoundStage):
    """Range pruning backwards: prunes bounds *within* the threshold."""

    name = "threshold-bound(sign-flipped)"

    def prune_mask(self, bounds):
        return np.asarray(bounds)[:, 0] <= self.threshold


class _OffByOneParetoStage(BatchParetoStage):
    """Pareto caps without the equal-coordinate rule: a dominator that
    only ties elsewhere cuts at its own value, not just past it."""

    name = "pareto-bound(cutoff-off-by-one)"

    def cap(self, values, dim):
        thresholds = [
            vector[dim]
            for vector in self._observed
            if all(
                mine <= theirs
                for index, (mine, theirs) in enumerate(zip(vector, values))
                if index != dim
            )
        ]
        return kth_smallest(thresholds, self.prune_limit)


class _OffByOneRankStage(RankBoundStage):
    """Top-k cap at the k-th value itself: ties at the k-th are cut."""

    name = "rank-bound(cutoff-off-by-one)"

    def cap(self, values, dim):
        return self._best[-1] if len(self._best) >= self.k else None


class _OffByOneThresholdStage(ThresholdBoundStage):
    """Range cap at the threshold itself: values equal to it are cut."""

    name = "threshold-bound(cutoff-off-by-one)"

    def cap(self, values, dim):
        return self.threshold


def _stage_family(pareto, rank, threshold):
    """A bound-stage factory dispatching on the kind the way
    :func:`~repro.index.source.batch_bound_stage_for` does."""

    def factory(spec) -> BoundStage:
        if spec.kind == "skyline":
            return pareto(1, spec.tolerance)
        if spec.kind == "skyband":
            return pareto(spec.k, spec.tolerance)
        if spec.kind == "topk":
            return rank(spec.k)
        return threshold(spec.threshold)

    return factory


class _IndexedFault(ExecutionBackend):
    """The ``indexed`` preset with one part deliberately broken."""

    def __init__(self, database, name: str = "indexed", **options) -> None:
        super().__init__(database, name, **options)


class _FaultyStageIndexedBackend(_IndexedFault):
    """The ``indexed`` backend with its bound stage replaced."""

    #: Factory of the replacement bound stage, called with the spec.
    stages: Any

    def _bound_stage(self, spec: GraphQuery) -> BoundStage:
        return self.stages(spec)


class BrokenBoundIndexedBackend(_FaultyStageIndexedBackend):
    """The ``indexed`` backend with its bound stage sign-flipped."""

    stages = staticmethod(
        _stage_family(
            _FlippedParetoStage, _FlippedRankStage, _FlippedThresholdStage
        )
    )


class OffByOneCutoffIndexedBackend(_FaultyStageIndexedBackend):
    """The ``indexed`` backend whose solver cutoffs are one float low."""

    stages = staticmethod(
        _stage_family(
            _OffByOneParetoStage, _OffByOneRankStage, _OffByOneThresholdStage
        )
    )


class _RaisedBracketContext(PairContext):
    """A pair context whose GED bracket claims one price unit (of the
    paper's uniform model) more than its assignment proves."""

    def ged_bracket(self):
        bracket = copy.copy(super().ged_bracket())
        bracket.lower += 1.0
        return bracket


class _LoweredMcsBoundContext(PairContext):
    """A pair context whose |mcs| bound is one edge below what it proves."""

    def mcs_upper(self):
        return max(super().mcs_upper() - 1, 0)


class _FaultyContextEvaluator(SerialEvaluator):
    """The serial evaluator, solving every pair in a broken context."""

    def __init__(self, context_class: type[PairContext]) -> None:
        self.context_class = context_class

    def evaluate(self, ctx, candidate):
        context = self.context_class(
            ctx.database.get(candidate.graph_id), ctx.spec.graph
        )
        return solve_pair(ctx, candidate.graph_id, None, context, candidate.bounds)


class _FaultyContextIndexedBackend(_IndexedFault):
    context_class: type[PairContext]

    def _evaluator(self, name: str, shard: int | None = None):
        return _FaultyContextEvaluator(self.context_class)


class RaisedBracketIndexedBackend(_FaultyContextIndexedBackend):
    """The ``indexed`` backend whose GED brackets' lower side is one high:
    it cuts pairs at a cap they stay below, or settles them one high."""

    context_class = _RaisedBracketContext


class LoweredMcsBoundIndexedBackend(_FaultyContextIndexedBackend):
    """The ``indexed`` backend whose |mcs| bounds are one low: it cuts
    pairs on a DistMcs/DistGu lower bound they do not have, and stops
    McGregor one edge short of the optimum."""

    context_class = _LoweredMcsBoundContext


@contextlib.contextmanager
def _lowered_mcs_column():
    """Every |mcs| bound of the index one edge low while active: the
    batched column full runs bound with and the per-row bound replays
    bound with (``features._mcs_cap``, behind both
    :meth:`~repro.graph.features.QueryBounds.vector` and
    :func:`~repro.testkit.reference.bounds.mcs_upper_bound`), so bound
    stages drop graphs on a DistMcs/DistGu lower bound their exact values
    do not reach."""
    from repro.graph import features
    from repro.index import kernels

    column, per_row = kernels.mcs_upper_bounds, features._mcs_cap
    kernels.mcs_upper_bounds = lambda matrix, query: np.maximum(
        column(matrix, query) - 1, 0
    )
    features._mcs_cap = lambda graph, types: max(per_row(graph, types) - 1, 0)
    try:
        yield
    finally:
        kernels.mcs_upper_bounds, features._mcs_cap = column, per_row


class LoweredMcsColumnIndexedBackend(_IndexedFault):
    """The ``indexed`` backend, replayed while the index's |mcs| bound is
    one edge low everywhere (:attr:`installed`). Replays bound outside
    any backend, so this fault is patched in for the whole workload."""

    installed = staticmethod(_lowered_mcs_column)


@contextlib.contextmanager
def _raised_replay_bound():
    """The replay bound's raw edit bound one edit high while active
    (``features._edit_bound``, read by
    :meth:`~repro.graph.features.QueryBounds.vector`): replays drop added
    graphs on a DistEd lower bound their exact values do not reach. Full
    runs bound with the kernels and stay sound."""
    from repro.graph import features

    edit_bound = features._edit_bound
    features._edit_bound = lambda *args: edit_bound(*args) + 1
    try:
        yield
    finally:
        features._edit_bound = edit_bound


class RaisedReplayBoundIndexedBackend(_IndexedFault):
    """The ``indexed`` backend, replayed while every replay's edit bound
    is one edit high (:attr:`installed`). Every cached session replays
    through the same bound, so the fault spans all backends."""

    installed = staticmethod(_raised_replay_bound)


#: Injectable faults: name -> replacement class for the indexed backend.
#: A class with an ``installed`` context manager also breaks something
#: every backend shares; the runner keeps it entered for the whole replay.
FAULTS: dict[str, type[ExecutionBackend]] = {
    "flip-bound": BrokenBoundIndexedBackend,
    "cutoff-off-by-one": OffByOneCutoffIndexedBackend,
    "bracket-lower-plus-one": RaisedBracketIndexedBackend,
    "mcs-upper-minus-one": LoweredMcsBoundIndexedBackend,
    "mcs-column-minus-one": LoweredMcsColumnIndexedBackend,
    "replay-bound-plus-one": RaisedReplayBoundIndexedBackend,
}


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """One check where the system under test disagreed with the oracle."""

    step_index: int
    step: Step
    check: str
    expected: list[str]
    actual: list[str]
    backend: str | None = None
    cached: bool | None = None

    @property
    def query_json(self) -> str | None:
        """The exact GraphQuery JSON of the diverging step, if it has one."""
        query = getattr(self.step, "query", None)
        return query.to_json(sort_keys=True) if query is not None else None

    def describe(self) -> str:
        where = f"step {self.step_index} ({self.step.describe()})"
        extra = ""
        if self.backend is not None:
            extra = f" on backend {self.backend!r} cache={'on' if self.cached else 'off'}"
        return (
            f"{self.check} divergence at {where}{extra}:\n"
            f"  expected: {self.expected}\n"
            f"  actual:   {self.actual}"
        )


@dataclass
class RunReport:
    """Outcome and coverage counters of one workload replay."""

    steps_run: int = 0
    queries: int = 0
    mutations: int = 0
    view_checks: int = 0
    saveloads: int = 0
    skipped: int = 0
    combos: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    answer_hits: int = 0
    answer_replays: int = 0
    answer_misses: int = 0
    #: Pairs the engine's solvers cut at a bound stage's cap.
    solver_cutoffs: int = 0
    #: Of those, the ones cut on budgeted (anytime) specs.
    anytime_cutoffs: int = 0
    elapsed: float = 0.0
    divergence: Divergence | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def summary(self) -> str:
        verdict = "OK" if self.ok else "DIVERGED"
        return (
            f"{verdict}: {self.steps_run} steps "
            f"({self.queries} queries over {len(self.combos)} kindxbackend "
            f"combos, {self.mutations} mutations, {self.view_checks} view "
            f"checks, {self.saveloads} save/load round-trips, "
            f"{self.skipped} skipped) in {self.elapsed:.2f}s; "
            f"pair cache {self.cache_hits} hits / {self.cache_misses} misses; "
            f"answer store {self.answer_hits} hits / {self.answer_replays} "
            f"replays / {self.answer_misses} misses; "
            f"{self.solver_cutoffs} solver cutoffs, "
            f"{self.anytime_cutoffs} anytime cutoffs"
        )


def _payload_digest(graph) -> str:
    payload = json.dumps(graph_to_dict(graph), sort_keys=True, default=str)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class WorkloadRunner:
    """Replays workloads differentially; one instance per replay.

    Parameters
    ----------
    fault:
        Optional :data:`FAULTS` key; replaces the ``indexed`` backend
        with the deliberately broken variant (harness self-test).
    max_workers:
        Pool size of the ``parallel`` and ``auto`` sessions.
    shards:
        Shard count of the runner's database. The system under test is a
        :class:`~repro.shard.store.ShardedGraphDatabase` by default, so
        *every* backend is fuzzed over the shard store, mutations land
        on different shards, and the ``sharded`` backend's scatter-gather
        path runs against the same oracle as everything else. ``1``
        falls back to a monolithic :class:`GraphDatabase` (the
        ``sharded`` backend then rejects its steps).
    """

    def __init__(
        self,
        fault: str | None = None,
        max_workers: int = 2,
        shards: int = 2,
    ) -> None:
        if fault is not None and fault not in FAULTS:
            raise QueryError(
                f"unknown fault {fault!r}; available: {', '.join(sorted(FAULTS))}"
            )
        if shards > 1:
            self.database: GraphDatabase = ShardedGraphDatabase(
                shards=shards, name="testkit"
            )
        else:
            self.database = GraphDatabase(name="testkit")
        self.oracle = Oracle()
        self.cache = PairCache()
        self.fault = fault
        self.max_workers = max_workers
        self._handle_to_id: dict[str, int] = {}
        self._id_to_handle: dict[int, str] = {}
        self._sessions: dict[tuple[str, bool], Session] = {}
        self._views: dict[str, Any] = {}

    # -- sessions --------------------------------------------------------
    def _backend(self, name: str, cached: bool) -> ExecutionBackend:
        if name not in PRESETS:
            # Reject rather than fall back: a typo'd backend in a
            # hand-edited workload would silently run memory semantics
            # and trivially "pass" against the oracle.
            raise QueryError(
                f"unknown workload backend {name!r}; available: "
                f"{', '.join(PRESETS)}"
            )
        cls = ExecutionBackend
        if self.fault and name == "indexed":
            cls = FAULTS[self.fault]
        return cls(
            self.database,
            name,
            cache=self.cache if cached else None,
            max_workers=self.max_workers,
        )

    def session(self, name: str, cached: bool) -> Session:
        key = (name, cached)
        if key not in self._sessions:
            self._sessions[key] = Session(
                self.database, backend=self._backend(name, cached)
            )
        return self._sessions[key]

    def close(self) -> None:
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()
        self._views.clear()

    # -- step application -------------------------------------------------
    def _translate(self, ids: list[int]) -> list[str]:
        return [self._id_to_handle.get(i, f"#<unknown {i}>") for i in ids]

    def _check_integrity(self, index: int, step: Step) -> Divergence | None:
        expected = sorted(self._handle_to_id)
        actual = sorted(
            self._id_to_handle[i]
            for i in self.database.ids()
            if i in self._id_to_handle
        )
        if expected != actual or len(self.database) != len(self.oracle):
            return Divergence(index, step, "ids", expected, actual)
        return None

    def _apply_mutation(self, index: int, step: Step, report: RunReport):
        # Mutation steps ARE shared ops (repro.api.ops): the database
        # side applies through the same code path the server's mutate
        # endpoint uses; only the oracle mirroring is testkit-specific.
        # Steps the op layer would reject are *skipped* (counted, not
        # failed) so any workload subsequence stays replayable.
        if not applicable(step, self._handle_to_id):
            report.skipped += 1
            return None
        apply_mutation(
            self.database, step, self._handle_to_id, self._id_to_handle
        )
        if isinstance(step, AddGraph):
            self.oracle.add(step.handle, step.graph)
        elif isinstance(step, RemoveGraph):
            self.oracle.remove(step.handle)
        else:
            assert isinstance(step, RelabelGraph)
            relabeled = relabeled_copy(
                self.oracle.graph(step.handle),
                step.vertex_index, step.label, step.new_handle,
            )
            self.oracle.remove(step.handle)
            self.oracle.add(step.new_handle, relabeled)
        report.mutations += 1
        return self._check_integrity(index, step)

    def _apply_query(self, index: int, step: RunQuery, report: RunReport):
        expected = self.oracle.answer(step.query)
        for cached in (False, True):
            result = self.session(step.backend, cached).execute(step.query)
            cut = result.stats.pruned_by_stage.get(SOLVER_CUTOFF, 0)
            report.solver_cutoffs += cut
            if step.query.anytime:
                report.anytime_cutoffs += cut
            actual = self._translate(result.ids)
            if actual != expected:
                return Divergence(
                    index, step, "query", expected, actual,
                    backend=step.backend, cached=cached,
                )
            if result.stats.reused:
                # A hit renders the stored answer's memo; it must read
                # exactly as a render from the database would.
                served = result.to_dict()
                fresh = replace(result, rendered=None).to_dict()
                for key in ("answer", "rows"):
                    if json.dumps(served[key]) != json.dumps(fresh[key]):
                        return Divergence(
                            index, step, f"render:{key}", fresh[key],
                            served[key], backend=step.backend, cached=cached,
                        )
        report.queries += 1
        combo = f"{step.query.kind}/{step.backend}"
        report.combos[combo] = report.combos.get(combo, 0) + 1
        return None

    def _apply_views(self, index: int, step: Step, report: RunReport):
        for view_id, view in sorted(self._views.items()):
            expected = self.oracle.answer(view.spec)
            actual = self._translate(view.ids)
            if actual != expected:
                return Divergence(
                    index, step, f"view:{view_id}", expected, actual
                )
        report.view_checks += 1
        return None

    def _apply_saveload(self, index: int, step: SaveLoad, report: RunReport):
        with tempfile.TemporaryDirectory(prefix="repro-testkit-") as tmp:
            path = Path(tmp) / "db.json"
            save_database(self.database, path)
            loaded = load_database(path)
        live_payloads = sorted(
            _payload_digest(graph) for graph in self.database.graphs()
        )
        loaded_payloads = sorted(
            _payload_digest(graph) for graph in loaded.graphs()
        )
        if live_payloads != loaded_payloads:
            return Divergence(
                index, step, "persistence", live_payloads, loaded_payloads
            )
        expected = [
            _payload_digest(self.oracle.graph(handle))
            for handle in self.oracle.answer(step.query)
        ]
        with Session(loaded, backend="memory") as session:
            result = session.execute(step.query)
            actual = [_payload_digest(graph) for graph in result.graphs]
        if sorted(expected) != sorted(actual):
            return Divergence(
                index, step, "persistence-query", sorted(expected), sorted(actual)
            )
        report.saveloads += 1
        return None

    def apply(self, index: int, step: Step, report: RunReport):
        """Apply one step; returns a Divergence or None."""
        if isinstance(step, (AddGraph, RemoveGraph, RelabelGraph)):
            return self._apply_mutation(index, step, report)
        if isinstance(step, RunQuery):
            if len(self.oracle) == 0:
                report.skipped += 1
                return None
            return self._apply_query(index, step, report)
        if isinstance(step, WatchView):
            self._views[step.view_id] = self.session("memory", True).watch(
                step.query
            )
            return None
        if isinstance(step, CheckViews):
            if not self._views:
                report.skipped += 1
                return None
            return self._apply_views(index, step, report)
        if isinstance(step, SaveLoad):
            if len(self.oracle) == 0:
                report.skipped += 1
                return None
            return self._apply_saveload(index, step, report)
        raise TypeError(f"unknown workload step {step!r}")

    # -- replay -----------------------------------------------------------
    def run(self, workload: Workload) -> RunReport:
        """Replay ``workload`` until done or first divergence."""
        report = RunReport()
        start = time.perf_counter()
        installed = getattr(FAULTS.get(self.fault), "installed", contextlib.nullcontext)
        with installed():
            for index, step in enumerate(workload.steps):
                try:
                    divergence = self.apply(index, step, report)
                except Exception as exc:  # crash bugs shrink like wrong answers
                    divergence = Divergence(
                        index, step, "exception", [], [f"{type(exc).__name__}: {exc}"]
                    )
                report.steps_run += 1
                if divergence is not None:
                    report.divergence = divergence
                    break
        report.elapsed = time.perf_counter() - start
        report.cache_hits = self.cache.hits
        report.cache_misses = self.cache.misses
        stores = [session.answer_store for session in self._sessions.values()]
        report.answer_hits = sum(store.hits for store in stores)
        report.answer_replays = sum(store.replays for store in stores)
        report.answer_misses = sum(store.misses for store in stores)
        return report


def run_workload(
    workload: Workload,
    fault: str | None = None,
    max_workers: int = 2,
    shards: int = 2,
) -> RunReport:
    """Replay ``workload`` in a fresh runner; sessions closed afterwards."""
    runner = WorkloadRunner(fault=fault, max_workers=max_workers, shards=shards)
    try:
        return runner.run(workload)
    finally:
        runner.close()
