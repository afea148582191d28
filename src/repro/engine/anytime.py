"""Budget-aware anytime execution with certified distance intervals.

:func:`run_plan_anytime` is the engine path behind every spec that
carries a :attr:`~repro.api.spec.GraphQuery.budget_ms` /
``budget_nodes`` knob. Where :func:`~repro.engine.core.run_plan` solves
every cascade survivor *exactly* (and can therefore block arbitrarily
long inside one exponential search), this path runs every evaluation
under a :class:`~repro.graph.budget.Budget` and reasons over the
certified ``[lower, upper]`` :class:`~repro.graph.budget.Interval`
vectors the measures return:

1. **First pass** — candidates walk the same pruning cascade, then each
   survivor gets one budgeted evaluation under a fair share of the
   remaining wall clock (cache hits and bound prunes behave exactly as
   in the exact path; settled vectors feed the stages, so cache
   write-back and cross-candidate feedback are preserved).
2. **Progressive refinement** — only candidates whose intervals
   *straddle* the answer frontier (they could still change the answer)
   are re-evaluated, widest interval first, with the per-pass expansion
   budget doubled each round. Candidates whose intervals already decide
   their fate are never touched again, however wide their intervals.
   Both steps solve against the leading bound stage's live cap by the
   serial evaluator's rule and floors (:func:`~repro.engine.evaluate.
   solve_pair` under a budget). A pair *proved* at or above the cap is a
   ``solver-cutoff`` prune, as in the exact path; one the budget cannot
   decide keeps its certified interval.
3. **Consume over intervals** — the top-k / threshold / skyline /
   skyband consumers select over intervals. When no straddlers remain
   the answer is *certified* equal to the exhaustive oracle's (proof
   sketches inline below). When the wall clock expires first, the
   answer is the best-effort selection over certified upper bounds and
   the result is flagged ``approximate``.

Dropping a cut candidate from the interval analysis is sound. Its
exact vector has >= ``prune_limit`` settled dominators among the run's
observed vectors, which stay in the analysis. Whatever it truly
dominates, they truly dominate too (transitivity), and a settled vector
that truly dominates a candidate possibly dominates its interval. So
:func:`vector_membership` / :func:`straddler_ids` decide every other
candidate as they would with it. Top-k and threshold cuts lie past the
k-th best settled value or the threshold. Shards share one bound stage,
so a shard's dominators may sit in another shard's intervals: the
sharded merge re-certifies over their union (and flags the answer
approximate where that union cannot decide it).

A deadline (:mod:`repro.engine.deadline`) tightens the wall clock, and
:class:`~repro.errors.DeadlineExceeded` is raised only when it expired
before a *single* evaluation pass completed (a pass that cut its pair
counts) — an expired deadline with work done returns the partial,
certified answer instead of failing.

This path is deliberately serial (``plan.evaluator`` is ignored):
restart-based refinement keeps per-pair state in a
:class:`~repro.measures.base.PairContext`, which cannot ship to pool
workers cheaply. Sharded backends still scatter-gather: each shard runs
this path and the merge consumers union intervals.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

from repro.core.gcs import CompoundSimilarity
from repro.db.stats import PhaseTimer
from repro.graph.budget import Budget, Interval
from repro.measures.base import PairContext
from repro.engine.consume import finish_distances, finish_vectors, select
from repro.engine.evaluate import SOLVER_CUTOFF, solve_pair
from repro.engine.plan import BoundStage, Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.backends import BackendAnswer
    from repro.engine.core import RunContext
    from repro.engine.plan import EvaluationPlan

#: Minimum wall-clock slice handed to one evaluation pass (seconds).
_MIN_SLICE = 1e-3
#: Hard cap on refinement rounds — a backstop against measures that can
#: never settle; doubling node budgets makes real solvers settle far
#: earlier.
_MAX_ROUNDS = 1000
#: Slack for "lower <= frontier" straddler tests.
_EPS = 1e-9


class _CandidateState:
    """Mutable per-candidate record across evaluation passes."""

    __slots__ = ("graph_id", "bounds", "context", "intervals", "passes",
                 "node_budget", "observed")

    def __init__(self, graph_id, bounds, node_budget):
        self.graph_id = graph_id
        self.bounds = bounds
        self.context: PairContext | None = None
        self.intervals: tuple[Interval, ...] | None = None
        self.passes = 0
        self.node_budget = node_budget
        self.observed = False

    @property
    def settled(self) -> bool:
        return self.intervals is not None and all(
            interval.settled for interval in self.intervals
        )


def _initial_intervals(ctx: "RunContext", state: _CandidateState) -> tuple:
    """Pre-evaluation intervals: index lower bounds up to the trivial cap."""
    out = []
    for index, measure in enumerate(ctx.measures):
        lower = 0.0
        if state.bounds is not None and index < len(state.bounds):
            bound = state.bounds[index]
            if bound == bound:  # NaN-safe
                lower = max(0.0, float(bound))
        upper = 1.0 if measure.normalized else math.inf
        out.append(Interval(lower=min(lower, upper), upper=upper))
    return tuple(out)


def _intervals_of(ctx: "RunContext", state: _CandidateState) -> tuple:
    return (
        state.intervals
        if state.intervals is not None
        else _initial_intervals(ctx, state)
    )


def _width(intervals: tuple[Interval, ...]) -> float:
    return max(interval.width for interval in intervals)


def _evaluate(
    ctx: "RunContext",
    stages: list[Stage],
    state: _CandidateState,
    slice_end: float | None,
    refining: bool,
) -> bool:
    """One budgeted evaluation pass over every measure dimension;
    ``False`` when it cut the pair at the run's cap."""
    stats = ctx.stats
    anytime = stats.anytime
    if state.context is None:
        state.context = PairContext(ctx.database.get(state.graph_id), ctx.spec.graph)
    budget = Budget(expires_at=slice_end, node_limit=state.node_budget)
    values = solve_pair(ctx, state.graph_id, budget, state.context, state.bounds)
    state.passes += 1
    anytime["passes"] += 1
    if refining:
        anytime["refined"] += 1
    if values == SOLVER_CUTOFF:
        return False
    base = _intervals_of(ctx, state)
    state.intervals = tuple(
        before.intersect(after) for before, after in zip(base, values)
    )
    if not state.observed and state.settled:
        # Settled == exact: feed the stages like the exact engine does
        # (cache write-back, cross-candidate bound feedback).
        state.observed = True
        stats.exact_evaluations += 1
        exact = tuple(interval.upper for interval in state.intervals)
        for stage in stages:
            stage.observe(state.graph_id, exact)
    return True


# ----------------------------------------------------------------------
# Straddler analysis: which candidates could still change the answer?
# ----------------------------------------------------------------------

def _certainly_dominates(a: tuple, b: tuple) -> bool:
    """``a`` dominates ``b`` in *every* realization of both intervals.

    For settled pairs this is exactly Definition 1 (tolerance 0).
    """
    return all(x.upper <= y.lower for x, y in zip(a, b)) and any(
        x.upper < y.lower for x, y in zip(a, b)
    )


def _possibly_dominates(a: tuple, b: tuple) -> bool:
    """``a`` dominates ``b`` in *some* realization of both intervals."""
    return all(x.lower <= y.upper for x, y in zip(a, b)) and any(
        x.lower < y.upper for x, y in zip(a, b)
    )


def vector_membership(
    spec, entries: dict[int, tuple]
) -> tuple[set[int], set[int]]:
    """``(certain_in, certain_out)`` skyline/skyband membership sets.

    A candidate is certainly out once >= K others *certainly* dominate it
    (its true dominator count is at least that) and certainly in once
    fewer than K others *possibly* dominate it (its true count is at
    most that); K = 1 for skyline, ``spec.k`` for the k-skyband. When the
    two sets cover every candidate, membership equals the exhaustive
    oracle's. (Also the gather-phase primitive: the sharded skyline merge
    re-runs this over the union of per-shard intervals.)
    """
    k = spec.k if spec.kind == "skyband" else 1
    certain_in: set[int] = set()
    certain_out: set[int] = set()
    items = list(entries.items())
    for gid, intervals in items:
        certain = 0
        possible = 0
        for other_gid, other in items:
            if other_gid == gid:
                continue
            if _certainly_dominates(other, intervals):
                certain += 1
            if _possibly_dominates(other, intervals):
                possible += 1
        if certain >= k:
            certain_out.add(gid)
        elif possible < k:
            certain_in.add(gid)
    return certain_in, certain_out


def straddler_ids(spec, entries: dict[int, tuple]) -> set[int]:
    """Ids of unsettled interval vectors that could still change the answer.

    An empty set certifies the current intervals decide the answer
    exactly (see the per-kind arguments below). ``entries`` maps graph id
    to its interval vector; this is also the merge-phase certification
    primitive for sharded anytime runs.
    """
    unsettled = {
        gid
        for gid, intervals in entries.items()
        if any(not interval.settled for interval in intervals)
    }
    if not unsettled:
        return set()
    if spec.kind == "topk":
        # kth = k-th smallest upper bound: every candidate whose lower
        # exceeds it has true distance strictly beyond the k best uppers,
        # so it can neither enter the top k nor perturb its order. No
        # straddlers => the k smallest by (upper, id) are all settled and
        # equal the oracle's answer.
        uppers = sorted(intervals[0].upper for intervals in entries.values())
        kth = uppers[spec.k - 1] if len(uppers) >= spec.k else math.inf
        return {
            gid for gid in unsettled if entries[gid][0].lower <= kth + _EPS
        }
    if spec.kind == "threshold":
        # Only candidates whose interval contains the threshold are
        # undecided: lower > t certifies exclusion, upper <= t certifies
        # inclusion (and settling is needed for the reported distance).
        return {
            gid
            for gid in unsettled
            if entries[gid][0].lower <= spec.threshold + _EPS
        }
    # Vector kinds. With a dominance tolerance the interval algebra
    # would have to mix two slacks; certify only via full settlement.
    if spec.tolerance > 0:
        return unsettled
    certain_in, certain_out = vector_membership(spec, entries)
    if len(certain_in) + len(certain_out) == len(entries):
        return set()
    # Membership counting is global (a certainly-out candidate still
    # dominates others), so refine every open interval rather than
    # guessing which one blocks certification.
    return unsettled


def _straddlers(
    ctx: "RunContext", states: dict[int, _CandidateState]
) -> list[_CandidateState]:
    """The :func:`straddler_ids` states of this run, for refinement."""
    entries = {gid: _intervals_of(ctx, s) for gid, s in states.items()}
    return [states[gid] for gid in straddler_ids(ctx.spec, entries)]


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def run_plan_anytime(ctx: "RunContext", plan: "EvaluationPlan") -> "BackendAnswer":
    """Execute an anytime (budgeted) spec; see the module docstring."""
    from repro.api.backends import BackendAnswer

    spec = ctx.spec
    stats = ctx.stats
    deadline = ctx.deadline
    started = time.monotonic()
    wall: float | None = None
    if spec.budget_ms is not None:
        wall = started + spec.budget_ms / 1000.0
    if deadline is not None:
        wall = deadline.expires_at if wall is None else min(wall, deadline.expires_at)

    anytime: dict[str, object] = {
        "passes": 0,
        "refined": 0,
        "settled": 0,
        "interval_pruned": 0,
        "starved": 0,
        "budget_spent_ms": 0.0,
    }
    stats.anytime = anytime

    if plan.source.computes_bounds:
        with PhaseTimer(stats, "bounds"):
            candidates = list(plan.source.candidates(ctx))
    else:
        candidates = list(plan.source.candidates(ctx))
    stages: list[Stage] = [factory(ctx) for factory in plan.cascade]
    if stages and isinstance(stages[0], BoundStage):
        ctx.cutoff = stages[0]

    pruned_ids: list[int] = list(ctx.prefiltered)
    stats.candidates_considered += len(ctx.prefiltered)
    stats.pruned_by_index += len(ctx.prefiltered)
    stats.pruned_by_batch += len(ctx.prefiltered)
    if ctx.prefiltered:
        stats.count_prune("batch-prefilter", len(ctx.prefiltered))

    states: dict[int, _CandidateState] = {}

    def expired() -> bool:
        return wall is not None and time.monotonic() >= wall

    def cut(graph_id: int) -> None:  # a prune, as in the exact path
        del states[graph_id]
        stats.pruned_by_index += 1
        stats.count_prune(SOLVER_CUTOFF)
        pruned_ids.append(graph_id)

    def slice_end(remaining: int) -> float | None:
        if wall is None:
            return None
        now = time.monotonic()
        share = max(_MIN_SLICE, (wall - now) / max(1, remaining))
        return min(wall, now + share)

    with PhaseTimer(stats, "evaluate"):
        # First pass: cascade walk + one budgeted evaluation each, under
        # a fair share of the remaining wall clock. Candidates the wall
        # clock starves are still scanned (counters, cascade prunes) and
        # enter the interval analysis with their index lower bounds.
        remaining = len(candidates)
        for candidate in candidates:
            remaining -= 1
            stats.candidates_considered += 1
            verdict: "str | tuple | None" = None
            decided: Stage | None = None
            for stage in stages:
                verdict = stage.decide(candidate)
                if verdict is not None:
                    decided = stage
                    break
            if verdict == "prune":
                stats.pruned_by_index += 1
                stats.count_prune(getattr(decided, "name", "stage"))
                pruned_ids.append(candidate.graph_id)
                continue
            state = _CandidateState(
                candidate.graph_id, candidate.bounds, spec.budget_nodes
            )
            states[state.graph_id] = state
            if isinstance(verdict, tuple):
                stats.served_from_cache += 1
                state.intervals = tuple(Interval.exact(v) for v in verdict)
                state.observed = True
                for stage in stages:
                    stage.observe(state.graph_id, verdict)
                continue
            if expired():
                continue  # starved: interval stays at the index bounds
            end = slice_end(remaining + 1)
            if not _evaluate(ctx, stages, state, end, refining=False):
                cut(state.graph_id)

        # Progressive refinement: straddlers only, widest interval first,
        # expansion budget doubled per round.
        rounds = 0
        while not expired() and rounds < _MAX_ROUNDS:
            straddlers = _straddlers(ctx, states)
            if not straddlers:
                break
            rounds += 1
            straddlers.sort(
                key=lambda s: (-_width(_intervals_of(ctx, s)), s.graph_id)
            )
            for position, state in enumerate(straddlers):
                if expired():
                    break
                if state.node_budget is not None:
                    state.node_budget *= 2
                end = slice_end(len(straddlers) - position)
                if not _evaluate(ctx, stages, state, end, refining=True):
                    cut(state.graph_id)

    # Cut pairs left ``states``: count passes (cuts included) and hits.
    progressed = anytime["passes"] > 0 or any(
        s.intervals is not None for s in states.values()
    )
    if deadline is not None and deadline.expired() and not progressed:
        deadline.check()  # raises DeadlineExceeded: zero passes completed

    straddlers = _straddlers(ctx, states)
    approximate = bool(straddlers)
    unsettled = sum(1 for s in states.values() if not s.settled)
    anytime["settled"] = len(states) - unsettled
    anytime["interval_pruned"] = unsettled - len(straddlers)
    anytime["starved"] = sum(1 for s in states.values() if s.intervals is None)
    anytime["budget_spent_ms"] = round((time.monotonic() - started) * 1000.0, 3)

    intervals_payload = {
        gid: _intervals_of(ctx, state) for gid, state in states.items()
    }
    answer_obj = _consume(ctx, states, approximate, pruned_ids)
    answer_obj.intervals = intervals_payload
    answer_obj.approximate = approximate
    return answer_obj


def _consume(
    ctx: "RunContext",
    states: dict[int, _CandidateState],
    approximate: bool,
    pruned_ids: list[int],
) -> "BackendAnswer":
    """Select the answer over intervals (see :func:`_straddlers` for the
    certification arguments; with ``approximate`` the same selections are
    best-effort over certified upper bounds)."""
    from repro.api.backends import BackendAnswer

    spec = ctx.spec
    stats = ctx.stats
    evaluated = {
        gid: state.intervals
        for gid, state in states.items()
        if state.intervals is not None
    }

    if all(state.settled for state in states.values()):
        # Fully settled: identical inputs to the exact engine, so
        # delegate to the shared consumers for answer-set parity
        # (including tolerance semantics).
        if ctx.vector_kind:
            vectors = {
                gid: CompoundSimilarity(
                    values=tuple(iv.upper for iv in intervals), measures=ctx.names
                )
                for gid, intervals in evaluated.items()
            }
            return finish_vectors(spec, vectors, stats, pruned_ids)
        distances = {
            gid: intervals[0].upper for gid, intervals in evaluated.items()
        }
        return finish_distances(spec, distances, stats, pruned_ids)

    if ctx.vector_kind:
        vectors = {
            gid: CompoundSimilarity(
                values=tuple(iv.upper for iv in intervals), measures=ctx.names
            )
            for gid, intervals in evaluated.items()
        }
        if not approximate and spec.tolerance == 0:
            entries = {
                gid: _intervals_of(ctx, state) for gid, state in states.items()
            }
            certain_in, _ = vector_membership(spec, entries)
            answer = sorted(certain_in)
        else:
            # Best effort: ordinary selection over the upper-bound
            # vectors of everything evaluated.
            with PhaseTimer(stats, "skyline"):
                answer = select(spec, vectors)
        stats.skyline_size = len(answer)
        return BackendAnswer(answer, list(vectors), vectors, None, stats, pruned_ids)

    distances = {gid: intervals[0].upper for gid, intervals in evaluated.items()}
    if spec.kind == "topk":
        answer = sorted(distances, key=lambda i: (distances[i], i))[: spec.k]
    else:
        # upper <= t certifies membership even for open intervals.
        answer = [i for i in distances if distances[i] <= spec.threshold]
        answer.sort(key=lambda i: (distances[i], i))
    return BackendAnswer(answer, list(distances), {}, distances, stats, pruned_ids)
