"""Anytime runs: budgeted evaluation with certified distance intervals.

A spec with a :attr:`~repro.api.spec.GraphQuery.budget_ms` /
``budget_nodes`` knob walks the same candidate loop as every run
(:func:`~repro.engine.core.run_plan`) under its run budget, but where an
ordinary run's deadline cancels it, an :class:`AnytimeRun` keeps the
pairs the budget leaves open and reasons over the certified ``[lower,
upper]`` :class:`~repro.graph.budget.Interval` vectors the measures
return:

1. **First pass** (:meth:`AnytimeRun.evaluate`, the walk's evaluator) —
   each survivor gets one evaluation under a fair share of the remaining
   wall clock and ``budget_nodes`` expansions. A settled vector goes back
   to the walk as the pair's exact vector, a pair proved at or above the
   leading bound stage's cap is a ``solver-cutoff`` prune, and any other
   pair stays open. Once the wall clock has run out, survivors stay open
   unsolved (starved), with their index lower bounds.
2. **Progressive refinement** (:meth:`AnytimeRun.finish`) — only open
   pairs whose intervals *straddle* the answer frontier (they could
   still change the answer) are re-evaluated, widest interval first,
   with the expansion budget doubled each round. Pairs whose intervals
   already decide their fate are never touched again.
3. **Consume over intervals** — the consumers select over intervals.
   When no straddlers remain the answer is *certified* equal to the
   exhaustive oracle's (proof sketches inline below). When the wall
   clock expires first, the answer is the best-effort selection over
   certified upper bounds, flagged ``approximate``.

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

The ambient deadline (:mod:`repro.engine.deadline`, kept as
``RunContext.hard_deadline``) caps the wall clock, and
:class:`~repro.errors.DeadlineExceeded` is raised only when no
evaluation pass (a cut counts) completed before it expired. Anytime
runs are serial: refinement resumes each open pair from the certificates
its :class:`~repro.measures.base.PairContext` keeps.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

from repro.core.gcs import CompoundSimilarity
from repro.db.stats import PhaseTimer
from repro.graph.budget import Budget, Interval
from repro.measures.base import PairContext
from repro.engine.consume import finish_distances, finish_vectors
from repro.engine.evaluate import SOLVER_CUTOFF, Evaluator, settled, solve_pair
from repro.engine.plan import Candidate, Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.backends import BackendAnswer
    from repro.engine.core import RunContext

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

    __slots__ = ("graph_id", "bounds", "context", "intervals", "node_budget")

    def __init__(self, graph_id, bounds, node_budget):
        self.graph_id = graph_id
        self.bounds = bounds
        self.context: PairContext | None = None
        self.intervals: tuple[Interval, ...] | None = None
        self.node_budget = node_budget

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

class AnytimeRun(Evaluator):
    """The evaluator of an anytime run: solves each walk survivor once
    under a slice of the run budget and keeps the pairs it leaves open,
    then answers from their intervals (see the module docstring)."""

    def __init__(self, stages: list[Stage]) -> None:
        self.stages = stages

    def begin(self, ctx: "RunContext", total: int) -> None:
        self.ctx = ctx
        self.states: dict[int, _CandidateState] = {}
        self.started = time.monotonic()
        self.wall = ctx.deadline.expires_at
        self.nodes = ctx.deadline.node_limit
        # Pairs not yet solved, for the first pass's fair wall-clock share.
        self.remaining = total
        ctx.stats.anytime = {
            "passes": 0,
            "refined": 0,
            "settled": 0,
            "interval_pruned": 0,
            "starved": 0,
            "budget_spent_ms": 0.0,
        }

    def expired(self) -> bool:
        return self.wall is not None and time.monotonic() >= self.wall

    def _evaluate(
        self, state: _CandidateState, remaining: int, refining: bool
    ) -> bool:
        """One budgeted pass over every measure dimension, under a fair
        share of the wall clock among ``remaining`` pairs; ``False`` when
        it cut the pair at the run's cap."""
        ctx = self.ctx
        anytime = ctx.stats.anytime
        end = None
        if self.wall is not None:
            now = time.monotonic()
            share = max(_MIN_SLICE, (self.wall - now) / remaining)
            end = min(self.wall, now + share)
        if state.context is None:
            graph = ctx.database.get(state.graph_id)
            state.context = PairContext(graph, ctx.spec.graph)
        budget = Budget(expires_at=end, node_limit=state.node_budget)
        values = solve_pair(ctx, state.graph_id, budget, state.context, state.bounds)
        anytime["passes"] += 1
        if refining:
            anytime["refined"] += 1
        if values == SOLVER_CUTOFF:
            return False
        base = _intervals_of(ctx, state)
        state.intervals = tuple(
            before.intersect(after) for before, after in zip(base, values)
        )
        return True

    def evaluate(
        self, ctx: "RunContext", candidate: Candidate
    ) -> "tuple[float, ...] | str | None":
        """The first pass over a walk survivor: its exact vector once
        settled, :data:`~repro.engine.evaluate.SOLVER_CUTOFF` when cut,
        else ``None`` with the pair kept open."""
        remaining = max(1, self.remaining)
        self.remaining -= 1
        state = _CandidateState(candidate.graph_id, candidate.bounds, self.nodes)
        if not self.expired():  # else starved: it keeps its index bounds
            if not self._evaluate(state, remaining, refining=False):
                return SOLVER_CUTOFF
            if state.settled:
                return settled(state.intervals)
        self.states[state.graph_id] = state
        return None

    def finish(
        self, exact: dict[int, tuple[float, ...]], pruned_ids: list[int]
    ) -> "BackendAnswer":
        """Refine the straddlers, then select over intervals. ``exact``
        holds the walk's settled vectors, ``pruned_ids`` its prunes."""
        ctx = self.ctx
        stats = ctx.stats
        anytime = stats.anytime
        states = self.states
        for graph_id, values in exact.items():
            state = _CandidateState(graph_id, None, None)
            state.intervals = tuple(Interval.exact(value) for value in values)
            states[graph_id] = state

        with PhaseTimer(stats, "evaluate"):
            # Straddlers only, widest interval first, expansion budget
            # doubled per round.
            rounds = 0
            while not self.expired() and rounds < _MAX_ROUNDS:
                straddlers = _straddlers(ctx, states)
                if not straddlers:
                    break
                rounds += 1
                straddlers.sort(
                    key=lambda s: (-_width(_intervals_of(ctx, s)), s.graph_id)
                )
                for position, state in enumerate(straddlers):
                    if self.expired():
                        break
                    if state.node_budget is not None:
                        state.node_budget *= 2
                    remaining = len(straddlers) - position
                    if not self._evaluate(state, remaining, refining=True):
                        del states[state.graph_id]  # a prune, as in the walk
                        stats.pruned_by_index += 1
                        stats.count_prune(SOLVER_CUTOFF)
                        pruned_ids.append(state.graph_id)
                    elif state.settled:
                        # Settled == exact: feed the stages as the walk
                        # does (cache write-back, bound feedback).
                        stats.exact_evaluations += 1
                        values = settled(state.intervals)
                        for stage in self.stages:
                            stage.observe(state.graph_id, values)

        hard = ctx.hard_deadline
        if hard is not None and not (anytime["passes"] or exact):
            hard.check()  # no pass completed before the deadline

        straddlers = _straddlers(ctx, states)
        approximate = bool(straddlers)
        unsettled = sum(1 for s in states.values() if not s.settled)
        anytime["settled"] = len(states) - unsettled
        anytime["interval_pruned"] = unsettled - len(straddlers)
        anytime["starved"] = sum(1 for s in states.values() if s.intervals is None)
        anytime["budget_spent_ms"] = round(
            (time.monotonic() - self.started) * 1000.0, 3
        )

        answer = _consume(ctx, states, approximate, pruned_ids)
        answer.intervals = {
            gid: _intervals_of(ctx, state) for gid, state in states.items()
        }
        answer.approximate = approximate
        return answer


def _consume(
    ctx: "RunContext",
    states: dict[int, _CandidateState],
    approximate: bool,
    pruned_ids: list[int],
) -> "BackendAnswer":
    """Select the answer over intervals (see :func:`straddler_ids` for
    the certification arguments). The shared consumers select over the
    certified upper bounds: the exact values once every interval is
    settled, a best effort when ``approximate``, and for top-k and
    threshold a certified answer whenever nothing straddles."""
    from repro.api.backends import BackendAnswer

    spec = ctx.spec
    stats = ctx.stats
    evaluated = {
        gid: state.intervals
        for gid, state in states.items()
        if state.intervals is not None
    }
    if not ctx.vector_kind:
        distances = {gid: intervals[0].upper for gid, intervals in evaluated.items()}
        return finish_distances(spec, distances, stats, pruned_ids)
    vectors = {
        gid: CompoundSimilarity(
            values=tuple(iv.upper for iv in intervals), measures=ctx.names
        )
        for gid, intervals in evaluated.items()
    }
    if approximate or all(state.settled for state in states.values()):
        return finish_vectors(spec, vectors, stats, pruned_ids)
    # Certified over open intervals (tolerance 0: see straddler_ids).
    entries = {gid: _intervals_of(ctx, state) for gid, state in states.items()}
    answer = sorted(vector_membership(spec, entries)[0])
    stats.skyline_size = len(answer)
    return BackendAnswer(answer, list(vectors), vectors, None, stats, pruned_ids)
