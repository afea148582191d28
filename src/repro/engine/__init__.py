"""Staged evaluation engine: the one execution path behind every backend.

Every query the library answers — through sessions, the server, the CLI
or the benches — runs as an :class:`EvaluationPlan` in this package:

    candidate source → pruning cascade → exact evaluator → consumer

Every backend name is a preset of one executor
(:mod:`repro.api.backends`) that picks a plan decision per query and
assembles it from these parts; nothing else in the codebase owns a
candidate loop. The pieces compose freely:

* sources — :class:`DatabaseOrderSource` (exhaustive),
  :class:`repro.index.IndexedSource` (batched lower bounds over the
  packed feature matrix, best first) and
  :class:`~repro.engine.plan.DeltaSource` (a replay's added graphs,
  bounded row by row);
* cascade stages — :func:`bound_pruning` (Pareto / top-k cutoff /
  threshold bounds, per query kind) and :func:`cached_pairs` (the shared
  :class:`~repro.db.cache.PairCache`); custom :class:`Stage`
  implementations plug in alongside;
* evaluators — :class:`SerialEvaluator` (interleaved, feeds the bound
  stages; every pruning plan) and :class:`PooledEvaluator` (chunked
  batching on the persistent worker pool, :mod:`repro.engine.workers`;
  the exhaustive ``parallel`` preset only);
* scatter-gather — :class:`ShardedSource` (per-shard candidate sources
  over shard-local indexes) plus the :class:`SkylineMerge` /
  :class:`FrontierMerge` gather consumers, and :func:`scatter_run`, the
  one scatter loop behind the ``sharded`` and ``auto`` backends
  (:mod:`repro.engine.scatter`);
* :class:`LiveView` — any query's answer kept equal to executing it
  under database mutation (``Session.watch``): one answer entry read
  through ``Session.execute``'s path, so a refresh is a hit, a replay
  over the change log or a full pruned run;
* budgets — every run evaluates under one
  :class:`~repro.graph.budget.Budget`: the spec's ``budget_ms`` /
  ``budget_nodes`` and the ambient deadline :func:`deadline_scope`
  sets (:mod:`repro.engine.deadline`, the hook ``repro.server`` cancels
  expired queries through). The searches stop inside a pair once it is
  spent. An ordinary run then raises
  :class:`~repro.errors.DeadlineExceeded`; an anytime run (a spec with
  a budget knob) keeps the open pairs, refines them after the walk and
  selects over certified ``[lower, upper]`` intervals
  (:mod:`repro.engine.anytime`).

:func:`run_plan` drives a plan; soundness of every cascade stage (a
pruned candidate never appears in the exhaustive answer) is
property-tested in ``tests/test_engine_cascade_property.py``.
"""

from repro.engine.plan import (
    Candidate,
    CandidateBlock,
    CandidateSource,
    CachedPairStage,
    DatabaseOrderSource,
    EvaluationPlan,
    ParetoPruneStage,
    RankBoundStage,
    Stage,
    ThresholdBoundStage,
    bound_pruning,
    cached_pairs,
)
from repro.engine.evaluate import (
    Evaluator,
    SerialEvaluator,
    pair_values,
)
from repro.engine.workers import (
    PooledEvaluator,
    WorkerPool,
    WorkerPoolError,
    get_pool,
    shutdown_pool,
)
from repro.engine.core import RunContext, make_context, run_plan
from repro.engine.planner import PlanDecision, QueryPlanner
from repro.engine.deadline import current_deadline, deadline_scope
from repro.engine.scatter import (
    FrontierMerge,
    MergeConsumer,
    ShardedSource,
    SkylineMerge,
    merge_consumer,
    merged_stats,
    scatter_run,
)
from repro.engine.views import LiveView

__all__ = [
    "Candidate",
    "CandidateBlock",
    "CandidateSource",
    "CachedPairStage",
    "DatabaseOrderSource",
    "EvaluationPlan",
    "ParetoPruneStage",
    "RankBoundStage",
    "Stage",
    "ThresholdBoundStage",
    "bound_pruning",
    "cached_pairs",
    "Evaluator",
    "PooledEvaluator",
    "SerialEvaluator",
    "pair_values",
    "WorkerPool",
    "WorkerPoolError",
    "get_pool",
    "shutdown_pool",
    "RunContext",
    "make_context",
    "run_plan",
    "PlanDecision",
    "QueryPlanner",
    "current_deadline",
    "deadline_scope",
    "FrontierMerge",
    "MergeConsumer",
    "ShardedSource",
    "SkylineMerge",
    "merge_consumer",
    "merged_stats",
    "scatter_run",
    "LiveView",
]
