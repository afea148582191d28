"""Replayable workloads: concrete steps and the seed-driven generator.

A :class:`Workload` is a plain list of fully concrete :class:`Step`
objects — every graph, query spec and choice is materialized at
generation time, so the same workload replays identically forever and
any *subsequence* of its steps is still a valid workload (steps that
reference a graph handle no longer alive simply become no-ops during
replay). That subsequence property is what makes first-divergence
shrinking (:mod:`repro.testkit.shrink`) a pure list-minimization
problem.

Graphs are referenced by workload-local string handles (``"g0"``,
``"g1"``, …) rather than database ids: database ids depend on how many
inserts actually executed, which would change under shrinking; handles
are stable names the runner maps to live ids at replay time.

Everything serializes to JSON (:meth:`Workload.to_json`) so a failing
workload can be saved, attached to a bug report, and replayed with
``python -m repro fuzz --replay FILE``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.api.ops import (
    AddOp,
    MUTATION_OPS,
    RelabelOp,
    RemoveOp,
    mutation_from_dict,
    relabeled_copy,
)
from repro.api.spec import GraphQuery
from repro.datasets.synthetic import ATOMS, BONDS, molecule_like_graph
from repro.errors import SerializationError
from repro.graph.generators import mutate
from repro.graph.labeled_graph import LabeledGraph

#: The order query steps take backends in, per kind. ``indexed`` holds
#: two of the six slots: the second belonged to ``vectorized``, a
#: deleted alias of ``indexed``, and keeping the slot keeps the
#: generator's random draws, so every seed yields the workload it did.
_BACKEND_ROTATION: tuple[str, ...] = (
    "memory", "indexed", "parallel", "indexed", "sharded", "auto"
)

#: Backends every generated workload exercises. The runner's database is
#: itself sharded (see :class:`~repro.testkit.runner.WorkloadRunner`), so
#: every backend is fuzzed over the shard store and ``sharded`` adds the
#: scatter-gather execution path on top.
WORKLOAD_BACKENDS: tuple[str, ...] = tuple(dict.fromkeys(_BACKEND_ROTATION))

#: GCS measure subsets queries cycle through (``None`` = paper default).
MEASURE_POOLS: tuple[tuple[str, ...] | None, ...] = (
    None,
    ("edit",),
    ("edit", "mcs"),
    ("mcs", "union"),
    ("edit", "mcs", "union"),
)


@dataclass(frozen=True)
class Step:
    """Base of all workload steps; subclasses set :attr:`op`."""

    op: ClassVar[str] = "step"

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op}

    def describe(self) -> str:
        return self.op


@dataclass(frozen=True)
class AddGraph(AddOp, Step):
    """Insert ``graph`` under the workload-local ``handle`` (no-op if the
    handle is already live).

    Fields and wire encoding come from :class:`repro.api.ops.AddOp` —
    the same payload the server's mutate endpoint accepts.
    """

    def describe(self) -> str:
        return (
            f"add {self.handle} ({self.graph.order} vertices, "
            f"{self.graph.size} edges)"
        )


@dataclass(frozen=True)
class RemoveGraph(RemoveOp, Step):
    """Remove the graph stored under ``handle`` (no-op if not live)."""

    def describe(self) -> str:
        return f"remove {self.handle}"


@dataclass(frozen=True)
class RelabelGraph(RelabelOp, Step):
    """Relabel one vertex of ``handle``'s graph; the relabeled copy
    replaces the original under ``new_handle`` (remove + insert, the
    database's only update path). No-op if ``handle`` is not live or
    ``new_handle`` already is.
    """

    def describe(self) -> str:
        return (
            f"relabel {self.handle} vertex[{self.vertex_index}] -> "
            f"{self.label!r} as {self.new_handle}"
        )


@dataclass(frozen=True)
class RunQuery(Step):
    """Execute ``query`` on ``backend`` with cache off AND on; both
    answers must equal the oracle's."""

    query: GraphQuery
    backend: str

    op: ClassVar[str] = "query"

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "backend": self.backend,
            "query": self.query.to_dict(),
        }

    def describe(self) -> str:
        return f"{self.query.kind} query on {self.backend!r}"


@dataclass(frozen=True)
class WatchView(Step):
    """Open (or replace) the live view ``view_id`` over a skyline spec."""

    view_id: str
    query: GraphQuery

    op: ClassVar[str] = "watch"

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "view_id": self.view_id,
            "query": self.query.to_dict(),
        }

    def describe(self) -> str:
        return f"watch live view {self.view_id}"


@dataclass(frozen=True)
class CheckViews(Step):
    """Assert every open live view equals the oracle's skyline."""

    op: ClassVar[str] = "check-views"

    def describe(self) -> str:
        return "check live views against oracle"


@dataclass(frozen=True)
class SaveLoad(Step):
    """Persistence round-trip: save the database, load it back, and
    answer ``query`` on the loaded copy; the answer (as a multiset of
    graph payloads) must match the oracle's over the live database."""

    query: GraphQuery

    op: ClassVar[str] = "save-load"

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op, "query": self.query.to_dict()}

    def describe(self) -> str:
        return "save/load round-trip + query parity"


_STEP_TYPES: dict[str, type[Step]] = {
    cls.op: cls
    for cls in (
        AddGraph,
        RemoveGraph,
        RelabelGraph,
        RunQuery,
        WatchView,
        CheckViews,
        SaveLoad,
    )
}


#: Workload step class per shared mutation op name.
_MUTATION_STEPS: dict[str, type[Step]] = {
    AddGraph.op: AddGraph,
    RemoveGraph.op: RemoveGraph,
    RelabelGraph.op: RelabelGraph,
}
assert set(_MUTATION_STEPS) == set(MUTATION_OPS)


def step_from_dict(payload: dict[str, Any]) -> Step:
    """Rebuild one step from its :meth:`Step.to_dict` payload.

    Mutation steps decode through the shared
    :func:`repro.api.ops.mutation_from_dict`, so the testkit and the
    server accept (and reject) exactly the same payloads.
    """
    try:
        op = payload["op"]
        cls = _STEP_TYPES[op]
    except KeyError as exc:
        raise SerializationError(f"malformed workload step: {exc}") from exc
    if op in _MUTATION_STEPS:
        decoded = mutation_from_dict(payload)
        if isinstance(decoded, AddOp):
            return AddGraph(decoded.handle, decoded.graph)
        if isinstance(decoded, RemoveOp):
            return RemoveGraph(decoded.handle)
        return RelabelGraph(
            decoded.handle,
            decoded.new_handle,
            decoded.vertex_index,
            decoded.label,
        )
    if cls is RunQuery:
        return RunQuery(GraphQuery.from_dict(payload["query"]), payload["backend"])
    if cls is WatchView:
        return WatchView(payload["view_id"], GraphQuery.from_dict(payload["query"]))
    if cls is SaveLoad:
        return SaveLoad(GraphQuery.from_dict(payload["query"]))
    return CheckViews()


@dataclass(frozen=True)
class Workload:
    """A replayable step sequence (plus the seed it was derived from)."""

    seed: int
    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Workload":
        try:
            steps = tuple(step_from_dict(step) for step in payload["steps"])
            return cls(seed=int(payload.get("seed", 0)), steps=steps)
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"malformed workload payload: {exc}") from exc

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "Workload":
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"malformed workload JSON: {exc}") from exc
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def _query_graph(
    rng: random.Random,
    live: dict[str, LabeledGraph],
    max_vertices: int,
    recent: list[LabeledGraph],
) -> LabeledGraph:
    """A query graph: a re-used earlier query (exercising cross-query
    PairCache sharing), a mutant of a live graph, or a fresh molecule."""
    if recent and rng.random() < 0.3:
        return rng.choice(recent)
    if live and rng.random() < 0.5:
        base = live[rng.choice(sorted(live))]
        return mutate(
            base,
            rng.randint(1, 2),
            vertex_labels=ATOMS,
            edge_labels=BONDS,
            seed=rng,
            name="q",
        )
    return molecule_like_graph(rng.randint(3, max_vertices), seed=rng, name="q")


def _query_spec(
    rng: random.Random,
    graph: LabeledGraph,
    kind: str,
    budgeted: bool = False,
) -> GraphQuery:
    """One concrete validated spec of ``kind``.

    About one spec in seven carries tolerance 0.25 on every backend.
    Tolerant dominance is not transitive, so every backend runs such a
    spec unpruned (``QueryPlanner.prunes``) and selects its answer by the
    definition; the answer must equal the oracle's.

    With ``budgeted`` (``RunQuery`` steps only — live views don't take
    budgets), a slice of specs carries ``budget_nodes``: a pure expansion
    budget with no wall clock, so the anytime engine refines until the
    intervals certify and the answer must still equal the exhaustive
    oracle's — fuzzing the whole budgeted path deterministically.
    """
    measures = rng.choice(MEASURE_POOLS)
    tolerance = 0.25 if rng.random() < 0.15 else 0.0
    limit = rng.randint(1, 4) if rng.random() < 0.2 else None
    kwargs: dict[str, Any] = {
        "graph": graph,
        "kind": kind,
        "measures": measures,
        "tolerance": tolerance,
        "limit": limit,
    }
    if kind in ("skyband", "topk"):
        kwargs["k"] = rng.randint(1, 4)
    if kind in ("topk", "threshold"):
        kwargs["measure"] = rng.choice(("edit", "mcs", "union", None))
    if kind == "threshold":
        kwargs["threshold"] = round(rng.uniform(0.5, 6.0), 3)
    if kind in ("skyline", "skyband") and tolerance == 0.0 and rng.random() < 0.1:
        kwargs["refine_k"] = 2
        kwargs["refine_method"] = rng.choice(("exhaustive", "greedy"))
    if budgeted and rng.random() < 0.2:
        kwargs["budget_nodes"] = rng.choice((50, 500, 5000))
    return GraphQuery(**kwargs).validate()


def renumbered(graph: LabeledGraph) -> LabeledGraph:
    """An isomorphic copy of ``graph`` over vertex ids ``0..n-1`` in
    reverse order, inserted in reverse order."""
    vertices = graph.vertices()
    rename = {vertex: len(vertices) - 1 - i for i, vertex in enumerate(vertices)}
    copy = LabeledGraph(name=graph.name)
    for vertex in reversed(vertices):
        copy.add_vertex(rename[vertex], graph.vertex_label(vertex))
    for u, v, label in graph.edges():
        copy.add_edge(rename[u], rename[v], label)
    return copy


def _repeated(rng: random.Random, earlier: list[RunQuery]) -> RunQuery:
    """One of the last three repeatable query steps again, verbatim or
    over an isomorphic renumbering of its graph. Whether a mutation
    landed in between decides if a cached session may serve it from its
    answer store, so repeats fuzz both the hit and the forced miss."""
    step = rng.choice(earlier[-3:])
    if rng.random() < 0.5:
        return step
    graph = renumbered(step.query.graph)
    return RunQuery(dataclasses.replace(step.query, graph=graph), step.backend)


def _burst(
    rng: random.Random, step: RunQuery, handles: list[str]
) -> list[Step]:
    """Adds of near mutants of ``step``'s query graph (under ``handles``),
    ``step`` again, then removes of the same graphs. A cached session
    replays the re-read over the adds (the database is back as it was
    afterwards). A mutant's edit bound is mostly exact, so the replay
    judges graphs whose bounds sit right at its cutoffs: one or two edit
    operations each, and for a threshold spec as many as the threshold's
    whole part, a graph just inside it."""
    spec = step.query
    operations = [rng.randint(1, 2) for _ in handles]
    if spec.kind == "threshold":
        operations[0] = int(spec.threshold)
    return [
        *(
            AddGraph(
                handle,
                mutate(spec.graph, count, ATOMS, BONDS, seed=rng, name=handle),
            )
            for handle, count in zip(handles, operations)
        ),
        step,
        *(RemoveGraph(handle) for handle in handles),
    ]


def generate_workload(
    seed: int,
    n_steps: int,
    max_vertices: int = 5,
    max_live: int = 10,
    max_views: int = 3,
) -> Workload:
    """Derive a concrete workload deterministically from ``seed``.

    The step mix interleaves mutations (~40%, add-biased until
    ``max_live`` graphs are live), queries (~42%, cycling through every
    (kind, backend) combination so all 20 are covered), live-view opens
    and checks, and persistence round-trips. ``max_vertices`` bounds
    graph size (exact GED/MCS solving is exponential, and the harness
    must stay fast).

    After the first full cycle of combinations, a quarter of the query
    steps are followed by an extra step repeating an earlier query (see
    :func:`_repeated`). From the start, one query step in five is
    followed by a burst: adds of near mutants of its query graph, the
    same query again, and removes of the mutants (see :func:`_burst`).
    Anytime specs are never repeated or re-read: they bypass the answer
    store. The repeat and burst draws come from their own
    seed-derived generators, and a burst (handles ``b0``, ``b1``, …)
    leaves the live graphs as it found them, so the other steps are, in
    order, those of the same workload without repeats and bursts; the
    workload keeps ``n_steps`` steps, so the extra steps displace its
    tail, and a burst that would not fit whole is left out.
    """
    rng = random.Random(seed)
    repeat = random.Random(f"repeat-{seed}")
    burst = random.Random(f"burst-{seed}")
    burst_handles = itertools.count()
    earlier: list[RunQuery] = []
    combos = [
        (kind, backend)
        for kind in ("skyline", "skyband", "topk", "threshold")
        for backend in _BACKEND_ROTATION
    ]
    rng.shuffle(combos)
    combo_cursor = 0

    live: dict[str, LabeledGraph] = {}
    recent_queries: list[LabeledGraph] = []
    views_open = 0
    counter = 0
    steps: list[Step] = []

    def fresh_handle() -> str:
        nonlocal counter
        handle = f"g{counter}"
        counter += 1
        return handle

    def add_step() -> Step:
        handle = fresh_handle()
        graph = molecule_like_graph(
            rng.randint(3, max_vertices), seed=rng, name=handle
        )
        live[handle] = graph
        return AddGraph(handle, graph)

    while len(steps) < n_steps:
        if len(live) < 3:
            steps.append(add_step())
            continue
        roll = rng.random()
        if roll < 0.22:
            if len(live) >= max_live:
                victim = rng.choice(sorted(live))
                del live[victim]
                steps.append(RemoveGraph(victim))
            else:
                steps.append(add_step())
        elif roll < 0.32:
            victim = rng.choice(sorted(live))
            del live[victim]
            steps.append(RemoveGraph(victim))
        elif roll < 0.39:
            handle = rng.choice(sorted(live))
            new_handle = fresh_handle()
            original = live.pop(handle)
            index = rng.randrange(max(original.order, 1))
            label = rng.choice(ATOMS)
            live[new_handle] = relabeled_copy(original, index, label, new_handle)
            steps.append(RelabelGraph(handle, new_handle, index, label))
        elif roll < 0.81:
            kind, backend = combos[combo_cursor % len(combos)]
            combo_cursor += 1
            spec = _query_spec(
                rng,
                _query_graph(rng, live, max_vertices, recent_queries),
                kind,
                budgeted=True,
            )
            recent_queries.append(spec.graph)
            del recent_queries[:-5]
            query_step = RunQuery(spec, backend)
            steps.append(query_step)
            if not spec.anytime:
                earlier.append(query_step)
            if (
                earlier
                and combo_cursor > len(combos)
                and len(steps) < n_steps
                and repeat.random() < 0.25
            ):
                steps.append(_repeated(repeat, earlier))
            if not spec.anytime and burst.random() < 0.2:
                handles = [
                    f"b{next(burst_handles)}" for _ in range(burst.randint(2, 3))
                ]
                if len(steps) + 2 * len(handles) < n_steps:
                    steps.extend(_burst(burst, query_step, handles))
        elif roll < 0.86 and views_open < max_views:
            spec = _query_spec(
                rng, _query_graph(rng, live, max_vertices, recent_queries), "skyline"
            )
            steps.append(WatchView(f"v{views_open}", spec))
            views_open += 1
        elif roll < 0.94:
            steps.append(CheckViews())
        else:
            spec = _query_spec(
                rng, _query_graph(rng, live, max_vertices, recent_queries), "skyline"
            )
            steps.append(SaveLoad(spec))
    return Workload(seed=seed, steps=tuple(steps))
