"""The four benchmark workloads.

Each workload turns ``(seed, scale)`` into graphs, specs and a fixed op
list *before* anything is timed; the program under test only ever sees
those generated inputs, never a workload name. A pass is::

    setup()          # untimed as an op, reported as setup_s
    execute(op) ...  # each call is one timed op
    finish()         # recovery + durability checks
    teardown()

and every pass starts from the same state, so op *i* does the same work
in every pass (the per-op estimator in ``harness`` relies on it).

What ``--seed`` changes, and what it does not: the corpus, the query
graphs and the pools of fresh graphs are generated from the frozen
:data:`CORPUS_SEED`; the seed decides the *arrangement* — op order,
which fresh graph is written when, which victim a remove/relabel hits.
Exact GED/MCS cost is heavy-tailed in graph structure (a 6-vertex pair
costs 6x a 5-vertex one), so a seed-derived corpus moves every latency
metric by far more than any regression bound; see README.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro
import repro.api.ops as ops_module
from repro.api.ops import AddOp, MutationOp, RelabelOp, RemoveOp
from repro.api.spec import GraphQuery
from repro.datasets.synthetic import ATOMS, BONDS, make_workload, molecule_like_graph
from repro.db import DurableLog, PairCache
from repro.db import wal as wal_module
from repro.graph.canonical import canonical_hash
from repro.graph.generators import mutate
from repro.graph.labeled_graph import LabeledGraph
from repro.server import ServerConfig, serve_in_thread
from repro.shard import ShardedGraphDatabase

#: Frozen seed of every corpus, query set and fresh-graph pool.
CORPUS_SEED = 20110411
#: Scale of the differential twin and of ``--quick`` runs.
TWIN_SCALE = 0.05


@dataclass(frozen=True)
class Op:
    """One generated operation: ``read`` (a query spec), ``write`` (a
    mutation) or ``compact`` (fold the log at a fixed op index)."""

    kind: str
    payload: Any
    label: str
    #: Pre-encoded HTTP body (served workloads; encoded before timing).
    wire: bytes = b""


def quotas(weights: list[float], total: int) -> list[int]:
    """Split ``total`` draws by ``weights`` (largest remainder), so the
    multiset of draws is fixed and only its order is left to the seed."""
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - exact[i], i)
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_draws(
    n_items: int, n_draws: int, rng: random.Random, exponent: float = 1.0
) -> list[int]:
    """``n_draws`` item indices with Zipf-like frequencies (item ``r`` is
    drawn proportionally to ``1 / (r + 1) ** exponent``), shuffled."""
    counts = quotas(
        [1.0 / (rank + 1) ** exponent for rank in range(n_items)], n_draws
    )
    draws = [item for item, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(draws)
    return draws


def arrange(ops: list, frozen: random.Random, rng: random.Random, block: int = 10) -> list:
    """Order ``ops``: which block of ``block`` consecutive ops each one
    falls in is frozen with the corpus, the seed orders the ops inside
    each block. The adaptive planner's running profile makes an op's
    cost depend on the ops before it, so a free shuffle moves
    ``queries_per_s`` by ~10 % from seed to seed (measured)."""
    ops = list(ops)
    frozen.shuffle(ops)
    arranged = []
    for start in range(0, len(ops), block):
        chunk = ops[start : start + block]
        rng.shuffle(chunk)
        arranged.extend(chunk)
    return arranged


def _spec(graph: LabeledGraph, kind: str, **fields: Any) -> GraphQuery:
    return GraphQuery(graph=graph, kind=kind, **fields).validate()


def _read(spec: GraphQuery, label: str) -> Op:
    return Op("read", spec, label)


class Workload:
    """Base: sizing, the pass protocol, the shared library session."""

    name = "workload"
    #: Graphs in the full-scale corpus.
    corpus_size = 0

    def __init__(
        self,
        seed: int,
        scale: float = 1.0,
        corpus_seed: int = CORPUS_SEED,
        tmp_root: "Path | None" = None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.corpus_seed = corpus_seed
        self.tmp_root = tmp_root
        self.rng = random.Random(seed)
        self.pass_index = 0
        self.corpus: list[LabeledGraph] = []
        self.ops: list[Op] = []
        #: Time of the first query of the last setup (index build).
        self.first_query_s = 0.0
        #: ``source_ms`` of steady warm-up reads of the last setup.
        self.warm_source_ms: list[float] = []
        self.generate()

    # -- sizing ------------------------------------------------------------
    def scaled(self, full: int, floor: int = 1) -> int:
        return full if self.scale >= 1 else max(floor, int(full * self.scale))

    def corpus_n(self) -> int:
        """Twin corpora are 24-30 graphs: the exhaustive ``memory``
        backend solves every pair of every twin read."""
        if self.scale >= 1:
            return self.corpus_size
        return max(24, min(30, int(self.corpus_size * self.scale)))

    def handles(self) -> dict[str, int]:
        """Initial handle book: graph names, ids in insertion order."""
        return {graph.name: index for index, graph in enumerate(self.corpus)}

    # -- the pass protocol -------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, op: Op) -> dict[str, Any]:
        raise NotImplementedError

    def finish(self) -> dict[str, Any]:
        return {}

    def teardown(self) -> None:
        self.pass_index += 1

    def diagnostics(self) -> dict[str, float]:
        """Traced-run extras measured on the live pass state."""
        return {}

    def cache(self) -> "PairCache | None":
        return None

    def database_size(self) -> int:
        return 0

    # -- shared library paths ----------------------------------------------
    def _open_session(self, database: Any) -> None:
        self.database = database
        self.pair_cache = PairCache()
        self.session = repro.connect(
            database, backend="auto", max_workers=1, cache=self.pair_cache
        )

    def _library_read(self, spec: GraphQuery) -> dict[str, Any]:
        return self.session.execute(spec).to_dict()

    def _data_dir(self) -> Path:
        assert self.tmp_root is not None
        path = self.tmp_root / f"{self.name}-pass{self.pass_index}"
        if path.exists():
            shutil.rmtree(path)
        return path


class LibraryReads(Workload):
    """A read-only pass over one monolithic database through a session."""

    def execute(self, op: Op) -> dict[str, Any]:
        return self._library_read(op.payload)

    def teardown(self) -> None:
        self.session.close()
        super().teardown()

    def cache(self) -> PairCache:
        return self.pair_cache

    def database_size(self) -> int:
        return len(self.database)


class SolverCold(LibraryReads):
    """Distinct cold queries over a small database: after pruning, the
    exact GED/MCS solvers are the wall clock."""

    name = "solver_cold"
    corpus_size = 30
    bases = 5
    query_size = 4
    reads = 200
    kinds = ("skyline", "skyband", "topk", "threshold")

    def generate(self) -> None:
        base = make_workload(
            self.corpus_n(),
            n_queries=self.bases,
            query_size=self.query_size,
            mutant_fraction=0.8,
            radius=(1, 3),
            seed=self.corpus_seed,
        )
        self.corpus = base.database
        frozen = random.Random(self.corpus_seed + 1)
        reads = []
        seen: set[str] = set()
        for index in range(self.scaled(self.reads, floor=12)):
            # Distinct up to isomorphism, so no op is served by a pair an
            # earlier op solved: cold by construction.
            while True:
                graph = mutate(
                    base.queries[index % self.bases],
                    frozen.randint(1, 2),
                    vertex_labels=ATOMS,
                    edge_labels=BONDS,
                    seed=frozen,
                    name=f"q{index}",
                )
                if canonical_hash(graph) not in seen:
                    seen.add(canonical_hash(graph))
                    break
            kind = self.kinds[(index // self.bases) % len(self.kinds)]
            fields: dict[str, Any] = {
                "skyline": {},
                "skyband": {"k": 2},
                "topk": {"k": 3},
                "threshold": {"threshold": 1.0},
            }[kind]
            if index % 6 == 5:
                fields = dict(fields, budget_nodes=64)
            reads.append(_read(_spec(graph, kind, **fields), f"{kind}/q{index}"))
        self.ops = arrange(reads, frozen, self.rng)
        #: Builds the index without touching a pair: nothing lies within
        #: distance 0 of a lone vertex.
        lone = LabeledGraph(name="lone")
        lone.add_vertex(0, label="C")
        self.index_probe = _spec(lone, "threshold", threshold=0.0)

    def setup(self) -> None:
        self._open_session(repro.GraphDatabase.from_graphs(self.corpus))
        begin = time.perf_counter()
        self.session.execute(self.index_probe)
        self.first_query_s = time.perf_counter() - begin

    def diagnostics(self) -> dict[str, float]:
        """Six fixed cold ops on default ``auto`` (may go pooled) against
        ``max_workers=1`` — the number ROADMAP item 5 will need."""
        from repro.engine.workers import shutdown_pool

        specs = sorted(self.ops, key=lambda op: op.label)[
            :: max(1, len(self.ops) // 6)
        ][:6]
        result = {}
        for key, options in (("serial", {"max_workers": 1}), ("pooled", {})):
            database = repro.GraphDatabase.from_graphs(self.corpus)
            with repro.connect(
                database, backend="auto", cache=PairCache(), **options
            ) as session:
                begin = time.perf_counter()
                evals = sum(
                    session.execute(op.payload).stats.exact_evaluations
                    for op in specs
                )
                result[f"{key}_s"] = time.perf_counter() - begin
                result[f"{key}_evals"] = evals
        shutdown_pool()
        return {
            "workers.pooled_over_serial": result["pooled_s"] / result["serial_s"],
            "workers.pooled_evals": result["pooled_evals"],
            "workers.serial_evals": result["serial_evals"],
        }


class BoundScan(LibraryReads):
    """Warm repeated specs over the 5 000-graph database: every pair is
    pruned or cache-served, so index, cascade, skyline and result
    packaging are the wall clock and the solvers are idle."""

    name = "bound_scan"
    corpus_size = 5000
    queries = 6
    query_size = 4
    mutant_fraction = 0.2
    reads = 200
    #: (kind, fields, query graphs carrying such a spec, share of the
    #: draws). The cheap kinds set the median, the skylines are the tail.
    #: Warming one query graph costs ~150 exact pairs at this size
    #: whatever the kind, and set-up repeats per pass, so the specs share
    #: few query graphs.
    mix = (
        ("threshold", {"threshold": 1.0}, 6, 0.55),
        ("topk", {"k": 3}, 6, 0.35),
        ("skyline", {}, 2, 0.10),
    )

    def generate(self) -> None:
        base = make_workload(
            self.corpus_n(),
            n_queries=self.queries,
            query_size=self.query_size,
            mutant_fraction=self.mutant_fraction,
            radius=(1, 3),
            seed=self.corpus_seed,
        )
        self.corpus = base.database
        by_kind = [
            [
                _read(_spec(graph, kind, **fields), f"{kind}/q{index}")
                for index, graph in enumerate(base.queries[:carriers])
            ]
            for kind, fields, carriers, _ in self.mix
        ]
        self.specs = [op for group in by_kind for op in group]
        counts = quotas(
            [share for *_, share in self.mix], self.scaled(self.reads, floor=12)
        )
        reads = [
            group[draw % len(group)]
            for group, count in zip(by_kind, counts)
            for draw in range(count)
        ]
        self.ops = arrange(reads, random.Random(self.corpus_seed + 1), self.rng)

    def setup(self) -> None:
        self._open_session(repro.GraphDatabase.from_graphs(self.corpus))
        begin = time.perf_counter()
        self.session.execute(self.specs[0].payload)
        self.first_query_s = time.perf_counter() - begin
        for op in self.specs[1:]:
            self.session.execute(op.payload)


def _fresh_graphs(count: int, seed: int, prefix: str) -> list[LabeledGraph]:
    rng = random.Random(seed)
    return [
        molecule_like_graph(rng.choice((4, 5, 5, 6)), seed=rng, name=f"{prefix}-{i}")
        for i in range(count)
    ]


def _fingerprint(database: Any, id_to_handle: dict[int, str]) -> list[tuple]:
    """What recovery must reproduce: ids, shard placement, handles and
    canonical hashes."""
    return sorted(
        (
            graph_id,
            database.shard_of(graph_id),
            id_to_handle.get(graph_id),
            database.entry(graph_id).iso_hash,
        )
        for graph_id in database.ids()
    )


def _dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.iterdir() if item.is_file())


def _durability_report(
    data_dir: Path, live: list[tuple], lsns: list[int]
) -> dict[str, Any]:
    """Recover from the bytes the pass left behind and compare."""
    wal_bytes = _dir_bytes(data_dir)
    begin = time.perf_counter()
    state = wal_module.recover(data_dir)
    recover_s = time.perf_counter() - begin
    return {
        "recover_s": recover_s,
        "replayed": state.replayed,
        "wal_bytes": wal_bytes,
        "acked": len(lsns),
        "recovered_equal": _fingerprint(state.database, state.id_to_handle) == live,
        "lsns_increasing": all(a < b for a, b in zip(lsns, lsns[1:])),
    }


class ServedMixed(Workload):
    """One keep-alive HTTP client against the in-thread server: the only
    path through wire, admission, locks, scatter/merge and WAL ack, with
    writes beside reads."""

    name = "served_mixed"
    corpus_size = 1500
    queries = 8
    query_size = 4
    n_ops = 250
    write_every = 10

    def generate(self) -> None:
        base = make_workload(
            self.corpus_n(),
            n_queries=self.queries,
            query_size=self.query_size,
            mutant_fraction=0.2,
            radius=(1, 3),
            seed=self.corpus_seed,
        )
        self.corpus = base.database
        # Kind-major, so the Zipf ranks run from the cheap thresholds to
        # the skylines: ~10 % of the draws are skylines, the tail.
        self.specs = [
            _wired(_read(_spec(graph, kind, **fields), f"{kind}/q{index}"))
            for kind, fields in (
                ("threshold", {"threshold": 1.0}),
                ("topk", {"k": 3}),
                ("skyline", {}),
            )
            for index, graph in enumerate(base.queries)
        ]
        n_ops = self.scaled(self.n_ops, floor=20)
        n_writes = n_ops // self.write_every
        fresh = _fresh_graphs(n_writes, self.corpus_seed + 2, "fresh")
        # Which specs are read between which two writes is frozen with
        # the corpus; the seed orders the reads inside each such block.
        # A free shuffle moves the cold pairs of each add onto cheap or
        # expensive reads and queries_per_s by 10 % (measured).
        draws = zipf_draws(
            len(self.specs), n_ops - n_writes, random.Random(self.corpus_seed + 4)
        )
        ops: list[Op] = []
        for graph in fresh:
            block = [self.specs[draws.pop()] for _ in range(self.write_every - 1)]
            self.rng.shuffle(block)
            block.insert(
                self.write_every // 2,
                _wired(Op("write", AddOp(graph.name, graph), "add")),
            )
            ops.extend(block)
        self.ops = ops

    # -- pass ---------------------------------------------------------------
    def setup(self) -> None:
        self.data_dir = self._data_dir()
        self._stack = contextlib.ExitStack()
        self.server = self._stack.enter_context(
            serve_in_thread(
                repro.GraphDatabase.from_graphs(self.corpus),
                ServerConfig(
                    backend="auto",
                    shards=2,
                    data_dir=str(self.data_dir),
                    sync="always",
                    compact_every=0,
                ),
            )
        )
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=120
        )
        self._stack.callback(self.conn.close)
        self.id_to_handle = {i: h for h, i in self.handles().items()}
        self.lsns: list[int] = []
        # ServerConfig has no worker knob and the served ``auto`` moves
        # every exact pair to the process pool once a cold burst has
        # started it. Solving the cold pairs here, serially, into the
        # server's shared cache keeps the pool unstarted, so the served
        # reads stay on one thread like the library workloads'
        # ``max_workers=1`` (the run counts pooled reads; expected 0).
        with repro.connect(
            self.server.database,
            backend="auto",
            max_workers=1,
            cache=self.server.cache,
        ) as warm:
            for op in self.specs:
                warm.execute(op.payload)
        for index, op in enumerate(self.specs):
            begin = time.perf_counter()
            payload = self.execute(op)
            if index == 0:
                self.first_query_s = time.perf_counter() - begin
            if "error" in payload:
                raise RuntimeError(f"warm-up read failed: {payload}")

    def _request(self, method: str, path: str, body: "bytes | None" = None) -> dict:
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        data = response.read()
        if response.status != 200:
            return {"error": response.status, "body": data.decode("utf-8", "replace")}
        return json.loads(data)

    def execute(self, op: Op) -> dict[str, Any]:
        if op.kind == "read":
            return self._request("POST", "/v1/query", op.wire)
        ack = self._request("POST", "/v1/mutate", op.wire)
        if "error" not in ack:
            self.id_to_handle[ack["graph_id"]] = ack["handle"]
            self.lsns.append(ack["lsn"])
        return ack

    def finish(self) -> dict[str, Any]:
        stats = self._request("GET", "/v1/stats")
        self.conn.close()
        live = _fingerprint(self.server.database, self.id_to_handle)
        self._stack.close()  # stops the server; the log is closed
        report = _durability_report(self.data_dir, live, self.lsns)
        report["admission"] = stats.get("admission", {})
        return report

    def teardown(self) -> None:
        self._stack.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        super().teardown()

    def cache(self) -> PairCache:
        return self.server.cache

    def database_size(self) -> int:
        return len(self.server.database)

    def diagnostics(self) -> dict[str, float]:
        """Wire overhead against the same specs in process, health RTT,
        and the read list from two concurrent clients (ungated)."""
        import statistics
        import threading

        reads = [op for op in self.ops if op.kind == "read"]
        rounds = 3
        served = [
            min(_timed(self.execute, op) for _ in range(rounds))
            for op in self.specs
        ]
        with repro.connect(
            self.server.database,
            backend="auto",
            max_workers=1,
            cache=self.server.cache,
        ) as session:
            session.execute(self.specs[0].payload)  # builds this session's index
            local = [
                min(
                    _timed(lambda op: session.execute(op.payload).to_dict(), op)
                    for _ in range(rounds)
                )
                for op in self.specs
            ]
        wire = [over - under for over, under in zip(served, local)]
        health = [
            _timed(lambda _: self._request("GET", "/v1/health"), None)
            for _ in range(50)
        ]

        def client() -> None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", self.server.port, timeout=120
            )
            try:
                for op in reads:
                    conn.request("POST", "/v1/query", body=op.wire)
                    conn.getresponse().read()
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(2)]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        elapsed = time.perf_counter() - begin
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("concurrent clients did not finish")
        return {
            "server.wire_overhead_ms": statistics.median(wire) * 1000.0,
            "server.health_rtt_ms": statistics.median(health) * 1000.0,
            "server.c2_queries_per_s": 2 * len(reads) / elapsed,
        }


def _wired(op: Op) -> Op:
    body = json.dumps(op.payload.to_dict()).encode("utf-8")
    return dataclasses.replace(op, wire=body)


def _timed(call: Any, argument: Any) -> float:
    begin = time.perf_counter()
    call(argument)
    return time.perf_counter() - begin


class IngestRecover(Workload):
    """Write-dominated: durable mutations invalidate the indexes
    constantly, a read rides every tenth write, the log is compacted at
    two fixed op indices and finally recovered."""

    name = "ingest_recover"
    corpus_size = 1000
    queries = 8
    writes = 2000
    read_every = 10
    #: Mutations per block of 20: 60 % add, 25 % remove, 15 % relabel.
    block = ("add",) * 12 + ("remove",) * 5 + ("relabel",) * 3

    def generate(self) -> None:
        base = make_workload(
            self.corpus_n(),
            n_queries=self.queries,
            query_size=4,
            mutant_fraction=0.2,
            radius=(1, 3),
            seed=self.corpus_seed,
        )
        self.corpus = base.database
        self.specs = [
            _read(_spec(graph, "topk", k=3), f"topk/q{index}")
            for index, graph in enumerate(base.queries)
        ]
        n_blocks = self.scaled(self.writes, floor=40) // len(self.block)
        n_writes = n_blocks * len(self.block)
        # The order of the fresh graphs and of the reads is frozen with
        # the corpus (they decide which read meets which cold pair); the
        # seed orders the mutations inside each block and picks victims.
        fresh = _fresh_graphs(
            n_blocks * self.block.count("add"), self.corpus_seed + 3, "new"
        )
        # Victims of removes and relabels are distractors and fresh graphs,
        # never the queries' mutants: once a seed happens to delete a
        # query's nearest neighbours, the planner's drop-stage gate turns
        # that query's reads into 2.5 s full scans (measured, seed 35), and
        # the workload would measure the seed instead of the program.
        live = [name for name in self.handles() if name.startswith("distractor")]
        compact_at = {n_writes // 3, 2 * n_writes // 3}
        reads = 0
        ops: list[Op] = []
        written = 0
        for _ in range(n_blocks):
            kinds = list(self.block)
            self.rng.shuffle(kinds)
            for kind in kinds:
                ops.append(Op("write", self._mutation(kind, live, fresh, written), kind))
                written += 1
                if written % self.read_every == 0:
                    ops.append(self.specs[reads % len(self.specs)])
                    reads += 1
                if written in compact_at:
                    ops.append(Op("compact", None, "compact"))
        self.ops = ops

    def _mutation(
        self, kind: str, live: list[str], fresh: list[LabeledGraph], index: int
    ) -> MutationOp:
        if kind == "add":
            graph = fresh.pop()
            live.append(graph.name)
            return AddOp(graph.name, graph)
        slot = self.rng.randrange(len(live))
        victim = live[slot]
        if kind == "remove":
            live[slot] = live[-1]
            live.pop()
            return RemoveOp(victim)
        live[slot] = f"rl-{index}"
        return RelabelOp(
            victim, live[slot], self.rng.randrange(8), self.rng.choice(ATOMS)
        )

    # -- pass ---------------------------------------------------------------
    def setup(self) -> None:
        self.data_dir = self._data_dir()
        database = ShardedGraphDatabase.from_graphs(self.corpus, shards=2)
        self.handle_to_id = self.handles()
        self.id_to_handle = {i: h for h, i in self.handle_to_id.items()}
        self.log = DurableLog.open(self.data_dir, sync="always", segments=2)
        self.log.initialize(database, self.handle_to_id)
        database.attach_wal(self.log)
        self._open_session(database)
        self.lsns: list[int] = []
        self.warm_source_ms = []
        for round_index in range(2):
            for index, op in enumerate(self.specs):
                begin = time.perf_counter()
                payload = self._library_read(op.payload)
                if round_index == 0 and index == 0:
                    self.first_query_s = time.perf_counter() - begin
                if round_index == 1:
                    self.warm_source_ms.append(payload["stats"]["source_ms"])

    def execute(self, op: Op) -> dict[str, Any]:
        if op.kind == "read":
            return self._library_read(op.payload)
        if op.kind == "compact":
            self.log.compact_from(self.database, self.handle_to_id)
            return {"compacted": self.log.base_lsn}
        ack = ops_module.apply_mutation(
            self.database, op.payload, self.handle_to_id, self.id_to_handle
        )
        self.lsns.append(ack["lsn"])
        return ack

    def finish(self) -> dict[str, Any]:
        self.log.close()
        live = _fingerprint(self.database, self.id_to_handle)
        return _durability_report(self.data_dir, live, self.lsns)

    def teardown(self) -> None:
        self.log.close()
        self.session.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        super().teardown()

    def cache(self) -> PairCache:
        return self.pair_cache

    def database_size(self) -> int:
        return len(self.database)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SolverCold, BoundScan, ServedMixed, IngestRecover)
}
