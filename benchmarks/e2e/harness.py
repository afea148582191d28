"""Replay, estimation and verification shared by the four workloads.

Repeatability comes first (the previous root benchmark was rejected as
too noisy). One client thread issues a fixed op list, closed loop, and
the list is replayed for a fixed number of passes from an identical
start state. Two things turn the raw wall clocks into samples:

* every op's time is *normalized* by the host's slowdown at the moment
  it ran, read off a fixed reference computation sampled between ops
  (:class:`HostProbe`) — neighbours on the shared cores stretch whole
  seconds by 1.2-8x, which no within-run statistic removes;
* the sample of op *i* is its **median over passes**: a deterministic
  stall (index self-heal after a write, a compaction at a fixed op
  index) recurs in every pass and survives, a leftover burst does not.

Percentiles and rates are computed over those per-op samples.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import http.client
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro
import repro.api.ops as ops_module
from repro.db import PairCache
from repro.errors import ReproError

from e2e.trace import Tracer
from e2e.workloads import TWIN_SCALE, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
GOLDEN = HERE / "golden"

#: Nominal timed seconds of one pass; ``--seconds`` buys whole passes.
PASS_SECONDS = 4
#: A fresh process runs ~1.7x slow for its first seconds on this host;
#: no op is timed before the process is this old.
WARM_PROCESS_SECONDS = 3.0
#: The host probe runs between ops whenever this long has passed.
PROBE_EVERY_SECONDS = 0.02
#: Duration of the probe's fixed work on this container when its two
#: shared cores are quiet. Slowdown 1.0 means "as fast as that".
PROBE_REFERENCE_SECONDS = 0.0006
#: Likewise for the probe's 256-byte write + fsync.
SYNC_REFERENCE_SECONDS = 0.00025


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def per_op_median(passes: list[list[float]]) -> list[float]:
    """Sample of op *i*: its median over the passes."""
    if not passes or any(len(row) != len(passes[0]) for row in passes):
        raise ValueError("passes must replay the same op list")
    return [statistics.median(column) for column in zip(*passes)]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def passes_for(seconds: int) -> int:
    return max(2, seconds // PASS_SECONDS)


# ----------------------------------------------------------------------
# Host probe
# ----------------------------------------------------------------------
#: Bound at import: the traced run counts the program's ``os.fsync``
#: calls by wrapping that name, and the probe's own must not count.
_fsync = os.fsync
_PROBE_DATA = [(index * 7919) % 1009 for index in range(3000)]


def _reference_work() -> int:
    """A fixed piece of object-heavy Python (dicts, tuples, sorting,
    set algebra) — the instruction mix of the program under test, but
    none of its code, so a change to the program cannot move it."""
    table: dict[int, list] = {}
    for index, value in enumerate(_PROBE_DATA):
        table.setdefault(value % 97, []).append((value, index))
    ordered = sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
    shared = frozenset(_PROBE_DATA[:500]) & frozenset(_PROBE_DATA[250:750])
    return len(ordered) + len(shared) + len(Counter(v % 13 for v in _PROBE_DATA))


class HostProbe:
    """What the host did to constant pieces of work while the benchmark
    ran. Neighbours on the shared cores slow computation by 1.2-8x for
    seconds at a time, and neighbours on the shared disk stretch an
    fsync likewise; the probe, sampled between ops every ~20 ms, measures
    both factors where and when each op ran, so that they can be divided
    out (see :func:`normalized`)."""

    def __init__(self, scratch: "Path | None" = None) -> None:
        self.times: list[float] = []
        self.cpu_seconds: list[float] = []
        self.sync_seconds: list[float] = []
        self._file = open(scratch / "probe.bin", "wb") if scratch else None

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def sample(self) -> None:
        begin = time.perf_counter()
        _reference_work()
        middle = time.perf_counter()
        if self._file is not None:
            # One WAL-record-sized durable append.
            self._file.write(b"\0" * 256)
            self._file.flush()
            _fsync(self._file.fileno())
        end = time.perf_counter()
        self.times.append(middle)
        self.cpu_seconds.append(middle - begin)
        self.sync_seconds.append(end - middle)

    def tick(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_SECONDS:
            self.sample()

    def warm_process(self, started: float) -> None:
        while time.perf_counter() - started < WARM_PROCESS_SECONDS:
            self.sample()

    def _around(self, series: list[float], begin: float, end: float) -> float:
        """Mean of the probes inside ``[begin, end]`` and the nearest one
        on either side."""
        low = max(0, bisect.bisect_left(self.times, begin) - 1)
        high = min(len(self.times), bisect.bisect_right(self.times, end) + 1)
        return statistics.fmean(series[low:high])

    def cpu_slowdown(self, begin: float, end: float) -> float:
        return self._around(self.cpu_seconds, begin, end) / PROBE_REFERENCE_SECONDS

    def sync_slowdown(self, begin: float, end: float) -> float:
        if self._file is None:
            return 1.0
        return self._around(self.sync_seconds, begin, end) / SYNC_REFERENCE_SECONDS

    def summary(self) -> dict[str, float]:
        ordered = sorted(self.cpu_seconds)
        half = max(1, len(ordered) // 2)
        return {
            "host.probe_ms_min": ordered[0] * 1000.0,
            "host.probe_ms_median": statistics.median(ordered) * 1000.0,
            "host.probe_ms_p95": percentile(ordered, 0.95) * 1000.0,
            "host.fsync_ms_median": statistics.median(self.sync_seconds) * 1000.0,
            "host.drift_ratio": statistics.median(self.cpu_seconds[-half:])
            / statistics.median(self.cpu_seconds[:half]),
        }


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
def answer_key(op: Op, out: dict[str, Any]) -> Any:
    """What must not change: a read's answer ids with their exact values
    (not the evaluated set, which a better pruner may shrink); a write's
    acknowledgement."""
    if op.kind == "read":
        rows = {row["id"]: row for row in out["rows"]}
        return [
            [graph_id, [rows[graph_id][name] for name in out["measures"]]]
            for graph_id in out["ids"]
        ]
    if op.kind == "write":
        return [out["op"], out["handle"], out["graph_id"], out.get("lsn")]
    return ["compact"]


def digest(key: Any) -> str:
    encoded = json.dumps(key, separators=(",", ":")).encode("utf-8")
    return hashlib.sha1(encoded).hexdigest()[:10]


def twin_check(workload_cls: type[Workload], seed: int, corpus_seed: int) -> tuple[int, int]:
    """Replay a 1/20-scale twin of the op list on ``auto`` and on the
    exhaustive ``memory`` backend; answers must be equal. Returns
    ``(compared, mismatched)``."""
    twin = workload_cls(seed, scale=TWIN_SCALE, corpus_seed=corpus_seed)
    sides = []
    for backend, options in (
        ("auto", {"max_workers": 1, "cache": PairCache()}),
        ("memory", {}),
    ):
        database = repro.GraphDatabase.from_graphs(twin.corpus)
        handle_to_id = twin.handles()
        sides.append(
            (
                repro.connect(database, backend=backend, **options),
                database,
                handle_to_id,
                {i: h for h, i in handle_to_id.items()},
            )
        )
    compared = mismatched = 0
    for op in twin.ops:
        if op.kind == "compact":
            continue
        keys = []
        for session, database, handle_to_id, id_to_handle in sides:
            if op.kind == "read":
                out = session.execute(op.payload).to_dict()
            else:
                out = ops_module.apply_mutation(
                    database, op.payload, handle_to_id, id_to_handle
                )
            keys.append(answer_key(op, out))
        compared += 1
        mismatched += keys[0] != keys[1]
    for session, *_ in sides:
        session.close()
    return compared, mismatched


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    setup_s: float = 0.0
    first_query_s: float = 0.0
    warm_source_ms: list[float] = field(default_factory=list)
    #: Per op: (start, end, process CPU seconds) as measured.
    spans: list[tuple[float, float, float]] = field(default_factory=list)
    #: Per op: wall seconds, and wall seconds with the host's slowdown
    #: divided out (what every metric is computed from).
    raw_seconds: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    answer_sizes: list[int] = field(default_factory=list)
    #: Per op: the ``stats``/``cache`` the program returned (reads).
    stats: list["dict | None"] = field(default_factory=list)
    cache: list["dict | None"] = field(default_factory=list)
    report: dict[str, Any] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)


def normalized(probe: HostProbe, begin: float, end: float, cpu: float) -> float:
    """Wall time of one op at reference host speed: the CPU share of the
    op shrinks or stretches with the computation slowdown at that
    moment, the waiting share (fsync; a little socket) with the disk's."""
    return cpu / probe.cpu_slowdown(begin, end) + (
        end - begin - cpu
    ) / probe.sync_slowdown(begin, end)


def run_pass(
    workload: Workload,
    probe: HostProbe,
    tracer: "Tracer | None" = None,
    diagnose: bool = False,
) -> PassResult:
    """One pass: fresh state, every op timed once, then the durability
    report. With a tracer, each op runs under a root span."""
    result = PassResult()
    gc.collect()
    begin = time.perf_counter()
    workload.setup()
    result.setup_s = time.perf_counter() - begin
    result.first_query_s = workload.first_query_s
    result.warm_source_ms = list(workload.warm_source_ms)
    try:
        if tracer is not None:
            tracer.enabled = True
        probe.sample()
        for index, op in enumerate(workload.ops):
            root = tracer.begin_op(index, op.kind) if tracer is not None else None
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                out = workload.execute(op)
            except (ReproError, OSError, http.client.HTTPException) as exc:
                out = {"error": repr(exc)}
            end = time.perf_counter()
            cpu = time.process_time() - cpu_start
            if root is not None:
                tracer.end_op(root)
            result.spans.append((start, end, min(cpu, end - start)))
            failed = "error" in out
            result.digests.append("" if failed else digest(answer_key(op, out)))
            result.answer_sizes.append(len(out.get("ids", ())))
            result.stats.append(None if failed else out.get("stats"))
            result.cache.append(None if failed else out.get("cache"))
            probe.tick()
        probe.sample()
        result.raw_seconds = [end - start for start, end, _ in result.spans]
        result.seconds = [
            normalized(probe, start, end, cpu) for start, end, cpu in result.spans
        ]
        if diagnose:
            if tracer is not None:
                tracer.enabled = False
            result.extras = workload.diagnostics()
            cache = workload.cache()
            result.extras["cache.entries"] = len(cache) if cache is not None else 0
            result.extras["index.rows"] = workload.database_size()
            if tracer is not None:
                tracer.enabled = True
        result.report = workload.finish()
    finally:
        if tracer is not None:
            tracer.enabled = False
        workload.teardown()
    return result


def verify(
    workload: Workload, passes: list[PassResult], golden: "list[str] | None"
) -> tuple[int, int, dict[str, int]]:
    """``(attempted, failed, detail)`` over every pass's ops and
    durability reports."""
    reference = passes[0].digests
    attempted = failed = 0
    detail = {"raised_or_refused": 0, "unstable_answer": 0, "golden_mismatch": 0,
              "durability": 0}
    for index in range(len(workload.ops)):
        attempted += len(passes)
        column = [result.digests[index] for result in passes]
        if "" in column:
            detail["raised_or_refused"] += column.count("")
            failed += column.count("")
        elif any(value != reference[index] for value in column):
            detail["unstable_answer"] += 1
            failed += 1
        elif golden is not None and reference[index] != golden[index]:
            detail["golden_mismatch"] += 1
            failed += 1
    for result in passes:
        for check in ("recovered_equal", "lsns_increasing"):
            if check in result.report:
                attempted += 1
                if not result.report[check]:
                    detail["durability"] += 1
                    failed += 1
    return attempted, failed, detail


def planner_counts(passes: list[PassResult]) -> dict[str, int]:
    """Reads that went to the worker pool, and reads whose chosen plan
    differs between passes — both must be 0 for timings to repeat."""
    pooled = flips = 0
    for column in zip(*(result.stats for result in passes)):
        present = [stats for stats in column if stats]
        if not present:
            continue
        pooled += any(stats.get("pool") is not None for stats in present)
        summaries = {
            (stats.get("planner") or {}).get("summary") for stats in present
        }
        flips += len(summaries) > 1
    return {"engine.pooled_queries": pooled, "engine.plan_flips": flips}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _kinds(workload: Workload, kind: str) -> list[int]:
    return [i for i, op in enumerate(workload.ops) if op.kind == kind]


def end_to_end(
    workload: Workload, generate_s: float, passes: list[PassResult]
) -> tuple[dict[str, float], dict[str, int]]:
    """The bounded metrics (every workload reports all of them) and
    their sample counts."""
    samples = per_op_median([result.seconds for result in passes])
    reads = [samples[i] for i in _kinds(workload, "read")]
    writes = [samples[i] for i in _kinds(workload, "write")]
    metrics = {
        "setup_s": generate_s
        + statistics.median(result.setup_s for result in passes),
        "query_p50_ms": percentile(reads, 0.50) * 1000.0,
        "query_p95_ms": percentile(reads, 0.95) * 1000.0,
        "queries_per_s": len(reads) / sum(reads),
        "ops_per_s": (len(reads) + len(writes)) / sum(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "passes": len(passes),
        "reads_per_pass": len(reads),
        "writes_per_pass": len(writes),
        "ops_per_pass": len(samples),
        "reads_beyond_p95": len(reads) - math.ceil(0.95 * len(reads)),
    }
    return metrics, counts


def write_side(workload: Workload, passes: list[PassResult]) -> dict[str, float]:
    """Write and recovery numbers of the workloads that have them (0 on
    the read-only ones)."""
    samples = per_op_median([result.seconds for result in passes])
    writes = [samples[i] for i in _kinds(workload, "write")]
    reports = [result.report for result in passes if "recover_s" in result.report]
    metrics = {"write_p50_ms": 0.0, "writes_per_s": 0.0, "recover_s": 0.0,
               "wal_bytes_per_write": 0.0, "wal.replay_ops_per_s": 0.0}
    if writes:
        metrics["write_p50_ms"] = percentile(writes, 0.50) * 1000.0
        metrics["writes_per_s"] = len(writes) / sum(writes)
    if reports:
        best = min(reports, key=lambda report: report["recover_s"])
        metrics["recover_s"] = best["recover_s"]
        metrics["wal_bytes_per_write"] = best["wal_bytes"] / max(1, best["acked"])
        metrics["wal.replay_ops_per_s"] = best["replayed"] / best["recover_s"]
    return metrics


def _total(rows: list[dict], key: str) -> float:
    return float(sum(row.get(key, 0) or 0 for row in rows))


def per_layer(
    workload: Workload,
    references: list[PassResult],
    traces: list[PassResult],
    tracer: Tracer,
    probe: HostProbe,
) -> dict[str, float]:
    """Layer numbers of the last traced pass (the tracer holds its
    spans): span self times plus what the program returned with each
    answer. The tracing overhead compares per-op medians of the traced
    passes with those of the untraced reference passes."""
    traced = traces[-1]
    overhead = sum(per_op_median([result.seconds for result in traces])) / sum(
        per_op_median([result.seconds for result in references])
    )
    own = tracer.self_seconds()
    read_ops = _kinds(workload, "read")
    write_ops = _kinds(workload, "write")
    stats = [traced.stats[i] for i in read_ops if traced.stats[i]]
    caches = [traced.cache[i] for i in read_ops if traced.cache[i]]
    # Shares compare span seconds with op seconds, both as measured.
    read_s = sum(traced.raw_seconds[i] for i in read_ops)
    write_s = sum(traced.raw_seconds[i] for i in write_ops)
    n_reads = max(1, len(stats))

    evals = _total(stats, "exact_evaluations")
    candidates = _total(stats, "candidates_considered")
    solver_s = own.get("graph.ged", 0.0) + own.get("graph.mcs", 0.0)
    hits = _total(caches, "hits")
    lookups = hits + _total(caches, "misses")

    # First read after a write pays the index self-heal: its source time
    # beyond the steady source time of reads that follow a read.
    after_write = {
        i for i in read_ops if i > 0 and workload.ops[i - 1].kind != "read"
    }
    steady = [
        traced.stats[i]["source_ms"]
        for i in read_ops
        if i not in after_write and traced.stats[i]
    ] or traced.warm_source_ms
    steady_ms = statistics.median(steady) if steady else 0.0
    refresh_s = sum(
        max(0.0, traced.stats[i]["source_ms"] - steady_ms)
        for i in after_write
        if traced.stats[i]
    ) / 1000.0

    imbalance = [
        max(shard["evaluated"] for shard in row["per_shard"])
        * len(row["per_shard"])
        / sum(shard["evaluated"] for shard in row["per_shard"])
        for row in stats
        if row.get("per_shard")
        and sum(shard["evaluated"] for shard in row["per_shard"]) > 0
    ]
    admission = traced.report.get("admission", {})
    skyline_sizes = [
        traced.answer_sizes[i]
        for i in read_ops
        if workload.ops[i].payload.kind in ("skyline", "skyband")
    ]

    metrics = {
        "graph.ged_calls": tracer.calls("graph.ged"),
        "graph.ged_s": own.get("graph.ged", 0.0),
        "graph.mcs_calls": tracer.calls("graph.mcs"),
        "graph.mcs_s": own.get("graph.mcs", 0.0),
        "graph.ms_per_pair": solver_s / evals * 1000.0 if evals else 0.0,
        "graph.read_share": solver_s / read_s if read_s else 0.0,
        "measures.pair_evals": evals,
        "measures.self_s": own.get("measures.distance", 0.0),
        "engine.exact_evals_per_query": evals / n_reads,
        "engine.pruned_ratio": _total(stats, "pruned_by_index") / candidates
        if candidates
        else 0.0,
        "engine.candidates": candidates,
        "engine.cascade_s": _total(stats, "cascade_ms") / 1000.0,
        "engine.evaluate_s": _total(stats, "evaluate_ms") / 1000.0,
        "engine.plan_s": own.get("engine.plan", 0.0),
        "engine.anytime_refinements": float(
            sum((row.get("anytime") or {}).get("refined", 0) for row in stats)
        ),
        "index.bounds_s": _total(stats, "source_ms") / 1000.0,
        "index.build_s": traced.first_query_s,
        "index.refresh_s": refresh_s,
        "skyline.consume_s": own.get("skyline.consume", 0.0)
        + own.get("shard.merge", 0.0),
        "skyline.result_size": statistics.fmean(skyline_sizes)
        if skyline_sizes
        else 0.0,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.pinned": float(caches[-1]["pinned"]) if caches else 0.0,
        "api.execute_self_s": own.get("api.execute", 0.0),
        "api.to_dict_s": own.get("api.to_dict", 0.0),
        "shard.merge_s": own.get("shard.merge", 0.0),
        "shard.eval_imbalance": statistics.fmean(imbalance) if imbalance else 0.0,
        "wal.appends": tracer.calls("wal.append"),
        "wal.append_s": own.get("wal.append", 0.0),
        "wal.fsyncs": tracer.counts.get("wal.fsyncs", 0),
        "wal.compactions": tracer.calls("wal.compact"),
        "wal.compact_s": own.get("wal.compact", 0.0),
        "wal.write_share": (own.get("wal.append", 0.0) + own.get("db.apply", 0.0))
        / write_s
        if write_s
        else 0.0,
        "db.apply_s": own.get("db.apply", 0.0),
        "server.rejected": admission.get("rejected", 0),
        "server.deadline_expired": admission.get("deadline_expired", 0),
        "server.peak_queue": admission.get("peak_waiting", 0),
        "server.wire_overhead_ms": 0.0,
        "server.health_rtt_ms": 0.0,
        "server.c2_queries_per_s": 0.0,
        "workers.pooled_over_serial": 0.0,
        "workers.pooled_evals": 0.0,
        "workers.serial_evals": 0.0,
        "trace.overhead_ratio": overhead,
    }
    metrics.update(traced.extras)
    metrics.update(probe.summary())
    return {name: float(value) for name, value in metrics.items()}


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def stamp(seed: int, corpus_seed: int, passes: int) -> dict[str, Any]:
    """Provenance of a record. The driver's checkout is not a git
    repository; commit is then ``unknown``."""
    commit = _git("rev-parse", "HEAD")
    return {
        "commit": commit or "unknown",
        "dirty": bool(_git("status", "--porcelain")) if commit else None,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "corpus_seed": corpus_seed,
        "passes": passes,
        "argv": sys.argv[1:],
    }


def load_manifest() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def with_units(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """Shape ``values`` as the manifest declares them; a metric computed
    but not declared (or the reverse) is a harness bug."""
    names = [entry["name"] for entry in declared]
    if set(names) != set(values):
        raise KeyError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(values))}"
        )
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
