"""Command-line interface for the similarity-skyline system.

Usage (installed as ``python -m repro``):

* ``python -m repro skyline DB.json QUERY.json [--refine-k K] ...`` —
  answer a similarity query with the graph similarity skyline;
* ``python -m repro topk DB.json QUERY.json --k 3 --measure edit`` —
  the single-measure baseline;
* ``python -m repro distance G1.json G2.json`` — the full GCS vector of
  one pair;
* ``python -m repro generate out.json --n 40`` — write a synthetic
  molecule-like workload database (plus ``out.query.json``);
* ``python -m repro paper-example`` — print the reproduced tables of the
  paper's worked example;
* ``python -m repro fuzz --seed 7 --steps 200`` — differential workload
  fuzzing against the exhaustive oracle (see :mod:`repro.testkit`); a
  divergence is shrunk to a minimal repro and exits non-zero.

Graph files are :func:`repro.graph.serialization.graph_to_json` payloads;
database files are :func:`repro.db.persistence.save_database` payloads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Sequence

from repro.api import Query, available_backends, connect
from repro.bench import render_table
from repro.core.gcs import compound_similarity
from repro.db.persistence import load_database, save_database
from repro.db.database import GraphDatabase
from repro.errors import ReproError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.serialization import graph_from_json, graph_to_json
from repro.measures.base import available_measures


def _load_graph(path: str) -> LabeledGraph:
    return graph_from_json(Path(path).read_text(encoding="utf-8"))


def _parse_measures(spec: str | None) -> tuple[str, ...] | None:
    if spec is None:
        return None
    return tuple(part.strip() for part in spec.split(",") if part.strip())


def _cmd_skyline(args: argparse.Namespace) -> int:
    database = load_database(args.database)
    builder = Query(_load_graph(args.query)).skyline()
    measures = _parse_measures(args.measures)
    if measures is not None:
        builder = builder.measures(*measures)
    if args.refine_k:
        builder = builder.refine(k=args.refine_k)
    with connect(database, backend=args.backend, shards=args.shards) as session:
        result = session.execute(builder)
    skyline_names = result.names
    member = set(result.ids)
    if args.json:
        payload = {
            "measures": list(result.measures),
            "backend": result.plan.backend,
            "skyline": skyline_names,
            "vectors": {
                (database.get(i).name or str(i)): list(result.vectors[i].values)
                for i in sorted(result.evaluated_ids)
            },
        }
        if result.refinement is not None:
            payload["refined"] = [g.name for g in result.refinement.subset]
        print(json.dumps(payload, indent=1))
        return 0
    rows = [
        [database.get(i).name or f"#{i}"]
        + [round(value, 4) for value in result.vectors[i].values]
        + ["*" if i in member else ""]
        for i in sorted(result.evaluated_ids)
    ]
    print(render_table(["graph", *result.measures, "skyline"], rows))
    print(f"skyline: {skyline_names}")
    if result.refinement is not None:
        print(f"diverse subset (k={args.refine_k}): "
              f"{[g.name for g in result.refinement.subset]}")
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    database = load_database(args.database)
    query = _load_graph(args.query)
    with connect(database, backend=args.backend) as session:
        result = session.execute(Query(query).topk(args.k, measure=args.measure))
    rows = [
        [rank + 1, database.get(i).name or f"#{i}", round(result.distance(i), 4)]
        for rank, i in enumerate(result.ids)
    ]
    print(render_table(["rank", "graph", result.measures[0]], rows))
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    vector = compound_similarity(g1, g2, measures=_parse_measures(args.measures))
    for name, value in vector.as_dict().items():
        print(f"{name}: {value:.4f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets.synthetic import make_workload

    workload = make_workload(
        n_graphs=args.n,
        query_size=args.query_size,
        mutant_fraction=args.mutant_fraction,
        seed=args.seed,
    )
    database = GraphDatabase.from_graphs(workload.database, name="synthetic")
    save_database(database, args.output)
    query_path = Path(args.output).with_suffix(".query.json")
    query_path.write_text(graph_to_json(workload.queries[0]), encoding="utf-8")
    print(f"wrote {len(database)} graphs to {args.output}")
    print(f"wrote query to {query_path}")
    return 0


def _fuzz_one(
    workload, fault: str | None, shrink: bool, save_failure: str | None
) -> int:
    from repro.testkit import format_repro, run_workload, shrink_workload

    report = run_workload(workload, fault=fault)
    if report.ok:
        print(f"seed {workload.seed}: {report.summary()}")
        return 0
    print(f"seed {workload.seed}: {report.summary()}", file=sys.stderr)
    divergence = report.divergence
    if shrink:
        workload, divergence = shrink_workload(
            workload, lambda cand: run_workload(cand, fault=fault).divergence
        )
    if save_failure:
        Path(save_failure).write_text(workload.to_json(indent=1), encoding="utf-8")
        print(f"wrote failing workload to {save_failure}", file=sys.stderr)
    print(format_repro(workload, divergence), file=sys.stderr)
    return 1


def _remap_backend(workload, backend: str):
    """Force every query step of ``workload`` onto ``backend`` (the
    ``--backend`` smoke mode: concentrate a whole workload's queries on
    one execution path, e.g. ``--backend sharded``). Specs are kept as
    generated: every backend follows ``QueryPlanner.prunes``, so
    tolerant specs run exhaustively wherever they land.
    """
    import dataclasses

    from repro.testkit.workload import RunQuery, Workload

    def remap(step):
        if not isinstance(step, RunQuery):
            return step
        return dataclasses.replace(step, backend=backend)

    return Workload(seed=workload.seed, steps=tuple(map(remap, workload.steps)))


def _cmd_fuzz_kill_recover(args: argparse.Namespace) -> int:
    """``fuzz --kill-recover``: SIGKILL-mid-workload durability fuzzing."""
    from repro.testkit import format_repro
    from repro.testkit.crash import KILL_RECOVER_SYNCS, fuzz_kill_recover

    if args.replay or args.fault or args.backend:
        print("error: --kill-recover is incompatible with "
              "--replay/--fault/--backend", file=sys.stderr)
        return 2
    seeds = [args.seed]
    if args.corpus:
        corpus = json.loads(Path(args.corpus).read_text(encoding="utf-8"))
        seeds = [entry["seed"] for entry in corpus]
    syncs = (args.sync,) if args.sync else KILL_RECOVER_SYNCS
    for seed in seeds:
        failure = fuzz_kill_recover(
            seed,
            n_steps=args.steps,
            shards=args.shards,
            syncs=syncs,
            kill_at=args.kill_at,
            shrink=not args.no_shrink,
            log=print,
        )
        if failure is None:
            continue
        report, workload = failure
        print(f"seed {seed}: {report.summary()}", file=sys.stderr)
        if args.save_failure:
            Path(args.save_failure).write_text(
                workload.to_json(indent=1), encoding="utf-8"
            )
            print(f"wrote failing workload to {args.save_failure}",
                  file=sys.stderr)
        print(format_repro(workload, report.divergence), file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.testkit import Workload, generate_workload

    if args.kill_recover:
        return _cmd_fuzz_kill_recover(args)
    workloads = []
    if args.replay:
        payload = Path(args.replay).read_text(encoding="utf-8")
        workloads.append(Workload.from_json(payload))
    elif args.corpus:
        from repro.errors import SerializationError

        try:
            corpus = json.loads(Path(args.corpus).read_text(encoding="utf-8"))
            for entry in corpus:
                workloads.append(
                    generate_workload(
                        seed=entry["seed"],
                        n_steps=entry.get("steps", args.steps),
                        max_vertices=entry.get("max_vertices", args.max_vertices),
                    )
                )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"malformed fuzz corpus {args.corpus}: {exc!r}; expected "
                '[{"seed": N, "steps": M}, ...]'
            ) from exc
    else:
        workloads.append(
            generate_workload(
                seed=args.seed, n_steps=args.steps, max_vertices=args.max_vertices
            )
        )
    if args.backend:
        workloads = [_remap_backend(w, args.backend) for w in workloads]
    for workload in workloads:
        code = _fuzz_one(
            workload, args.fault, not args.no_shrink, args.save_failure
        )
        if code:
            return code
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.server import QueryServer, ServerConfig

    if args.database:
        database = load_database(args.database)
    else:
        from repro.datasets.synthetic import make_workload

        workload = make_workload(
            n_graphs=args.synthetic, query_size=6, seed=args.seed
        )
        database = GraphDatabase.from_graphs(
            workload.database, name="synthetic"
        )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        shards=args.shards,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        deadline_ms=args.deadline_ms if args.deadline_ms > 0 else None,
        max_watches=args.max_watches,
        token=args.token,
        data_dir=args.data_dir,
        sync=args.sync,
        compact_every=args.compact_every,
    )
    server = QueryServer(database, config)
    server.start()
    # Printed after the bind so scripts (and the CI smoke test) can
    # wait for the line, then read the ephemeral port from it.
    print(f"serving {len(server.database)} graphs on {server.url}",
          flush=True)
    # The handlers only shut the listener: the accept below returns and
    # stop() drops every connection and joins its thread.
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: server.shutdown())
    try:
        server.serve_forever()
    finally:
        server.stop()
    print("server stopped", flush=True)
    return 0


def _cmd_wal(args: argparse.Namespace) -> int:
    from repro.db.wal import DurableLog

    if args.wal_command == "inspect":
        log = DurableLog.open(args.data_dir)
        try:
            state = log.recover()
            records = log.records()
            print(f"WAL at {args.data_dir}:")
            print(f"  segments: {log.segments}")
            print(f"  snapshot base lsn: {log.base_lsn}")
            print(f"  live records: {len(records)} "
                  f"(lsn {log.base_lsn + 1}..{log.last_lsn})"
                  if records else "  live records: 0")
            if not log.repair.clean:
                print(f"  repaired on open: {log.repair.torn_records} torn, "
                      f"{log.repair.stale_records} stale, "
                      f"{log.repair.orphaned_records} orphaned")
            print(f"  recovered store: {len(state.database)} graphs "
                  f"({type(state.database).__name__}), "
                  f"{len(state.handle_to_id)} handles")
            if args.verbose:
                for record in records:
                    op = record["op"]
                    print(f"  lsn {record['lsn']}: {op['op']} "
                          f"graph_id={op.get('graph_id')} "
                          f"handle={op.get('handle')}")
        finally:
            log.close()
        return 0
    if args.wal_command == "compact":
        log = DurableLog.open(args.data_dir)
        try:
            state = log.recover()
            before = len(log.records())
            log.compact_from(state.database, state.handle_to_id)
            print(f"folded {before} records into snapshot at "
                  f"lsn {log.base_lsn} ({len(state.database)} graphs)")
        finally:
            log.close()
        return 0
    assert args.wal_command == "restore"
    log = DurableLog.open(args.data_dir)
    try:
        state = log.recover(upto_lsn=args.lsn)
    finally:
        log.close()
    save_database(state.database, args.output)
    point = f"lsn {state.last_lsn}" if args.lsn is not None else "head"
    print(f"restored {len(state.database)} graphs at {point} "
          f"to {args.output}")
    return 0


#: One-line preset notes for ``repro backends``: the plan decision each
#: name takes per query (one executor runs them all).
_BACKEND_NOTES = {
    "memory": "database order, no bound stage, serial (reference semantics)",
    "indexed": "batched bounds over the packed feature matrix where "
               "pruning is sound, serial",
    "parallel": "database order, no bound stage, pooled",
    "sharded": "indexed's decision, scatter-gathered (connect shards=N)",
    "auto": "the planner's rule: indexed's source and stage, serial, "
            "scatter-gathered over shards",
}


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.engine.planner import availability

    info = availability()
    rows = [[name, _BACKEND_NOTES[name]] for name in info["backends"]]
    print(render_table(["backend", "plan decision"], rows,
                       title="backend presets"))
    print()
    print(f"numpy: {info['numpy']}")
    pools = ", ".join(f"{n} workers" for n in info["pools_started"])
    print(f"cpu count: {info['cpu_count']} — the parallel pool's default "
          f"size; pools started: {pools or 'none'}")
    print("auto rule: batched bounds wherever pruning is sound, serial "
          "evaluation")
    if args.database:
        path = Path(args.database)
        if path.is_dir():
            print(f"database {args.database}: durable data-dir "
                  "(inspect with `python -m repro wal inspect`)")
        else:
            database = load_database(args.database)
            shards = getattr(database, "shard_count", 1)
            topology = f"{shards} shards" if shards > 1 else "monolithic"
            avg = (
                database.vertex_load / len(database) if len(database) else 0.0
            )
            print(f"database {args.database}: {len(database)} graphs "
                  f"({topology}, mean order {avg:.1f})")
    return 0


def _cmd_paper_example(args: argparse.Namespace) -> int:
    from repro.bench import compute_paper_example_report
    from repro.datasets import (
        HOTELS,
        TABLE4_PAIRWISE_GED_PAPER,
        TABLE4_PAPER,
        TABLE5_PAPER,
    )

    report = compute_paper_example_report()
    print(render_table(
        ["hotel", "price", "distance (km)", "skyline"],
        [
            [hotel.name, hotel.price, hotel.distance_km,
             hotel.name in report.hotel_skyline]
            for hotel in HOTELS
        ],
        title="Table I",
        digits=1,
    ))
    print(f"skyline = {report.hotel_skyline}")
    print()
    print("Figs. 1-2 (Examples 2-4)")
    print(f"DistEd(g1, g2) = {report.figure1_ged:.0f} via "
          f"{', '.join(report.figure1_operations)}")
    print(f"|mcs(g1, g2)| = {report.figure1_mcs}")
    print(f"DistMcs(g1, g2) = {report.figure1_dist_mcs:.2f}")
    print(f"DistGu(g1, g2) = {report.figure1_dist_gu:.2f}")
    print()
    print(render_table(
        ["pair", "|mcs|"],
        [[f"({name}, q)", value] for name, value in report.mcs_with_query.items()],
        title="Table II",
    ))
    print()
    print(render_table(
        ["pair", "DistEd", "DistMcs", "DistGu"],
        [
            [f"({name}, q)", v[0], round(v[1], 2), round(v[2], 2)]
            for name, v in report.gcs.items()
        ],
        title="Table III",
    ))
    print()
    print(f"GSS = {report.skyline}")
    print()
    print(render_table(
        ["S", "DistEd", "v1", "v2", "v3"],
        [
            [
                "{" + ",".join(key) + "}",
                f"{report.pairwise_ged[key]}/{TABLE4_PAIRWISE_GED_PAPER[key]}",
                *(f"{m:.2f}/{p:.2f}"
                  for m, p in zip(report.diversity_vectors[key], paper)),
            ]
            for key, paper in TABLE4_PAPER.items()
        ],
        title="Table IV (measured/paper)",
    ))
    print()
    print(render_table(
        ["S", "ranks", "val", "paper ranks", "paper val"],
        [
            [
                "{" + ",".join(key) + "}",
                str(report.diversity_ranks[key]),
                report.diversity_val[key],
                str(paper_ranks),
                paper_val,
            ]
            for key, (paper_ranks, paper_val) in TABLE5_PAPER.items()
        ],
        title="Table V",
    ))
    print(f"diverse subset (k=2) = {report.diverse_subset}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Similarity skyline queries over graph databases "
                    "(Abbaci et al., GDM/ICDE 2011 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sky = sub.add_parser("skyline", help="graph similarity skyline query")
    p_sky.add_argument("database", help="database JSON file")
    p_sky.add_argument("query", help="query graph JSON file")
    p_sky.add_argument("--measures", default=None,
                       help=f"comma-separated; available: {', '.join(available_measures())}")
    p_sky.add_argument("--backend", default="memory",
                       choices=available_backends(),
                       help="execution backend (default: memory; 'indexed' "
                            "prunes via feature-index lower bounds, "
                            "'parallel' fans evaluation over a process pool, "
                            "'sharded' scatter-gathers across shards)")
    p_sky.add_argument("--shards", type=int, default=None,
                       help="partition the database across N shards "
                            "(implied default 2 with --backend sharded)")
    p_sky.add_argument("--refine-k", type=int, default=None,
                       help="refine the skyline to k diverse graphs")
    p_sky.add_argument("--json", action="store_true", help="machine-readable output")
    p_sky.set_defaults(handler=_cmd_skyline)

    p_topk = sub.add_parser("topk", help="single-measure top-k baseline")
    p_topk.add_argument("database")
    p_topk.add_argument("query")
    p_topk.add_argument("--k", type=int, default=3)
    p_topk.add_argument("--measure", default="edit")
    p_topk.add_argument("--backend", default="memory", choices=available_backends())
    p_topk.set_defaults(handler=_cmd_topk)

    p_dist = sub.add_parser("distance", help="GCS vector of a graph pair")
    p_dist.add_argument("graph1")
    p_dist.add_argument("graph2")
    p_dist.add_argument("--measures", default=None)
    p_dist.set_defaults(handler=_cmd_distance)

    p_gen = sub.add_parser("generate", help="write a synthetic workload")
    p_gen.add_argument("output")
    p_gen.add_argument("--n", type=int, default=30)
    p_gen.add_argument("--query-size", type=int, default=8)
    p_gen.add_argument("--mutant-fraction", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.set_defaults(handler=_cmd_generate)

    p_srv = sub.add_parser(
        "serve",
        help="run the HTTP query service over a database "
             "(see repro.server)",
    )
    p_srv.add_argument("database", nargs="?", default=None,
                       help="database JSON file (omit for --synthetic)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8765,
                       help="TCP port; 0 binds an ephemeral port and "
                            "prints it (default: 8765)")
    p_srv.add_argument("--backend", default="memory",
                       choices=available_backends(),
                       help="default execution backend; per-request "
                            "override via ?backend= (default: memory)")
    p_srv.add_argument("--shards", type=int, default=None,
                       help="partition the database across N shards")
    p_srv.add_argument("--max-concurrency", type=int, default=4,
                       help="queries evaluating simultaneously (default: 4)")
    p_srv.add_argument("--max-queue", type=int, default=16,
                       help="admitted-but-waiting requests beyond the "
                            "active ones; extra requests get 429 "
                            "(default: 16)")
    p_srv.add_argument("--deadline-ms", type=int, default=30_000,
                       help="default per-query deadline; 0 disables "
                            "(default: 30000)")
    p_srv.add_argument("--max-watches", type=int, default=32,
                       help="open watch streams accepted (default: 32)")
    p_srv.add_argument("--token", default=None,
                       help="require 'Authorization: Bearer <token>' on "
                            "every endpoint except /v1/health")
    p_srv.add_argument("--synthetic", type=int, default=24,
                       help="without a database file, serve a synthetic "
                            "workload of N graphs (default: 24)")
    p_srv.add_argument("--seed", type=int, default=7,
                       help="synthetic workload seed (default: 7)")
    p_srv.add_argument("--data-dir", default=None,
                       help="durability: write-ahead-log directory; "
                            "mutations are acked only once logged, and "
                            "an existing log is recovered and served "
                            "instead of the seed corpus")
    p_srv.add_argument("--sync", default="always",
                       help="WAL sync policy: always, interval[:seconds] "
                            "or none (default: always)")
    p_srv.add_argument("--compact-every", type=int, default=1000,
                       help="fold the WAL into a fresh snapshot every N "
                            "mutations; 0 disables (default: 1000)")
    p_srv.set_defaults(handler=_cmd_serve)

    p_wal = sub.add_parser(
        "wal",
        help="inspect / compact / restore a write-ahead-log directory",
    )
    wal_sub = p_wal.add_subparsers(dest="wal_command", required=True)
    p_wal_inspect = wal_sub.add_parser(
        "inspect", help="summarize the log and the state it recovers to"
    )
    p_wal_inspect.add_argument("data_dir")
    p_wal_inspect.add_argument("--verbose", action="store_true",
                               help="also print every live record")
    p_wal_inspect.set_defaults(handler=_cmd_wal)
    p_wal_compact = wal_sub.add_parser(
        "compact", help="fold the log into a fresh atomic snapshot"
    )
    p_wal_compact.add_argument("data_dir")
    p_wal_compact.set_defaults(handler=_cmd_wal)
    p_wal_restore = wal_sub.add_parser(
        "restore",
        help="write the recovered database (optionally at a past LSN) "
             "to a JSON file",
    )
    p_wal_restore.add_argument("data_dir")
    p_wal_restore.add_argument("output", help="database JSON output path")
    p_wal_restore.add_argument("--lsn", type=int, default=None,
                               help="point-in-time: stop replay at this "
                                    "LSN (default: replay everything)")
    p_wal_restore.set_defaults(handler=_cmd_wal)

    p_paper = sub.add_parser("paper-example", help="print the reproduced tables")
    p_paper.set_defaults(handler=_cmd_paper_example)

    p_backends = sub.add_parser(
        "backends",
        help="backend presets + availability diagnostics",
    )
    p_backends.add_argument(
        "database", nargs="?", default=None,
        help="optional database JSON (or durable data-dir) to report the "
             "shape the `auto` planner would see",
    )
    p_backends.set_defaults(handler=_cmd_backends)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential workload fuzzing against the exhaustive oracle",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="workload derivation seed (default: 0)")
    p_fuzz.add_argument("--steps", type=int, default=200,
                        help="steps per workload (default: 200)")
    p_fuzz.add_argument("--max-vertices", type=int, default=5,
                        help="largest generated graph (default: 5)")
    p_fuzz.add_argument("--corpus", default=None,
                        help="JSON file with a pinned seed corpus: "
                             '[{"seed": N, "steps": M}, ...]')
    p_fuzz.add_argument("--replay", default=None,
                        help="replay a saved workload JSON instead of generating")
    p_fuzz.add_argument("--backend", default=None,
                        choices=available_backends(),
                        help="force every query step onto one backend "
                             "(e.g. --backend sharded for a scatter-"
                             "gather smoke)")
    p_fuzz.add_argument("--fault", default=None,
                        help="inject a known-broken engine stage "
                             "(harness self-test: flip-bound, "
                             "cutoff-off-by-one, "
                             "bracket-lower-plus-one, "
                             "mcs-upper-minus-one, "
                             "mcs-column-minus-one or "
                             "replay-bound-plus-one)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report the first divergence without minimizing")
    p_fuzz.add_argument("--save-failure", default=None,
                        help="write the (shrunk) failing workload JSON here")
    p_fuzz.add_argument("--kill-recover", action="store_true",
                        help="durability mode: fork a mutating child, "
                             "SIGKILL it at a seeded step, recover from "
                             "the WAL and differentially check the "
                             "recovered store (see repro.testkit.crash)")
    p_fuzz.add_argument("--shards", type=int, default=2,
                        help="kill-recover: shard count of the durable "
                             "store (default: 2)")
    p_fuzz.add_argument("--sync", default=None,
                        help="kill-recover: run one sync policy instead "
                             "of the full always/interval/none rotation")
    p_fuzz.add_argument("--kill-at", type=int, default=None,
                        help="kill-recover: kill after this many applied "
                             "ops (default: derived from the seed)")
    p_fuzz.set_defaults(handler=_cmd_fuzz)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
