"""The repo's benchmark: one command, four workloads, one schema.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer ones (one reference
pass plus one traced pass, never mixed into the end-to-end numbers) with
``--trace 1``. The full record, stamped with commit and host, goes to
``benchmarks/e2e/out/``. ``--selfcheck`` runs every workload as two
interleaved sets of fresh processes and compares them against the
bounds. See README.md.
"""

from __future__ import annotations

import argparse
import atexit
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()


def stop_children() -> None:
    """Stop and wait for every process the run started: the program's
    worker pool and multiprocessing's resource tracker, which the sharded
    backend's first shared-memory segment starts and which otherwise
    outlives the run by a moment (it exits only once it sees our end of
    its pipe closed, and nobody waits for it)."""
    workers = sys.modules.get("repro.engine.workers")
    if workers is not None:
        workers.shutdown_pool()
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


# Registered before the program is imported, so it runs after the
# program's own exit hooks, whatever the way out.
atexit.register(stop_children)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Import the harness as the package ``e2e`` (so its ``trace`` module
# cannot shadow the standard library's) and the program from ``src``.
sys.path[0] = str(HERE.parent)
sys.path.insert(0, str(ROOT / "src"))

from e2e import harness  # noqa: E402
from e2e.trace import Tracer  # noqa: E402
from e2e.workloads import CORPUS_SEED, TWIN_SCALE, WORKLOADS  # noqa: E402

#: Importing the program is set-up its users pay; it counts in setup_s.
IMPORT_SECONDS = time.perf_counter() - STARTED


def run_workload(args: argparse.Namespace) -> dict:
    manifest = harness.load_manifest()
    workload_cls = WORKLOADS[args.workload]
    scale = TWIN_SCALE if args.quick else 1.0
    tmp_root = harness.OUT / f"tmp-{args.workload}-{args.seed}-{int(time.time() * 1000)}"
    tmp_root.mkdir(parents=True, exist_ok=True)
    probe = harness.HostProbe(tmp_root)
    tracer = Tracer() if args.trace else None
    try:
        compared, mismatched = harness.twin_check(
            workload_cls, args.seed, args.corpus_seed
        )
        begin = time.perf_counter()
        workload = workload_cls(
            args.seed, scale=scale, corpus_seed=args.corpus_seed, tmp_root=tmp_root
        )
        generate_s = IMPORT_SECONDS + time.perf_counter() - begin
        if not args.quick:
            probe.warm_process(STARTED)

        if tracer is None:
            n_passes = 2 if args.quick else harness.passes_for(args.seconds)
            passes = [harness.run_pass(workload, probe) for _ in range(n_passes)]
        else:
            # Reference and traced passes interleaved, two of each: the
            # overhead ratio compares per-op samples, not two noisy walls.
            tracer.install()
            passes = []
            for _ in range(2):
                passes.append(harness.run_pass(workload, probe))
                tracer.clear()
                passes.append(
                    harness.run_pass(workload, probe, tracer, diagnose=True)
                )
            references, traces = passes[0::2], passes[1::2]
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.close()
        shutil.rmtree(tmp_root, ignore_errors=True)
        stop_children()

    golden_path = harness.GOLDEN / f"{args.workload}-seed{args.seed}.json"
    golden = None
    if scale == 1.0 and args.corpus_seed == CORPUS_SEED and golden_path.exists():
        golden = json.loads(golden_path.read_text("utf-8"))["digests"]
    attempted, failed, detail = harness.verify(workload, passes, golden)
    attempted += compared
    failed += mismatched
    detail["twin_mismatch"] = mismatched
    if args.write_golden:
        harness.GOLDEN.mkdir(exist_ok=True)
        golden_path.write_text(
            json.dumps({"digests": passes[0].digests}, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )

    planner = harness.planner_counts(passes)
    # Untraced passes only: tracing must not leak into a reported time.
    untraced = passes if tracer is None else references
    end_to_end, counts = harness.end_to_end(workload, generate_s, untraced)
    write_side = harness.write_side(workload, untraced)
    record = {
        "workload": args.workload,
        "stamp": harness.stamp(args.seed, args.corpus_seed, len(passes)),
        "scale": scale,
        "attempted": attempted,
        "failed": failed,
        "failed_detail": detail,
        "sample_counts": counts,
        "host": probe.summary(),
        "planner": planner,
        "end_to_end": end_to_end,
        "write_side": write_side,
        "op_kinds": [op.kind for op in workload.ops],
        "pass_seconds": [
            [round(value, 7) for value in result.seconds] for result in passes
        ],
        "pass_raw_seconds": [
            [round(value, 7) for value in result.raw_seconds] for result in passes
        ],
        "pass_setup_s": [result.setup_s for result in passes],
    }
    if tracer is None:
        metrics = harness.with_units(end_to_end, manifest["end_to_end"])
    else:
        layers = harness.per_layer(workload, references, traces, tracer, probe)
        layers.update(write_side)
        layers.update({key: float(value) for key, value in planner.items()})
        layers["failed_ops"] = float(failed)
        record["per_layer"] = layers
        metrics = harness.with_units(layers, manifest["per_layer"])
        tracer.dump(harness.OUT / f"trace-{args.workload}.json")
    suffix = "-trace" if tracer is not None else ""
    record_path = harness.OUT / f"{args.workload}-seed{args.seed}{suffix}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if planner["engine.pooled_queries"] or planner["engine.plan_flips"]:
        print(f"warning: timings may not repeat: {planner}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Self-check
# ----------------------------------------------------------------------
def _fresh_run(workload: str, seed: int, seconds: int, corpus_seed: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
            "--corpus-seed", str(corpus_seed),
        ],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def selfcheck(args: argparse.Namespace) -> int:
    """Two interleaved sets (A B B A ...) of ``--runs`` fresh-process
    runs per workload, seeds differing run to run as the driver's do.
    Fails when a metric's spread exceeds its bound or set B's median is
    worse than set A's by more than the bound."""
    manifest = harness.load_manifest()
    bounds = {entry["name"]: entry for entry in manifest["end_to_end"]}
    excess = 0
    rows = []
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        failed = 0
        for run in range(args.runs):
            for label in ("AB", "BA")[run % 2]:
                result = _fresh_run(
                    workload, args.seed + run, args.seconds, args.corpus_seed
                )
                failed += result["failed"]
                sets[label].append(result["metrics"])
        for name, entry in bounds.items():
            a, b = ([m[name]["value"] for m in sets[label]] for label in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if entry["better"] == "higher":
                worse = -worse
            spreads = (harness.spread(a), harness.spread(b))
            gated = max(spreads) if name != "setup_s" else 0.0
            bad = worse > entry["bound"] or gated > entry["bound"] or failed > 0
            excess += bad
            rows.append(
                f"| {workload} | {name} | {med_a:.4g} | {med_b:.4g} | "
                f"{spreads[0]:.1%} | {spreads[1]:.1%} | {worse:+.1%} | "
                f"{entry['bound']:.0%} | {'FAIL' if bad else 'ok'} |"
            )
        print(f"{workload}: failed ops {failed}", file=sys.stderr)
    print(
        "| workload | metric | median A | median B | spread A | spread B "
        "| B worse by | bound | |\n|---|---|---|---|---|---|---|---|---|"
    )
    print("\n".join(rows))
    return 1 if excess else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus-seed", type=int, default=CORPUS_SEED,
        help="regenerate the frozen corpus (checks the metrics are not "
        "tuned to one; goldens then do not apply)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="1/20 scale, two passes (harness test)")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
