"""Tests of the benchmark harness: the estimator helpers, and a quick
run asserting the output carries what ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from e2e import harness  # noqa: E402
from e2e.workloads import WORKLOADS, quotas, zipf_draws  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 201)]
    assert harness.percentile(samples, 0.50) == 100.0
    assert harness.percentile(samples, 0.95) == 190.0  # ten samples beyond
    assert harness.percentile([3.0, 1.0, 2.0], 1.0) == 3.0
    assert harness.percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_per_op_median_keeps_recurring_stalls_and_drops_bursts():
    # op 1 stalls in every pass (deterministic); op 2 is hit by one burst.
    passes = [[1.0, 9.0, 1.0], [1.1, 9.2, 8.0], [0.9, 9.1, 1.2]]
    assert harness.per_op_median(passes) == [1.0, 9.1, 1.2]
    with pytest.raises(ValueError):
        harness.per_op_median([[1.0, 2.0], [1.0]])


def test_spread_is_interquartile_share_of_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert harness.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


def test_passes_follow_seconds():
    assert harness.passes_for(12) == 3
    assert harness.passes_for(1) == 2


def test_normalized_scales_cpu_and_waiting_shares_apart(tmp_path):
    probe = harness.HostProbe(tmp_path)
    probe.times = [0.0, 1.0, 2.0]
    probe.cpu_seconds = [2 * harness.PROBE_REFERENCE_SECONDS] * 3
    probe.sync_seconds = [4 * harness.SYNC_REFERENCE_SECONDS] * 3
    probe.close()
    assert probe.cpu_slowdown(0.5, 0.6) == pytest.approx(2.0)
    assert probe.sync_slowdown(0.5, 0.6) == pytest.approx(4.0)
    # 0.1 s wall: 0.06 s on the CPU at half speed, 0.04 s of fsync at a quarter.
    assert harness.normalized(probe, 0.5, 0.6, 0.06) == pytest.approx(0.04)


def test_quotas_fix_the_multiset():
    assert quotas([0.55, 0.35, 0.10], 200) == [110, 70, 20]
    assert sum(quotas([1.0, 1.0, 1.0], 10)) == 10


def test_zipf_draws_depend_on_seed_only_in_order():
    first = zipf_draws(24, 225, random.Random(1))
    second = zipf_draws(24, 225, random.Random(2))
    assert first != second
    assert sorted(first) == sorted(second)
    counts = [first.count(item) for item in range(24)]
    assert counts == sorted(counts, reverse=True) and counts[0] > 4 * counts[-1]


def test_manifest_names_the_workloads():
    assert [entry["name"] for entry in MANIFEST["workloads"]] == list(WORKLOADS)
    assert MANIFEST["paths"] == ["benchmarks/e2e"]


def _session_members(session: int) -> list[str]:
    """Processes (zombies too) of a session, from /proc; [] without one."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # gone while we looked
        if int(fields[3]) == session:
            members.append(stat.parent.name)
    return members


@pytest.mark.parametrize(
    "workload,trace",
    [("solver_cold", 0), ("bound_scan", 1), ("served_mixed", 0), ("ingest_recover", 1)],
)
def test_quick_run_reports_every_declared_metric(workload, trace):
    # In a session of its own, so what the run leaves behind can be found.
    with subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--trace", str(trace), "--quick",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as process:
        stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    assert _session_members(process.pid) == []
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
        if not trace:
            assert metric["value"] > 0
