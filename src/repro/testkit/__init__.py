"""Differential workload testing: generator, oracle, runner, shrinker.

The standing safety net for every scaling PR: a :class:`Workload` is a
deterministic, seed-derived, replayable sequence of steps — database
mutations, queries across all kinds × backends × cache settings, live
view checks and persistence round-trips — executed simultaneously
against the real system and a tiny trusted oracle
(:class:`~repro.testkit.oracle.Oracle`: naive exhaustive evaluation over
``memory`` semantics). The first divergence is shrunk to a minimal
reproducing step list (:func:`~repro.testkit.shrink.shrink_workload`)
and printed with the exact :class:`~repro.api.spec.GraphQuery` JSON.

Entry points::

    from repro.testkit import generate_workload, run_workload

    report = run_workload(generate_workload(seed=7, n_steps=200))
    assert report.ok, report.divergence

or from the shell: ``python -m repro fuzz --seed 7 --steps 200``.

The reference solvers and checks the test suite compares the product
with are in :mod:`repro.testkit.reference`.
"""

from repro.testkit.oracle import Oracle
from repro.testkit.workload import (
    AddGraph,
    CheckViews,
    RemoveGraph,
    RelabelGraph,
    RunQuery,
    SaveLoad,
    Step,
    WatchView,
    Workload,
    generate_workload,
)
from repro.testkit.runner import (
    FAULTS,
    Divergence,
    RunReport,
    WorkloadRunner,
    run_workload,
)
from repro.testkit.shrink import format_repro, shrink_workload
from repro.testkit.crash import (
    CrashReport,
    fuzz_kill_recover,
    generate_crash_workload,
    run_kill_recover,
)

__all__ = [
    "CrashReport",
    "fuzz_kill_recover",
    "generate_crash_workload",
    "run_kill_recover",
    "Oracle",
    "Step",
    "AddGraph",
    "RemoveGraph",
    "RelabelGraph",
    "RunQuery",
    "WatchView",
    "CheckViews",
    "SaveLoad",
    "Workload",
    "generate_workload",
    "WorkloadRunner",
    "run_workload",
    "RunReport",
    "Divergence",
    "FAULTS",
    "shrink_workload",
    "format_repro",
]
