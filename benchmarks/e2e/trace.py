"""Run-time span recorder for the traced benchmark pass.

The benchmark measures the program from outside, so spans are recorded
here, by wrapping a handful of *coarse* public callables at run time —
one call per query, per exact pair, per mutation — never the
per-candidate ``Stage`` methods of the cascade (thousands of calls per
query; wrapping them would measure the wrapper). Everything finer comes
from what the program already returns (``stats`` of each answer).

A span is ``(name, op, parent, start, end)``. Spans of one op share the
op's id. Each thread keeps its own stack; a span opened on a thread with
an empty stack while an op is in flight is parented to the op's root
span — that is how the in-thread server's work lands under the client's
request (the client blocks on the socket meanwhile, so the child still
lies inside the parent). Self time is a span's duration minus its
children's durations; :meth:`Tracer.self_seconds` checks none is
negative, i.e. that the nesting assumption held.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_perf = time.perf_counter


class Span:
    __slots__ = ("name", "op", "parent", "start", "end")

    def __init__(self, name: str, op: "int | None", parent: "Span | None") -> None:
        self.name = name
        self.op = op
        self.parent = parent
        self.start = _perf()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; wrapping is undone by :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = False
        self._local = threading.local()
        self._root: "Span | None" = None
        self._undo: list[tuple[Any, str, Any]] = []

    def clear(self) -> None:
        self.spans = []
        self.counts.clear()

    # -- recording --------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int, name: str = "op") -> Span:
        """Open the root span of op ``op`` on the calling thread."""
        span = Span(name, op, None)
        self.spans.append(span)
        self._stack().append(span)
        self._root = span
        return span

    def end_op(self, span: Span) -> None:
        span.end = _perf()
        self._stack().pop()
        self._root = None

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span = Span(name, parent.op if parent is not None else None, parent)
            tracer.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = _perf()
                stack.pop()

        return traced

    # -- installation -----------------------------------------------------
    def patch_function(self, original: Callable, name: str) -> None:
        """Replace every ``repro.*`` module-level binding of ``original``
        (``from x import f`` copies the binding, so each importer is
        patched) with its traced wrapper."""
        wrapper = self.wrap(original, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        original = cls.__dict__.get(attr)
        if original is None or getattr(original, "__isabstractmethod__", False):
            return
        setattr(cls, attr, self.wrap(original, name))
        self._undo.append((cls, attr, original))

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans (for
        calls too cheap or too global to time, e.g. ``os.fsync``)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            if tracer.enabled:
                tracer.counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the layer boundaries of the program (see README)."""
        # import_module, not ``import a.b as c``: ``repro.graph`` exports
        # a function named ``ged`` that shadows the submodule attribute.
        ops, wal, consume, core, scatter, ged, mcs = (
            importlib.import_module(f"repro.{name}")
            for name in (
                "api.ops", "db.wal", "engine.consume", "engine.core",
                "engine.scatter", "graph.ged", "graph.mcs",
            )
        )
        from repro.api.result import ResultSet
        from repro.api.session import Session
        from repro.engine.planner import QueryPlanner
        from repro.measures.base import DistanceMeasure

        self.patch_function(ged.graph_edit_distance, "graph.ged")
        self.patch_function(mcs.maximum_common_subgraph, "graph.mcs")
        for cls in _subclasses(DistanceMeasure):
            self.patch_method(cls, "distance", "measures.distance")
            self.patch_method(cls, "distance_interval", "measures.distance")
        self.patch_method(QueryPlanner, "decide", "engine.plan")
        self.patch_function(core.run_plan, "engine.run")
        self.patch_function(consume.finish_vectors, "skyline.consume")
        self.patch_function(consume.finish_distances, "skyline.consume")
        for cls in _subclasses(scatter.MergeConsumer):
            self.patch_method(cls, "merge", "shard.merge")
        self.patch_method(Session, "execute", "api.execute")
        self.patch_method(ResultSet, "to_dict", "api.to_dict")
        self.patch_function(ops.apply_mutation, "db.apply")
        self.patch_method(wal.DurableLog, "append", "wal.append")
        self.patch_method(wal.DurableLog, "compact_from", "wal.compact")
        self.patch_method(wal.DurableLog, "recover", "wal.recover")
        self.count_calls(os, "fsync", "wal.fsyncs")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Self time per span name. Raises if a span's children outlast
        it by more than clock jitter — the per-op self times then would
        not sum to the op's wall."""
        spans = self.spans
        own = {id(span): span.seconds for span in spans}
        for span in spans:
            if span.parent is not None:
                own[id(span.parent)] -= span.seconds
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            seconds = own[id(span)]
            if seconds < -1e-4:
                raise AssertionError(
                    f"span {span.name!r} of op {span.op} has children "
                    f"outlasting it by {-seconds:.6f}s"
                )
            totals[span.name] += seconds
        return dict(totals)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def dump(self, path: Path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [
                span.name,
                span.op,
                index.get(id(span.parent)) if span.parent is not None else None,
                round(span.start, 7),
                round(span.end, 7),
            ]
            for span in self.spans
        ]
        path.write_text(
            json.dumps(
                {"columns": ["name", "op", "parent", "start", "end"], "spans": rows}
            ),
            encoding="utf-8",
        )


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
