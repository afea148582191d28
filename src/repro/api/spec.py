"""Declarative query specifications: :class:`GraphQuery` and the builder.

A :class:`GraphQuery` is an immutable, backend-agnostic description of one
similarity query over a graph database — what to retrieve (``skyline``,
``skyband``, ``topk`` or ``threshold``), under which measure vector and
dominance tolerance, and how to post-process the answer (diversity
refinement, result limit). Because the spec carries no execution state it
can be validated eagerly, shipped over a wire as JSON, replayed against a
different backend, and compared for equality in tests.

The fluent :class:`Query` builder produces specs without positional-field
noise::

    spec = (Query(q)
            .measures("edit", "mcs")
            .skyline(tolerance=0.01)
            .refine(k=2)
            .build())

Every builder step returns a *new* builder, so partially-built queries can
be shared and forked safely.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

from repro.errors import QueryError, SerializationError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.measures.base import DistanceMeasure, available_measures, get_measure

#: The query kinds every execution backend must support.
QUERY_KINDS = ("skyline", "skyband", "topk", "threshold")

#: Diversity refinement methods (mirrors :func:`repro.core.diversity`).
REFINE_METHODS = ("exhaustive", "greedy")

MeasureSpec = "str | DistanceMeasure"


@dataclass(frozen=True)
class GraphQuery:
    """An immutable similarity-query specification.

    Attributes
    ----------
    graph:
        The query graph ``q``.
    kind:
        One of :data:`QUERY_KINDS`.
    measures:
        GCS dimensions as registry names (or measure instances); ``None``
        means the paper's default ``(edit, mcs, union)``.
    tolerance:
        Dominance tolerance for floating-point measure values.
    k:
        Band width for ``skyband``; result count for ``topk``.
    measure:
        The single measure for ``topk``/``threshold``; ``None`` falls back
        to the first GCS dimension.
    threshold:
        Distance cut-off for ``threshold`` queries.
    refine_k / refine_method / refine_measures:
        Section-VII diversity refinement of a skyline/skyband answer.
    limit:
        Cap on the number of returned graphs (applied last).
    budget_ms / budget_nodes:
        Per-query evaluation budget (wall-clock milliseconds / search-tree
        expansions per evaluation pass). Setting either opts the query
        into **anytime** execution: every exact evaluation runs under the
        budget, candidates carry certified ``[lower, upper]`` intervals,
        and straddling candidates are refined progressively. Every
        evaluation solves against the bound stage's cutoff, as exact
        reads do: a candidate proved out of the answer is a
        ``solver-cutoff`` prune and carries no interval. With only
        ``budget_nodes`` the engine refines until every interval settles
        (the answer is exact); with ``budget_ms`` the answer may come back
        flagged approximate, over intervals.
    """

    graph: LabeledGraph
    kind: str = "skyline"
    measures: tuple[Any, ...] | None = None
    tolerance: float = 0.0
    k: int | None = None
    measure: Any | None = None
    threshold: float | None = None
    refine_k: int | None = None
    refine_method: str = "exhaustive"
    refine_measures: tuple[Any, ...] | None = None
    limit: int | None = None
    budget_ms: int | None = None
    budget_nodes: int | None = None

    @property
    def anytime(self) -> bool:
        """Whether this spec opts into budget-aware anytime execution."""
        return self.budget_ms is not None or self.budget_nodes is not None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "GraphQuery":
        """Check the spec for consistency; returns ``self`` for chaining.

        Raises :class:`~repro.errors.QueryError` with an available-names
        hint on unknown kinds, measures or refinement methods.
        """
        if not isinstance(self.graph, LabeledGraph):
            raise QueryError("query graph must be a LabeledGraph")
        if self.kind not in QUERY_KINDS:
            raise QueryError(
                f"unknown query kind {self.kind!r}; "
                f"available: {', '.join(QUERY_KINDS)}"
            )
        if self.measures is not None:
            if not self.measures:
                raise QueryError("a compound similarity needs at least one measure")
            for spec in self.measures:
                get_measure(spec)  # raises QueryError with the hint
        if self.measure is not None:
            get_measure(self.measure)
        if self.tolerance < 0:
            raise QueryError("tolerance must be non-negative")
        if self.kind in ("skyband", "topk"):
            if self.k is None or self.k < 1:
                raise QueryError("k must be at least 1")
        if self.kind == "threshold":
            if self.threshold is None:
                raise QueryError("threshold queries need a threshold value")
            if self.threshold < 0:
                raise QueryError("threshold must be non-negative")
        if self.refine_k is not None:
            if self.kind not in ("skyline", "skyband"):
                raise QueryError(
                    "diversity refinement applies to skyline/skyband queries only"
                )
            if self.refine_k < 2:
                raise QueryError(
                    "refine_k must be at least 2 (diversity is defined on pairs)"
                )
            if self.refine_method not in REFINE_METHODS:
                raise QueryError(
                    f"unknown diversity method {self.refine_method!r}; "
                    f"available: {', '.join(REFINE_METHODS)}"
                )
            if self.refine_measures is not None:
                for spec in self.refine_measures:
                    get_measure(spec)
        if self.limit is not None and self.limit < 1:
            raise QueryError("limit must be at least 1")
        if self.budget_ms is not None and self.budget_ms < 1:
            raise QueryError("budget_ms must be at least 1")
        if self.budget_nodes is not None and self.budget_nodes < 1:
            raise QueryError("budget_nodes must be at least 1")
        return self

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data payload (JSON-representable) for this spec.

        Measure instances are serialized by registry name; an instance
        whose name does not resolve back to the registry cannot be shipped.
        """
        return {
            "graph": graph_to_dict(self.graph),
            "kind": self.kind,
            "measures": _measure_names(self.measures),
            "tolerance": self.tolerance,
            "k": self.k,
            "measure": _measure_name(self.measure),
            "threshold": self.threshold,
            "refine_k": self.refine_k,
            "refine_method": self.refine_method,
            "refine_measures": _measure_names(self.refine_measures),
            "limit": self.limit,
            "budget_ms": self.budget_ms,
            "budget_nodes": self.budget_nodes,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GraphQuery":
        """Rebuild (and validate) a spec from :meth:`to_dict` output."""
        try:
            graph = graph_from_dict(payload["graph"])
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"malformed query payload: {exc}") from exc
        measures = payload.get("measures")
        refine_measures = payload.get("refine_measures")
        spec = cls(
            graph=graph,
            kind=payload.get("kind", "skyline"),
            measures=tuple(measures) if measures is not None else None,
            tolerance=float(payload.get("tolerance", 0.0)),
            k=payload.get("k"),
            measure=payload.get("measure"),
            threshold=payload.get("threshold"),
            refine_k=payload.get("refine_k"),
            refine_method=payload.get("refine_method", "exhaustive"),
            refine_measures=(
                tuple(refine_measures) if refine_measures is not None else None
            ),
            limit=payload.get("limit"),
            budget_ms=payload.get("budget_ms"),
            budget_nodes=payload.get("budget_nodes"),
        )
        return spec.validate()

    def to_json(self, **dumps_kwargs: Any) -> str:
        """JSON string for this spec (the wire format)."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "GraphQuery":
        """Rebuild (and validate) a spec from :meth:`to_json` output."""
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"malformed query JSON: {exc}") from exc
        return cls.from_dict(data)


def _measure_name(spec: Any | None) -> str | None:
    """Registry name of one measure spec (validating instances resolve)."""
    if spec is None or isinstance(spec, str):
        return spec
    if isinstance(spec, DistanceMeasure):
        if spec.name not in available_measures():
            raise SerializationError(
                f"measure {spec.name!r} is not registered and cannot be "
                "serialized; register it with repro.measures.register_measure"
            )
        return spec.name
    raise SerializationError(f"cannot serialize measure spec {spec!r}")


def _measure_names(specs: tuple[Any, ...] | None) -> list[str] | None:
    if specs is None:
        return None
    return [_measure_name(spec) for spec in specs]


class Query:
    """Fluent, immutable builder of :class:`GraphQuery` specs.

    >>> from repro.datasets import figure3_query
    >>> spec = Query(figure3_query()).measures("edit", "mcs").skyline().build()
    >>> spec.kind, spec.measures
    ('skyline', ('edit', 'mcs'))
    """

    def __init__(self, graph: LabeledGraph, _spec: GraphQuery | None = None) -> None:
        self._spec = _spec if _spec is not None else GraphQuery(graph=graph)

    def _replace(self, **changes: Any) -> "Query":
        return Query(self._spec.graph, dataclasses.replace(self._spec, **changes))

    # -- configuration -------------------------------------------------
    def measures(self, *specs: Any) -> "Query":
        """Set the GCS dimensions (names or measure instances)."""
        return self._replace(measures=tuple(specs))

    def tolerance(self, value: float) -> "Query":
        """Set the dominance tolerance."""
        return self._replace(tolerance=value)

    # -- query kinds ---------------------------------------------------
    def skyline(self, tolerance: float | None = None) -> "Query":
        """Retrieve the graph similarity skyline ``GSS(D, q)``."""
        changes: dict[str, Any] = {"kind": "skyline"}
        if tolerance is not None:
            changes["tolerance"] = tolerance
        return self._replace(**changes)

    def skyband(self, k: int) -> "Query":
        """Retrieve the k-skyband (graphs dominated by fewer than ``k``)."""
        return self._replace(kind="skyband", k=k)

    def topk(self, k: int, measure: Any | None = None) -> "Query":
        """Retrieve the single-measure top-k baseline."""
        return self._replace(kind="topk", k=k, measure=measure)

    def threshold(self, threshold: float, measure: Any | None = None) -> "Query":
        """Retrieve all graphs within ``threshold`` under one measure."""
        return self._replace(kind="threshold", threshold=threshold, measure=measure)

    # -- post-processing -----------------------------------------------
    def refine(
        self,
        k: int,
        method: str = "exhaustive",
        measures: tuple[Any, ...] | None = None,
    ) -> "Query":
        """Refine a skyline/skyband answer to ``k`` diverse graphs."""
        return self._replace(
            refine_k=k, refine_method=method, refine_measures=measures
        )

    def limit(self, n: int) -> "Query":
        """Cap the number of returned graphs."""
        return self._replace(limit=n)

    def budget(self, ms: int | None = None, nodes: int | None = None) -> "Query":
        """Opt into anytime execution under a per-query evaluation budget.

        ``ms`` caps wall-clock time; ``nodes`` caps search expansions per
        evaluation pass. See :class:`GraphQuery` for the semantics.
        """
        return self._replace(budget_ms=ms, budget_nodes=nodes)

    # -- finalization --------------------------------------------------
    def build(self) -> GraphQuery:
        """The validated immutable spec."""
        return self._spec.validate()

    def __repr__(self) -> str:
        return f"<Query {self._spec.kind} over {self._spec.graph.name!r}>"
