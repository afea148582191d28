"""Graph (de)serialization: dicts and JSON.

The dict payload is the source of truth::

    {
      "name": "g1",
      "vertices": [[vertex_id, label], ...],
      "edges": [[u, v, label], ...],
    }

JSON round-trips any graph whose ids and labels are JSON-representable
(strings, numbers, booleans).
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import SerializationError
from repro.graph.labeled_graph import LabeledGraph


def graph_to_dict(graph: LabeledGraph) -> dict[str, Any]:
    """Plain-data payload for ``graph`` (see module docstring)."""
    return {
        "name": graph.name,
        "vertices": [[v, graph.vertex_label(v)] for v in graph.vertices()],
        "edges": [[u, v, label] for u, v, label in graph.edges()],
    }


def graph_from_dict(payload: dict[str, Any]) -> LabeledGraph:
    """Rebuild a graph from :func:`graph_to_dict` output."""
    if not isinstance(payload, dict):
        raise SerializationError(
            f"malformed graph payload: expected an object, "
            f"got {type(payload).__name__}"
        )
    try:
        graph = LabeledGraph(name=payload.get("name"))
        for vertex, label in payload["vertices"]:
            graph.add_vertex(vertex, label)
        for u, v, label in payload["edges"]:
            graph.add_edge(u, v, label)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed graph payload: {exc}") from exc
    return graph


def graph_to_json(graph: LabeledGraph, **dumps_kwargs: Any) -> str:
    """JSON string for ``graph``."""
    try:
        return json.dumps(graph_to_dict(graph), **dumps_kwargs)
    except TypeError as exc:
        raise SerializationError(
            f"graph has ids/labels that are not JSON-serializable: {exc}"
        ) from exc


def graph_from_json(payload: str) -> LabeledGraph:
    """Rebuild a graph from :func:`graph_to_json` output.

    JSON has no tuples, so ids/labels that were tuples come back as lists;
    stick to strings and numbers for full fidelity.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    data["vertices"] = [tuple(item) for item in data.get("vertices", [])]
    data["edges"] = [tuple(item) for item in data.get("edges", [])]
    return graph_from_dict(data)
