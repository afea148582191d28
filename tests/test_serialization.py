"""Tests for graph serialization round trips and error handling."""

import pytest

from repro.errors import SerializationError
from repro.graph import (
    LabeledGraph,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    path_graph,
)


@pytest.fixture
def sample() -> LabeledGraph:
    return LabeledGraph.from_edges(
        [("a", "b", "x"), ("b", "c", "y")],
        vertex_labels={"a": "A", "b": "B", "c": "C"},
        name="sample",
    )


def test_dict_round_trip(sample):
    payload = graph_to_dict(sample)
    rebuilt = graph_from_dict(payload)
    assert rebuilt == sample
    assert rebuilt.name == "sample"


def test_dict_preserves_isolated_vertices():
    g = path_graph(["A", "B"])
    g.add_vertex(9, "Z")
    rebuilt = graph_from_dict(graph_to_dict(g))
    assert rebuilt.order == 3
    assert rebuilt.vertex_label(9) == "Z"


def test_dict_malformed_payloads():
    with pytest.raises(SerializationError):
        graph_from_dict({"vertices": [[1, "A"]]})  # missing edges
    with pytest.raises(SerializationError):
        graph_from_dict({"vertices": [[1, "A"]], "edges": [[1, 2, "x"]]})
    with pytest.raises(SerializationError):
        graph_from_dict({"vertices": "nope", "edges": []})


def test_json_round_trip(sample):
    rebuilt = graph_from_json(graph_to_json(sample))
    assert rebuilt == sample


def test_json_rejects_unserializable_labels():
    g = LabeledGraph()
    g.add_vertex(0, object())
    with pytest.raises(SerializationError):
        graph_to_json(g)


def test_json_rejects_invalid_payload():
    with pytest.raises(SerializationError):
        graph_from_json("{not json")
