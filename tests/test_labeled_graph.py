"""Unit tests for the core labeled-graph type (Definition 3)."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import repro

from repro.errors import (
    DuplicateEdgeError,
    DuplicateVertexError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph import DEFAULT_EDGE_LABEL, LabeledGraph, edge_key
from repro.graph.pairview import GraphSide, graph_side


def test_empty_graph_properties():
    g = LabeledGraph(name="empty")
    assert g.order == 0
    assert g.size == 0
    assert len(g) == 0
    assert g.vertices() == []
    assert list(g.edges()) == []
    assert g.is_connected()  # by convention


def test_add_vertices_and_edges():
    g = LabeledGraph()
    g.add_vertex(1, "A")
    g.add_vertex(2, "B")
    g.add_edge(1, 2, "x")
    assert g.order == 2
    assert g.size == 1
    assert g.vertex_label(1) == "A"
    assert g.edge_label(1, 2) == "x"
    assert g.edge_label(2, 1) == "x"  # undirected
    assert g.has_edge(2, 1)


def test_size_counts_edges_not_vertices():
    """The paper's |g| is the edge count (Definition 3)."""
    g = LabeledGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    assert g.size == 3
    assert g.order == 3
    g2 = LabeledGraph()
    g2.add_vertex("a", "a")
    assert g2.size == 0


def test_duplicate_vertex_rejected():
    g = LabeledGraph()
    g.add_vertex(1, "A")
    with pytest.raises(DuplicateVertexError):
        g.add_vertex(1, "B")


def test_duplicate_edge_rejected():
    g = LabeledGraph.from_edges([(1, 2)])
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(1, 2)
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(2, 1)  # same undirected edge


def test_self_loop_rejected():
    g = LabeledGraph()
    g.add_vertex(1, "A")
    with pytest.raises(SelfLoopError):
        g.add_edge(1, 1)


def test_edge_to_missing_vertex_rejected():
    g = LabeledGraph()
    g.add_vertex(1, "A")
    with pytest.raises(VertexNotFoundError):
        g.add_edge(1, 2)


def test_missing_lookups_raise():
    g = LabeledGraph()
    with pytest.raises(VertexNotFoundError):
        g.vertex_label(0)
    with pytest.raises(VertexNotFoundError):
        g.degree(0)
    with pytest.raises(VertexNotFoundError):
        g.neighbors(0)
    with pytest.raises(EdgeNotFoundError):
        g.edge_label(0, 1)
    with pytest.raises(VertexNotFoundError):
        g.remove_vertex(0)
    with pytest.raises(EdgeNotFoundError):
        g.remove_edge(0, 1)


def test_remove_vertex_removes_incident_edges():
    g = LabeledGraph.from_edges([(1, 2), (2, 3), (1, 3)])
    g.remove_vertex(2)
    assert g.order == 2
    assert g.size == 1
    assert g.has_edge(1, 3)
    assert not g.has_vertex(2)


def test_remove_edge_keeps_vertices():
    g = LabeledGraph.from_edges([(1, 2)])
    g.remove_edge(2, 1)
    assert g.size == 0
    assert g.order == 2


def test_relabel_vertex_and_edge():
    g = LabeledGraph.from_edges([("a", "b", "x")])
    g.relabel_vertex("a", "Z")
    g.relabel_edge("a", "b", "y")
    assert g.vertex_label("a") == "Z"
    assert g.edge_label("b", "a") == "y"


def test_relabel_missing_raises():
    g = LabeledGraph()
    with pytest.raises(VertexNotFoundError):
        g.relabel_vertex("a", "Z")
    with pytest.raises(EdgeNotFoundError):
        g.relabel_edge("a", "b", "y")


def test_from_edges_defaults_label_to_vertex_id():
    g = LabeledGraph.from_edges([("a", "b")])
    assert g.vertex_label("a") == "a"
    assert g.edge_label("a", "b") == DEFAULT_EDGE_LABEL


def test_from_edges_with_vertex_labels_and_isolated_vertices():
    g = LabeledGraph.from_edges(
        [(1, 2, "x")], vertex_labels={1: "A", 2: "B", 3: "C"}
    )
    assert g.order == 3  # vertex 3 exists although isolated
    assert g.degree(3) == 0
    assert g.vertex_label(3) == "C"


def test_from_edges_rejects_malformed_tuples():
    with pytest.raises(ValueError):
        LabeledGraph.from_edges([(1,)])
    with pytest.raises(ValueError):
        LabeledGraph.from_edges([(1, 2, "x", "extra")])


def test_copy_is_deep():
    g = LabeledGraph.from_edges([(1, 2, "x")], name="orig")
    clone = g.copy()
    clone.add_vertex(3, "C")
    clone.relabel_edge(1, 2, "y")
    assert g.order == 2
    assert g.edge_label(1, 2) == "x"
    assert clone.name == "orig"
    assert g.copy(name="new").name == "new"
    # Writes to the source never reach a copy either, whether or not
    # the copy has written first.
    fresh = g.copy()
    g.relabel_vertex(1, "Q")
    g.remove_edge(1, 2)
    g.add_vertex(4, "D")
    assert clone.vertex_label(1) == 1
    assert clone.edge_label(1, 2) == "y"
    assert clone.order == 3
    assert fresh.vertices() == [1, 2]
    assert fresh.vertex_label(1) == 1
    assert list(fresh.edges()) == [(1, 2, "x")]


def _base(name: str = "g") -> LabeledGraph:
    """A star on 2 whose rows hold more than one neighbour."""
    return LabeledGraph.from_edges(
        [(1, 2, "x"), (2, 3, "y"), (4, 2, "x")],
        vertex_labels={1: "A", 2: "B", 3: "C", 4: "A"},
        name=name,
    )


#: One call of each mutator, valid on ``_base()``; applied in this order
#: they stay valid, each on the graph the previous ones left.
MUTATORS = {
    "relabel_vertex": lambda g: g.relabel_vertex(1, "Q"),
    "add_edge": lambda g: g.add_edge(1, 3, "z"),
    "relabel_edge": lambda g: g.relabel_edge(4, 2, "w"),
    "remove_edge": lambda g: g.remove_edge(2, 3),
    "add_vertex": lambda g: g.add_vertex(9, "Z"),
    "remove_vertex": lambda g: g.remove_vertex(2),
}


def _write_all(graph: LabeledGraph) -> LabeledGraph:
    for write in MUTATORS.values():
        write(graph)
    return graph


def _layout(graph: LabeledGraph) -> tuple:
    """What a reader sees, in order: labelled vertices, every row in
    neighbour order, the ``edges()`` sequence and the size."""
    return (
        [(v, graph.vertex_label(v)) for v in graph.vertices()],
        [[(u, graph.edge_label(v, u)) for u in graph.neighbors(v)] for v in graph.vertices()],
        list(graph.edges()),
        graph.size,
    )


@pytest.mark.parametrize("first", ["source", "middle", "clone"])
@pytest.mark.parametrize("mutator", list(MUTATORS))
def test_copy_on_write_isolates_every_link_of_a_chain(mutator, first):
    """``a.copy()`` then ``b.copy()``: all three share one structure, and
    a write to any of them, in any order, reaches that one only, in the
    order a never-copied graph would have."""
    a = _base()
    b = a.copy()
    c = b.copy()
    chain = {"source": a, "middle": b, "clone": c}
    written: set[str] = set()
    reference = _base()
    MUTATORS[mutator](reference)
    for where in [first] + [w for w in chain if w != first]:
        MUTATORS[mutator](chain[where])
        written.add(where)
        for other, graph in chain.items():
            expected = reference if other in written else _base()
            assert graph == expected, (where, other)
            assert _layout(graph) == _layout(expected), (where, other)


@pytest.mark.parametrize(
    "roundtrip",
    [lambda graphs: pickle.loads(pickle.dumps(graphs)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_structure_sharing_graphs_roundtrip_and_stay_independent(roundtrip):
    source = _base("source")
    clone = source.copy(name="clone")
    source2, clone2 = roundtrip((source, clone))
    assert (source2.name, clone2.name) == ("source", "clone")
    assert _layout(source2) == _layout(clone2) == _layout(_base())
    written = _layout(_write_all(_base()))
    _write_all(source2)
    assert _layout(source2) == written
    assert _layout(clone2) == _layout(_base())
    _write_all(clone2)
    assert _layout(clone2) == _layout(source2) == written
    assert _layout(source) == _layout(clone) == _layout(_base())


def _side_state(side: GraphSide) -> tuple:
    return tuple(getattr(side, slot) for slot in GraphSide.__slots__ if slot != "_memo")


def test_graph_side_of_a_clone_survives_writes_to_its_source():
    """The side cache keys on ``(id, mutation_count)``; a clone's count
    does not move when its source is written, so the source's writes
    must not reach the clone's structure either."""
    source = _base()
    clone = source.copy()
    side = graph_side(clone)
    before = _side_state(side)
    _write_all(source)
    assert graph_side(clone) is side
    assert _side_state(side) == before == _side_state(GraphSide(clone))
    assert _side_state(graph_side(source)) == _side_state(GraphSide(_write_all(_base())))


#: Names of the dictionaries :meth:`LabeledGraph.copy` shares.
_SHARED = {"_adjacency", "_vertex_labels"}
_WRITING_METHODS = {
    "pop", "popitem", "update", "setdefault", "clear", "__setitem__", "__delitem__",
}


def _reaches_shared(node: ast.AST) -> bool:
    """Whether ``node`` is ``x._adjacency`` / ``x._vertex_labels`` or an
    item or attribute taken through one."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute) and node.attr in _SHARED:
            return True
        node = node.value
    return False


def _shared_writes(source: str) -> list[int]:
    """Lines that assign, delete or mutate (``pop``, ``update``,
    ``setdefault``, ``clear``, ...) into the shared dictionaries."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _WRITING_METHODS
        ):
            targets = [node.func.value]
        else:
            continue
        while any(isinstance(t, (ast.Tuple, ast.List, ast.Starred)) for t in targets):
            targets = [
                inner
                for t in targets
                for inner in (
                    t.elts if isinstance(t, (ast.Tuple, ast.List))
                    else [t.value] if isinstance(t, ast.Starred) else [t]
                )
            ]
        if any(_reaches_shared(target) for target in targets):
            lines.append(node.lineno)
    return lines


def test_only_the_graph_class_writes_its_shared_dictionaries():
    """Copy-on-write holds only if every write goes through a mutator
    that calls ``_own()`` first: no other module may write into a
    graph's dictionaries. Reads (``label_maps()``, the canonical
    refinement's row lookups) stay allowed."""
    package = Path(repro.__file__).parent
    owner = package / "graph" / "labeled_graph.py"
    offenders = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if path != owner and (lines := _shared_writes(path.read_text()))
    }
    assert offenders == {}
    # The scan sees the owner's own writes and every form it counts.
    assert len(_shared_writes(owner.read_text())) >= 10
    forms = [
        "g._adjacency = {}",
        "g._vertex_labels[v] = label",
        "g._adjacency[u][v] += 1",
        "a, g._adjacency[u] = 1, {}",
        "del g._adjacency[u][v]",
        "g._vertex_labels.pop(v)",
        "g._adjacency[u].update(row)",
        "g._adjacency.setdefault(u, {})",
        "g._vertex_labels.clear()",
    ]
    assert [bool(_shared_writes(form)) for form in forms] == [True] * len(forms)
    assert _shared_writes("rows = list(map(g._adjacency.__getitem__, vs))") == []
    assert _shared_writes("labels, adjacency = g.label_maps()") == []


def test_edges_iteration_is_canonical_and_complete():
    g = LabeledGraph.from_edges([(2, 1, "x"), (3, 2, "y")])
    edges = list(g.edges())
    assert len(edges) == 2
    assert all(edge_key(u, v) == (u, v) for u, v, _ in edges)
    assert {(u, v) for u, v, _ in edges} == {edge_key(1, 2), edge_key(2, 3)}


def test_edge_key_is_order_insensitive():
    assert edge_key("b", "a") == edge_key("a", "b")
    assert edge_key(2, 10) == edge_key(10, 2)
    # mixed types get a deterministic (type-name, repr) order
    assert edge_key("a", 1) == edge_key(1, "a")


def test_label_multisets():
    g = LabeledGraph.from_edges(
        [(1, 2, "x"), (2, 3, "x")], vertex_labels={1: "A", 2: "A", 3: "B"}
    )
    assert g.vertex_label_multiset() == {"A": 2, "B": 1}
    assert g.edge_label_multiset() == {"x": 2}
    assert g.label_set() == {"A", "B", "x"}


def test_connected_components():
    g = LabeledGraph.from_edges([(1, 2), (3, 4)])
    g.add_vertex(5, "E")
    components = sorted(g.connected_components(), key=len)
    assert [len(c) for c in components] == [1, 2, 2]
    assert not g.is_connected()


def test_subgraph_induced():
    g = LabeledGraph.from_edges([(1, 2, "x"), (2, 3, "y"), (1, 3, "z")])
    sub = g.subgraph([1, 2])
    assert sub.order == 2
    assert sub.size == 1
    assert sub.edge_label(1, 2) == "x"
    with pytest.raises(VertexNotFoundError):
        g.subgraph([1, 99])


def test_edge_subgraph():
    g = LabeledGraph.from_edges([(1, 2, "x"), (2, 3, "y"), (1, 3, "z")])
    sub = g.edge_subgraph([(1, 2), (2, 3)])
    assert sub.size == 2
    assert sub.order == 3
    with pytest.raises(EdgeNotFoundError):
        g.edge_subgraph([(1, 4)])


def test_structural_equality():
    g1 = LabeledGraph.from_edges([(1, 2, "x")])
    g2 = LabeledGraph.from_edges([(2, 1, "x")])
    assert g1 == g2
    g3 = LabeledGraph.from_edges([(1, 2, "y")])
    assert g1 != g3
    assert g1 != "not a graph"


def test_graph_is_unhashable():
    g = LabeledGraph()
    with pytest.raises(TypeError):
        hash(g)


def test_contains_iter_repr():
    g = LabeledGraph.from_edges([(1, 2)], name="tiny")
    assert 1 in g
    assert 9 not in g
    assert sorted(g) == [1, 2]
    assert "tiny" in repr(g)
    assert "1 edges" in repr(g)


def test_neighbors_and_degree():
    g = LabeledGraph.from_edges([(1, 2), (1, 3), (1, 4)])
    assert sorted(g.neighbors(1)) == [2, 3, 4]
    assert g.degree(1) == 3
    assert g.degree(2) == 1
