"""Shared fixtures, hypothesis profiles and strategies for the suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.datasets import figure1_pair, figure3_database, figure3_query
from repro.db import GraphDatabase
from repro.graph import LabeledGraph, iter_subgraph_isomorphisms, path_graph

# ----------------------------------------------------------------------
# Hypothesis profiles
# ----------------------------------------------------------------------
# ``ci`` is deterministic (derandomized, bounded examples) so property
# tests cannot flake in CI; select it with HYPOTHESIS_PROFILE=ci. Tests
# that pass their own ``settings(...)`` still inherit derandomization —
# only the fields they set explicitly override the profile.
settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile("dev", max_examples=60, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


# ----------------------------------------------------------------------
# Plain fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def triangle() -> LabeledGraph:
    """A labeled triangle A-B-C."""
    return LabeledGraph.from_edges(
        [("A", "B", "x"), ("B", "C", "x"), ("C", "A", "y")], name="triangle"
    )


@pytest.fixture
def small_path() -> LabeledGraph:
    """A 3-edge path with distinct labels."""
    return path_graph(["A", "B", "C", "D"], name="p4")


@pytest.fixture
def fig1_g1() -> LabeledGraph:
    return figure1_pair()[0]


@pytest.fixture
def fig1_g2() -> LabeledGraph:
    return figure1_pair()[1]


@pytest.fixture
def paper_db() -> list[LabeledGraph]:
    return figure3_database()


@pytest.fixture
def paper_query() -> LabeledGraph:
    return figure3_query()


@pytest.fixture
def paper_database() -> GraphDatabase:
    """The figure-3 graphs loaded into a GraphDatabase.

    The single definition of the fixture previously duplicated across
    ``test_engine*.py``, ``test_api*.py``, ``test_live_view.py`` and
    ``test_pair_cache.py``.
    """
    return GraphDatabase.from_graphs(figure3_database(), name="fig3")


# ----------------------------------------------------------------------
# Random-graph helpers (deterministic seeds)
# ----------------------------------------------------------------------
def make_random_graph(
    seed: int,
    max_vertices: int = 6,
    labels: tuple[str, ...] = ("A", "B", "C"),
    edge_labels: tuple[str, ...] = ("-",),
) -> LabeledGraph:
    """Small random connected labeled graph for oracle-based tests."""
    rng = random.Random(seed)
    n = rng.randint(2, max_vertices)
    max_edges = n * (n - 1) // 2
    m = rng.randint(n - 1, max_edges)
    from repro.graph import random_labeled_graph

    return random_labeled_graph(
        n, m, vertex_labels=labels, edge_labels=edge_labels, seed=rng,
        name=f"rand-{seed}",
    )


def embeds(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """Whether ``pattern ⊆ target`` in the sense of Definition 6."""
    return next(iter_subgraph_isomorphisms(pattern, target), None) is not None


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
VERTEX_LABELS = ("A", "B", "C")
EDGE_LABELS = ("x", "y")
#: Alphabets with several spellings of one label (``1 == 1.0 == True``,
#: ``0 == False``): every layer must match labels by equality.
MIXED_VERTEX_LABELS = ("A", 1, 1.0, True, 0, False)
MIXED_EDGE_LABELS = ("x", 1, True, 0.0)


@st.composite
def small_labeled_graphs(
    draw,
    max_vertices: int = 5,
    vertex_labels: tuple[str, ...] = VERTEX_LABELS,
    edge_labels: tuple[str, ...] = EDGE_LABELS,
    connected: bool = False,
) -> LabeledGraph:
    """Random small labeled graphs (possibly disconnected)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    labels = draw(
        st.lists(st.sampled_from(vertex_labels), min_size=n, max_size=n)
    )
    graph = LabeledGraph(name="hyp")
    for i, label in enumerate(labels):
        graph.add_vertex(i, label)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if connected and n > 1:
        order = draw(st.permutations(list(range(n))))
        for position in range(1, n):
            anchor = draw(st.sampled_from(order[:position]))
            u, v = order[position], anchor
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, draw(st.sampled_from(edge_labels)))
    for u, v in pairs:
        if not graph.has_edge(u, v) and draw(st.booleans()):
            graph.add_edge(u, v, draw(st.sampled_from(edge_labels)))
    return graph


@st.composite
def vector_lists(draw, max_points: int = 30, max_dim: int = 4):
    """Lists of equal-dimension float vectors for skyline properties."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=0, max_value=max_points))
    value = st.integers(min_value=0, max_value=6).map(float)
    return [
        tuple(draw(value) for _ in range(dim))
        for _ in range(n)
    ]
