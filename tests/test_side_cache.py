"""The process-wide cache of solver sides is sound.

:func:`repro.graph.pairview.graph_side` keeps one integer-indexed side
per graph version in a bounded LRU shared by every thread, and labels get
ids from one process-wide vocabulary. None of that may change an answer:
an edited graph, a recycled ``id``, a full cache, another thread or a
vocabulary that has seen other labels first must all solve like a cold
process.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Budget,
    LabeledGraph,
    UniformCostModel,
    graph_edit_distance,
    maximum_common_subgraph,
    path_graph,
    random_labeled_graph,
)
from repro.graph import pairview
from repro.graph.cost_models import LabelMatrixCostModel
from repro.graph.pairview import CostTables, PairView, graph_side
from repro.graph.vocabulary import LabelVocabulary
from tests import solver_golden
from tests.conftest import small_labeled_graphs

COSTS = (
    UniformCostModel(),
    UniformCostModel(indel_cost=0.7, mismatch_cost=0.3),
    LabelMatrixCostModel(vertex_matrix={("A", "B"): 0.4}, indel_cost=1.1),
)


@contextmanager
def cold_process():
    """A fresh vocabulary and an empty side cache, restored afterwards."""
    saved = pairview.LABELS, pairview._sides
    pairview.LABELS, pairview._sides = LabelVocabulary(), OrderedDict()
    try:
        yield
    finally:
        pairview.LABELS, pairview._sides = saved


def solve(g1: LabeledGraph, g2: LabeledGraph, nodes: int | None = None) -> dict:
    """Every field of every solver on one pair."""
    budget = None if nodes is None else Budget(node_limit=nodes)
    out = {}
    for index, costs in enumerate(COSTS):
        out[f"ged/{index}"] = solver_golden.ged_fields(
            graph_edit_distance(g1, g2, costs=costs, budget=budget)
        )
    for objective in ("edges", "vertices"):
        out[f"mcs/{objective}"] = solver_golden.mcs_fields(
            maximum_common_subgraph(g1, g2, objective=objective, budget=budget)
        )
    return out


def test_graph_edited_between_two_solves_gets_the_new_answer():
    g1 = path_graph(["A", "B", "C", "D"])
    g2 = path_graph(["A", "B", "C", "D"])
    assert graph_edit_distance(g1, g2).distance == 0.0
    g2.relabel_vertex(1, "X")
    assert graph_edit_distance(g1, g2).distance == 1.0
    g2.relabel_edge(2, 3, "y")
    assert graph_edit_distance(g1, g2).distance == 2.0
    assert maximum_common_subgraph(g1, g2).size == 0
    g2.remove_vertex(3)
    assert solve(g1, g2) == solve(g1, g2.copy())


def test_recycled_id_never_meets_the_side_of_a_freed_graph():
    """Graphs built alike have equal ``mutation_count``; once one is freed
    CPython hands its ``id`` to the next, so a cache trusting the key
    alone would serve the dead graph's labels."""
    with cold_process():
        for index in range(3 * pairview._SIDE_LIMIT):
            graph = path_graph([f"v{index}", f"w{index}", "x"])
            side = graph_side(graph)
            assert [side.vertex_labels[label] for label in side.labels] == [
                f"v{index}", f"w{index}", "x"
            ]
            del graph, side


def test_lru_keeps_its_bound_and_the_recently_used_sides():
    with cold_process():
        hot = path_graph(["A", "B"])
        hot_side = graph_side(hot)
        for index in range(pairview._SIDE_LIMIT + 40):
            graph_side(path_graph([f"L{index}", "B"]))
            assert len(pairview._sides) <= pairview._SIDE_LIMIT
            assert graph_side(hot) is hot_side


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(small_labeled_graphs(max_vertices=5), small_labeled_graphs(max_vertices=5)),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.one_of(st.sampled_from(["A", "B", "C", "x", "y"]), st.integers(-3, 3), st.text(max_size=2)),
        max_size=12,
    ),
    st.randoms(use_true_random=False),
    st.sampled_from([None, 0, 6, 40]),
)
def test_warm_process_solves_like_a_cold_one(pairs, labels, rng, nodes):
    """Label ids never steer a search: after other labels were interned
    first, and with sides cached by earlier pairs, every field of every
    solver equals what a cold process computes."""
    cold = []
    for g1, g2 in pairs:
        with cold_process():
            cold.append(solve(g1, g2, nodes))
    order = list(range(len(pairs)))
    rng.shuffle(order)
    with cold_process():
        for label in labels:
            pairview.LABELS.id(label)
        for index in order:
            g1, g2 = pairs[index]
            assert solve(g1, g2, nodes) == cold[index]
            assert solve(g2, g1, nodes) == solve(g2.copy(), g1.copy(), nodes)


def test_threads_sharing_the_cache_solve_like_one_thread():
    rng = random.Random(5)
    graphs = [
        random_labeled_graph(
            n, n + 1, vertex_labels=("A", "B", "C"), edge_labels=("x", "y"), seed=rng
        )
        for n in (4, 5, 5, 6, 6, 6)
    ]
    pairs = [(g1, g2) for g1 in graphs for g2 in graphs]
    with cold_process():
        serial = [solve(g1, g2) for g1, g2 in pairs]
    results: dict[int, list] = {}

    def run(worker: int) -> None:
        order = list(range(len(pairs)))
        random.Random(worker).shuffle(order)
        out = [None] * len(pairs)
        for index in order:
            out[index] = solve(*pairs[index])
        results[worker] = out

    # Switch threads as often as the interpreter allows, so the searches
    # interleave inside shared sides; each round starts cold.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(2):
            with cold_process():
                threads = [
                    threading.Thread(target=run, args=(4 * round_ + worker,))
                    for worker in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == dict.fromkeys(range(8), serial)


def test_pair_tables_are_sized_by_the_pair_not_the_vocabulary():
    with cold_process():
        for index in range(10_000):
            pairview.LABELS.id(("unrelated", index))
        g1 = LabeledGraph.from_edges(
            [(0, 1, "x"), (1, 2, "x"), (2, 3, "y")],
            vertex_labels={0: "A", 1: "B", 2: "A", 3: "C"},
        )
        g2 = LabeledGraph.from_edges(
            [(0, 1, "x"), (1, 2, "z")], vertex_labels={0: "A", 1: "D", 2: "A"}
        )
        view = PairView(g1, g2)
        tables = CostTables(view, UniformCostModel())
        assert len(tables.vertex_sub) == len(tables.vertex_del) == 3  # A, B, C
        assert {len(row) for row in tables.vertex_sub} == {2}  # A, D
        assert len(tables.vertex_ins) == 2
        assert len(tables.edge) == 3  # no edge, x, y
        assert {len(row) for row in tables.edge} == {3}  # no edge, x, z
        # The DF-GED label counts and the McGregor label masks are sized
        # by these spans: the distinct labels of the pair.
        assert view.vertex_span == 4  # A, B, C, D
        assert view.edge_span == 4  # no edge, x, y, z
        assert graph_edit_distance(g1, g2).distance == 4.0
