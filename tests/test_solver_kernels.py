"""The integer-indexed solver kernels walk the pinned search trees.

``tests/data/solver_golden.json`` was recorded from the object-graph
solvers the kernels replaced (see ``tests/solver_golden.py``). Budgeted
queries return what a *truncated* search certified, so equality here is
field for field — ``expanded_nodes``, truncated bounds and the order of
``mapping`` included — not merely "same optimum".
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graph import (
    Budget,
    LabeledGraph,
    UniformCostModel,
    edge_key,
    graph_edit_distance,
    graph_from_dict,
    maximum_common_subgraph,
)
from repro.testkit.reference import (
    graph_edit_distance_astar,
    maximum_common_subgraph_clique,
)
from repro.testkit.workload import AddGraph, generate_workload
from tests import solver_golden
from tests.conftest import small_labeled_graphs


@pytest.fixture(scope="module")
def replayed() -> list[tuple[dict, dict, LabeledGraph, LabeledGraph]]:
    """``(stored entry, calls re-run on today's kernels, g1, g2)`` per pair."""
    out = []
    for index, entry in enumerate(solver_golden.load()):
        g1, g2 = graph_from_dict(entry["g1"]), graph_from_dict(entry["g2"])
        out.append((entry, solver_golden.run_pair(g1, g2, index), g1, g2))
    return out


def _mismatches(replayed, solver: str) -> list[str]:
    return [
        f"pair {index} {name}: want {want} got {calls[name]}"
        for index, (entry, calls, _, _) in enumerate(replayed)
        for name, want in entry["calls"].items()
        if name.startswith(solver) and calls[name] != want
    ]


def test_golden_covers_what_the_issue_pins(replayed):
    assert len(replayed) >= 300
    names = {name for entry, _, _, _ in replayed for name in entry["calls"]}
    for needle in (
        "ged/uniform", "ged/weighted", "ged/matrix", "ged/uniform-0.7-0.3",
        "ged/uniform/budget=0", "ged/uniform/budget=8", "ged/uniform/budget=64",
        "ged/uniform/upper_bound", "ged/uniform/upper_bound+budget=64",
        "mcs/edges", "mcs/vertices", "mcs/edges/budget=0",
        "mcs/edges/initial_best_edges", "mcs/edges/initial_best_edges+budget=64",
    ):
        assert needle in names
    ids = {type(v) for entry, _, _, _ in replayed for v, _ in entry["g1"]["vertices"]}
    assert ids == {int, str}  # repr tie-breaks need both
    truncated = sum(
        not fields["optimal"]
        for entry, _, _, _ in replayed
        for fields in entry["calls"].values()
    )
    assert truncated > 1000


def test_mcs_kernel_reproduces_every_pinned_field(replayed):
    assert _mismatches(replayed, "mcs/")[:5] == []


def test_ged_kernel_reproduces_every_pinned_field(replayed):
    # The recorded runs start from the bipartite seed; without SciPy the
    # solver starts from the full-rewrite seed and walks another tree.
    pytest.importorskip("scipy")
    assert _mismatches(replayed, "ged/")[:5] == []


def test_exact_values_equal_solvers_that_share_no_kernel(replayed):
    """Recorded A* / clique / NetworkX values for every small pair, and a
    live re-run of A* and the clique solver on every third of them."""
    checked = 0
    for entry, calls, g1, g2 in replayed:
        reference = entry.get("reference")
        if reference is None:
            continue
        distance = graph_edit_distance(g1, g2).distance
        size = maximum_common_subgraph(g1, g2).size
        assert distance == calls["ged/uniform"]["distance"]
        assert distance == reference["astar"] == reference["networkx"]
        assert size == reference["clique"]
        if checked % 3 == 0:
            assert graph_edit_distance_astar(g1, g2).distance == distance
            assert maximum_common_subgraph_clique(g1, g2).size == size
        checked += 1
    assert checked >= 150


def test_networkx_agrees_on_a_live_sample(replayed):
    pytest.importorskip("networkx")
    small = [
        (g1, g2) for entry, _, g1, g2 in replayed if "reference" in entry
    ][::8]
    for g1, g2 in small:
        distance = graph_edit_distance(g1, g2).distance
        assert solver_golden.networkx_ged(g1, g2, cap=distance + 0.5) == distance


def _renamed(graph: LabeledGraph) -> tuple[LabeledGraph, dict]:
    """Fresh ids whose ``repr`` order equals the old ids' ``repr`` order."""
    ranked = sorted(graph.vertices(), key=repr)
    rename = {v: f"v{position:03d}" for position, v in enumerate(ranked)}
    out = LabeledGraph(name=graph.name)
    for v in graph.vertices():
        out.add_vertex(rename[v], graph.vertex_label(v))
    for v in graph.vertices():
        for n in graph.neighbors(v):
            if not out.has_edge(rename[v], rename[n]):
                out.add_edge(rename[v], rename[n], graph.edge_label(v, n))
    return out, rename


@settings(max_examples=40, deadline=None)
@given(
    small_labeled_graphs(max_vertices=5),
    small_labeled_graphs(max_vertices=5),
    st.sampled_from([None, 0, 5, 40]),
    st.sampled_from([UniformCostModel(), UniformCostModel(0.7, 0.3)]),
)
def test_results_only_depend_on_repr_order_of_ids(g1, g2, nodes, costs):
    """Ids enter the solvers through ``repr`` order alone: renaming them
    order-preservingly renames the results and changes nothing else."""
    h1, rename1 = _renamed(g1)
    h2, rename2 = _renamed(g2)
    rename2[None] = None
    budget = None if nodes is None else Budget(node_limit=nodes)

    a = graph_edit_distance(g1, g2, costs=costs, budget=budget)
    b = graph_edit_distance(h1, h2, costs=costs, budget=budget)
    assert solver_golden.ged_fields(b) == {
        **solver_golden.ged_fields(a),
        "mapping": [[rename1[u], rename2[w]] for u, w in a.mapping.items()],
    }
    for objective in ("edges", "vertices"):
        a = maximum_common_subgraph(g1, g2, objective=objective, budget=budget)
        b = maximum_common_subgraph(h1, h2, objective=objective, budget=budget)
        assert list(b.mapping.items()) == [
            (rename1[v], rename2[w]) for v, w in a.mapping.items()
        ]
        assert b.matched_edges == {
            edge_key(rename1[u], rename1[v]) for u, v in a.matched_edges
        }
        assert (b.optimal, b.size_upper) == (a.optimal, a.size_upper)


def test_edges_keys_each_edge_once_in_the_old_order():
    """``LabeledGraph.edges`` with a finished-vertex set yields what the
    ``seen``-set version did: same order, same canonical endpoints."""

    def edges_with_seen_set(graph: LabeledGraph) -> list[tuple]:
        seen, out = set(), []
        for u in graph.vertices():
            for v in graph.neighbors(u):
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    out.append((key[0], key[1], graph.edge_label(u, v)))
        return out

    corpus = json.loads((Path(__file__).parent / "fuzz_corpus.json").read_text())
    graphs = [
        step.graph
        for entry in corpus
        for step in generate_workload(entry["seed"], entry["steps"]).steps
        if isinstance(step, AddGraph)
    ]
    graphs += [
        graph_from_dict(entry[side])
        for entry in solver_golden.load()[:60]
        for side in ("g1", "g2")
    ]
    assert len(graphs) > 100
    for graph in graphs:
        assert list(graph.edges()) == edges_with_seen_set(graph)


# ----------------------------------------------------------------------
# Import guard: the benchmark's setup_s is mostly import time
# ----------------------------------------------------------------------
def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter over this source tree; its stdout."""
    source_root = str(Path(repro.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_repro_pulls_in_nothing_heavy():
    code = (
        "import sys, repro\n"
        "heavy = ('numpy', 'scipy', 'networkx', 'asyncio', 'multiprocessing')\n"
        "print([name for name in heavy if name in sys.modules])"
    )
    assert _fresh_python(code) == "[]"


# A pair whose BRANCH lower bound is positive, and its bracket as JSON.
_BRACKET_PAIR = (
    "import json, sys\n"
    "from repro.graph.generators import random_labeled_graph\n"
    "from repro.measures.base import PairContext\n"
    "g1 = random_labeled_graph(5, 5, vertex_labels=('a', 'b'), seed=1)\n"
    "g2 = random_labeled_graph(5, 6, vertex_labels=('a', 'c'), seed=2)\n"
    "bracket = PairContext(g1, g2).ged_bracket()\n"
    "out = {'lower': bracket.lower, 'mapping': sorted(bracket.mapping.items(),"
    " key=str)}\n"
)


def test_bracket_loads_only_the_compiled_assignment_kernel():
    pytest.importorskip("scipy")
    code = _BRACKET_PAIR + (
        "from repro.graph.ged_approx import assignment_kernel\n"
        "out['optimize'] = 'scipy.optimize' in sys.modules\n"
        "out['lsap'] = 'scipy.optimize._lsap' in sys.modules\n"
        "import scipy.optimize\n"
        "out['same'] = scipy.optimize.linear_sum_assignment is assignment_kernel()\n"
        "print(json.dumps(out))"
    )
    out = json.loads(_fresh_python(code))
    assert not out["optimize"]
    assert out["lsap"]
    assert out["lower"] > 0  # the assignment ran: no full-rewrite bracket
    assert out["same"]


def test_concurrent_first_brackets_share_one_kernel():
    pytest.importorskip("scipy")
    code = (
        "import sys, threading\n"
        "from repro.graph.ged_approx import assignment_kernel\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier, seen = threading.Barrier(8), []\n"
        "def first():\n"
        "    barrier.wait(timeout=30)\n"
        "    seen.append(assignment_kernel())\n"
        "threads = [threading.Thread(target=first) for _ in range(8)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join(timeout=30)\n"
        "assert not any(thread.is_alive() for thread in threads)\n"
        "print(len(seen), len({id(kernel) for kernel in seen}), seen[0] is not None)"
    )
    assert _fresh_python(code) == "8 1 True"


def test_failed_direct_load_falls_back_to_the_public_import():
    # A stray ImportError must not switch the pair to the full-rewrite
    # seed: the bracket still comes from SciPy's assignment.
    pytest.importorskip("scipy")
    code = (
        "from repro.graph import ged_approx\n"
        "def broken(scipy):\n"
        "    raise ImportError('direct load broken')\n"
        "ged_approx._load_lsap = broken\n"
    ) + _BRACKET_PAIR + (
        "out['optimize'] = 'scipy.optimize' in sys.modules\n"
        "print(json.dumps(out))"
    )
    out = json.loads(_fresh_python(code))
    assert out.pop("optimize")
    assert out["lower"] > 0
    assert out == json.loads(_fresh_python(_BRACKET_PAIR + "print(json.dumps(out))"))


def test_without_scipy_the_bracket_is_the_full_rewrite():
    code = "import sys\nsys.modules['scipy'] = None\n" + _BRACKET_PAIR + (
        "from repro.graph.ged_approx import assignment_kernel\n"
        "from repro.testkit import generate_workload, run_workload\n"
        "out['kernel'] = assignment_kernel() is None\n"
        "out['ok'] = run_workload(generate_workload(seed=1, n_steps=40)).ok\n"
        "print(json.dumps(out))"
    )
    out = json.loads(_fresh_python(code))
    assert out["kernel"]
    assert out["lower"] == 0.0
    assert all(image is None for _, image in out["mapping"])
    assert out["ok"]


def test_pair_view_imports_only_stdlib_and_repro_graph():
    import repro.graph.pairview as module

    imported = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module)
    assert imported
    for name in imported:
        assert (
            name.startswith("repro.graph.")
            or name.split(".")[0] in sys.stdlib_module_names
        ), name
