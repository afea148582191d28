"""Pinned solver behaviour: the cases behind ``tests/data/solver_golden.json``.

The exact solvers' *search trees* are part of the wire contract: a
budgeted query returns the interval the truncated search certified, so
``expanded_nodes``, truncation points and tie-breaks must survive any
kernel change. This module builds a seeded set of graph pairs, runs every
solver entry point on them through the public functions only, and flattens
each result to plain JSON. ``test_solver_kernels.py`` replays the stored
pairs and requires field-for-field equality.

Regenerate (only when a change is *meant* to alter the trees — vertex
ordering, tighter bounds — never for a constant-factor change)::

    PYTHONPATH=src python tests/solver_golden.py

Values under ``"reference"`` come from solvers that share no code with the
kernels (A*, the modular-product clique solver, NetworkX); they are
computed once here because they are far too slow to run on every pair in
tier-1.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

from repro.datasets.synthetic import molecule_like_graph
from repro.graph import (
    Budget,
    LabeledGraph,
    UniformCostModel,
    graph_edit_distance,
    graph_edit_distance_astar,
    graph_from_dict,
    graph_to_dict,
    maximum_common_subgraph,
    maximum_common_subgraph_clique,
    mutate,
    random_labeled_graph,
)
from repro.graph.cost_models import LabelMatrixCostModel, WeightedCostModel

GOLDEN_PATH = Path(__file__).parent / "data" / "solver_golden.json"

#: Node budgets every pair is truncated at (``None`` = run to completion).
NODE_BUDGETS = (0, 8, 64)

#: Unbudgeted searches are pinned only up to this ``|V1| + |V2|``: beyond
#: it one pair costs seconds and the budgeted runs already walk the same
#: code.
EXACT_ORDER_SUM = 11

#: Independent references are exponential without our pruning; they run
#: on pairs whose larger graph has at most this many vertices.
REFERENCE_MAX_ORDER = 7

COST_MODELS = {
    "uniform": UniformCostModel(),
    # Non-integer prices: float summation order becomes observable.
    "uniform-0.7-0.3": UniformCostModel(indel_cost=0.7, mismatch_cost=0.3),
    "weighted": WeightedCostModel(
        vertex_indel=1.5, vertex_mismatch=0.7, edge_indel=0.9, edge_mismatch=1.3
    ),
    "matrix": LabelMatrixCostModel(
        vertex_matrix={("C", "N"): 0.4, ("O", "S"): 0.6},
        edge_matrix={("single", "double"): 0.5},
        indel_cost=1.1,
        default_mismatch=0.9,
    ),
}


# ----------------------------------------------------------------------
# Pairs
# ----------------------------------------------------------------------
def _mixed_ids(graph: LabeledGraph, rng: random.Random) -> LabeledGraph:
    """Rename about half the vertices to strings, shuffling insertion order.

    Mixed ``int``/``str`` ids put ``repr`` order (``"'v3'" < "1"``) at odds
    with insertion order, so every ``repr`` tie-break is exercised.
    """
    vertices = graph.vertices()
    rename = {v: (f"v{v}" if rng.random() < 0.5 else v) for v in vertices}
    rng.shuffle(vertices)
    renamed = LabeledGraph(name=graph.name)
    for v in vertices:
        renamed.add_vertex(rename[v], graph.vertex_label(v))
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v, label in edges:
        renamed.add_edge(rename[u], rename[v], label)
    return renamed


def _random_graph(order: int, rng: random.Random, name: str) -> LabeledGraph:
    n_edges = min(rng.randint(order - 1, order + 2), order * (order - 1) // 2)
    return random_labeled_graph(
        order, n_edges, seed=rng, connected=rng.random() < 0.8, name=name
    )


def build_pairs(seed: int = 2011, count: int = 320) -> list[tuple[LabeledGraph, LabeledGraph]]:
    """Seeded pairs of orders 3–8: molecule mutants and random graphs."""
    rng = random.Random(seed)
    pairs = []
    for index in range(count):
        order = rng.choice((3, 4, 4, 5, 5, 6, 6, 7, 8))
        if index % 2 == 0:
            g1 = molecule_like_graph(order, seed=rng, name=f"mol-{index}")
            g2 = mutate(g1, rng.randint(1, 4), seed=rng, name=f"mol-{index}~")
        else:
            g1 = _random_graph(order, rng, f"rnd-{index}a")
            g2 = _random_graph(rng.randint(3, 8), rng, f"rnd-{index}b")
        if index % 3:
            g1, g2 = _mixed_ids(g1, rng), _mixed_ids(g2, rng)
        if index % 5 == 0:
            g1, g2 = g2, g1
        pairs.append((g1, g2))
    return pairs


# ----------------------------------------------------------------------
# Flattening
# ----------------------------------------------------------------------
def ged_fields(result: Any) -> dict[str, Any]:
    """Every field of a ``GedResult``; ``mapping`` keeps its dict order."""
    return {
        "distance": result.distance,
        "mapping": [[u, w] for u, w in result.mapping.items()],
        "optimal": result.optimal,
        "expanded_nodes": result.expanded_nodes,
        "lower_bound": result.lower_bound,
        "found": result.found,
    }


def mcs_fields(result: Any) -> dict[str, Any]:
    """Every field of an ``McsResult`` (edge set sorted: it is a frozenset)."""
    return {
        "size": result.size,
        "order": result.order,
        "mapping": [[v, w] for v, w in result.mapping.items()],
        "matched_edges": sorted(([u, v] for u, v in result.matched_edges), key=repr),
        "optimal": result.optimal,
        "size_upper": result.size_upper,
    }


def run_pair(g1: LabeledGraph, g2: LabeledGraph, index: int) -> dict[str, Any]:
    """Every pinned solver call on one pair, keyed by a readable call name."""
    exact = g1.order + g2.order <= EXACT_ORDER_SUM
    out: dict[str, Any] = {}
    model_name = list(COST_MODELS)[1 + index % (len(COST_MODELS) - 1)]
    for name in ("uniform", model_name):
        costs = COST_MODELS[name]
        if exact:
            out[f"ged/{name}"] = ged_fields(graph_edit_distance(g1, g2, costs=costs))
        for nodes in NODE_BUDGETS:
            out[f"ged/{name}/budget={nodes}"] = ged_fields(
                graph_edit_distance(g1, g2, costs=costs, budget=Budget(node_limit=nodes))
            )
        out[f"ged/{name}/node_limit=8"] = ged_fields(
            graph_edit_distance(g1, g2, costs=costs, node_limit=8)
        )
        # PairContext.ged_within's refinement step: re-run from the
        # truncated incumbent as a bare numeric upper bound.
        first = graph_edit_distance(g1, g2, costs=costs, budget=Budget(node_limit=8))
        out[f"ged/{name}/upper_bound+budget=64"] = ged_fields(
            graph_edit_distance(
                g1, g2, costs=costs, upper_bound=first.distance,
                budget=Budget(node_limit=64),
            )
        )
        if exact:
            out[f"ged/{name}/upper_bound"] = ged_fields(
                graph_edit_distance(g1, g2, costs=costs, upper_bound=first.distance)
            )
    for objective in ("edges", "vertices"):
        if exact:
            out[f"mcs/{objective}"] = mcs_fields(
                maximum_common_subgraph(g1, g2, objective=objective)
            )
        for nodes in NODE_BUDGETS:
            out[f"mcs/{objective}/budget={nodes}"] = mcs_fields(
                maximum_common_subgraph(
                    g1, g2, objective=objective, budget=Budget(node_limit=nodes)
                )
            )
    # PairContext.mcs_within's refinement step.
    first_mcs = maximum_common_subgraph(g1, g2, budget=Budget(node_limit=8))
    out["mcs/edges/initial_best_edges+budget=64"] = mcs_fields(
        maximum_common_subgraph(
            g1, g2, budget=Budget(node_limit=64), initial_best_edges=first_mcs.size
        )
    )
    if exact:
        out["mcs/edges/initial_best_edges"] = mcs_fields(
            maximum_common_subgraph(g1, g2, initial_best_edges=first_mcs.size)
        )
    return out


# ----------------------------------------------------------------------
# Independent references (generation time only, plus a live sample)
# ----------------------------------------------------------------------
def networkx_ged(g1: LabeledGraph, g2: LabeledGraph, cap: float) -> float | None:
    """Uniform-cost GED by NetworkX, searching below ``cap`` only.

    ``cap`` keeps NetworkX's unpruned search affordable; it cannot hide a
    disagreement: a smaller true distance is still found, and a larger one
    makes NetworkX return ``None``.
    """
    import networkx

    def convert(graph: LabeledGraph) -> Any:
        out = networkx.Graph()
        for v in graph.vertices():
            out.add_node(v, label=graph.vertex_label(v))
        for u, v, label in graph.edges():
            out.add_edge(u, v, label=label)
        return out

    def same(a: dict, b: dict) -> bool:
        return a["label"] == b["label"]

    return networkx.graph_edit_distance(
        convert(g1), convert(g2), node_match=same, edge_match=same, upper_bound=cap
    )


def reference_values(g1: LabeledGraph, g2: LabeledGraph, distance: float) -> dict[str, Any]:
    """A*, clique-MCS and NetworkX values for one small pair."""
    return {
        "astar": graph_edit_distance_astar(g1, g2).distance,
        "clique": maximum_common_subgraph_clique(g1, g2).size,
        "networkx": networkx_ged(g1, g2, cap=distance + 0.5),
    }


def respelled(graph: LabeledGraph, spelling) -> LabeledGraph:
    """``graph`` with its smallest vertex label spelled ``spelling``."""
    first = min(graph.vertex_label(v) for v in graph.vertices())
    out = LabeledGraph(name=graph.name)
    for v in graph.vertices():
        label = graph.vertex_label(v)
        out.add_vertex(v, spelling if label == first else label)
    for u, v, label in graph.edges():
        out.add_edge(u, v, label)
    return out


def exact_pairs() -> list[tuple[LabeledGraph, LabeledGraph]]:
    """Stored pairs small enough to solve exactly; every other one with
    a label spelled ``1`` / ``1.0`` / ``True`` across the two graphs."""
    spellings = [(1, True), (1.0, 1), (True, 1.0)]
    pairs = []
    for index, entry in enumerate(load()):
        if "ged/uniform" not in entry["calls"]:
            continue
        g1, g2 = graph_from_dict(entry["g1"]), graph_from_dict(entry["g2"])
        if index % 2:
            one, two = spellings[index % 3]
            g1, g2 = respelled(g1, one), respelled(g2, two)
        pairs.append((g1, g2))
    return pairs


def generate() -> dict[str, Any]:
    entries = []
    for index, (g1, g2) in enumerate(build_pairs()):
        # Round-trip first: the stored payload, not the generator output,
        # is what the test replays (adjacency order follows the payload).
        d1, d2 = graph_to_dict(g1), graph_to_dict(g2)
        g1, g2 = graph_from_dict(d1), graph_from_dict(d2)
        entry = {"g1": d1, "g2": d2, "calls": run_pair(g1, g2, index)}
        if "ged/uniform" in entry["calls"] and max(g1.order, g2.order) <= REFERENCE_MAX_ORDER:
            entry["reference"] = reference_values(
                g1, g2, entry["calls"]["ged/uniform"]["distance"]
            )
        entries.append(entry)
    return {"pairs": entries}


def load() -> list[dict[str, Any]]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)["pairs"]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = generate()
    GOLDEN_PATH.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    calls = sum(len(entry["calls"]) for entry in payload["pairs"])
    refs = sum("reference" in entry for entry in payload["pairs"])
    print(f"{len(payload['pairs'])} pairs, {calls} solver calls, {refs} with references")
