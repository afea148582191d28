"""Plugging custom local measures into the compound similarity.

The paper's point is that similarity is multi-faceted: the GCS vector
(Definition 11) accepts *any* local distance measures. This example:

1. defines a custom measure from a plain function (size gap);
2. shows how the skyline changes as facets are added — more dimensions
   means more Pareto-incomparable graphs, i.e. a richer answer set.

Run:  python examples/custom_measures.py
"""

from repro import LabeledGraph, graph_similarity_skyline
from repro.bench import render_table
from repro.datasets import make_workload
from repro.measures import FunctionMeasure


def size_gap(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """|#edges difference| — a crude but sometimes useful facet."""
    return abs(g1.size - g2.size)


def main() -> None:
    workload = make_workload(n_graphs=20, query_size=7, seed=99)
    query = workload.queries[0]

    stacks = {
        "edit only": ("edit",),
        "paper (edit, mcs, union)": ("edit", "mcs", "union"),
        "+ custom size gap": (
            "edit",
            "mcs",
            "union",
            FunctionMeasure(size_gap, name="size-gap"),
        ),
    }

    rows = []
    for label, measures in stacks.items():
        result = graph_similarity_skyline(workload.database, query, measures=measures)
        rows.append([label, len(measures), len(result.skyline),
                     ", ".join(g.name for g in result.skyline[:5])])

    print(render_table(
        ["measure stack", "d", "skyline size", "members (first 5)"],
        rows,
        title="skyline growth as similarity facets are added",
    ))
    print()
    print("every stack keeps the answers Pareto-optimal w.r.t. its own facets;")
    print("choosing the facets is how you tell the system what 'similar' means.")


if __name__ == "__main__":
    main()
