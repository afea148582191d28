"""The database layer through the session API: backends, pruning, ranges.

Demonstrates the machinery around the core algorithm:

1. loading graphs into a :class:`GraphDatabase` (with iso-deduplication);
2. the pruning ablation: the same declarative ``Query`` on the
   exhaustive ``memory`` backend (every graph solved) and on ``indexed``
   (lower-bound pruning), comparing their statistics — how many exact
   GED/MCS computations the feature index avoided, for an identical
   answer;
3. range ("threshold") queries: all compounds within a given edit
   distance, verified exactly but pre-filtered by sound lower bounds.

Run:  python examples/database_indexing.py
"""

import repro
from repro import GraphDatabase, Query
from repro.bench import render_table
from repro.datasets import make_workload


def main() -> None:
    workload = make_workload(
        n_graphs=40, query_size=7, mutant_fraction=0.3, radius=(1, 3), seed=7
    )
    query = workload.queries[0]

    database = GraphDatabase.from_graphs(
        workload.database, name="compounds", deduplicate=True
    )
    print(f"loaded {len(database)} unique compounds "
          f"(from {len(workload.database)} raw graphs)")
    print()

    # --- one query, two backends --------------------------------------
    spec = Query(query).skyline().refine(k=3)
    rows = []
    for backend in ("memory", "indexed"):
        with repro.connect(database, backend=backend) as session:
            result = session.execute(spec)
        stats = result.stats
        rows.append([
            backend,
            stats.exact_evaluations,
            stats.pruned_by_index,
            f"{stats.pruning_ratio:.0%}",
            len(result.ids),
        ])
        if backend == "indexed":
            print(f"skyline: {result.names}")
            if result.refinement is not None:
                print(f"3 diverse representatives: "
                      f"{[g.name for g in result.refinement.subset]}")
    print()
    print(render_table(
        ["backend", "exact evaluations", "pruned", "saved", "skyline size"],
        rows,
        title="index pruning effect (identical answers)",
    ))
    print()

    # --- threshold search ---------------------------------------------
    with repro.connect(database, backend="indexed") as session:
        for tau in (1.0, 2.0, 3.0):
            result = session.execute(Query(query).threshold(tau, "edit"))
            names = [
                f"{session.database.get(gid).name}({result.distance(gid):.0f})"
                for gid in result.ids
            ]
            print(f"compounds within DistEd <= {tau:.0f}: {names or '(none)'}")


if __name__ == "__main__":
    main()
