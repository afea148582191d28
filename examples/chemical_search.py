"""Chemical-compound similarity search — the paper's motivating domain.

Builds a molecule-like database (atoms C/N/O/S, single/double bonds) in
which some compounds are small perturbations of a query molecule, then:

1. answers the query with the similarity skyline (all measures at once);
2. refines the skyline to 3 representative, mutually diverse compounds;
3. contrasts with the classic single-measure top-3 ranking;
4. shows how the construction ground truth (mutation radii) lines up
   with what the skyline found.

Run:  python examples/chemical_search.py
"""

import repro
from repro.bench import render_table
from repro.datasets import make_workload


def main() -> None:
    workload = make_workload(
        n_graphs=30,
        query_size=8,
        mutant_fraction=0.4,
        radius=(1, 5),
        seed=2024,
    )
    query = workload.queries[0]
    provenance = {
        graph.name: origin
        for graph, origin in zip(workload.database, workload.provenance)
    }

    session = repro.connect(workload.database)
    answer = session.execute(repro.Query(query).skyline().refine(k=3))
    members = set(answer.ids)

    print(f"database: {workload.size} compounds; query: {query.order} atoms, "
          f"{query.size} bonds")
    print()

    rows = []
    for graph_id, vector in answer.vectors.items():
        graph = session.database.get(graph_id)
        kind, _, radius = provenance[graph.name]
        rows.append([
            graph.name,
            kind if kind == "distractor" else f"mutant (≤{radius} edits)",
            vector.values[0],
            round(vector.values[1], 2),
            round(vector.values[2], 2),
            "*" if graph_id in members else "",
        ])
    rows.sort(key=lambda row: row[2])
    print(render_table(
        ["compound", "origin", "DistEd", "DistMcs", "DistGu", "skyline"],
        rows[:12],
        title="12 closest compounds by DistEd (full GCS shown)",
    ))
    print()

    print(f"similarity skyline: {len(answer.ids)} compounds")
    if answer.refinement is not None:
        names = [graph.name for graph in answer.refinement.subset]
        print(f"3 diverse representatives: {names}")
    print()

    top_names = session.execute(repro.Query(query).topk(3)).names
    skyline_names = set(answer.names)
    only_topk = [name for name in top_names if name not in skyline_names]
    print(f"classic top-3 by edit distance: {top_names}")
    if only_topk:
        print(f"note: {only_topk} appear in the top-3 although the skyline "
              "dominates them — exactly the effect the paper highlights.")
    else:
        print("here the top-3 all happen to be skyline members.")


if __name__ == "__main__":
    main()
