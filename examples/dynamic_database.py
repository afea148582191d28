"""Dynamic databases: a watched skyline under mutation, and explanations.

Graph databases change; recomputing GCS vectors is the expensive part.
A live view (``Session.watch``) keeps a query's answer equal to
executing it: with a pair cache, each refresh replays the view's last
answer over the database's change log and judges only the added graphs.
This example:

1. streams compounds into a database watched by a skyline view,
   printing each refresh's exact evaluations and the answer set;
2. deletes a skyline member and shows dominated compounds being promoted;
3. asks the library to *explain* why a specific compound is (not) in the
   final answer.

Run:  python examples/dynamic_database.py
"""

import repro
from repro import GraphDatabase, PairCache, Query
from repro.core import explain_membership, graph_similarity_skyline
from repro.datasets import make_workload


def main() -> None:
    workload = make_workload(n_graphs=15, query_size=7, seed=12)
    query = workload.queries[0]

    database = GraphDatabase()
    with repro.connect(database, cache=PairCache()) as session:
        view = session.watch(Query(query).skyline())
        print("streaming compounds in:")
        for graph in workload.database:
            before = view.evaluations
            database.insert(graph)
            view.refresh()
            print(f"  + {graph.name:<14} {view.evaluations - before} exact "
                  f"evaluation(s); skyline size {len(view)}")
        print()
        print(f"final skyline: {view.names_in_answer}")
        print()

        victim = view.ids[0]
        name = database.get(victim).name
        database.remove(victim)
        print(f"after deleting {name}: skyline = {view.names_in_answer}")
        print("(previously dominated compounds are promoted automatically)")
        print()

    # Explanations come from the batch result object.
    result = graph_similarity_skyline(workload.database, query)
    outsider = next(
        g.name for g in result.graphs if g not in result.skyline
    )
    print(explain_membership(result, outsider).narrative())
    print()
    print(explain_membership(result, result.skyline[0].name).narrative())


if __name__ == "__main__":
    main()
