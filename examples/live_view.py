"""Live views: a query answer that follows the database around.

``Session.watch(query)`` materializes any query's answer and keeps it
equal to executing the query while graphs are inserted into or removed
from the database. The view reads through the session's own read path
over an answer entry of its own: with a pair cache, a refresh replays
the last answer over the database's change log, judging only the added
graphs through the bound stage and the shared :class:`repro.PairCache`.
This example:

1. opens a cached ``indexed`` session and watches a skyline query;
2. streams new compounds in, showing the per-insert repair cost;
3. deletes a skyline member, which re-runs the query (pruned by the
   index, served by the pair cache);
4. cross-checks the view against a from-scratch query.

Run:  python examples/live_view.py
"""

import repro
from repro import GraphDatabase, PairCache, Query
from repro.datasets import make_workload


def main() -> None:
    workload = make_workload(n_graphs=18, query_size=7, seed=23)
    database = GraphDatabase.from_graphs(workload.database[:12])
    query = workload.queries[0]
    cache = PairCache()

    with repro.connect(database, backend="indexed", cache=cache) as session:
        view = session.watch(Query(query).skyline())
        print(f"watching: {view!r}")
        print(f"initial skyline: {view.names_in_answer}")
        print()

        print("streaming compounds in:")
        for graph in workload.database[12:]:
            before = view.evaluations
            database.insert(graph)
            view.refresh()
            print(
                f"  + {graph.name:<14} repaired with "
                f"{view.evaluations - before} exact evaluation(s); "
                f"skyline = {view.names_in_answer}"
            )
        print()

        victim = view.ids[0]
        name = database.get(victim).name
        before = view.evaluations
        database.remove(victim)
        view.refresh()
        print(
            f"after deleting {name}: skyline = {view.names_in_answer} "
            f"({view.evaluations - before} evaluations spent; the re-run is "
            "pruned by the index and served by the shared cache)"
        )
        print()

        fresh = session.execute(Query(query).skyline())
        agreement = fresh.ids == view.ids
        print(f"view equals a from-scratch re-query: {agreement}")
        print(
            f"(the re-query solved {fresh.stats.exact_evaluations} pairs — "
            "it is served from the session's answer store or the shared cache)"
        )
        print(
            f"view lifetime: {view.repairs} repairs, "
            f"{view.evaluations} exact evaluations, "
            f"{view.cache_served} pairs served by the shared cache"
        )
        assert agreement


if __name__ == "__main__":
    main()
