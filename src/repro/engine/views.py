"""Live views: materialized skyline results under database mutation.

``Session.watch(query)`` returns a :class:`LiveView` — a skyline answer
kept incrementally correct while graphs are added to or removed from the
underlying :class:`~repro.db.database.GraphDatabase`. Instead of
re-running the query, the view repairs itself:

* staleness is detected through the database's mutation-version flag, so
  an unchanged database costs one integer comparison per access, and the
  database's change log (:meth:`~repro.db.database.GraphDatabase.
  changes_since`) names the graphs added and removed since;
* a repair exactly evaluates only the *affected* candidates — each newly
  inserted graph costs one pair evaluation (cache-served when the shared
  :class:`~repro.db.cache.PairCache` already knows the pair), and a
  removal costs none;
* membership updates ride on :class:`~repro.skyline.incremental.
  IncrementalSkyline`, whose maintained set provably equals the batch
  skyline of the live points.

The view therefore holds exact vectors for *every* live graph (dominated
ones included): a removal may promote previously dominated graphs, and
promoting from known vectors is what makes removals free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import QueryError
from repro.core.gcs import CompoundSimilarity
from repro.db.cache import PairCache
from repro.db.stats import QueryStats
from repro.skyline.incremental import IncrementalSkyline
from repro.api.spec import GraphQuery
from repro.engine.core import resolved_measures
from repro.engine.evaluate import pair_values
from repro.measures.base import measure_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.labeled_graph import LabeledGraph
    from repro.api.result import ResultSet
    from repro.api.session import Session


class LiveView:
    """A skyline query result that follows database adds and removes.

    Created through :meth:`repro.api.session.Session.watch`; every access
    to :attr:`ids`/:attr:`graphs`/:meth:`result` first :meth:`refresh`-es
    the view, so reads are always consistent with the database. Only
    plain ``skyline`` specs are watchable — diversity refinement is a
    whole-answer-set computation with no incremental form.
    """

    def __init__(
        self,
        session: "Session",
        spec: GraphQuery,
        cache: PairCache | None = None,
    ) -> None:
        spec.validate()
        if spec.kind != "skyline":
            raise QueryError(
                f"only skyline queries can be watched, not {spec.kind!r}"
            )
        if spec.refine_k is not None:
            raise QueryError(
                "diversity refinement cannot be maintained incrementally; "
                "watch the plain skyline and refine snapshots explicitly"
            )
        self.session = session
        self.database = session.database
        self.spec = spec
        self.cache = cache if cache is not None else PairCache()
        self.measures = resolved_measures(spec)
        self.names = measure_names(self.measures)
        self._query_hash = self.cache.query_hash(spec.graph)
        self._tracker = IncrementalSkyline(len(self.measures), spec.tolerance)
        self._vectors: dict[int, tuple[float, ...]] = {}
        self._version: int | None = None
        #: Number of refresh passes that found work to do.
        self.repairs = 0
        #: Exact pair evaluations spent across initial build + repairs.
        self.evaluations = 0
        #: Pair vectors served by the shared cache instead of solving.
        self.cache_served = 0
        self.refresh()

    # -- repair ---------------------------------------------------------
    def _vector_for(self, graph_id: int) -> tuple[float, ...]:
        entry = self.database.entry(graph_id)
        subject = self.cache.subject_key(entry)
        values = self.cache.get(subject, self._query_hash, self.names)
        if values is not None:
            self.cache_served += 1
            return values
        values = pair_values(entry.graph, self.spec.graph, self.measures)
        self.cache.put(subject, self._query_hash, self.names, values)
        self.evaluations += 1
        return values

    def refresh(self) -> bool:
        """Repair the view if the database changed; returns whether it did.

        The database's change log names what changed since the view's
        version, so work is proportional to the changes — untouched
        candidates are never re-evaluated and the live ids are not
        listed. Only a view further behind than the log reaches diffs
        its tracked ids against the live ones.
        """
        if self._version == self.database.version:
            return False
        delta = None
        if self._version is not None:
            delta = self.database.changes_since(self._version)
        if delta is None:
            live = set(self.database.ids())
            removed = [i for i in self._vectors if i not in live]
            added = live - self._vectors.keys()
        else:
            added, removed = delta
        for graph_id in removed:
            self._tracker.remove(graph_id)
            del self._vectors[graph_id]
        for graph_id in sorted(added):
            values = self._vector_for(graph_id)
            self._vectors[graph_id] = values
            self._tracker.insert(graph_id, values)
        if self._version is not None:
            self.repairs += 1
        self._version = self.database.version
        return True

    # -- answer access ---------------------------------------------------
    @property
    def ids(self) -> list[int]:
        """Current skyline ids, ascending, ``spec.limit`` applied — the
        same answer executing the spec would return."""
        self.refresh()
        ids = sorted(self._tracker.skyline_keys())
        if self.spec.limit is not None:
            ids = ids[: self.spec.limit]
        return ids

    @property
    def graphs(self) -> "list[LabeledGraph]":
        """Current skyline graphs, aligned with :attr:`ids`."""
        return [self.database.get(graph_id) for graph_id in self.ids]

    @property
    def names_in_answer(self) -> list[str]:
        """Current skyline graph names (``#<id>`` fallback)."""
        return [
            self.database.get(graph_id).name or f"#{graph_id}"
            for graph_id in self.ids
        ]

    def result(self) -> "ResultSet":
        """A full :class:`~repro.api.result.ResultSet` snapshot of the view.

        Carries the exact vectors of every live graph, so ``to_rows()`` /
        ``explain()`` render exactly like an executed memory-backend query.
        """
        from repro.api.result import QueryPlan, ResultSet

        ids = self.ids  # refreshes first
        stats = QueryStats(
            database_size=len(self.database),
            candidates_considered=len(self._vectors),
            exact_evaluations=self.evaluations,
            served_from_cache=self.cache_served,
            skyline_size=len(ids),
        )
        plan = QueryPlan(
            backend="live-view",
            kind="skyline",
            database_size=len(self.database),
            measures=self.names,
            uses_index=False,
            stages=("incremental-repair",),
        )
        vectors = {
            graph_id: CompoundSimilarity(values=values, measures=self.names)
            for graph_id, values in self._vectors.items()
        }
        return ResultSet(
            spec=self.spec,
            plan=plan,
            database=self.database,
            ids=ids,
            evaluated_ids=sorted(self._vectors),
            vectors=vectors,
            distances=None,
            stats=stats,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        self.refresh()
        return (
            f"<LiveView skyline over {self.database.name!r}: "
            f"{self._tracker.skyline_size} of {len(self._vectors)} graphs, "
            f"{self.repairs} repairs>"
        )
