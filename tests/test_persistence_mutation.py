"""Persistence under mutation.

``repro.db.persistence`` round-trips were only pinned for static
databases; these tests cover the save -> mutate -> load interplay: a
saved file is a snapshot (later mutation cannot leak into it), answers
are preserved across reload even after removals force id compaction,
and the ``original_id`` breadcrumb records the pre-compaction ids.
"""

import pytest

from repro import GraphDatabase, Query, connect
from repro.datasets import figure3_database, make_workload
from repro.db.persistence import load_database, save_database


@pytest.fixture
def workload_db():
    workload = make_workload(n_graphs=10, query_size=5, seed=17)
    return GraphDatabase.from_graphs(workload.database), workload.queries[0]


def _skyline_names(database, query):
    with connect(database) as session:
        return session.execute(Query(query).skyline()).names


# ----------------------------------------------------------------------
# Persistence under mutation
# ----------------------------------------------------------------------
def test_saved_file_is_a_snapshot_immune_to_later_mutation(
    tmp_path, workload_db
):
    database, query = workload_db
    path = tmp_path / "snapshot.json"
    save_database(database, path)
    before = _skyline_names(database, query)
    database.remove(database.ids()[0])
    database.insert(figure3_database()[0])
    assert _skyline_names(load_database(path), query) == before


def test_save_mutate_save_load_preserves_query_answers(tmp_path, workload_db):
    database, query = workload_db
    save_database(database, tmp_path / "gen0.json")
    # Mutate: drop two graphs (forcing id compaction on reload), add one.
    for victim in database.ids()[1:3]:
        database.remove(victim)
    database.insert(figure3_database()[2], metadata={"origin": "fig3"})
    save_database(database, tmp_path / "gen1.json")
    loaded = load_database(tmp_path / "gen1.json")

    assert len(loaded) == len(database)
    for kind_query in (
        Query(query).skyline(),
        Query(query).skyband(2),
        Query(query).topk(3, measure="edit"),
        Query(query).threshold(4.0, measure="edit"),
    ):
        with connect(database) as live, connect(loaded) as reloaded:
            assert (
                reloaded.execute(kind_query).names
                == live.execute(kind_query).names
            )


def test_reload_after_removal_records_original_ids(tmp_path, workload_db):
    database, query = workload_db
    removed = database.ids()[0]
    database.remove(removed)
    save_database(database, tmp_path / "compacted.json")
    loaded = load_database(tmp_path / "compacted.json")
    # Ids compact to 0..n-1 on reload; every shifted entry keeps its
    # pre-compaction id in metadata, and metadata itself round-trips.
    assert loaded.ids() == list(range(len(database)))
    originals = {
        entry.metadata.get("original_id", entry.graph_id)
        for entry in loaded.entries()
    }
    assert originals == set(database.ids())
    assert removed not in originals


def test_mutated_reload_is_queryable_via_every_backend(tmp_path, workload_db):
    database, query = workload_db
    database.remove(database.ids()[3])
    path = tmp_path / "db.json"
    save_database(database, path)
    answers = {
        backend: _names(path, query, backend)
        for backend in ("memory", "indexed", "parallel")
    }
    assert answers["memory"] == answers["indexed"] == answers["parallel"]


def _names(path, query, backend):
    with connect(str(path), backend=backend) as session:
        return session.execute(Query(query).skyline()).names
