"""Saving and loading graph databases as JSON documents.

The on-disk format is a single JSON object::

    {
      "name": "compounds",
      "entries": [
        {"id": 0, "metadata": {...}, "graph": {<graph payload>}},
        ...
      ]
    }

Graph payloads are :func:`repro.graph.serialization.graph_to_dict` output,
so ids/labels must be JSON-representable (strings/numbers). Loading
re-inserts entries in stored order; by default ids compact to ``0..n-1``
with the original ids preserved in the ``"original_id"`` metadata key
when they cannot be reassigned identically, while ``preserve_ids=True``
restores the stored ids exactly (what deterministic re-sharding needs).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from repro.errors import SerializationError
from repro.db.database import GraphDatabase
from repro.graph.serialization import graph_from_dict, graph_to_dict


def atomic_write_text(path: "str | Path", text: str) -> None:
    """Replace ``path``'s contents all-or-nothing.

    Writes to a temp file *in the target directory* (so the rename never
    crosses filesystems), fsyncs it, ``os.replace``s it into place, then
    fsyncs the directory — a crash at any instant leaves either the old
    file or the new one, never a truncated hybrid. Used by snapshot
    saves and every WAL control file.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_name)
        raise
    dir_fd = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def database_to_dict(database: GraphDatabase) -> dict[str, Any]:
    """Plain-data payload for a whole database."""
    return {
        "name": database.name,
        "entries": [
            {
                "id": entry.graph_id,
                "metadata": entry.metadata,
                "graph": graph_to_dict(entry.graph),
            }
            for entry in database.entries()
        ],
    }


def database_from_dict(
    payload: dict[str, Any], preserve_ids: bool = False
) -> GraphDatabase:
    """Rebuild a database from :func:`database_to_dict` output.

    ``preserve_ids=True`` restores every entry under its stored id
    (gaps left by pre-save removals included) instead of compacting to
    ``0..n-1`` — the deterministic round-trip sharded deployments rely
    on, since hash placement is a pure function of the id.
    """
    try:
        database = GraphDatabase(name=payload.get("name", "graphdb"))
        for entry in payload["entries"]:
            graph = graph_from_dict(entry["graph"])
            metadata = dict(entry.get("metadata", {}))
            forced = entry["id"] if preserve_ids and "id" in entry else None
            new_id = database.insert(graph, metadata=metadata, graph_id=forced)
            if new_id != entry.get("id", new_id):
                database.entry(new_id).metadata["original_id"] = entry["id"]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed database payload: {exc}") from exc
    return database


def save_database(database: GraphDatabase, path: "str | Path") -> None:
    """Write ``database`` to ``path`` as JSON, atomically.

    The serialized payload lands via temp-file + ``os.replace``
    (:func:`atomic_write_text`), so a crash mid-save leaves the previous
    snapshot intact instead of a truncated file.
    """
    payload = database_to_dict(database)
    try:
        text = json.dumps(payload, indent=1)
    except TypeError as exc:
        raise SerializationError(
            f"database contains non-JSON-serializable ids/labels: {exc}"
        ) from exc
    atomic_write_text(path, text)


def load_database(
    path: "str | Path", preserve_ids: bool = False
) -> GraphDatabase:
    """Read a database previously written by :func:`save_database`.

    Ids compact to ``0..n-1`` by default (the historical behaviour,
    with ``original_id`` breadcrumbs); ``preserve_ids=True`` restores
    the stored ids exactly (see :func:`database_from_dict`).
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid database JSON: {exc}") from exc
    return database_from_dict(payload, preserve_ids=preserve_ids)
