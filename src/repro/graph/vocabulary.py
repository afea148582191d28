"""One label interner for the index and the solvers.

Labels are arbitrary hashables, and the rule every cost model and solver
applies to them is equality: ``1``, ``1.0`` and ``True`` are one label.
:class:`LabelVocabulary` hands out dense ``int`` ids under that same rule
(``==`` / ``hash``, never ``repr``), so a count column of the signature
matrix (:mod:`repro.index.matrix`) and a label match between two solver
sides (:mod:`repro.graph.pairview`) agree with the exact distances they
bound or compute.

Ids are assigned in first-seen order and never reused. They say which
labels are equal and nothing else: no search order may depend on them.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable


class LabelVocabulary:
    """Equality-keyed interner: equal labels share one dense id.

    Safe to share between threads: a lookup of a known label takes no
    lock, and a new label is numbered under one.
    """

    __slots__ = ("_ids", "_lock")

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def id(self, label: Hashable) -> int:
        """The id of ``label``, interning it on first sight."""
        index = self._ids.get(label)
        if index is None:
            with self._lock:
                index = self._ids.setdefault(label, len(self._ids))
        return index

    def get(self, label: Hashable) -> int | None:
        """The id of ``label``, or ``None`` when it was never interned."""
        return self._ids.get(label)
