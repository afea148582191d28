"""Pareto-dominance primitives over numeric vectors (Definitions 1–2).

The skyline selector in this package builds on these helpers. Vectors are
sequences of floats where **smaller is better** on every dimension (the
paper's convention). A point ``p`` dominates ``q`` iff ``p`` is no worse
everywhere and strictly better somewhere; the skyline is the set of
non-dominated points. Duplicate points do not dominate each other, so all
copies of a non-dominated point belong to the skyline.
"""

from __future__ import annotations

from collections.abc import Sequence

Vector = Sequence[float]


def dominates(p: Vector, q: Vector, tolerance: float = 0.0) -> bool:
    """Whether ``p`` Pareto-dominates ``q`` (Definition 1, minimisation).

    ``tolerance`` treats coordinates within ``tolerance`` of each other as
    equal, which stabilises comparisons of floating-point distance values.

    NaN coordinates compare as ties (neither strictly better nor worse),
    so a vector with NaN entries can still dominate — or be dominated —
    through its finite dimensions; all-NaN vectors are incomparable to
    everything. Pinned by ``test_dominates_with_nan_and_inf``.
    """
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")
    strictly_better = False
    for pi, qi in zip(p, q):
        if pi > qi + tolerance:
            return False
        if pi < qi - tolerance:
            strictly_better = True
    return strictly_better


def incomparable(p: Vector, q: Vector, tolerance: float = 0.0) -> bool:
    """Neither point dominates the other."""
    return not dominates(p, q, tolerance) and not dominates(q, p, tolerance)


def validate_vectors(vectors: Sequence[Vector]) -> int:
    """Check that all vectors share one dimension; return that dimension.

    An empty collection is fine (dimension 0 by convention).
    """
    if not vectors:
        return 0
    dimension = len(vectors[0])
    for index, vector in enumerate(vectors):
        if len(vector) != dimension:
            raise ValueError(
                f"vector {index} has dimension {len(vector)}, expected {dimension}"
            )
    return dimension


def is_skyline(vectors: Sequence[Vector], indices: Sequence[int],
               tolerance: float = 0.0) -> bool:
    """Independent validation that ``indices`` really is the skyline.

    Checks both soundness (no member is dominated) and completeness (every
    non-member is dominated by someone). Quadratic; used by tests.
    """
    member = set(indices)
    for i, vector in enumerate(vectors):
        dominated = any(
            dominates(vectors[j], vector, tolerance) for j in range(len(vectors)) if j != i
        )
        if i in member and dominated:
            return False
        if i not in member and not dominated:
            return False
    return True
