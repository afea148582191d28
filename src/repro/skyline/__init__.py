"""Skyline selection over numeric vectors (Section II-A, Definitions 1–2).

One definitional selector: :func:`k_skyband` keeps every vector that
fewer than ``k`` other vectors dominate, and :func:`skyline` is its
``k = 1`` case. Vectors are equal-length float sequences under
minimisation; both return sorted input indices.

Each row's dominators are counted against every other row, so the answer
is the definition's for every tolerance and with NaN coordinates, where
dominance is not transitive and window algorithms (BNL, SFS, divide and
conquer) keep rows the definition excludes.
"""

from collections.abc import Sequence

from repro.skyline.utils import (
    Vector,
    dominates,
    incomparable,
    is_skyline,
    validate_vectors,
)


def k_skyband(
    vectors: Sequence[Vector],
    k: int,
    tolerance: float = 0.0,
) -> list[int]:
    """Indices of the vectors dominated by fewer than ``k`` others.

    ``k = 1`` gives exactly the skyline; larger ``k`` relaxes membership
    monotonically (the k-skyband contains the (k-1)-skyband). Candidate
    dominators are scanned in ascending coordinate-sum order, where a
    dominator usually sits, and a row's count stops at ``k``. The order
    only decides how soon a count stops: a row is kept only after every
    other row was checked, so NaN sums may sort anywhere.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    validate_vectors(vectors)
    order = sorted(range(len(vectors)), key=lambda i: sum(vectors[i]))
    band = []
    for i, candidate in enumerate(vectors):
        count = 0
        for j in order:
            if j != i and dominates(vectors[j], candidate, tolerance):
                count += 1
                if count == k:
                    break
        else:
            band.append(i)
    return band


def skyline(vectors: Sequence[Vector], tolerance: float = 0.0) -> list[int]:
    """Indices of the Pareto-optimal vectors (Definition 2)."""
    return k_skyband(vectors, 1, tolerance)


__all__ = [
    "Vector",
    "dominates",
    "incomparable",
    "is_skyline",
    "validate_vectors",
    "k_skyband",
    "skyline",
]
