"""Naive O(n^2) skyline: compare every point against every other.

The reference implementation — trivially correct, used as the oracle in
tests and as the baseline the other algorithms are compared against.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.skyline.utils import Vector, dominates, validate_vectors


def naive_skyline(vectors: Sequence[Vector], tolerance: float = 0.0) -> list[int]:
    """Indices of non-dominated vectors, in input order."""
    validate_vectors(vectors)
    result = []
    for i, candidate in enumerate(vectors):
        dominated = any(
            dominates(other, candidate, tolerance)
            for j, other in enumerate(vectors)
            if j != i
        )
        if not dominated:
            result.append(i)
    return result
