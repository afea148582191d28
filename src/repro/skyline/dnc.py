"""Divide-and-conquer skyline (Börzsönyi et al., ICDE 2001).

Split the points at the median of the first discriminating dimension;
points in the low half can never be dominated by the high half, so the
result is ``skyline(low) ∪ filter(skyline(high), skyline(low))``. Small
partitions fall back to the naive loop. With genuinely multidimensional
data this does asymptotically less work than the nested loops.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.skyline.naive import naive_skyline
from repro.skyline.utils import Vector, dominates, validate_vectors

_SMALL_PARTITION = 16


def dnc_skyline(vectors: Sequence[Vector], tolerance: float = 0.0) -> list[int]:
    """Indices of non-dominated vectors, in input order."""
    dimension = validate_vectors(vectors)
    if dimension == 0:
        return []

    def solve(indices: list[int], depth: int) -> list[int]:
        if len(indices) <= _SMALL_PARTITION:
            local = naive_skyline([vectors[i] for i in indices], tolerance)
            return [indices[i] for i in local]
        # Find a dimension (starting at `depth`) whose values actually split
        # the partition; fully-tied partitions degrade to the naive loop.
        for offset in range(dimension):
            axis = (depth + offset) % dimension
            values = sorted(vectors[i][axis] for i in indices)
            median = values[len(values) // 2]
            low = [i for i in indices if vectors[i][axis] <= median]
            high = [i for i in indices if vectors[i][axis] > median]
            if low and high:
                break
        else:
            local = naive_skyline([vectors[i] for i in indices], tolerance)
            return [indices[i] for i in local]
        low_skyline = solve(low, depth + 1)
        high_skyline = solve(high, depth + 1)
        merged = list(low_skyline)
        for i in high_skyline:
            if not any(dominates(vectors[j], vectors[i], tolerance) for j in low_skyline):
                merged.append(i)
        return merged

    return sorted(solve(list(range(len(vectors))), 0))
