"""Generic skyline algorithms over numeric vectors (Section II-A).

Four interchangeable skyline implementations (naive, BNL, SFS, divide &
conquer) plus top-k dominating. All operate on sequences of equal-length
float vectors under minimisation and return sorted input indices, so any
of them can back the graph similarity skyline.
"""

from collections.abc import Sequence

from repro.errors import QueryError
from repro.skyline.utils import (
    Vector,
    dominates,
    incomparable,
    is_skyline,
    validate_vectors,
)
from repro.skyline.naive import naive_skyline
from repro.skyline.bnl import bnl_skyline
from repro.skyline.sfs import sfs_skyline
from repro.skyline.dnc import dnc_skyline
from repro.skyline.topk_dominating import dominance_counts, top_k_dominating
from repro.skyline.skyband import dominator_counts, k_skyband

#: Registry of skyline algorithms usable by name.
ALGORITHMS = {
    "naive": naive_skyline,
    "bnl": bnl_skyline,
    "sfs": sfs_skyline,
    "dnc": dnc_skyline,
}


def skyline(
    vectors: Sequence[Vector],
    algorithm: str = "bnl",
    tolerance: float = 0.0,
) -> list[int]:
    """Indices of the Pareto-optimal vectors (Definition 2).

    ``algorithm`` is one of ``naive``, ``bnl``, ``sfs``, ``dnc``; all return
    identical results (property-tested), differing only in running time.
    """
    try:
        implementation = ALGORITHMS[algorithm]
    except KeyError:
        raise QueryError(
            f"unknown skyline algorithm {algorithm!r}; "
            f"available: {', '.join(sorted(ALGORITHMS))}"
        ) from None
    return implementation(vectors, tolerance=tolerance)


__all__ = [
    "Vector",
    "dominates",
    "incomparable",
    "is_skyline",
    "validate_vectors",
    "naive_skyline",
    "bnl_skyline",
    "sfs_skyline",
    "dnc_skyline",
    "dominance_counts",
    "top_k_dominating",
    "dominator_counts",
    "k_skyband",
    "ALGORITHMS",
    "skyline",
]
