"""Tests for skyline selection (Section II-A, Definitions 1–2)."""

import math

import numpy as np
import pytest

from repro.api.spec import GraphQuery
from repro.core.gcs import CompoundSimilarity
from repro.datasets import EXPECTED_SKYLINE, figure3_query, hotel_names, hotel_vectors
from repro.engine.consume import select
from repro.index.kernels import dominator_counts
from repro.skyline import (
    dominates,
    incomparable,
    is_skyline,
    k_skyband,
    skyline,
    validate_vectors,
)


def _select_through_spec(vectors, tolerance=0.0):
    """The engine's selection site: a skyline spec over GCS vectors."""
    spec = GraphQuery(
        graph=figure3_query(), kind="skyline", tolerance=tolerance
    ).validate()
    compound = {
        i: CompoundSimilarity(values=tuple(v), measures=("edit",) * len(v))
        for i, v in enumerate(vectors)
    }
    return select(spec, compound)


def _undominated_by_kernel(vectors, tolerance=0.0):
    """Rows the vectorised dominator count (the pruning kernel) leaves
    at zero: it must draw the selector's line."""
    if not vectors:
        return []
    matrix = np.asarray(vectors, dtype=np.float64)
    counts = dominator_counts(matrix, matrix, tolerance)
    return [i for i, count in enumerate(counts.tolist()) if count == 0]


#: Every way the library selects a skyline; each must give the
#: definitional answer (a vector never dominates itself, so the kernel
#: can compare the matrix with itself).
SELECTORS = {
    "skyline": skyline,
    "k_skyband-1": lambda vectors, tolerance=0.0: k_skyband(vectors, 1, tolerance),
    "engine-select": _select_through_spec,
    "kernel-counts": _undominated_by_kernel,
}
selectors = pytest.mark.parametrize(
    "select_skyline", list(SELECTORS.values()), ids=list(SELECTORS)
)


# ----------------------------------------------------------------------
# Dominance primitive (Definition 1)
# ----------------------------------------------------------------------
def test_dominates_definition():
    assert dominates((1.0, 2.0), (1.0, 3.0))
    assert dominates((0.0, 0.0), (1.0, 1.0))
    assert not dominates((1.0, 2.0), (1.0, 2.0))  # equal: not strict
    assert not dominates((1.0, 3.0), (2.0, 2.0))  # incomparable
    assert not dominates((2.0, 2.0), (1.0, 3.0))


def test_dominates_dimension_mismatch():
    with pytest.raises(ValueError):
        dominates((1.0,), (1.0, 2.0))


def test_dominates_with_tolerance():
    # without tolerance, any strict float gap counts
    assert dominates((1.0, 1.0), (1.0000001, 1.0000001))
    # with tolerance, near-ties on every dimension are not strict
    assert not dominates((1.0, 1.0), (1.0000001, 1.0000001), tolerance=1e-6)
    # a real gap on one dimension still dominates under tolerance
    assert dominates((1.0000001, 1.0), (1.0, 2.0), tolerance=1e-6)


def test_incomparable():
    assert incomparable((1.0, 3.0), (2.0, 2.0))
    assert not incomparable((1.0, 2.0), (2.0, 3.0))


def test_validate_vectors():
    assert validate_vectors([]) == 0
    assert validate_vectors([(1.0, 2.0)]) == 2
    with pytest.raises(ValueError):
        validate_vectors([(1.0,), (1.0, 2.0)])


# ----------------------------------------------------------------------
# Table I (Example 1)
# ----------------------------------------------------------------------
@selectors
def test_hotel_skyline_matches_paper(select_skyline):
    vectors = hotel_vectors()
    names = hotel_names()
    indices = select_skyline(vectors)
    assert tuple(names[i] for i in indices) == EXPECTED_SKYLINE


def test_hotel_dominance_examples():
    """H1 is dominated by H2, and H7 by H6 (Example 1)."""
    vectors = {name: v for name, v in zip(hotel_names(), hotel_vectors())}
    assert dominates(vectors["H2"], vectors["H1"])
    assert dominates(vectors["H6"], vectors["H7"])


# ----------------------------------------------------------------------
# Selector correctness & agreement
# ----------------------------------------------------------------------
@selectors
def test_empty_and_singleton(select_skyline):
    assert select_skyline([]) == []
    assert select_skyline([(1.0, 2.0)]) == [0]


@selectors
def test_duplicates_all_kept(select_skyline):
    vectors = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
    assert select_skyline(vectors) == [0, 1]


@selectors
def test_single_dimension(select_skyline):
    vectors = [(3.0,), (1.0,), (2.0,), (1.0,)]
    assert select_skyline(vectors) == [1, 3]


@selectors
def test_total_order_chain(select_skyline):
    vectors = [(float(i), float(i)) for i in range(10)]
    assert select_skyline(vectors) == [0]


@selectors
def test_anti_chain_everyone_survives(select_skyline):
    vectors = [(float(i), float(10 - i)) for i in range(10)]
    assert select_skyline(vectors) == list(range(10))


#: Inputs where dominance is not transitive. Row 5 dominates row 1 and
#: row 3 dominates row 5 but not row 1, so a window algorithm that drops
#: row 5 keeps row 1; NaN compares as a tie, so (0, 2) dominates
#: (nan, 0) and (3, nan) dominates nothing.
_INTRANSITIVE = [
    (
        [(1.36, 0.82, 0.38), (0.78, 1.57, 1.6), (1.92, 1.78, 1.36),
         (1.04, 1.45, 0.37), (1.85, 1.43, 1.19), (0.87, 1.27, 1.24)],
        0.25,
        [0, 3],
    ),
    ([(math.nan, 0.0), (3.0, math.nan), (0.0, 2.0)], 0.0, [0]),
]


@selectors
def test_skyline_matches_the_definition(select_skyline):
    import random

    rng = random.Random(0)
    cases = list(_INTRANSITIVE)
    for _ in range(25):
        n = rng.randint(0, 40)
        d = rng.randint(1, 4)
        vectors = [
            tuple(float(rng.randint(0, 8)) for _ in range(d)) for _ in range(n)
        ]
        cases.append((vectors, 0.0, None))
    for vectors, tolerance, expected in cases:
        answer = select_skyline(vectors, tolerance)
        assert is_skyline(vectors, answer, tolerance), vectors
        assert answer == skyline(vectors, tolerance)
        if expected is not None:
            assert answer == expected


#: Dominator counts 0, 1, 2, 4, 2: (1, 3) is dominated by (0, 0) and
#: (1, 1); (3, 3) by every other row.
_BANDED = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (1.0, 3.0)]


@pytest.mark.parametrize(
    "k, expected",
    [(1, [0]), (2, [0, 1]), (3, [0, 1, 2, 4]), (4, [0, 1, 2, 4]),
     (5, [0, 1, 2, 3, 4])],
)
def test_skyband_keeps_rows_with_fewer_than_k_dominators(k, expected):
    assert k_skyband(_BANDED, k) == expected


def test_is_skyline_detects_bad_answers():
    vectors = [(1.0, 1.0), (2.0, 2.0)]
    assert is_skyline(vectors, [0])
    assert not is_skyline(vectors, [0, 1])  # includes dominated point
    assert not is_skyline(vectors, [])  # misses skyline point
