"""Second property-based suite: ranks, skyband."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.diversity import dense_ranks_descending
from repro.index.kernels import dominator_counts
from repro.skyline import is_skyline, k_skyband, skyline
from tests.conftest import vector_lists

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Dense ranks
# ----------------------------------------------------------------------
@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=10).map(float), max_size=20))
def test_dense_ranks_properties(values):
    ranks = dense_ranks_descending(values)
    assert len(ranks) == len(values)
    if values:
        assert min(ranks) == 1
        assert max(ranks) == len(set(values))
        # equal values share ranks; larger values get smaller ranks
        for i, vi in enumerate(values):
            for j, vj in enumerate(values):
                if vi == vj:
                    assert ranks[i] == ranks[j]
                elif vi > vj:
                    assert ranks[i] < ranks[j]


# ----------------------------------------------------------------------
# k-skyband
# ----------------------------------------------------------------------
@st.composite
def _vectors_with_nan(draw):
    """``vector_lists`` with about one coordinate in ten set to NaN."""
    vectors = draw(vector_lists(max_points=20))
    return [
        tuple(math.nan if draw(st.integers(0, 9)) == 0 else x for x in vector)
        for vector in vectors
    ]


def _dominates(p, q, tolerance):
    """Definition 1 under minimisation, coordinates within ``tolerance``
    tied; a comparison with NaN is false, so NaN ties too."""
    no_worse = all(not a > b + tolerance for a, b in zip(p, q))
    return no_worse and any(a < b - tolerance for a, b in zip(p, q))


@SETTINGS
@given(
    _vectors_with_nan(),
    st.integers(min_value=1, max_value=5),
    st.sampled_from((0.0, 1.0, 1.5)),
)
def test_skyband_membership_definition(vectors, k, tolerance):
    """Membership is "fewer than k others dominate me", also where
    tolerance or NaN make dominance intransitive."""
    members = set(k_skyband(vectors, k, tolerance))
    for i, p in enumerate(vectors):
        dominators = sum(
            1
            for j, q in enumerate(vectors)
            if j != i and _dominates(q, p, tolerance)
        )
        assert (i in members) == (dominators < k)


tolerances = st.sampled_from((0.0, 1.0, 1.5))


@SETTINGS
@given(_vectors_with_nan(), tolerances)
def test_skyband_k1_is_skyline(vectors, tolerance):
    answer = k_skyband(vectors, 1, tolerance)
    assert answer == skyline(vectors, tolerance)
    assert is_skyline(vectors, answer, tolerance)


@SETTINGS
@given(_vectors_with_nan(), tolerances)
def test_skyband_is_monotone_in_k_under_tolerance_and_nan(vectors, tolerance):
    previous: set[int] = set()
    for k in range(1, 6):
        members = set(k_skyband(vectors, k, tolerance))
        assert previous <= members
        previous = members
    if vectors:
        assert k_skyband(vectors, len(vectors), tolerance) == list(range(len(vectors)))


@SETTINGS
@given(_vectors_with_nan(), st.integers(min_value=1, max_value=5), tolerances)
def test_skyband_agrees_with_the_dominator_count_kernel(vectors, k, tolerance):
    """The pruning kernel's counts and the selector draw the same band."""
    if not vectors:
        return
    matrix = np.asarray(vectors, dtype=np.float64)
    counts = dominator_counts(matrix, matrix, tolerance).tolist()
    assert k_skyband(vectors, k, tolerance) == [
        i for i, count in enumerate(counts) if count < k
    ]


@SETTINGS
@given(_vectors_with_nan(), tolerances, st.randoms(use_true_random=False))
def test_skyband_does_not_depend_on_row_order(vectors, tolerance, rng):
    """NaN coordinate sums may sort anywhere in the scan; the band is the
    same set of rows under every input order."""
    order = list(range(len(vectors)))
    rng.shuffle(order)
    shuffled = [vectors[i] for i in order]
    for k in (1, 2):
        expected = set(k_skyband(vectors, k, tolerance))
        assert {order[i] for i in k_skyband(shuffled, k, tolerance)} == expected


@SETTINGS
@given(_vectors_with_nan(), tolerances)
def test_a_row_worse_than_every_row_changes_no_membership(vectors, tolerance):
    """A row more than ``tolerance`` worse than every finite coordinate
    dominates nobody, so the old rows keep their band membership."""
    if not vectors:
        return
    finite = [x for vector in vectors for x in vector if not math.isnan(x)]
    worst = max(finite, default=0.0) + tolerance + 1.0
    extended = list(vectors) + [(worst,) * len(vectors[0])]
    for k in (1, 2):
        before = k_skyband(vectors, k, tolerance)
        after = k_skyband(extended, k, tolerance)
        assert [i for i in after if i < len(vectors)] == before
