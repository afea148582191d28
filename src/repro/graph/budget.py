"""Evaluation budgets and certified distance intervals.

The paper's exact measures (``DistEd``, ``DistMcs``, ``DistGu``) sit on
worst-case-exponential branch-and-bound searches. A :class:`Budget` caps
one such search by wall clock and/or expansion count; a solver that runs
out does not fail — it stops where it is and reports what it *knows*:

* an **incumbent** (best complete solution found so far) — an upper
  bound on the edit distance, a lower bound on the common-subgraph size;
* the best **admissible bound** over the abandoned frontier — the
  matching certified bound on the other side.

:class:`Interval` carries such a certified ``[lower, upper]`` range
through the measure and engine layers (an exact value is the degenerate
interval ``lower == upper``). Both types live in the graph layer so the
solvers can use them without importing the engine.

A :class:`Budget` is also the engine's one cancellation type: a query
deadline is an expiry-only budget (:mod:`repro.engine.deadline`), so the
searches it reaches stop inside a pair, not only between pairs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.errors import DeadlineExceeded

#: A search reads the clock once per this many expansions: a node limit
#: stays exact, an expiry may run late by fewer than this many.
CLOCK_STRIDE = 64

#: Two interval endpoints within this of each other count as settled.
SETTLED_EPSILON = 1e-9


@dataclass(frozen=True)
class Budget:
    """A cap on exact evaluation: wall clock and/or expansions.

    ``expires_at`` is an absolute :func:`time.monotonic` instant (``None``
    = no wall-clock cap); ``node_limit`` caps search-state expansions
    per search (``None`` = no cap). A budget with neither is unlimited.
    """

    expires_at: float | None = None
    node_limit: int | None = None

    @classmethod
    def of(
        cls, seconds: float | None = None, nodes: int | None = None
    ) -> "Budget":
        """Budget expiring ``seconds`` from now and/or after ``nodes``."""
        expires = None if seconds is None else time.monotonic() + float(seconds)
        return cls(expires_at=expires, node_limit=nodes)

    @property
    def unlimited(self) -> bool:
        return self.expires_at is None and self.node_limit is None

    def expired(self) -> bool:
        """Whether the wall clock has reached ``expires_at``."""
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    def exhausted(self, expanded: int = 0) -> bool:
        """Whether a search that expanded ``expanded`` states must stop;
        the clock is read every :data:`CLOCK_STRIDE` expansions."""
        if self.node_limit is not None and expanded >= self.node_limit:
            return True
        if self.expires_at is None or expanded % CLOCK_STRIDE:
            return False
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` once expired."""
        if self.expired():
            raise DeadlineExceeded("query deadline exceeded; evaluation cancelled")


@dataclass(frozen=True)
class Interval:
    """A certified ``[lower, upper]`` range around an exact distance.

    Invariant: ``lower <= upper`` (the constructor clamps floating-point
    noise from monotone bound maps rather than raising). ``upper`` may be
    ``inf`` for a candidate that was never evaluated at all.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            # Endpoints produced by independent bound computations can
            # cross by floating noise; collapse to the tighter one.
            object.__setattr__(self, "lower", self.upper)

    @classmethod
    def exact(cls, value: float) -> "Interval":
        """The degenerate interval of an exactly-known distance."""
        return cls(lower=value, upper=value)

    @property
    def settled(self) -> bool:
        """Whether the interval pins the exact value (width ~ 0). A
        degenerate interval is settled also where its width is NaN: an
        exact ``inf``, or a measure's NaN value."""
        lower, upper = self.lower, self.upper
        return (
            upper - lower <= SETTLED_EPSILON
            or lower == upper
            or (lower != lower and upper != upper)
        )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def __contains__(self, value: float) -> bool:
        return self.lower - SETTLED_EPSILON <= value <= self.upper + SETTLED_EPSILON

    def intersect(self, other: "Interval") -> "Interval":
        """Tightest interval consistent with both certificates."""
        return Interval(
            lower=max(self.lower, other.lower),
            upper=min(self.upper, other.upper),
        )

    def to_wire(self) -> list[float | None]:
        """JSON-safe ``[lower, upper]`` pair (``inf`` upper → ``None``)."""
        return [self.lower, None if math.isinf(self.upper) else self.upper]
