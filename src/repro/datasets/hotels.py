"""Table I — the hotels example introducing skyline queries (Example 1).

Seven hotels with price and beach distance; both dimensions are minimised.
The paper's skyline is S = {H2, H4, H6}; H1 is dominated by H2 and H7 by
H6. Used by ``python -m repro paper-example`` and the quickstart example.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Hotel:
    """One row of Table I."""

    name: str
    price: float  # in the paper's unit (euros, scaled)
    distance_km: float  # distance to the beach

    @property
    def vector(self) -> tuple[float, float]:
        """The 2-dimensional skyline point (price, distance)."""
        return (self.price, self.distance_km)


#: Table I verbatim.
HOTELS: tuple[Hotel, ...] = (
    Hotel("H1", 4.0, 150.0),
    Hotel("H2", 3.0, 110.0),
    Hotel("H3", 2.5, 240.0),
    Hotel("H4", 2.0, 180.0),
    Hotel("H5", 1.7, 270.0),
    Hotel("H6", 1.0, 195.0),
    Hotel("H7", 1.2, 210.0),
)

#: The skyline the paper reports for Example 1.
EXPECTED_SKYLINE: tuple[str, ...] = ("H2", "H4", "H6")


def hotel_vectors() -> list[tuple[float, float]]:
    """The 7 skyline points, in table order."""
    return [hotel.vector for hotel in HOTELS]


def hotel_names() -> list[str]:
    """Hotel names, in table order."""
    return [hotel.name for hotel in HOTELS]
