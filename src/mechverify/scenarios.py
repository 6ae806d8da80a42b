"""Worked settings: second-price thresholds, k-minded bidders, facilities on a line.

Each application reduces to the core harmless/harmful machinery after a
change of coordinates, and the reductions here are deliberately thin: the
point is that the generic sets, specialised, reproduce the verification
requirements these settings are known to need.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .geometry import Vector, frac
from .harmless import deterministic_harmless
from .mechanisms import MechanismError, point_masses


class VerificationKind(Enum):
    """Positional verification technologies for facilities on a line."""

    NO_UNDERBID_DISTANCE = "no_underbid_distance"
    DIRECTION_IMPOSING = "direction_imposing"


def second_price_harmful_contains(
    reported_value,
    threshold,
    allocation_dependent: bool,
    candidate_value,
) -> bool:
    """Which true values a single observed bid could have helped.

    Allocation-dependent verification only fires when the item changes
    hands: against the specific threshold (the best competing bid), the
    report helps exactly the true values that would have lost on their own,
    provided the report actually wins.  Without allocation dependence the
    threshold is unknown, so the harmful set unions over every threshold the
    report can beat: all true values strictly under the report.

    Zero-value candidates gain nothing from winning, so they are never
    harmful.
    """
    reported = frac(reported_value)
    candidate = frac(candidate_value)
    threshold = frac(threshold)
    if reported < 0 or candidate < 0:
        raise MechanismError("second-price values are nonnegative")
    if allocation_dependent:
        if threshold > reported:
            return False
        return 0 < candidate < threshold
    return 0 < candidate < reported


def kminded_harmless_contains(k: int, theta: Vector, x: Vector) -> bool:
    """Harmlessness for a bidder interested in k bundles (plus the null).

    Types live on (null, bundle_1, ..., bundle_k) with the null coordinate
    pinned to zero, and the set is the deterministic one over the k + 1
    point masses.  For k = 1 that is the two-allocation set: underbids are
    harmless, overbids are not.
    """
    if k not in (1, 2):
        raise MechanismError(f"k must be 1 or 2, got {k}")
    if theta.dim != k + 1 or x.dim != k + 1:
        raise MechanismError(f"types need {k + 1} coordinates (null first)")
    if theta[0] != 0 or x[0] != 0:
        raise MechanismError("the null coordinate (index 0) must be worth 0")
    return deterministic_harmless(theta, point_masses(k + 1)).contains(x)


@dataclass(frozen=True)
class FacilityLine:
    """Two facility locations on a line and the benefit of being served."""

    locations: tuple[Fraction, Fraction]
    benefit: Fraction

    def __post_init__(self) -> None:
        locations = tuple(frac(g) for g in self.locations)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "benefit", frac(self.benefit))
        if len(locations) != 2:
            raise MechanismError("exactly two facility locations are supported")
        if not locations[0] < locations[1]:
            raise MechanismError("facility locations must be distinct and sorted")

    @property
    def span(self) -> Fraction:
        return self.locations[1] - self.locations[0]


def facility_type(agent_position, line: FacilityLine) -> Vector:
    """Induced type: benefit minus distance, per facility."""
    z = frac(agent_position)
    return Vector(tuple(line.benefit - abs(z - g) for g in line.locations))


def distance_verification_blocks(
    kind: VerificationKind,
    agent_position,
    misreport_position,
    facility,
) -> bool:
    """Would the verification, applied at the given facility, catch the lie?"""
    z = frac(agent_position)
    reported = frac(misreport_position)
    g = frac(facility)
    if kind is VerificationKind.NO_UNDERBID_DISTANCE:
        return abs(reported - g) < abs(z - g)
    return (reported - g) * (z - g) < 0


def facility_preferred(agent_position, line: FacilityLine) -> Fraction | None:
    """The nearer facility, or None when the agent is exactly between."""
    z = frac(agent_position)
    left, right = line.locations
    if abs(z - left) == abs(z - right):
        return None
    return right if abs(z - right) < abs(z - left) else left


def facility_harmless_position(agent_position, line: FacilityLine, misreport_position) -> bool:
    """Is reporting the given position harmless for the agent?

    Fixed-tie-breaking convention: a misreport is harmless when its induced
    type is weakly less keen on the agent's preferred facility, boundary
    included.  Indifferent agents find every report harmless.
    """
    z = frac(agent_position)
    reported = frac(misreport_position)
    preferred = facility_preferred(z, line)
    if preferred is None:
        return True
    left, right = line.locations
    other = left if preferred == right else right

    def keenness_for_other(position: Fraction) -> Fraction:
        return abs(position - preferred) - abs(position - other)

    return keenness_for_other(reported) >= keenness_for_other(z)


def facility_first_uncovered(
    agent_position,
    line: FacilityLine,
    verifications: Iterable[VerificationKind],
) -> Fraction | None:
    """Smallest decisive position that could help the agent yet evades every
    verification, or None when the verifications cover every position.

    A misreport can only help by stealing the agent's preferred facility g*,
    so each verification is applied there.  Harmlessness uses the
    fixed-tie-breaking convention: positions whose induced type sits on the
    same boundary as the agent's receive the same allocation and cannot
    benefit, which closes the half-space and, for agents outside both
    facilities, makes every report harmless.

    The decision is exact.  Whether a report r is harmful changes only at
    g1, g2 and the agent z; ``no_underbid_distance`` changes only at z and
    2*g* - z; ``direction_imposing`` changes only at g*.  So every predicate
    is constant on each open gap between consecutive breakpoints
    B = {g1, g2, z, 2*g* - z} and on the two rays beyond them.  Probing every
    point of B, the midpoint of every gap and min B - 1, max B + 1 therefore
    visits every piece of the line: the verifications cover all misreports
    iff no probe other than z is harmful and unblocked, and otherwise the
    smallest such probe is returned.
    """
    z = frac(agent_position)
    kinds = tuple(verifications)
    preferred = facility_preferred(z, line)
    if preferred is None:
        # Indifferent agents cannot be helped: everything is harmless.
        return None
    breakpoints = sorted({*line.locations, z, 2 * preferred - z})
    probes = breakpoints + [(a + b) / 2 for a, b in zip(breakpoints, breakpoints[1:])]
    probes += [breakpoints[0] - 1, breakpoints[-1] + 1]
    for position in sorted(probes):
        if position == z or facility_harmless_position(z, line, position):
            continue
        if not any(
            distance_verification_blocks(kind, z, position, preferred) for kind in kinds
        ):
            return position
    return None


def facility_verification_covers(
    agent_position,
    line: FacilityLine,
    verifications: Iterable[VerificationKind],
) -> bool:
    """Do the verifications block every misreported position that could help?"""
    return facility_first_uncovered(agent_position, line, verifications) is None
