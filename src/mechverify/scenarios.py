"""Worked settings: second-price thresholds, k-minded bidders, facilities on a line.

Each application reduces to the core harmless/harmful machinery after a
change of coordinates, and the reductions here are deliberately thin: the
point is that the generic sets, specialised, reproduce the verification
requirements these settings are known to need.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from enum import Enum
from fractions import Fraction

from .geometry import Frozen, RationalLike, Vector, frac
from .harmless import check_null_coordinate, deterministic_harmless
from .mechanisms import MechanismError, point_masses


class VerificationKind(Enum):
    """Positional verification technologies for facilities on a line."""

    NO_UNDERBID_DISTANCE = "no_underbid_distance"
    DIRECTION_IMPOSING = "direction_imposing"


_ALL_KINDS = frozenset(VerificationKind)


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
    check_null_coordinate(theta, x)
    return deterministic_harmless(theta, point_masses(k + 1)).contains(x)


class FacilityLine(Frozen):
    """Two facility locations on a line and the benefit of being served."""

    __slots__ = ("locations", "benefit")

    def __init__(self, locations: Iterable[RationalLike], benefit: RationalLike) -> None:
        locations = tuple(frac(g) for g in locations)
        benefit = frac(benefit)
        if len(locations) != 2:
            raise MechanismError("exactly two facility locations are supported")
        if not locations[0] < locations[1]:
            raise MechanismError("facility locations must be distinct and sorted")
        self._init(locations, benefit)

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
    """The nearer facility, or None when the agent is exactly between: the
    sign of |z - g1| - |z - g2| is that of 2z - g1 - g2, wherever z sits."""
    z = frac(agent_position)
    left, right = line.locations
    side = 2 * z - left - right
    if not side:
        return None
    return left if side < 0 else right


def facility_harmless_test(
    agent_position, line: FacilityLine, *, _preferred=...
) -> Callable[[Fraction], bool]:
    """``facility_harmless_position`` for one agent: the preferred facility
    and the agent's clamped position are worked out once, and each reported
    position then costs one clamp and one comparison.

    Fixed-tie-breaking convention: a misreport is harmless when its induced
    type is weakly less keen on the agent's preferred facility, boundary
    included.  Indifferent agents find every report harmless.

    With c(y) the position y clamped to [g1, g2], a position's keenness for
    the other facility, |y - g*| - |y - g_other|, is 2 c(y) - g1 - g2 when
    g* = g1 and its negative when g* = g2.  So the report r is harmless iff
    c(r) >= c(z) (g* = g1) or c(r) <= c(z) (g* = g2).  A caller that has
    found g* (``facility_preferred``) passes it as ``_preferred``.
    """
    z = frac(agent_position)
    preferred = facility_preferred(z, line) if _preferred is ... else _preferred
    left, right = line.locations
    clamped_agent = min(max(z, left), right)
    if preferred is None:
        return lambda reported: True
    if preferred == left:
        return lambda reported: min(max(reported, left), right) >= clamped_agent
    return lambda reported: min(max(reported, left), right) <= clamped_agent


def facility_harmless_position(agent_position, line: FacilityLine, misreport_position) -> bool:
    """Is reporting the given position harmless for the agent?"""
    return facility_harmless_test(agent_position, line)(frac(misreport_position))


def facility_first_uncovered(
    agent_position,
    line: FacilityLine,
    verifications: Iterable[VerificationKind],
    *,
    _preferred=...,
) -> Fraction | None:
    """Smallest decisive position that could help the agent yet evades every
    verification, or None when the verifications cover every position.

    A misreport can only help by stealing the agent's preferred facility g*,
    so each verification is applied there.  Harmlessness uses the
    fixed-tie-breaking convention: positions whose induced type sits on the
    same boundary as the agent's receive the same allocation and cannot
    benefit, which closes the half-space and, for agents outside both
    facilities, makes every report harmless.

    The decision is exact, in closed form.  No report helps an agent at or
    outside a facility or at the midpoint, and the two kinds together block
    every report that helps.  Otherwise, with mirror = 2*g* - z, the reports
    r < z help when g* = g1; ``no_underbid_distance`` alone leaves the ray
    (-inf, mirror] of them uncovered, ``direction_imposing`` alone [g1, z),
    neither kind all of them.  When g* = g2 the reports r > z help, and the
    kinds leave [mirror, inf) and (z, g2].  The position returned is the
    smallest probe in that set, the probes being B = {g1, g2, z, mirror},
    the midpoints of its gaps and min B - 1, max B + 1: g1 or mirror - 1
    when g* = g1, mirror or (z + g2)/2 when g* = g2.  A caller that has
    found g* (``facility_preferred``) passes it as ``_preferred``.
    """
    z = frac(agent_position)
    kinds = set(verifications)
    preferred = facility_preferred(z, line) if _preferred is ... else _preferred
    left, right = line.locations
    if preferred is None or not left < z < right or kinds >= _ALL_KINDS:
        return None
    mirror = 2 * preferred - z
    if preferred == left:
        return left if VerificationKind.DIRECTION_IMPOSING in kinds else mirror - 1
    return mirror if VerificationKind.NO_UNDERBID_DISTANCE in kinds else (z + right) / 2


def facility_verification_covers(
    agent_position,
    line: FacilityLine,
    verifications: Iterable[VerificationKind],
) -> bool:
    """Do the verifications block every misreported position that could help?"""
    return facility_first_uncovered(agent_position, line, verifications) is None
