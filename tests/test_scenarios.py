"""Application settings: second-price bids, k-bundle bidders, facilities on a line."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mechverify.geometry import vec
from mechverify.harmless import deterministic_harmless, pairwise_harmless
from mechverify.mechanisms import MechanismError, point_mass, point_masses
from mechverify.scenarios import (
    FacilityLine,
    VerificationKind,
    distance_verification_blocks,
    facility_first_uncovered,
    facility_harmless_position,
    facility_preferred,
    facility_type,
    facility_verification_covers,
    kminded_harmless_contains,
    second_price_harmful_contains,
)

bids = st.fractions(min_value=0, max_value=4, max_denominator=8)
positions = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def test_second_price_threshold_cases():
    # Allocation-dependent verification: the set tracks the actual threshold.
    assert second_price_harmful_contains(1, Fraction(1, 2), True, Fraction(3, 10))
    assert not second_price_harmful_contains(1, Fraction(1, 2), True, Fraction(7, 10))
    # A report that loses anyway triggers no exchange, so nobody is harmed.
    assert not second_price_harmful_contains(1, Fraction(3, 2), True, Fraction(3, 10))
    # Without allocation dependence the threshold unions away.
    assert second_price_harmful_contains(1, Fraction(3, 2), False, Fraction(7, 10))


def test_second_price_boundaries():
    assert not second_price_harmful_contains(1, Fraction(1, 2), True, Fraction(1, 2))
    assert not second_price_harmful_contains(1, Fraction(1, 2), True, 0)
    assert not second_price_harmful_contains(1, 2, False, 1)
    assert second_price_harmful_contains(1, 1, True, Fraction(1, 2))
    with pytest.raises(MechanismError):
        second_price_harmful_contains(-1, 1, True, 1)
    with pytest.raises(MechanismError):
        second_price_harmful_contains(1, 1, True, -1)


@given(bids, bids, bids)
def test_second_price_allocation_dependent_is_smaller(reported, threshold, candidate):
    if second_price_harmful_contains(reported, threshold, True, candidate):
        assert second_price_harmful_contains(reported, threshold, False, candidate)


@given(bids, bids)
def test_second_price_union_over_threshold_grid(reported, candidate):
    # The threshold-free set is exactly the union of threshold-specific sets;
    # a grid through the reported value itself realizes the union.
    grid = [reported * Fraction(k, 8) for k in range(9)]
    union = any(
        second_price_harmful_contains(reported, t, True, candidate) for t in grid
    )
    assert union == second_price_harmful_contains(reported, reported, False, candidate)


@given(positions, positions)
def test_kminded_single_bundle_is_exact_underbid_set(truth, report):
    # The deterministic set over two point masses, which kminded_harmless_contains
    # uses for every k, has the two-allocation set's members.
    theta = vec(0, truth)
    x = vec(0, report)
    member = kminded_harmless_contains(1, theta, x)
    assert member == pairwise_harmless(
        theta, point_mass(0, 2), point_mass(1, 2)
    ).contains(x)
    if truth > 0:
        assert member == (report <= truth)
    elif truth < 0:
        assert member == (report >= truth)
    else:
        assert member  # an indifferent bidder cannot be helped


def test_kminded_two_bundles():
    theta = vec(0, Fraction(1, 2), Fraction(3, 2))
    # Underbidding both bundles is not enough: the bundle-to-bundle gap grew.
    assert not kminded_harmless_contains(2, theta, vec(0, Fraction(1, 10), Fraction(7, 5)))
    assert kminded_harmless_contains(2, theta, vec(0, Fraction(1, 4), 1))
    assert kminded_harmless_contains(2, theta, theta)


@given(
    st.tuples(st.just(Fraction(0)), bids, bids).map(lambda t: vec(*t)),
    st.tuples(st.just(Fraction(0)), bids, bids).map(lambda t: vec(*t)),
)
def test_kminded_two_bundles_matches_deterministic(theta, x):
    assert kminded_harmless_contains(2, theta, x) == deterministic_harmless(
        theta, point_masses(3)
    ).contains(x)


def test_kminded_validation():
    with pytest.raises(MechanismError):
        kminded_harmless_contains(3, vec(0, 1, 2, 3), vec(0, 1, 2, 3))
    with pytest.raises(MechanismError):
        kminded_harmless_contains(1, vec(0, 1, 2), vec(0, 1, 2))
    with pytest.raises(MechanismError):
        kminded_harmless_contains(1, vec(1, 1), vec(0, 1))
    with pytest.raises(MechanismError):
        kminded_harmless_contains(2, vec(0, 1, 2), vec(1, 1, 2))


def test_facility_type_values():
    assert facility_type(0, FacilityLine((-1, 2), 5)) == vec(4, 3)
    assert facility_type(2, FacilityLine((-1, 2), 5)) == vec(2, 5)
    line = FacilityLine((0, 1), 1)
    assert facility_type(Fraction(1, 2), line) == vec(Fraction(1, 2), Fraction(1, 2))


@given(positions)
def test_facility_types_are_lipschitz_in_location(z):
    line = FacilityLine((0, 2), 4)
    theta = facility_type(z, line)
    assert abs(theta[0] - theta[1]) <= line.span


def test_facility_line_validation():
    with pytest.raises(MechanismError):
        FacilityLine((1,), 1)
    with pytest.raises(MechanismError):
        FacilityLine((2, 1), 1)
    with pytest.raises(MechanismError):
        FacilityLine((1, 1), 1)


def test_facility_preferred():
    line = FacilityLine((0, 2), 4)
    assert facility_preferred(Fraction(1, 2), line) == 0
    assert facility_preferred(3, line) == 2
    assert facility_preferred(1, line) is None


def test_distance_verification_blocks():
    # Claiming to be nearer the facility than truth gets caught.
    assert distance_verification_blocks(
        VerificationKind.NO_UNDERBID_DISTANCE, 3, 1, 0
    )
    assert not distance_verification_blocks(
        VerificationKind.NO_UNDERBID_DISTANCE, 1, 3, 0
    )
    # Claiming the wrong side of the facility gets caught.
    assert distance_verification_blocks(
        VerificationKind.DIRECTION_IMPOSING, 1, -1, 0
    )
    assert not distance_verification_blocks(
        VerificationKind.DIRECTION_IMPOSING, 1, 5, 0
    )


def test_facility_harmless_formula():
    line = FacilityLine((0, 2), 4)
    z = Fraction(1, 2)  # prefers the left facility
    # Drifting toward the right facility is harmless; edging closer to the
    # preferred one is not.
    assert facility_harmless_position(z, line, 1)
    assert facility_harmless_position(z, line, 5)
    assert facility_harmless_position(z, line, z)
    assert not facility_harmless_position(z, line, Fraction(1, 4))
    assert not facility_harmless_position(z, line, -3)
    # Indifferent agents cannot be helped.
    assert facility_harmless_position(1, line, -10)


def test_facility_coverage_three_configurations():
    line = FacilityLine((0, 2), 4)
    between = Fraction(1, 2)
    both = (
        VerificationKind.NO_UNDERBID_DISTANCE,
        VerificationKind.DIRECTION_IMPOSING,
    )
    assert facility_verification_covers(between, line, both)
    assert not facility_verification_covers(
        between, line, (VerificationKind.NO_UNDERBID_DISTANCE,)
    )
    assert facility_verification_covers(3, line, ())


def test_facility_dropping_either_verification_breaks_coverage():
    line = FacilityLine((0, 2), 4)
    between = Fraction(1, 2)
    for kind in (
        VerificationKind.NO_UNDERBID_DISTANCE,
        VerificationKind.DIRECTION_IMPOSING,
    ):
        assert not facility_verification_covers(between, line, (kind,))


def test_facility_first_uncovered_probe():
    line = FacilityLine((0, 2), 4)
    uncovered = facility_first_uncovered(
        Fraction(1, 2), line, (VerificationKind.NO_UNDERBID_DISTANCE,)
    )
    # The uncovered set is (-inf, -1/2]; the breakpoints are -1/2, 0, 1/2
    # and 2, so the smallest decisive probe is the one left of them all.
    assert uncovered == Fraction(-3, 2)
    assert not facility_harmless_position(Fraction(1, 2), line, uncovered)
    assert not distance_verification_blocks(
        VerificationKind.NO_UNDERBID_DISTANCE, Fraction(1, 2), uncovered, 0
    )


POSITIONAL_SUBSETS = (
    (),
    (VerificationKind.NO_UNDERBID_DISTANCE,),
    (VerificationKind.DIRECTION_IMPOSING,),
    (VerificationKind.NO_UNDERBID_DISTANCE, VerificationKind.DIRECTION_IMPOSING),
)


def grid_uncovered(z, line, kinds):
    """Harmful, unblocked positions on a fine grid around every breakpoint:
    each of g1, g2, z and 2*g* - z, plus or minus two spans, at span/64."""
    preferred = facility_preferred(z, line)
    if preferred is None:
        return []
    step = line.span / 64
    breakpoints = {*line.locations, z, 2 * preferred - z}
    probes = {b + step * k for b in breakpoints for k in range(-128, 129)} | breakpoints
    return [
        p
        for p in sorted(probes)
        if p != z
        and not facility_harmless_position(z, line, p)
        and not any(distance_verification_blocks(k, z, p, preferred) for k in kinds)
    ]


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=1, max_value=4, max_denominator=8),
    # The agent's place in units of the span from the left facility, so that
    # agents between the facilities, where coverage is hardest, are common.
    st.fractions(min_value=-1, max_value=2, max_denominator=16),
    st.sampled_from(POSITIONAL_SUBSETS),
)
def test_facility_exact_decision_agrees_with_a_fine_grid(left, span, place, kinds):
    line = FacilityLine((left, left + span), 4)
    z = left + place * span
    exact = facility_first_uncovered(z, line, kinds)
    # Exact None => no grid point is uncovered (equivalently, a grid hit
    # => the exact decision finds an uncovered position).
    if grid_uncovered(z, line, kinds):
        assert exact is not None
    if exact is not None:
        preferred = facility_preferred(z, line)
        assert exact != z
        assert not facility_harmless_position(z, line, exact)
        assert not any(
            distance_verification_blocks(k, z, exact, preferred) for k in kinds
        )
