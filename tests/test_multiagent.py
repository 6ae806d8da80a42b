"""Unit-demand pricing: externality menus and price-box harmlessness."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mechverify.geometry import DimensionMismatch, vec
from mechverify.harmless import deterministic_harmless
from mechverify.mechanisms import MechanismError, point_masses
from mechverify.multiagent import (
    UNRESERVED,
    PriceFamily,
    UnitDemandProfile,
    best_matching_welfare,
    find_beneficial_price,
    find_beneficial_price_on_grid,
    price_family_harmless_contains,
    vcg_harmless_contains,
    vcg_single_agent_rule,
)

values = st.fractions(min_value=0, max_value=4, max_denominator=6)


def agent_types():
    return st.tuples(st.just(Fraction(0)), values, values).map(lambda t: vec(*t))


def assert_price_witness_valid(witness, theta, x, family):
    (low1, high1), (low2, high2) = family.bounds
    p1, p2 = witness.prices
    assert p1 >= low1 and p2 >= low2
    if high1 is not None:
        assert p1 <= high1
    if high2 is not None:
        assert p2 <= high2
    theta_utils = (theta[0], theta[1] - p1, theta[2] - p2)
    x_utils = (x[0], x[1] - p1, x[2] - p2)
    assert x_utils[witness.report_entry] == max(x_utils)
    assert theta_utils[witness.truthful_entry] == max(theta_utils)
    assert witness.gained_value == theta[witness.report_entry]
    assert witness.truthful_value == theta[witness.truthful_entry]
    assert witness.gained_value > witness.truthful_value


def test_best_matching_welfare():
    assert best_matching_welfare((), (1, 2)) == 0
    assert best_matching_welfare(((3, 5),), (1, 2)) == 5  # unit demand: one item
    assert best_matching_welfare(((3, 5), (4, 1)), (1, 2)) == 9
    assert best_matching_welfare(((3, 5), (4, 1)), (2,)) == 5
    assert best_matching_welfare(((10, 9),), (1, 2)) == 10


def test_vcg_menu_prices():
    rule = vcg_single_agent_rule(UnitDemandProfile(((1, 0),)))
    assert tuple(price for _, price in rule.entries) == (0, 1, 0)

    rule = vcg_single_agent_rule(UnitDemandProfile(((1, 0), (0, 1))))
    assert tuple(price for _, price in rule.entries) == (0, 1, 1)

    rule = vcg_single_agent_rule(UnitDemandProfile(()))
    assert tuple(price for _, price in rule.entries) == (0, 0, 0)


@given(st.lists(st.tuples(values, values), max_size=3))
def test_vcg_prices_bounded_by_full_welfare(others):
    profile = UnitDemandProfile(tuple(others))
    full = best_matching_welfare(profile.others, (1, 2))
    for _, price in vcg_single_agent_rule(profile).entries:
        assert 0 <= price <= full


def test_profile_and_family_validation():
    with pytest.raises(MechanismError):
        UnitDemandProfile(((-1, 0),))
    with pytest.raises(MechanismError):
        PriceFamily(((Fraction(0), None),))
    with pytest.raises(MechanismError):
        PriceFamily(((Fraction(-1), None), (Fraction(0), None)))
    with pytest.raises(MechanismError):
        PriceFamily(((Fraction(2), Fraction(1)), (Fraction(0), None)))
    family = PriceFamily((("1/2", 2), (0, None)))
    assert family.bounds[0] == (Fraction(1, 2), Fraction(2))


@given(agent_types(), agent_types())
def test_unreserved_family_matches_deterministic(theta, x):
    member = price_family_harmless_contains(theta, UNRESERVED, x)
    assert member == deterministic_harmless(theta, point_masses(3)).contains(x)
    assert member == vcg_harmless_contains(theta, x)


@given(agent_types(), agent_types())
def test_price_witness_survives_reevaluation(theta, x):
    family = PriceFamily(((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(2))))
    witness = find_beneficial_price(theta, family, x)
    assert (witness is None) == price_family_harmless_contains(theta, family, x)
    if witness is not None:
        assert_price_witness_valid(witness, theta, x, family)


def test_reserve_prices_shield_below_reserve_reports():
    family = PriceFamily(((Fraction(3, 2), None), (Fraction(3, 2), None)))
    theta = vec(0, Fraction(1, 2), 1)
    # Below both reserves every menu in the box hands the report the null
    # entry, so nothing can be gained.
    assert price_family_harmless_contains(theta, family, vec(0, 1, Fraction(5, 4)))
    # Above the item-1 reserve a menu at the reserve corner sells item 1 to
    # the report while truth stays on null.
    witness = find_beneficial_price(theta, family, vec(0, 2, 0))
    assert witness is not None
    assert witness.prices == (Fraction(3, 2), Fraction(3, 2))
    assert_price_witness_valid(witness, theta, vec(0, 2, 0), family)
    # Overclaiming item 2 is also exploitable: the box sells it for less
    # than the report pretends but more than truth would pay.
    assert not price_family_harmless_contains(theta, family, vec(0, 0, 5))


@given(agent_types(), agent_types())
def test_widening_the_price_box_shrinks_the_harmless_set(theta, x):
    narrow = PriceFamily(((Fraction(1), Fraction(2)), (Fraction(1), Fraction(2))))
    wide = PriceFamily(((Fraction(0), Fraction(3)), (Fraction(0), Fraction(3))))
    if price_family_harmless_contains(theta, wide, x):
        assert price_family_harmless_contains(theta, narrow, x)


@given(agent_types(), agent_types())
def test_grid_search_is_sound(theta, x):
    family = PriceFamily(((Fraction(0), Fraction(3)), (Fraction(0), Fraction(3))))
    witness = find_beneficial_price_on_grid(theta, family, x, Fraction(1, 16))
    if witness is not None:
        assert_price_witness_valid(witness, theta, x, family)
        assert not price_family_harmless_contains(theta, family, x)


def test_grid_search_degenerate_box():
    family = PriceFamily(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    theta = vec(0, Fraction(1, 2), Fraction(1, 2))  # buys null at the only price
    witness = find_beneficial_price_on_grid(theta, family, vec(0, 2, 0), Fraction(1, 4))
    assert witness is not None
    assert witness.prices == (1, 1)


def test_grid_search_rejects_bad_resolution():
    with pytest.raises(MechanismError):
        find_beneficial_price_on_grid(
            vec(0, 1, 2), UNRESERVED, vec(0, 0, 1), Fraction(0)
        )


def test_type_validation():
    with pytest.raises(DimensionMismatch):
        find_beneficial_price(vec(0, 1), UNRESERVED, vec(0, 1))
    with pytest.raises(MechanismError):
        vcg_harmless_contains(vec(1, 1, 2), vec(0, 1, 1))
    with pytest.raises(MechanismError):
        vcg_harmless_contains(vec(0, 1, 2), vec(1, 1, 1))
