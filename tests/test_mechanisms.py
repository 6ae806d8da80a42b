"""Allocations, separating and taxation rules, verification checks."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mechverify.geometry import DimensionMismatch, vec
from mechverify.mechanisms import (
    Allocation,
    AssignmentSet,
    MechanismError,
    SeparatingRule,
    TaxationRule,
    TieSide,
    allocate_separating,
    apply_rule,
    best_entry,
    is_truthful_with_verification,
    point_mass,
    point_masses,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=10)


def test_assignment_set_validation():
    labels = AssignmentSet(("none", "item"), null_index=0)
    assert labels.size == 2
    with pytest.raises(MechanismError):
        AssignmentSet(("only",))
    with pytest.raises(MechanismError):
        AssignmentSet(("a", "a"))
    with pytest.raises(MechanismError):
        AssignmentSet(("a", "b"), null_index=2)


def test_allocation_validation():
    Allocation(vec("1/2", "1/2"))
    with pytest.raises(MechanismError):
        Allocation(vec("1/2", "1/4"))
    with pytest.raises(MechanismError):
        Allocation(vec("3/2", "-1/2"))


def test_point_masses_are_deterministic():
    for a in point_masses(3):
        assert a.is_deterministic()
    assert point_mass(1, 3).probs == vec(0, 1, 0)
    mixed = Allocation(vec("1/3", "2/3"))
    assert not mixed.is_deterministic()


def test_allocation_value_to_type():
    a = Allocation(vec("1/4", "3/4"))
    assert a.value_to(vec(4, 8)) == Fraction(7)


def test_separating_rule_sides_and_ties():
    a1, a2 = point_masses(2)
    rule = SeparatingRule(a1, a2, Fraction(1))  # (a1 - a2) . x = x0 - x1 = 1
    assert allocate_separating(rule, vec(3, 0)) == a1
    assert allocate_separating(rule, vec(0, 3)) == a2
    assert allocate_separating(rule, vec(2, 1)) == a1  # boundary, tie to i
    to_j = SeparatingRule(a1, a2, Fraction(1), TieSide.TO_J)
    assert allocate_separating(to_j, vec(2, 1)) == a2


def test_separating_rule_overrides_must_sit_on_boundary():
    a1, a2 = point_masses(2)
    rule = SeparatingRule(a1, a2, Fraction(1), overrides={vec(2, 1): a2})
    assert allocate_separating(rule, vec(2, 1)) == a2
    assert allocate_separating(rule, vec(3, 2)) == a1  # other boundary points keep tie side
    with pytest.raises(MechanismError):
        SeparatingRule(a1, a2, Fraction(1), overrides={vec(5, 1): a2})
    with pytest.raises(MechanismError):
        SeparatingRule(a1, a2, Fraction(1), overrides={vec(2, 1): Allocation(vec("1/2", "1/2"))})


def test_separating_rule_rejects_equal_allocations():
    a = point_mass(0, 2)
    with pytest.raises(MechanismError):
        SeparatingRule(a, a, Fraction(0))
    with pytest.raises(DimensionMismatch):
        SeparatingRule(point_mass(0, 2), point_mass(0, 3), Fraction(0))


def test_taxation_rule_best_entry_and_tie_order():
    entries = tuple(zip(point_masses(3), (Fraction(0), Fraction(1, 4), Fraction(1))))
    menu = TaxationRule(entries)
    # Type (0, 1/4, 1) is indifferent between all three entries; index order wins.
    allocation, price = best_entry(menu, vec(0, "1/4", 1))
    assert allocation == point_mass(0, 3)
    assert price == 0
    # Reordering the entries moves the tie to the new first entry.
    flipped = TaxationRule(tuple(reversed(entries)))
    allocation, price = best_entry(flipped, vec(0, "1/4", 1))
    assert allocation == point_mass(2, 3)
    assert price == 1
    middle_first = TaxationRule((entries[1], entries[0], entries[2]))
    assert best_entry(middle_first, vec(0, "1/4", 1)) == entries[1]
    allocation, _ = best_entry(menu, vec(0, 2, 0))
    assert allocation == point_mass(1, 3)


def test_taxation_rule_validation():
    with pytest.raises(MechanismError):
        TaxationRule(())
    with pytest.raises(MechanismError):
        TaxationRule(((point_mass(0, 2), Fraction(0)), (point_mass(0, 2), Fraction(1))))


def test_apply_rule_accepts_callables():
    a1, a2 = point_masses(2)
    rule = lambda x: a1 if x[0] >= x[1] else a2  # noqa: E731
    assert apply_rule(rule, vec(2, 1)) == a1
    assert apply_rule(rule, vec(1, 2)) == a2


def test_truthfulness_check_finds_first_violation():
    # Menu where overbidding grabs a better assignment by value.
    menu = TaxationRule(tuple(zip(point_masses(3), (Fraction(0), Fraction(1, 4), Fraction(1)))))
    low = vec(0, "1/4", 1)  # indifferent: picks the free null entry
    high = vec(0, "1/2", "3/2")  # picks the last entry
    nothing = lambda true, reported: False  # noqa: E731
    truthful, violation = is_truthful_with_verification(menu, nothing, [low, high])
    assert not truthful
    assert violation == (low, high)
    # The same grid passes once overbids are verified away.
    no_overbid = lambda true, reported: any(r > t for t, r in zip(true, reported))  # noqa: E731
    truthful, violation = is_truthful_with_verification(menu, no_overbid, [low, high])
    assert truthful
    assert violation is None


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=5))
def test_truthfulness_check_applies_the_rule_once_per_grid_point(coords):
    menu = TaxationRule(tuple(zip(point_masses(3), (Fraction(0), Fraction(1, 4), Fraction(1)))))
    grid = list(dict.fromkeys(vec(*c) for c in coords))
    calls = []

    def counted(x):
        calls.append(x)
        return apply_rule(menu, x)

    verification = lambda true, reported: reported[2] > true[2]  # noqa: E731
    result = is_truthful_with_verification(counted, verification, grid)
    assert calls == grid
    # The first violation in grid order, by the definition pair by pair.
    violations = [
        (theta, reported)
        for theta in grid
        for reported in grid
        if reported != theta
        and apply_rule(menu, reported).value_to(theta) > apply_rule(menu, theta).value_to(theta)
        and not verification(theta, reported)
    ]
    assert result == ((False, violations[0]) if violations else (True, None))


@given(st.lists(rationals, min_size=2, max_size=2), st.lists(rationals, min_size=2, max_size=2))
def test_separating_rule_partitions_the_plane(theta_coords, price_seed):
    a1, a2 = point_masses(2)
    price = price_seed[0]
    rule = SeparatingRule(a1, a2, price)
    x = vec(*theta_coords)
    got = allocate_separating(rule, x)
    score = (a1.probs - a2.probs).dot(x)
    if score > price:
        assert got == a1
    elif score < price:
        assert got == a2
    else:
        assert got == a1  # default tie side
