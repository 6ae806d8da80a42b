"""Allocations, separating and taxation rules, verification checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechverify import cli, mechanisms
from mechverify.geometry import DimensionMismatch, Vector, _common_numerators, vec
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
    point_mass_choice,
    point_mass_index,
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


def fraction_loop_allocation_error(probs):
    """The message ``Allocation(probs)`` raises, or None if it accepts: the
    check as one Fraction comparison and addition per coordinate, kept
    naive as the integer check's reference."""
    total = Fraction(0)
    for p in probs:
        if p < 0 or p > 1:
            return f"allocation probability {p} outside [0, 1]"
        total += p
    if total != 1:
        return f"allocation probabilities sum to {total}, not 1"
    return None


# Large primes and their products: coordinates over coprime denominators.
PRIMES = (2, 3, 7, 1_000_003, 998_244_353, 2_147_483_647)


@st.composite
def probability_rows(draw):
    """Rational vectors near the simplex: exact distributions, the same with
    one coordinate nudged (a sum != 1 or an entry outside [0, 1]), and loose
    rationals (negative entries, entries above 1)."""
    size = draw(st.integers(min_value=1, max_value=8))
    denominators = st.builds(lambda a, b: a * b, st.sampled_from(PRIMES), st.sampled_from(PRIMES))
    shape = draw(st.sampled_from(["exact", "nudged", "loose"]))
    if shape == "loose":
        numerators = st.integers(min_value=-(10**12), max_value=3 * 10**12)
        return [Fraction(draw(numerators), draw(denominators)) % 3 - 1 for _ in range(size)]
    weights = draw(st.lists(st.integers(0, 10**9), min_size=size, max_size=size))
    weights[draw(st.integers(0, size - 1))] += 1  # a positive total
    total = sum(weights)
    row = [Fraction(w, total) for w in weights]
    if shape == "nudged":
        k = draw(st.integers(0, size - 1))
        row[k] += draw(st.sampled_from([1, -1])) / Fraction(draw(denominators))
    return row


@settings(max_examples=400)
@given(probability_rows())
def test_allocation_check_matches_the_fraction_loop(coords):
    probs = Vector(coords)
    expected = fraction_loop_allocation_error(probs)
    if expected is None:
        assert Allocation(probs).probs is probs
    else:
        with pytest.raises(MechanismError) as info:
            Allocation(probs)
        assert str(info.value) == expected


def test_allocation_messages_print_each_value_in_lowest_terms():
    # Coordinate order decides which bad entry is named; the sum is checked
    # only when every entry is in range.
    cases = {
        ("1/3", "-1/6", "5/2"): "allocation probability -1/6 outside [0, 1]",
        ("2/4", "3/2", "-1"): "allocation probability 3/2 outside [0, 1]",
        ("1/6", "1/6", "1/6"): "allocation probabilities sum to 1/2, not 1",
        ("1/1000003", "0"): "allocation probabilities sum to 1/1000003, not 1",
    }
    for coords, message in cases.items():
        assert fraction_loop_allocation_error(vec(*coords)) == message
        with pytest.raises(MechanismError) as info:
            Allocation(vec(*coords))
        assert str(info.value) == message


def test_point_masses_are_deterministic():
    assert point_mass(1, 3).probs == vec(0, 1, 0)


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
    # Overrides are (point, target) pairs, and each point is pinned once.
    pairs = SeparatingRule(a1, a2, Fraction(1), overrides=((vec(2, 1), a2), (vec(3, 2), a2)))
    assert allocate_separating(pairs, vec(3, 2)) == a2
    with pytest.raises(MechanismError, match="pinned twice"):
        SeparatingRule(a1, a2, Fraction(1), overrides=((vec(2, 1), a2), (vec(2, 1), a1)))


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
    with pytest.raises(DimensionMismatch) as info:
        TaxationRule(((point_mass(0, 3), 0), (point_mass(0, 2), 0)))
    assert str(info.value) == "mixed allocation dimensions: [2, 3]"


def test_truthfulness_check_finds_first_violation():
    # Menu where overbidding grabs a better assignment by value.
    menu = TaxationRule(tuple(zip(point_masses(3), (Fraction(0), Fraction(1, 4), Fraction(1)))))
    low = vec(0, "1/4", 1)  # indifferent: picks the free null entry
    high = vec(0, "1/2", "3/2")  # picks the last entry
    nothing = lambda true, reported, k: False  # noqa: E731
    truthful, violation = is_truthful_with_verification(menu, nothing, [low, high])
    assert not truthful
    assert violation == (low, high)
    # The same grid passes once overbids are verified away.
    no_overbid = lambda true, reported, k: any(r > t for t, r in zip(true, reported))  # noqa: E731
    truthful, violation = is_truthful_with_verification(menu, no_overbid, [low, high])
    assert truthful
    assert violation is None


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=5))
def test_truthfulness_check_applies_the_rule_once_per_grid_point(coords):
    menu = TaxationRule(tuple(zip(point_masses(3), (Fraction(0), Fraction(1, 4), Fraction(1)))))
    grid = list(dict.fromkeys(vec(*c) for c in coords))
    reads, calls = [], []
    choice = mechanisms.point_mass_choice

    def counted(rule):
        reads.append(rule)
        choose = choice(rule)

        def counted_choose(x, scale, row):
            calls.append(x)
            return choose(x, scale, row)

        return counted_choose

    verification = lambda true, reported, k: reported[2] > true[2]  # noqa: E731
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mechanisms, "point_mass_choice", counted)
        result = is_truthful_with_verification(menu, verification, grid)
    assert reads == [menu]
    assert calls == grid
    # The first violation in grid order, by the definition pair by pair.
    violations = [
        (theta, reported)
        for theta in grid
        for reported in grid
        if reported != theta
        and apply_rule(menu, reported).value_to(theta) > apply_rule(menu, theta).value_to(theta)
        and not verification(theta, reported, point_mass_index(apply_rule(menu, reported)))
    ]
    assert result == ((False, violations[0]) if violations else (True, None))


def naive_truthfulness_check(rule, verification, grid):
    """The definition, pair by pair: apply the rule once per grid point and
    value every received allocation through ``value_to``."""
    allocations = [apply_rule(rule, point) for point in grid]
    for theta, own in zip(grid, allocations):
        truthful_value = own.value_to(theta)
        for reported, received in zip(grid, allocations):
            if reported == theta:
                continue
            if received.value_to(theta) > truthful_value and not verification(theta, reported):
                return False, (theta, reported)
    return True, None


def naive_verification(token, rule):
    """The verify verb's grid predicates, by their definitions."""
    if token == "none":
        return lambda true, reported: False
    if token == "no_overbid":
        return lambda true, reported: any(r > t for t, r in zip(true, reported))

    def overstates_received(true, reported):
        received = apply_rule(rule, reported)
        return received.value_to(reported) > received.value_to(true)

    return overstates_received


# Few values, so types tie on coordinates, on utilities and on the boundary.
grid_values = st.sampled_from([Fraction(v, 2) for v in range(-2, 5)])


@st.composite
def point_mass_grids(draw):
    """(menu, reference, grid): a deduplicated grid of up to 8 types at
    m <= 4, a menu of point masses, and the rule the naive side applies.
    The menu lists some of the point masses in any order and is its own
    reference, or is the one ``cli._verify_rule`` builds for a declared
    pair with either tie side, whose reference is the two-allocation rule."""
    m = draw(st.integers(min_value=2, max_value=4))
    coords = st.lists(grid_values, min_size=m, max_size=m)
    grid = list(dict.fromkeys(Vector(c) for c in draw(st.lists(coords, min_size=1, max_size=8))))
    allocations = point_masses(m)
    order = draw(st.permutations(range(m)))
    if draw(st.booleans()):
        i, j = order[:2]
        price = draw(grid_values)
        tie = draw(st.sampled_from([TieSide.TO_I, TieSide.TO_J]))
        menu = cli._verify_rule(m, {"rule_pair": (i, j), "rule_price": price, "rule_tie": tie})
        return menu, SeparatingRule(allocations[i], allocations[j], price, tie), grid
    n = draw(st.integers(min_value=1, max_value=m))
    menu = TaxationRule(tuple((allocations[k], draw(grid_values)) for k in order[:n]))
    return menu, menu, grid


@given(st.integers(min_value=2, max_value=5), st.data())
def test_declared_pair_is_its_two_entry_menu(m, data):
    # Few values, so x_i - x_j = c, the boundary, is a common draw.
    i, j = data.draw(st.permutations(range(m)))[:2]
    tie = data.draw(st.sampled_from([TieSide.TO_I, TieSide.TO_J]))
    price = data.draw(grid_values)
    x = Vector(data.draw(st.lists(grid_values, min_size=m, max_size=m)))
    menu = cli._verify_rule(m, {"rule_pair": (i, j), "rule_price": price, "rule_tie": tie})
    allocations = point_masses(m)
    received = apply_rule(SeparatingRule(allocations[i], allocations[j], price, tie), x)
    assert apply_rule(menu, x) == received
    scale, (row,) = _common_numerators(x.coords)
    assert point_mass_choice(menu)(x, scale, row) == point_mass_index(received)


VERIFY_TOKENS = ["none", "no_overbid", "no_overbid_on_received"]


@settings(max_examples=300)
@given(point_mass_grids(), st.sampled_from(VERIFY_TOKENS + ["caught"]), st.data())
def test_truthfulness_check_matches_the_naive_oracle(drawn, token, data):
    menu, reference, grid = drawn
    if token == "caught":
        # An arbitrary predicate: a drawn set of (true, report) positions.
        positions = st.integers(min_value=0, max_value=len(grid) - 1)
        caught = data.draw(st.sets(st.tuples(positions, positions)))

        def naive(true, reported):
            return (grid.index(true), grid.index(reported)) in caught

        def fast(true, reported, k):
            return naive(true, reported)

    else:
        # As run_verify does: the verify verb's predicate for the token.
        fast, naive = cli._GRID_VERIFICATIONS[token], naive_verification(token, reference)
    asked = {"fast": [], "naive": []}

    def logged_naive(true, reported):
        asked["naive"].append((true, reported))
        return naive(true, reported)

    def logged_fast(true, reported, k):
        asked["fast"].append((true, reported))
        # The pass names the point mass the report receives.
        assert k == point_mass_index(apply_rule(reference, reported))
        return fast(true, reported, k)

    expected = naive_truthfulness_check(reference, logged_naive, grid)
    assert is_truthful_with_verification(menu, logged_fast, grid) == expected
    # The same beneficial pairs are put to the verification, in the same order.
    assert asked["fast"] == asked["naive"]


def test_received_overstatement_must_be_strict():
    # theta = (0, 1) is indifferent and takes the free entry; the report
    # (-1, 1) buys e_1, which it values exactly as theta does.
    menu = TaxationRule(tuple(zip(point_masses(2), (0, 1))))
    theta, report = vec(0, 1), vec(-1, 1)
    overstates = cli._GRID_VERIFICATIONS["no_overbid_on_received"]
    assert not overstates(theta, report, 1)
    assert overstates(theta, vec(-1, 2), 1)
    verdict = (False, (theta, report))
    assert is_truthful_with_verification(menu, overstates, [theta, report]) == verdict


def test_truthfulness_check_refuses_lotteries_and_other_dimensions():
    half = Allocation(vec("1/2", "1/2"))
    a1, a2 = point_masses(2)
    grid = [vec(1, 2), vec(2, 1)]
    nothing = lambda true, reported, k: False  # noqa: E731
    # Only a menu is read: a two-allocation rule or a callable is refused.
    for rule in (SeparatingRule(a1, a2, 0), SeparatingRule(a1, half, 0), lambda x: a1):
        with pytest.raises(MechanismError, match="the grid check reads a menu, not a"):
            is_truthful_with_verification(rule, nothing, grid)
    # A menu with a lottery entry is refused, whether or not a grid type
    # receives it: (1, 2) takes the first menu's lottery, and neither type
    # takes the second's.
    for menu in (TaxationRule(((a1, 0), (half, 0))), TaxationRule(((a1, 0), (a2, 0), (half, 1)))):
        with pytest.raises(MechanismError, match="menus of point masses, not lotteries"):
            is_truthful_with_verification(menu, nothing, grid)
    menu = TaxationRule(((a1, 0), (a2, 0)))
    with pytest.raises(DimensionMismatch):
        is_truthful_with_verification(menu, nothing, grid + [vec(1, 2, 3)])


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
