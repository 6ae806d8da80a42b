"""Harmless sets: pairwise, deterministic, and expectation-class closed forms.

The brute-force ground truth used here checks candidate rules directly: a
report is harmless against a family iff no rule in the family hands the
misreporting type a strictly more valuable allocation than truth does.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mechverify.geometry import DimensionMismatch, Sense, vec
from mechverify.harmless import (
    SimplexFamily,
    SubspaceHypothesisError,
    check_one_line,
    decisive_pair,
    deterministic_harmless,
    pairwise_harmless,
    tie_harmless_contains,
    universally_truthful_harmless,
)
from mechverify.mechanisms import (
    Allocation,
    MechanismError,
    SeparatingRule,
    TieSide,
    allocate_separating,
    point_mass,
    point_masses,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(lambda cs: vec(*cs))


def pair_rules(a_i, a_j, theta, x):
    """Every rule shape that can distinguish theta from x over one pair.

    Prices at and around both scores, both tie sides, and overrides pinning
    either point on the boundary cover all ways a two-allocation rule can
    treat the two reports differently.
    """
    normal = a_i.probs - a_j.probs
    scores = {normal.dot(theta), normal.dot(x)}
    prices = set()
    for s in scores:
        prices.update({s - 1, s, s + 1})
    for s, t in combinations(sorted(scores), 2):
        prices.add((s + t) / 2)
    for price in sorted(prices):
        for tie in (TieSide.TO_I, TieSide.TO_J):
            yield SeparatingRule(a_i, a_j, price, tie)
            for target in (a_i, a_j):
                for pinned in (theta, x):
                    if normal.dot(pinned) == price:
                        yield SeparatingRule(
                            a_i, a_j, price, tie, overrides={pinned: target}
                        )


def beneficial_somewhere(theta, x, allocations):
    for a_i, a_j in combinations(allocations, 2):
        for rule in pair_rules(a_i, a_j, theta, x):
            gained = allocate_separating(rule, x).value_to(theta)
            kept = allocate_separating(rule, theta).value_to(theta)
            if gained > kept:
                return True
    return False


def test_pairwise_harmless_shape_for_example_pair():
    # True type values the second assignment more; underbidding the gap is safe.
    theta = vec(1, 3)
    result = pairwise_harmless(theta, point_mass(0, 2), point_mass(1, 2))
    region = result.region
    assert len(region.halfspaces) == 1
    hs = region.halfspaces[0]
    assert hs.sense is Sense.STRICT_GREATER
    assert hs.hyperplane.normal == vec(1, -1)
    assert hs.hyperplane.offset == -2
    assert theta in region.extra_points
    assert result.contains(vec(0, 1))  # smaller gap
    assert result.contains(theta)  # truth is always harmless
    assert not result.contains(vec(0, 2))  # equal gap, different point
    assert not result.contains(vec(0, 3))  # larger gap


def test_pairwise_indifferent_type_finds_everything_harmless():
    result = pairwise_harmless(vec(2, 2), point_mass(0, 2), point_mass(1, 2))
    assert result.region.halfspaces == ()
    for x in (vec(0, 0), vec(5, -5), vec(2, 2)):
        assert result.contains(x)


@given(vectors(2), vectors(2))
def test_pairwise_matches_brute_force_over_rules(theta, x):
    a1, a2 = point_masses(2)
    member = pairwise_harmless(theta, a1, a2).contains(x)
    assert member == (not beneficial_somewhere(theta, x, (a1, a2)))


@given(vectors(3), vectors(3))
def test_deterministic_matches_brute_force_over_rules(theta, x):
    allocations = point_masses(3)
    member = deterministic_harmless(theta, allocations).contains(x)
    assert member == (not beneficial_somewhere(theta, x, allocations))


def test_deterministic_region_is_pairwise_intersection():
    theta = vec(0, "1/2", "3/2")
    allocations = point_masses(3)
    region = deterministic_harmless(theta, allocations).region
    probes = [vec(0, "1/4", 1), vec(0, "1/4", "7/5"), vec("1/4", "1/4", 1), theta]
    for x in probes:
        pairwise_all = all(
            pairwise_harmless(theta, a, b).contains(x)
            for a, b in combinations(allocations, 2)
        )
        member = deterministic_harmless(theta, allocations).contains(x)
        assert member == pairwise_all
    assert theta in region.extra_points


def test_deterministic_requires_point_masses():
    with pytest.raises(MechanismError):
        deterministic_harmless(vec(0, 0), (point_mass(0, 2), Allocation(vec("1/2", "1/2"))))
    with pytest.raises(MechanismError):
        deterministic_harmless(vec(0, 0), (point_mass(0, 2),))


def test_universally_truthful_equals_deterministic():
    theta = vec(0, "1/2", "3/2")
    allocations = point_masses(3)
    det = deterministic_harmless(theta, allocations)
    uni = universally_truthful_harmless(theta, allocations)
    for x in (vec(0, "1/4", 1), vec(0, "1/4", "7/5"), vec(0, 2, 0), theta):
        assert det.contains(x) == uni.contains(x)


@given(vectors(2), rationals, st.sampled_from((TieSide.TO_I, TieSide.TO_J)), vectors(2))
def test_no_single_rule_rewards_a_deterministic_harmless_report(theta, price, tie, x):
    # Each two-allocation rule is one member of the deterministic family, so
    # a report it rewards lies outside the family's harmless set.
    a1, a2 = point_masses(2)
    rule = SeparatingRule(a1, a2, price, tie)
    gained = allocate_separating(rule, x).value_to(theta)
    truthful = allocate_separating(rule, theta).value_to(theta)
    if gained > truthful:
        assert not deterministic_harmless(theta, (a1, a2)).contains(x)


def test_decisive_pair_of_an_explicit_set():
    a1, a2 = point_masses(2)
    assert decisive_pair(vec(1, 3), (a1, a2)) == (a2, a1)
    # Indifferent pairs contribute nothing.
    assert decisive_pair(vec(2, 2), (a1, a2)) is None
    # Two difference directions violate the hypothesis behind the closed
    # form; the test is the set's, whatever the type.
    assert decisive_pair(vec(0, 1, 2), point_masses(3)) == point_masses(3)[1::-1]
    with pytest.raises(SubspaceHypothesisError):
        check_one_line(point_masses(3))
    check_one_line((a1, a2))
    check_one_line((a1, a1))


def test_tie_full_simplex_closed_form():
    theta = vec(1, 2, 4)
    ones = vec(1, 1, 1)
    assert tie_harmless_contains(theta, theta.scale(Fraction(1, 2)) + ones.scale(3), SimplexFamily.FULL_SIMPLEX)
    assert tie_harmless_contains(theta, theta, SimplexFamily.FULL_SIMPLEX)
    assert tie_harmless_contains(theta, theta.scale(Fraction(-1)), SimplexFamily.FULL_SIMPLEX)
    assert not tie_harmless_contains(theta, theta.scale(Fraction(3, 2)), SimplexFamily.FULL_SIMPLEX)
    assert not tie_harmless_contains(theta, vec(1, 2, 5), SimplexFamily.FULL_SIMPLEX)
    with pytest.raises(DimensionMismatch) as info:
        tie_harmless_contains(theta, vec(1, 2), SimplexFamily.FULL_SIMPLEX)
    assert str(info.value) == "type dims 3 vs 2"


def test_tie_constant_type_is_never_harmed():
    theta = vec(2, 2, 2)
    for x in (vec(0, 0, 0), vec(9, 1, 1), vec(-3, 5, 0)):
        assert tie_harmless_contains(theta, x, SimplexFamily.FULL_SIMPLEX)


def test_tie_with_null_assignment_is_the_downscaling_ray():
    theta = vec(0, 1, 2)
    assert tie_harmless_contains(theta, theta.scale(Fraction(1, 2)), SimplexFamily.SUBSIMPLEX_WITH_NULL)
    assert tie_harmless_contains(theta, theta.scale(Fraction(-2)), SimplexFamily.SUBSIMPLEX_WITH_NULL)
    assert tie_harmless_contains(theta, theta, SimplexFamily.SUBSIMPLEX_WITH_NULL)
    assert not tie_harmless_contains(theta, theta.scale(Fraction(3, 2)), SimplexFamily.SUBSIMPLEX_WITH_NULL)
    # Adding a constant breaks proportionality once a null assignment exists.
    assert not tie_harmless_contains(theta, theta + vec(1, 1, 1), SimplexFamily.SUBSIMPLEX_WITH_NULL)


def test_tie_zero_type_with_null_assignment():
    theta = vec(0, 0, 0)
    for x in (vec(0, 1, 2), vec(0, -1, 5)):
        assert tie_harmless_contains(theta, x, SimplexFamily.SUBSIMPLEX_WITH_NULL)


@given(vectors(3), st.fractions(min_value=-2, max_value=1, max_denominator=6), rationals)
def test_tie_accepts_downscaled_types_plus_constants(theta, lam, mu):
    x = theta.scale(lam) + vec(1, 1, 1).scale(mu)
    assert tie_harmless_contains(theta, x, SimplexFamily.FULL_SIMPLEX)


@given(vectors(3), vectors(3))
def test_tie_harmless_implies_deterministic_harmless(theta, x):
    # Off the common-shift slice x = theta + c*1 the expectation class
    # accepts no report the deterministic class rejects.  On the slice the
    # two do not nest today: a deterministic rule with theta = (1, 0) and
    # x = (2, 1) both on its boundary separates them beneficially, yet the
    # full simplex calls x harmless.  The slice is excluded until the class
    # convention for such boundary rules is settled (ROADMAP, "Make the
    # class answers nest").
    diff = x - theta
    assume(any(diff[i] != diff[0] for i in range(diff.dim)))
    if tie_harmless_contains(theta, x, SimplexFamily.FULL_SIMPLEX):
        assert deterministic_harmless(theta, point_masses(3)).contains(x)


def test_tie_explicit_pair_matches_pairwise_set_off_shift_slice():
    theta = vec(1, 3)
    a1, a2 = point_masses(2)
    # Away from common shifts of theta the two characterizations agree.
    for x in (vec(0, 1), vec(0, 3), theta, vec(2, 2), vec(5, 0), vec(1, 4)):
        assert tie_harmless_contains(theta, x, (a1, a2)) == pairwise_harmless(
            theta, a1, a2
        ).contains(x)


def test_tie_keeps_common_shift_reports_that_deterministic_rejects():
    # Shifting every coordinate by the same constant leaves all value gaps
    # unchanged. The expectation closed form keeps such a report, while a
    # deterministic threshold rule may break the boundary tie against the
    # truthful report, so the harmless sets differ exactly on that slice.
    # Such a rule is truthful with payments too, so whether the expectation
    # class should count it is open; the slice is pinned as it stands until
    # that convention is settled (ROADMAP, "Make the class answers nest").
    theta = vec(1, 3)
    a1, a2 = point_masses(2)
    shifted = vec(0, 2)
    assert tie_harmless_contains(theta, shifted, (a1, a2))
    assert not pairwise_harmless(theta, a1, a2).contains(shifted)
