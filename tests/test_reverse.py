"""Harmful sets, the designer's ex-post view of an observed report.

A candidate true type is harmful for a report under a rule when the report's
allocation beats the candidate's own, valued by the candidate. Union
membership over the whole two-allocation family must match the forward
harmless set of the candidate by symmetry of the benefit relation, and the
oracle's brute-force search for a rule that benefits the candidate.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from mechverify.geometry import region_contains, vec
from mechverify.harmless import deterministic_harmless
from mechverify.mechanisms import SeparatingRule, TieSide, apply_rule, point_masses
from mechverify.oracle import search_beneficial_misreport
from mechverify.reverse import harmful_union_contains, pairwise_harmful_cases

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(lambda cs: vec(*cs))


def separating_rules():
    a1, a2 = point_masses(2)
    return st.builds(
        SeparatingRule,
        st.just(a1),
        st.just(a2),
        rationals,
        st.sampled_from((TieSide.TO_I, TieSide.TO_J)),
    )


@given(vectors(2), vectors(2))
def test_union_is_dual_to_forward_harmless_dim2(reported, candidate):
    union = harmful_union_contains(reported, point_masses(2), candidate)
    assert union == (not deterministic_harmless(candidate, point_masses(2)).contains(reported))
    assert union == (search_beneficial_misreport(candidate, reported, point_masses(2)) is not None)


@given(vectors(3), vectors(3))
def test_union_is_dual_to_forward_harmless_dim3(reported, candidate):
    union = harmful_union_contains(reported, point_masses(3), candidate)
    assert union == (not deterministic_harmless(candidate, point_masses(3)).contains(reported))
    assert union == (search_beneficial_misreport(candidate, reported, point_masses(3)) is not None)


def test_pairwise_harmful_case1_region():
    a1, a2 = point_masses(2)
    rule = SeparatingRule(a1, a2, Fraction(1))
    case, region = pairwise_harmful_cases(vec(3, 1), rule)
    assert case == 1
    # Candidates preferring a1 whom the rule hands a2.
    assert region_contains(region, vec(Fraction(3, 2), 1))
    assert not region_contains(region, vec(4, 1))  # receives a1 itself
    assert not region_contains(region, vec(0, 1))  # prefers a2
    assert not region_contains(region, vec(2, 1))  # boundary tie goes to a1


def test_pairwise_harmful_case3_includes_tie_boundary():
    a1, a2 = point_masses(2)
    rule = SeparatingRule(a1, a2, Fraction(-1))
    case, region = pairwise_harmful_cases(vec(0, 2), rule)
    assert case == 3
    assert region_contains(region, vec(1, Fraction(3, 2)))
    # On the threshold the tie sends this candidate to a1, away from the a2
    # it strictly prefers, so the boundary belongs to the harmful set.
    assert region_contains(region, vec(0, 1))
    assert not region_contains(region, vec(0, 3))  # receives a2 itself


def test_pairwise_harmful_empty_cases():
    a1, a2 = point_masses(2)
    rule = SeparatingRule(a1, a2, Fraction(-1))
    # Receives a1 on the tie while preferring a2: the mismatch case is empty.
    case, region = pairwise_harmful_cases(vec(0, 1), rule)
    assert case == 4
    for probe in (vec(0, 0), vec(1, 0), vec(-3, 5)):
        assert not region_contains(region, probe)


@given(vectors(2), separating_rules(), vectors(2))
def test_pairwise_region_matches_predicate(reported, rule, candidate):
    # For override-free two-allocation rules the convex case region is the
    # exact harmful set.
    _, region = pairwise_harmful_cases(reported, rule)
    gained = apply_rule(rule, reported).value_to(candidate)
    truthful = apply_rule(rule, candidate).value_to(candidate)
    assert region_contains(region, candidate) == (gained > truthful)
