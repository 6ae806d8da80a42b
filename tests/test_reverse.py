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

from mechverify.geometry import vec
from mechverify.harmless import deterministic_harmless
from mechverify.mechanisms import SeparatingRule, TieSide, apply_rule, point_masses
from mechverify.oracle import search_beneficial_misreport
from mechverify.reverse import harmful_union_contains

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


@given(vectors(2), separating_rules(), vectors(2))
def test_union_contains_every_candidate_one_rule_harms(reported, rule, candidate):
    # An override-free two-allocation rule is one member of the family, so
    # the candidates it harms lie in the union.
    gained = apply_rule(rule, reported).value_to(candidate)
    truthful = apply_rule(rule, candidate).value_to(candidate)
    if gained > truthful:
        assert harmful_union_contains(reported, point_masses(2), candidate)


def test_union_is_wider_than_one_rules_harmful_set():
    a1, a2 = point_masses(2)
    rule = SeparatingRule(a1, a2, Fraction(1))
    reported = vec(3, 1)
    harmed = vec(Fraction(3, 2), 1)  # prefers a1, and truth gets a2
    assert apply_rule(rule, reported).value_to(harmed) > apply_rule(rule, harmed).value_to(harmed)
    assert harmful_union_contains(reported, (a1, a2), harmed)
    # On this rule's boundary the tie hands (2, 1) its favourite a1, yet a
    # rule with a price between 1 and 2 harms it.
    assert apply_rule(rule, vec(2, 1)) == a1
    assert harmful_union_contains(reported, (a1, a2), vec(2, 1))
    assert not harmful_union_contains(reported, (a1, a2), vec(4, 1))  # prefers a1 by more
    assert not harmful_union_contains(reported, (a1, a2), vec(0, 1))  # prefers a2


def test_union_contains_a_tie_boundary_candidate():
    a1, a2 = point_masses(2)
    rule = SeparatingRule(a1, a2, Fraction(-1))
    reported = vec(0, 2)
    # On the threshold the tie sends (0, 1) to a1, away from the a2 it
    # strictly prefers and the report receives.
    assert apply_rule(rule, vec(0, 1)) == a1
    assert apply_rule(rule, reported) == a2
    assert harmful_union_contains(reported, (a1, a2), vec(0, 1))
    assert harmful_union_contains(reported, (a1, a2), vec(1, Fraction(3, 2)))
    assert not harmful_union_contains(reported, (a1, a2), vec(0, 3))  # prefers a2 by more


def test_union_excludes_candidates_the_report_cannot_help():
    a1, a2 = point_masses(2)
    reported = vec(0, 1)
    # Indifferent; preferring a1, which the report's side never favours;
    # preferring a2 by more than the report does.
    for candidate in (vec(0, 0), vec(1, 0), vec(-3, 5)):
        assert not harmful_union_contains(reported, (a1, a2), candidate)
        assert search_beneficial_misreport(candidate, reported, (a1, a2)) is None
