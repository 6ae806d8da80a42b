"""Harmful sets: given an observed report, which true types it could benefit.

This is the designer's ex-post view.  A candidate true type is harmful for a
report under a rule when the report's allocation beats the candidate's own,
valued by the candidate.  Against a whole family the union (some rule
benefits) is what verification must rule out; by symmetry of the benefit
relation it is decided through the forward harmless set of the candidate.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .geometry import (
    ConvexRegion,
    Halfspace,
    Hyperplane,
    Sense,
    Vector,
    empty_region,
)
from .harmless import deterministic_harmless
from .mechanisms import Allocation, SeparatingRule, TieSide, apply_rule


def harmful_union_contains(
    reported: Vector, allocations: Sequence[Allocation], candidate: Vector
) -> bool:
    """True iff some deterministic rule over the allocations makes the report
    beneficial for the candidate -- i.e. the report sits outside the
    candidate's forward harmless set."""
    return not deterministic_harmless(candidate, allocations).contains(reported)


def pairwise_harmful_cases(
    reported: Vector, rule: SeparatingRule
) -> tuple[int, ConvexRegion]:
    """Case split of the harmful set of one two-allocation rule.

    Writing got = rule(reported) and other for the remaining allocation:

    * case 1: reported weakly prefers a_i and got a_i;
    * case 2: reported weakly prefers a_i but got a_j -- empty;
    * case 3: reported weakly prefers a_j and got a_j;
    * case 4: reported weakly prefers a_j but got a_i -- empty.

    In cases 1 and 3 the harmful candidates strictly prefer ``got`` while the
    rule hands them ``other``: the intersection of the strict preference
    half-space with the rule's other-side half-space (boundary included
    exactly when the tie assignment sends it to ``other``).  Point overrides
    are not folded into the region; compare ``apply_rule`` values for
    point-exact membership under rules with overrides.

    Ties in the preference comparison are classified by the received
    allocation, which keeps the empty cases genuinely empty.
    """
    got = apply_rule(rule, reported)
    pair_normal = rule.normal  # a_i minus a_j
    preference = pair_normal.dot(reported)
    if got == rule.a_i:
        case = 1 if preference >= 0 else 4
        other = rule.a_j
    else:
        case = 3 if preference <= 0 else 2
        other = rule.a_i

    dim = reported.dim
    if case in (2, 4):
        return case, empty_region(dim)

    # Candidates strictly preferring `got` over `other` ...
    toward_got = got.probs - other.probs
    prefer_got = Halfspace(Hyperplane(toward_got, Fraction(0)), Sense.STRICT_GREATER)
    # ... whom the rule nevertheless hands `other`.
    if got == rule.a_i:
        # rule gives a_j below the boundary: normal . x < price
        away_normal = -pair_normal
        away_offset = -rule.relative_price
        tie_goes_other = rule.tie_assignment is TieSide.TO_J
    else:
        # rule gives a_i above the boundary: normal . x > price
        away_normal = pair_normal
        away_offset = rule.relative_price
        tie_goes_other = rule.tie_assignment is TieSide.TO_I
    sense = Sense.GREATER_EQUAL if tie_goes_other else Sense.STRICT_GREATER
    gets_other = Halfspace(Hyperplane(away_normal, away_offset), sense)
    return case, ConvexRegion((prefer_got, gets_other), frozenset())
