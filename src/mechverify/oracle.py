"""Brute-force witnesses: rules under which a given misreport actually wins.

The closed-form harmless sets are only trusted because everything here can
contradict them.  Each search returns a concrete rule plus the exact benefit
comparison, so every negative membership ships with a checkable certificate,
and every certificate is validated by direct evaluation before it is
returned.

Witness selection is deterministic: the lowest allocation pair index wins,
and the expectation construction tilts by epsilon = 2^-k with the least
k >= 0 for which the strict inequalities hold, so identical inputs yield
identical witnesses.  That k is found in closed form, over integers, with
the value a halving loop from epsilon = 1 would reach.  The expectation
witness decides membership first with the same integer pass as
``harmless.tie_harmless_contains`` and builds its tilt from that pass's
values, so the two never disagree on which reports need a witness.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cache

from .geometry import Frozen, Vector, _vector
from .harmless import (
    SimplexFamily,
    _dot,
    _simplex_projection,
    tie_harmless_contains,  # unused here; perfbench/tracing.py wraps it under this module
)
from .mechanisms import (
    Allocation,
    MechanismError,
    SeparatingRule,
    TieSide,
    allocate_separating,
)


def rule_benefit(rule: SeparatingRule, theta: Vector, x: Vector) -> tuple[Fraction, Fraction]:
    """(value of reporting x, value of reporting theta), both to theta."""
    gained = allocate_separating(rule, x).value_to(theta)
    truthful = allocate_separating(rule, theta).value_to(theta)
    return gained, truthful


def search_beneficial_misreport(
    theta: Vector, x: Vector, allocations: Sequence[Allocation]
) -> SeparatingRule | None:
    """Find a two-allocation rule under which reporting x strictly beats truth.

    Scans ordered pairs (preferred, other) with theta strictly preferring the
    first.  Reporting x wins under the rule that splits the pair at theta's
    own indifference level whenever x sits weakly on the preferred side of
    that boundary: the rule hands theta the worse allocation (boundary
    override) and x the better one.  Returns the first such rule in pair
    order, or None.  Each allocation is valued to theta and to x at most
    once per call, so a pair's boundary level and x's score on the normal
    preferred - other are differences of those values.  Every returned rule
    is re-validated by direct evaluation.
    """
    allocations = tuple(allocations)
    if len(allocations) < 2:
        raise MechanismError("need at least two allocations")
    if theta.dim != x.dim:
        raise MechanismError(f"type dims {theta.dim} vs {x.dim}")
    if x == theta:
        return None
    level = cache(lambda k: allocations[k].value_to(theta))
    score = cache(lambda k: allocations[k].value_to(x))
    for p, preferred in enumerate(allocations):
        for o, other in enumerate(allocations):
            # An allocation, or an equal one, is never strictly preferred.
            if level(p) <= level(o):
                continue
            boundary_level = level(p) - level(o)
            gain = score(p) - score(o)  # x's score on the normal preferred - other
            if gain < boundary_level:
                continue
            overrides = ((theta, other),)
            if gain == boundary_level:
                overrides += ((x, preferred),)
            rule = SeparatingRule(preferred, other, boundary_level, TieSide.TO_I, overrides)
            gained, truthful = rule_benefit(rule, theta, x)
            if not gained > truthful:
                raise AssertionError(f"witness failed validation: {gained} <= {truthful}")
            return rule
    return None


class TieWitness(Frozen):
    """A randomized-pair rule certifying that a report is not harmless.

    ``rule`` allocates ``high`` when the separating direction scores the
    input strictly above theta's own score, so the misreport collects
    ``high`` while theta keeps ``low``, and theta strictly prefers ``high``.
    """

    __slots__ = ("low", "high", "rule", "gained_value", "truthful_value")

    def __init__(
        self,
        low: Allocation,
        high: Allocation,
        rule: SeparatingRule,
        gained_value: Fraction,
        truthful_value: Fraction,
    ) -> None:
        self._init(low, high, rule, gained_value, truthful_value)


def construct_tie_witness(
    theta: Vector, x: Vector, space: SimplexFamily
) -> TieWitness | None:
    """Witness rule for reports outside the truthful-in-expectation harmless set.

    Follows the separation argument behind the closed form: project theta and
    x onto the difference span, peel x's projection into a component along
    theta's projection plus a residual, and tilt the residual toward theta's
    projection by epsilon = 2^-k, k >= 0 minimal, so that the report scores
    strictly higher than theta while theta still strictly prefers the high
    allocation.  Returns None when x is harmless, as
    ``tie_harmless_contains`` decides: the residual is zero, so px is a
    scaling of ptheta, and the factor is at most one.

    Everything up to the two allocations runs on integers, from the pass
    ``tie_harmless_contains`` runs (``harmless._simplex_projection``): A and
    B, one positive multiple of ptheta and px, N = A.A, BA = A.B and the
    residual R = N B - BA A; x is harmless iff R = 0 and BA <= N.  R is
    orthogonal to A, so the tilted direction scores x above theta exactly
    when 2^k |R|^2 > N^2 (N - BA); the least such k is found in closed form
    and is the one the halving loop from epsilon = 1 stops at.  The
    direction D = 2^k R + N A (A when R = 0) is a positive multiple of
    residual + epsilon ptheta, and the pair is (2M -+ D_i) / (2 m M) with
    M = max |D_i| over the full simplex, the same form over D[1:] with the
    rest of the mass on the null coordinate over the subsimplex.  Both
    allocations pass ``Allocation``'s range and sum check, and the rule
    is evaluated directly before the witness is returned.
    """
    if space not in (SimplexFamily.FULL_SIMPLEX, SimplexFamily.SUBSIMPLEX_WITH_NULL):
        raise MechanismError("witness construction needs a simplex family")
    if theta.dim != x.dim:
        raise MechanismError(f"type dims {theta.dim} vs {x.dim}")
    a, norm_sq, cross, residual = _simplex_projection(theta, x, space)
    if not norm_sq:
        return None  # the zero span: every report projects to zero, harmless
    tilted = any(residual)
    if not tilted and cross <= norm_sq:
        return None

    # A one-coordinate subsimplex type is either refused here or the zero
    # type, answered above, so the tail D[1:] below is never empty.
    if space is SimplexFamily.SUBSIMPLEX_WITH_NULL and (theta[0] != 0 or x[0] != 0):
        raise MechanismError("subsimplex types put value 0 on the null coordinate (index 0)")

    if tilted:
        gap = norm_sq * norm_sq * (norm_sq - cross)
        k = (gap // _dot(residual, residual)).bit_length() if gap > 0 else 0
        direction = [(r << k) + norm_sq * ai for r, ai in zip(residual, a)]
    else:
        direction = a  # pure upscaling: B = (cross / N) A with cross > N

    m = theta.dim
    if space is SimplexFamily.FULL_SIMPLEX:
        peak = max(map(abs, direction))
        denominator = 2 * m * peak
        low = [2 * peak - d for d in direction]
        high = [2 * peak + d for d in direction]
    else:
        tail = direction[1:]
        denominator = 2 * (m - 1) * max(map(abs, tail))
        low_tail = [-d if d < 0 else 0 for d in tail]
        high_tail = [d if d > 0 else 0 for d in tail]
        low = [denominator - sum(low_tail), *low_tail]
        high = [denominator - sum(high_tail), *high_tail]
    low, high = (
        Allocation(_vector(tuple([Fraction(n, denominator) for n in row]))) for row in (low, high)
    )

    # theta values each allocation once; the gap is the price.  Scored on the
    # rule's integer terms, x must receive high and theta low.
    gained, truthful = high.value_to(theta), low.value_to(theta)
    rule = SeparatingRule(high, low, gained - truthful, TieSide.TO_J)
    received = allocate_separating(rule, x)
    kept = allocate_separating(rule, theta)
    if not (gained > truthful and received is high and kept is low):
        raise AssertionError("tie witness failed validation")
    return TieWitness(low, high, rule, gained, truthful)


def grid_harmless(
    theta: Vector,
    x: Vector,
    family,
    resolution: Fraction = Fraction(1, 64),
) -> bool:
    """Exhaustive benefit search over a gridded slice of a rule family.

    For a finite allocation set: every unordered pair, with boundary offsets
    on a grid of the given step between the scores of theta and x, plus each
    pair's exact critical rule.  For a price family: price vectors on a grid
    of the given resolution (as a fraction of the bounding box), with ties
    resolved adversarially.  A False answer always comes with a real witness,
    so False is sound; True only says the grid found nothing.

    Refining the resolution only adds grid points (steps are halved from the
    same anchor), so a False can never flip back to True.
    """
    from .multiagent import PriceFamily, find_beneficial_price_on_grid

    resolution = Fraction(resolution)
    if resolution <= 0:
        raise MechanismError("resolution must be positive")
    if isinstance(family, PriceFamily):
        return find_beneficial_price_on_grid(theta, family, x, resolution) is None

    allocations = tuple(family)
    if x == theta:
        return True
    for preferred_idx, preferred in enumerate(allocations):
        for other in allocations[preferred_idx + 1 :]:
            for a_pref, a_other in ((preferred, other), (other, preferred)):
                if a_pref.value_to(theta) <= a_other.value_to(theta):
                    continue
                normal = a_pref.probs - a_other.probs
                critical = normal.dot(theta)
                score_x = normal.dot(x)
                # Grid of offsets between the two scores, anchored at zero.
                low, high = min(critical, score_x), max(critical, score_x)
                start = math.floor(low / resolution)
                stop = math.ceil(high / resolution)
                for c in (resolution * k for k in range(start, stop + 1)):
                    rule = SeparatingRule(a_pref, a_other, c, TieSide.TO_J)
                    if allocate_separating(rule, x).value_to(theta) > allocate_separating(
                        rule, theta
                    ).value_to(theta):
                        return False
                critical_rule = SeparatingRule(
                    a_pref,
                    a_other,
                    critical,
                    TieSide.TO_I,
                    overrides=((theta, a_other),),
                )
                if allocate_separating(critical_rule, x).value_to(theta) > allocate_separating(
                    critical_rule, theta
                ).value_to(theta):
                    return False
    return True
