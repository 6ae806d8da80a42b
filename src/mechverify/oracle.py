"""Brute-force witnesses: rules under which a given misreport actually wins.

The closed-form harmless sets are only trusted because everything here can
contradict them.  Each search returns a concrete rule plus the exact benefit
comparison, so every negative membership ships with a checkable certificate,
and every certificate is validated by direct evaluation before it is
returned.

Witness selection is deterministic: the lowest allocation pair index wins,
and the scaling parameter in the expectation construction is halved from 1
until the strict inequalities hold, so identical inputs yield identical
witnesses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cache

from .geometry import Frozen, Vector
from .harmless import (
    SimplexFamily,
    difference_projection,
    tie_harmless_contains,  # unused here; perfbench/tracing.py wraps it under this module
)
from .mechanisms import (
    Allocation,
    MechanismError,
    SeparatingRule,
    TieSide,
    allocate_scored,
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
            overrides = {theta: other}
            if gain == boundary_level:
                overrides[x] = preferred
            rule = SeparatingRule(
                a_i=preferred,
                a_j=other,
                relative_price=boundary_level,
                tie_assignment=TieSide.TO_I,
                overrides=overrides,
            )
            gained, truthful = rule_benefit(rule, theta, x)
            if not gained > truthful:
                raise AssertionError(
                    f"witness failed validation: {gained} <= {truthful}"
                )
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


def _positive_negative_parts(direction: Vector) -> tuple[list[Fraction], list[Fraction]]:
    pos = [c if c > 0 else Fraction(0) for c in direction.coords]
    neg = [-c if c < 0 else Fraction(0) for c in direction.coords]
    return pos, neg


def _full_simplex_pair(direction: Vector) -> tuple[Allocation, Allocation]:
    """Two distributions on the full simplex whose difference scales ``direction``.

    ``direction`` must be nonzero with coordinates summing to zero; both
    distributions stay near the barycenter so every coordinate is in [0, 1].
    """
    m = direction.dim
    peak = max(abs(c) for c in direction.coords)
    beta = Fraction(1, m) / peak
    center = Vector((Fraction(1, m),) * m)
    half = direction.scale(beta / 2)
    low = Allocation(center - half)
    high = Allocation(center + half)
    return low, high


def _subsimplex_pair(direction: Vector) -> tuple[Allocation, Allocation]:
    """Two distributions that may park mass on the null coordinate (index 0),
    with non-null difference proportional to ``direction``'s non-null part."""
    m = direction.dim
    nonnull = direction.coords[1:]
    peak = max(abs(c) for c in nonnull)
    beta = Fraction(1, 2 * (m - 1)) / peak
    pos, neg = _positive_negative_parts(Vector(nonnull))
    low_tail = [beta * c for c in neg]
    high_tail = [beta * c for c in pos]
    low = Allocation(Vector((1 - sum(low_tail),) + tuple(low_tail)))
    high = Allocation(Vector((1 - sum(high_tail),) + tuple(high_tail)))
    return low, high


def construct_tie_witness(
    theta: Vector, x: Vector, space: SimplexFamily
) -> TieWitness | None:
    """Witness rule for reports outside the truthful-in-expectation harmless set.

    Follows the separation argument behind the closed form: project theta and
    x onto the difference span, peel x's projection into a component along
    theta's projection plus a residual, and tilt the residual toward theta's
    projection by epsilon = 2^-k (k minimal) until the report scores strictly
    higher than theta while theta still strictly prefers the high allocation.
    Returns None when x is harmless: the projections, taken once, decide it
    as ``tie_harmless_contains`` does, since px is a scaling of ptheta
    exactly when the residual is zero, and then by the factor ``along``.
    """
    if space not in (SimplexFamily.FULL_SIMPLEX, SimplexFamily.SUBSIMPLEX_WITH_NULL):
        raise MechanismError("witness construction needs a simplex family")
    if theta.dim != x.dim:
        raise MechanismError(f"type dims {theta.dim} vs {x.dim}")
    project = difference_projection(theta, space)
    ptheta = project(theta)
    if ptheta.is_zero():
        return None  # the zero span: every report projects to zero, harmless
    px = project(x)
    norm_sq = ptheta.dot(ptheta)
    along = px.dot(ptheta) / norm_sq
    residual = px - ptheta.scale(along)
    if residual.is_zero() and along <= 1:
        return None

    if space is SimplexFamily.SUBSIMPLEX_WITH_NULL:
        if theta[0] != 0 or x[0] != 0:
            raise MechanismError(
                "subsimplex types put value 0 on the null coordinate (index 0)"
            )
        if theta.dim < 2:
            raise MechanismError("need at least one non-null assignment")

    if residual.is_zero():
        # Pure upscaling: px = along * ptheta with along > 1.
        direction = ptheta
    else:
        # direction = residual + eps * ptheta scores x above theta exactly when
        # |residual|^2 > eps * (1 - along) * |ptheta|^2, so halving eps from 1
        # terminates; the first eps = 2^-k that works is kept.
        epsilon = Fraction(1)
        while True:
            candidate = residual + ptheta.scale(epsilon)
            if candidate.dot(px) > candidate.dot(ptheta) and candidate.dot(ptheta) > 0:
                direction = candidate
                break
            if along >= 1:
                raise AssertionError("separation must succeed at epsilon = 1")
            epsilon /= 2

    if space is SimplexFamily.SUBSIMPLEX_WITH_NULL:
        low, high = _subsimplex_pair(direction)
    else:
        low, high = _full_simplex_pair(direction)

    # The rule's normal is taken once; both reports are allocated on it.
    normal = high.probs - low.probs
    rule = SeparatingRule(
        a_i=high,
        a_j=low,
        relative_price=normal.dot(theta),
        tie_assignment=TieSide.TO_J,
    )
    received = allocate_scored(rule, x, normal.dot(x))
    gained = received.value_to(theta)
    truthful = allocate_scored(rule, theta, rule.relative_price).value_to(theta)
    if not (gained > truthful and received == high):
        raise AssertionError("tie witness failed validation")
    return TieWitness(
        low=low,
        high=high,
        rule=rule,
        gained_value=gained,
        truthful_value=truthful,
    )


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
                    overrides={theta: a_other},
                )
                if allocate_separating(critical_rule, x).value_to(theta) > allocate_separating(
                    critical_rule, theta
                ).value_to(theta):
                    return False
    return True
