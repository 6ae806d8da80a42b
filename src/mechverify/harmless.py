"""Harmless sets: misreports that can never strictly benefit the reporter.

For a class F of allocation rules, a report x is harmless for a true type
theta when no rule in F gives x an allocation theta strictly prefers to
theta's own.  The complement of the harmless set is exactly what a designer
without payments must verify, so these sets are computed exactly.

Three rule classes are characterised in closed form:

* a single two-allocation rule, and the family of all such rules over a pair;
* all deterministic (equivalently, universally truthful) rules over a finite
  set of point-mass allocations -- an intersection of one strict half-space
  x_o - x_p > theta_o - theta_p per pair with theta_p > theta_o, each
  carrying the true type as a boundary member.  The region lists all of
  them (up to m(m-1)/2), but membership needs only d = x - theta sorted
  by theta's value levels: O(m log m) comparisons in place of one dot
  product per pair;
* all truthful-in-expectation rules over a simplex of randomized allocations,
  where x is harmless iff its projection onto the difference span is a
  scaling of theta's by a factor at most one.  The projection is closed
  form, O(m): subtract the mean over the full simplex, keep the vector over
  the subsimplex with a null assignment.  Only explicit allocation sets
  solve a projection by elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence, Union

from .geometry import (
    ConvexRegion,
    DimensionMismatch,
    Halfspace,
    Hyperplane,
    Sense,
    Span,
    Vector,
    ones_vector,
    project_onto_span,
    rank,
    region_contains,
    unit_vector,
    whole_space,
    zero_vector,
)
from .mechanisms import (
    Allocation,
    MechanismError,
    Rule,
    apply_rule,
)


class SubspaceHypothesisError(MechanismError):
    """The scaled pairwise differences do not form a linear subspace.

    The truthful-in-expectation characterisation needs the set of scaled
    allocation differences (over pairs the type cares about) to be closed
    under addition; an explicit allocation set with two independent
    difference directions breaks that, and the closed form does not apply.
    """


class SimplexFamily(Enum):
    """Randomized allocation spaces with a closed-form difference span.

    FULL_SIMPLEX: all distributions over m assignments.
    SUBSIMPLEX_WITH_NULL: distributions that may leave mass on a null
    assignment of value zero; by convention the null assignment is
    coordinate 0 of every type vector.
    """

    FULL_SIMPLEX = "full_simplex"
    SUBSIMPLEX_WITH_NULL = "subsimplex_with_null"


AllocationSpace = Union[SimplexFamily, tuple[Allocation, ...]]


@dataclass(frozen=True)
class HarmlessResult:
    """Outcome of a harmless-set computation: one convex region plus extra
    points, and a ``membership`` test that decides it exactly."""

    membership: Callable[[Vector], bool]
    region: ConvexRegion

    def contains(self, x: Vector) -> bool:
        return self.membership(x)


def indifference_hyperplane(a_i: Allocation, a_j: Allocation) -> Hyperplane:
    """Types valuing a_i and a_j equally: normal a_i - a_j, offset 0."""
    normal = a_i.probs - a_j.probs
    if normal.is_zero():
        raise MechanismError("indifference needs two distinct allocations")
    return Hyperplane(normal, Fraction(0))


def critical_hyperplane(theta: Vector, a_i: Allocation, a_j: Allocation) -> Hyperplane:
    """The indifference-parallel hyperplane through theta."""
    normal = a_i.probs - a_j.probs
    if normal.is_zero():
        raise MechanismError("critical hyperplane needs two distinct allocations")
    return Hyperplane(normal, normal.dot(theta))


def pairwise_harmless(theta: Vector, a_i: Allocation, a_j: Allocation) -> HarmlessResult:
    """Harmless set of theta against every two-allocation rule over (a_i, a_j).

    If theta is indifferent, every report is harmless.  Otherwise the set is
    the open half-space on the far side of the critical hyperplane (reports
    that look *less* keen on theta's preferred allocation) plus theta itself:
    the rule whose boundary passes through theta can assign theta the worse
    allocation while boundary misreports still collect the better one, so the
    boundary is harmful everywhere except at theta.
    """
    value_i = a_i.value_to(theta)
    value_j = a_j.value_to(theta)
    if value_i == value_j:
        region = whole_space()
        return HarmlessResult(lambda x: True, region)
    if value_i > value_j:
        preferred, other = a_i, a_j
    else:
        preferred, other = a_j, a_i
    normal = other.probs - preferred.probs
    boundary = Hyperplane(normal, normal.dot(theta))
    region = ConvexRegion(
        (Halfspace(boundary, Sense.STRICT_GREATER),),
        frozenset({theta}),
    )
    return HarmlessResult(lambda x: region_contains(region, x), region)


def deterministic_harmless(theta: Vector, allocations: Sequence[Allocation]) -> HarmlessResult:
    """Harmless set against every deterministic rule over point-mass allocations.

    Equals the intersection of the pairwise harmless sets: one strict
    half-space per pair theta is not indifferent between, in pair order,
    with theta itself as the single extra point.  Membership is the level
    test on d = x - theta: x is harmless iff x == theta or, over theta's
    value levels in increasing order, each level's smallest d exceeds the
    largest d on the level above.
    """
    allocations = tuple(allocations)
    if len(allocations) < 2:
        raise MechanismError("need at least two allocations")
    for a in allocations:
        if not a.is_deterministic():
            raise MechanismError(
                "deterministic harmless sets are over point-mass allocations; "
                f"got {a.probs}"
            )
        if a.dim != theta.dim:
            raise DimensionMismatch(f"allocation dim {a.dim} vs type dim {theta.dim}")
    if len(set(allocations)) != len(allocations):
        raise MechanismError("allocations must be distinct")
    indices = tuple(a.probs.coords.index(1) for a in allocations)
    region = ConvexRegion(tuple(_pairwise_halfspaces(theta, indices)), frozenset({theta}))

    def contains(x: Vector) -> bool:
        if x.dim != theta.dim:
            raise DimensionMismatch(f"type dims {theta.dim} vs {x.dim}")
        if x == theta:
            return True
        levels: dict[Fraction, list[Fraction]] = {}
        for i in indices:
            levels.setdefault(theta[i], []).append(x[i] - theta[i])
        lower_min = None
        for value in sorted(levels):
            shifts = levels[value]
            if lower_min is not None and max(shifts) >= lower_min:
                return False
            lower_min = min(shifts)
        return True

    return HarmlessResult(contains, region)


def _pairwise_halfspaces(theta: Vector, indices: Sequence[int]):
    """x_o - x_p > theta_o - theta_p for each pair of point-mass coordinates
    (in combination order) with theta_p > theta_o."""
    zeros = [Fraction(0)] * theta.dim
    for i, j in combinations(indices, 2):
        if theta[i] == theta[j]:
            continue
        preferred, other = (i, j) if theta[i] > theta[j] else (j, i)
        normal = list(zeros)
        normal[other] = Fraction(1)
        normal[preferred] = Fraction(-1)
        offset = theta[other] - theta[preferred]
        yield Halfspace(Hyperplane(Vector(tuple(normal)), offset), Sense.STRICT_GREATER)


def universally_truthful_harmless(
    theta: Vector, allocations: Sequence[Allocation]
) -> HarmlessResult:
    """Identical to the deterministic set: randomizing over deterministic
    truthful rules adds no harmful reports and removes none."""
    return deterministic_harmless(theta, allocations)


def single_rule_harmless_contains(theta: Vector, rule: Rule, x: Vector) -> bool:
    """Definition check for one rule: does reporting x ever beat the truth?"""
    return apply_rule(rule, x).value_to(theta) <= apply_rule(rule, theta).value_to(theta)


def difference_span(theta: Vector, space: AllocationSpace) -> Span:
    """Span of scaled allocation differences over pairs theta is not
    indifferent between.

    For the simplex families this is closed-form: the full simplex gives the
    sum-zero hyperplane (when theta has two distinct coordinates), and the
    null-padded subsimplex gives all of R^m (when theta is nonzero) because
    mass can leak to the null assignment.  Degenerate types that are
    indifferent between everything give the zero span.  Explicit allocation
    sets are accepted only when the scaled differences really do form a
    subspace, i.e. when all non-indifferent difference directions are
    collinear; otherwise :class:`SubspaceHypothesisError` is raised.
    """
    m = theta.dim
    if space is SimplexFamily.FULL_SIMPLEX:
        if len(set(theta.coords)) < 2:
            return Span(())
        basis = tuple(unit_vector(0, m) - unit_vector(j, m) for j in range(1, m))
        return Span(basis)
    if space is SimplexFamily.SUBSIMPLEX_WITH_NULL:
        if theta.is_zero():
            return Span(())
        basis = tuple(unit_vector(i, m) for i in range(m))
        return Span(basis)
    differences = []
    for a_i, a_j in combinations(space, 2):
        if a_i.value_to(theta) != a_j.value_to(theta):
            differences.append(a_i.probs - a_j.probs)
    if rank(differences) > 1:
        raise SubspaceHypothesisError(
            "scaled differences span more than one direction; "
            "the closed-form characterisation does not apply"
        )
    return Span(tuple(differences))


def _proportionality(px: Vector, ptheta: Vector) -> Fraction | None:
    """The scalar lam with px == lam * ptheta, if one exists (ptheta != 0)."""
    pivot = next((i for i in range(ptheta.dim) if ptheta[i] != 0), None)
    if pivot is None:
        raise ValueError("ptheta must be nonzero")
    lam = px[pivot] / ptheta[pivot]
    if px == ptheta.scale(lam):
        return lam
    return None


def difference_projection(theta: Vector, space: AllocationSpace) -> Callable[[Vector], Vector]:
    """Orthogonal projection onto ``difference_span(theta, space)``.

    Closed form for the simplex families: the full simplex's span is the
    sum-zero hyperplane, so a vector loses its mean; the null-padded
    subsimplex's span is all of R^m, so a vector is kept.  Both spans are
    zero for a type indifferent between everything (constant theta, or
    theta = 0).  Explicit allocation sets project onto their span.
    """
    m = theta.dim
    if space is SimplexFamily.FULL_SIMPLEX:
        if len(set(theta.coords)) < 2:
            return lambda v: zero_vector(m)
        ones = ones_vector(m)
        return lambda v: v - ones.scale(sum(v.coords, Fraction(0)) / m)
    if space is SimplexFamily.SUBSIMPLEX_WITH_NULL:
        if theta.is_zero():
            return lambda v: zero_vector(m)
        return lambda v: v
    span = difference_span(theta, space)
    return lambda v: project_onto_span(span, v)


def tie_harmless_contains(theta: Vector, x: Vector, space: AllocationSpace) -> bool:
    """Membership in the harmless set against truthful-in-expectation rules.

    x is harmless iff its projection onto the difference span is a scaling of
    theta's projection by a factor at most one.  Reports that shift theta
    orthogonally to the span look identical to every rule in the class;
    scaling down never helps because it only dampens the preference signal.
    """
    if theta.dim != x.dim:
        raise DimensionMismatch(f"type dims {theta.dim} vs {x.dim}")
    project = difference_projection(theta, space)
    ptheta = project(theta)
    px = project(x)
    if ptheta.is_zero():
        return px.is_zero()
    lam = _proportionality(px, ptheta)
    return lam is not None and lam <= 1
