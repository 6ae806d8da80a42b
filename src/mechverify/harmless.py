"""Harmless sets: misreports that can never strictly benefit the reporter.

For a class F of allocation rules, a report x is harmless for a true type
theta when no rule in F gives x an allocation theta strictly prefers to
theta's own.  The complement of the harmless set is exactly what a designer
without payments must verify, so these sets are computed exactly.

Three rule classes are characterised in closed form:

* the family of all two-allocation rules over a pair;
* all deterministic (equivalently, universally truthful) rules over a finite
  set of point-mass allocations -- an intersection of one strict half-space
  x_o - x_p > theta_o - theta_p per pair with theta_p > theta_o, each
  carrying the true type as a boundary member.  The region lists all of
  them (up to m(m-1)/2), built from theta's values as integers over one
  common denominator, with each normal e_o - e_p made of shared unit
  constants.  One O(m log m) pass over d = x - theta, grouped by theta's
  value levels, answers both questions: is x harmless, and if not, which
  rule shows it (``point_mass_rule``: the oracle's pair).  Reverse
  membership (``reverse.harmful_union_contains``) is that pass alone, with
  no region built.  ``point_mass_indices`` is the one check that the
  allocations are distinct point masses; ``deterministic_harmless`` runs it
  once, and its ``rule`` certifies every report from those indices;
* all truthful-in-expectation rules over a simplex of randomized allocations,
  where x is harmless iff its projection onto the difference span is a
  scaling of theta's by a factor at most one.  Over the two simplex
  families one O(m) integer pass decides it (``_simplex_projection``,
  shared with ``oracle.construct_tie_witness``): is the residual of x's
  projection against theta's zero, and the factor at most one?  An explicit
  allocation set must span one line, and then one pair of it
  (``decisive_pair``, found in O(n m)) answers for the whole set: with
  d = p - o, x is harmless iff d.x <= d.theta, one O(m) halfspace test per
  query.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import inf, lcm
from operator import mul

from .geometry import (
    MINUS_ONE,
    ONE,
    ZERO,
    ConvexRegion,
    DimensionMismatch,
    Frozen,
    Halfspace,
    Hyperplane,
    Sense,
    Vector,
    _halfspace,
    _vector,
    project_onto_span,  # unused here; perfbench/tracing.py wraps it under this module
    region_contains,
    whole_space,
)
from .mechanisms import (
    Allocation,
    MechanismError,
    SeparatingRule,
    TieSide,
    apply_rule,  # unused here; perfbench/tracing.py wraps it under this module
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


AllocationSpace = SimplexFamily | tuple[Allocation, ...]


class HarmlessResult(Frozen):
    """Outcome of a harmless-set computation: one convex region plus extra
    points, and a ``membership`` test that decides it exactly.  A class
    with a closed-form certificate also gives ``rule``: the rule under
    which reporting a non-member beats the truth, or None for a member."""

    __slots__ = ("membership", "region", "rule")

    def __init__(
        self,
        membership: Callable[[Vector], bool],
        region: ConvexRegion,
        rule: Callable[[Vector], SeparatingRule | None] | None = None,
    ) -> None:
        self._init(membership, region, rule)

    def contains(self, x: Vector) -> bool:
        return self.membership(x)


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
    with theta itself as the single extra point.  Membership is
    ``point_mass_rule``'s pass on the indices validated here: x is harmless
    iff x == theta or no pair of allocations is split in x's favour.  The
    allocations are validated once, here, and ``rule`` certifies from the
    same indices.
    """
    indices = point_mass_indices(allocations, theta.dim)
    region = ConvexRegion(tuple(_pairwise_halfspaces(theta, indices)), frozenset({theta}))

    def contains(x: Vector) -> bool:
        if x.dim != theta.dim:
            raise DimensionMismatch(f"type dims {theta.dim} vs {x.dim}")
        return x == theta or _beneficial_pair(theta, x, indices) is None

    def rule(x: Vector) -> SeparatingRule | None:
        return _point_mass_rule(theta, x, allocations, indices)

    return HarmlessResult(contains, region, rule)


def point_mass_indices(allocations: Sequence[Allocation], dim: int) -> tuple[int, ...]:
    """Each allocation's coordinate, once each is checked to be a point mass
    of dimension ``dim``, there are at least two and they are distinct."""
    for a in allocations:
        if a.dim != dim:
            raise DimensionMismatch(f"allocation dim {a.dim} vs type dim {dim}")
        if 1 not in a.probs.coords:  # nonnegative and summing to 1: one 1 is a point mass
            raise MechanismError(
                f"deterministic harmless sets are over point-mass allocations; got {a.probs}"
            )
    indices = [a.probs.coords.index(1) for a in allocations]
    if len(indices) < 2:
        raise MechanismError("need at least two allocations")
    if len(set(indices)) != len(indices):
        raise MechanismError("allocations must be distinct")
    return tuple(indices)


def _beneficial_pair(theta: Vector, x: Vector, indices: Sequence[int]) -> tuple | None:
    """``point_mass_rule``'s pair as positions (p, o) in ``indices``, with
    whether d_p == d_o, or None.  One pass: sorted by theta's value level,
    the running minimum of d where a level begins is the smallest d below
    it, and p is the first position whose d reaches that floor.  Values are
    integers over one common denominator: they order as the rationals do,
    without a Fraction operation per comparison."""
    scale = lcm(*[c.denominator for i in indices for c in (theta[i], x[i])])
    levels = [theta[i].numerator * (scale // theta[i].denominator) for i in indices]
    shifts = [x[i].numerator * (scale // x[i].denominator) - t for i, t in zip(indices, levels)]
    below, running = {}, inf
    for level, d in sorted(zip(levels, shifts)):
        below.setdefault(level, running)
        running = min(running, d)
    for p, (level, d) in enumerate(zip(levels, shifts)):
        if d >= below[level]:
            o = next(o for o, (lo, do) in enumerate(zip(levels, shifts)) if lo < level and do <= d)
            return p, o, d == shifts[o]
    return None


def point_mass_rule(
    theta: Vector, x: Vector, allocations: Sequence[Allocation]
) -> SeparatingRule | None:
    """The closed-form certificate over point masses, or None when x is harmless.

    Over point masses e_p and e_o the critical hyperplane through theta is
    x_p - x_o = theta_p - theta_o, so with d = x - theta a report beats the
    truth exactly when some pair has theta_p > theta_o and d_p >= d_o.  The
    first such (preferred, other) pair in the given order, found by one
    O(m log m) pass over d grouped by theta's value levels, is split at
    theta_p - theta_o, boundary to the preferred side, with theta pinned to
    the worse allocation and, when d_p == d_o, x to the better: the rule
    ``oracle.search_beneficial_misreport`` returns.
    """
    return _point_mass_rule(theta, x, allocations, point_mass_indices(allocations, theta.dim))


def _point_mass_rule(
    theta: Vector, x: Vector, allocations: Sequence[Allocation], indices: Sequence[int]
) -> SeparatingRule | None:
    """``point_mass_rule`` on indices ``point_mass_indices`` has returned."""
    if x.dim != theta.dim:
        raise DimensionMismatch(f"type dims {theta.dim} vs {x.dim}")
    pair = None if x == theta else _beneficial_pair(theta, x, indices)
    if pair is None:
        return None
    p, o, on_boundary = pair
    overrides = {theta: allocations[o]}
    if on_boundary:
        overrides[x] = allocations[p]
    price = theta[indices[p]] - theta[indices[o]]
    return SeparatingRule(allocations[p], allocations[o], price, TieSide.TO_I, overrides)


def check_null_coordinate(*types: Vector) -> None:
    """Coordinate 0 is the null assignment, and every type values it at 0."""
    if any(t[0] != 0 for t in types):
        raise MechanismError("the null coordinate (index 0) must be worth 0")


def _pairwise_halfspaces(theta: Vector, indices: Sequence[int]):
    """x_o - x_p > theta_o - theta_p for each pair of point-mass coordinates
    (in combination order) with theta_p > theta_o.  theta's values are
    compared as integers over one common denominator, each offset is built
    once per level gap, and each normal e_o - e_p holds the shared unit
    constants.  o != p, as ``point_mass_indices`` has checked, so no normal
    is zero."""
    scale = lcm(*[theta[i].denominator for i in indices])
    levels = [theta[i].numerator * (scale // theta[i].denominator) for i in indices]
    zeros = [ZERO] * theta.dim
    offsets: dict[int, Fraction] = {}
    for (i, level_i), (j, level_j) in combinations(zip(indices, levels), 2):
        if level_i == level_j:
            continue
        preferred, other = (i, j) if level_i > level_j else (j, i)
        gap = abs(level_i - level_j)
        offset = offsets.get(gap)
        if offset is None:
            offset = offsets[gap] = Fraction(-gap, scale)
        normal = zeros.copy()
        normal[other] = ONE
        normal[preferred] = MINUS_ONE
        yield _halfspace(_vector(tuple(normal)), offset, Sense.STRICT_GREATER)


def universally_truthful_harmless(
    theta: Vector, allocations: Sequence[Allocation]
) -> HarmlessResult:
    """Identical to the deterministic set: randomizing over deterministic
    truthful rules adds no harmful reports and removes none."""
    return deterministic_harmless(theta, allocations)


def decisive_pair(
    theta: Vector, allocations: Sequence[Allocation]
) -> tuple[Allocation, Allocation] | None:
    """The pair (p, o) of an explicit allocation set that answers for all
    of it: p the first allocation above theta's lowest value level, o the
    first below p's.  None when theta values every allocation alike (the
    span is zero and every report is harmless).

    The scaled differences form a subspace only when they span one line,
    that is when every a_k - a_0 is a multiple of a_p - a_o; otherwise
    :class:`SubspaceHypothesisError` is raised.  Two allocations on one
    level are collinear with any third on another, so this is the test over
    the non-indifferent pairs.  On the line every pair theta ranks splits
    the same reports, so the pair has the set's span and
    ``oracle.search_beneficial_misreport`` returns the same rule over it as
    over the set.  O(n m).
    """
    levels = [a.value_to(theta) for a in allocations]
    lowest = min(levels, default=0)
    p = next((k for k, level in enumerate(levels) if level > lowest), None)
    if p is None:
        return None
    o = next(k for k, level in enumerate(levels) if level < levels[p])
    line = allocations[p].probs - allocations[o].probs
    line_sq = line.dot(line)  # nonzero: theta values p and o apart
    # a - a_0 is on the line iff Cauchy-Schwarz holds with equality.
    differences = (a.probs - allocations[0].probs for a in allocations[1:])
    if any(u.dot(line) ** 2 != u.dot(u) * line_sq for u in differences):
        raise SubspaceHypothesisError(
            "scaled differences span more than one direction; "
            "the closed-form characterisation does not apply"
        )
    return allocations[p], allocations[o]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _simplex_projection(
    theta: Vector, x: Vector, space: SimplexFamily
) -> tuple[list[int], int, int, list[int]]:
    """(A, N, BA, R): theta's and x's projections onto a simplex family's
    difference span as integer vectors A and B, one positive multiple of
    each, with N = A.A, BA = A.B and the residual R = N B - BA A.

    theta and x are scaled to integer numerators T and X over their lcm.
    The full simplex's span is the sum-zero hyperplane (when theta has two
    distinct coordinates), so A = m T - sum(T) and B = m X - sum(X); the
    null-padded subsimplex's span is all of R^m (when theta is nonzero)
    because mass can leak to the null assignment, so A = T and B = X.  A
    type indifferent between everything has A = 0, the zero span, and then
    N = BA = 0 and R = 0.  Otherwise R is zero exactly when B is a scaling
    of A, by the factor BA / N.
    """
    m = theta.dim
    scale = lcm(*[c.denominator for v in (theta, x) for c in v.coords])
    a = [c.numerator * (scale // c.denominator) for c in theta.coords]
    b = [c.numerator * (scale // c.denominator) for c in x.coords]
    if space is SimplexFamily.FULL_SIMPLEX:
        total_a, total_b = sum(a), sum(b)
        a = [m * c - total_a for c in a]
        b = [m * c - total_b for c in b]
    norm_sq = _dot(a, a)
    cross = _dot(a, b)
    return a, norm_sq, cross, [norm_sq * bi - cross * ai for ai, bi in zip(a, b)]


def tie_harmless_contains(theta: Vector, x: Vector, space: AllocationSpace) -> bool:
    """Membership in the harmless set against truthful-in-expectation rules.

    x is harmless iff its projection onto the difference span is a scaling of
    theta's projection by a factor at most one.  Reports that shift theta
    orthogonally to the span look identical to every rule in the class;
    scaling down never helps because it only dampens the preference signal.
    Over a simplex family that is ``_simplex_projection``'s test: the
    residual R is zero and the factor BA / N is at most one (a zero span
    makes every report harmless).  An explicit set's span is the line of its
    decisive pair's difference d, oriented so that d.theta > 0; the factor
    is d.x / d.theta, so x is harmless iff d.x <= d.theta.  With no pair
    every report is harmless.
    """
    if theta.dim != x.dim:
        raise DimensionMismatch(f"type dims {theta.dim} vs {x.dim}")
    if not isinstance(space, SimplexFamily):
        pair = decisive_pair(theta, space)
        if pair is None:
            return True
        d = pair[0].probs - pair[1].probs
        return d.dot(x) <= d.dot(theta)
    _, norm_sq, cross, residual = _simplex_projection(theta, x, space)
    return not any(residual) and cross <= norm_sq
