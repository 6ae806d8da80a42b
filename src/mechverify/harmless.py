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
  carrying the true type as a boundary member.  ``PointMassRegion`` is
  theta prepared once: its levels over their common denominator, ordered.
  One O(m) pass over d = x - theta then answers both questions for each x:
  is it harmless (``contains``), and if not, which rule shows it (``rule``:
  the oracle's pair), with no pair built.  Its up to m(m-1)/2 ranked pairs
  and their ``Halfspace`` values are built only when read.
  ``point_mass_indices`` checks the allocations once;
* all truthful-in-expectation rules over a simplex of randomized allocations,
  where x is harmless iff its projection onto the difference span is a
  scaling of theta's by a factor at most one.  Over the two simplex
  families one O(m) integer pass decides it (``_simplex_projection``,
  shared with ``oracle.construct_tie_witness``): is the residual of x's
  projection against theta's zero, and the factor at most one?  An explicit
  allocation set is read once by ``check_one_line``, for the library and
  the CLI alike: it must span one line if a true type values it apart,
  and then one pair of it (``decisive_pair``, found in O(n + m) per theta
  on the line) answers for the whole set: with d = p - o, x is harmless
  iff d.x <= d.theta, one O(m) test per report.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import accumulate, combinations
from math import inf
from operator import itemgetter, mul

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
    _check_dim,
    _common_numerators,
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
    point_mass_index,
    point_masses,
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
    points, and a ``membership`` test that decides it exactly."""

    __slots__ = ("membership", "region")

    def __init__(
        self, membership: Callable[[Vector], bool], region: ConvexRegion | PointMassRegion
    ) -> None:
        self._init(membership, region)

    def contains(self, x: Vector) -> bool:
        return self.membership(x)


class PointMassRegion(Frozen):
    """theta's deterministic harmless region over the point masses e_k, k in
    ``indices``: x_other - x_preferred > -gap / scale for each ranked pair
    (other, preferred, gap), gap an integer level gap of theta, plus theta
    as the one extra point.  The constructor orders theta's levels once;
    ``rule(x)`` and ``contains(x)`` then run one O(m) pass over d = x - theta
    with no sort and no pair built.  ``pairs``, ``halfspaces`` and
    ``extra_points`` build on read.  The value is (theta, indices); the
    derived slots stay out of equality, hashing and repr."""

    __slots__ = ("theta", "indices", "scale", "levels", "_pick", "_order", "_starts")

    def __init__(self, theta: Vector, indices: Sequence[int]) -> None:
        # levels are theta's at indices over their lcm scale, and
        # _order[:_starts[p]] are the positions theta values below p.
        pick = itemgetter(*indices)
        scale, (levels,) = _common_numerators(pick(theta.coords))
        order = sorted(range(len(levels)), key=levels.__getitem__)
        ranked = sorted(levels)
        starts = [bisect_left(ranked, level) for level in levels]
        self._init(theta, tuple(indices), scale, levels, pick, order, starts)

    def _fields(self) -> tuple:
        return self.theta, self.indices

    @property
    def pairs(self) -> tuple:
        """The ranked pairs (other, preferred, gap) in pair order."""
        return tuple(
            (j, i, a - b) if a > b else (i, j, b - a)
            for (i, a), (j, b) in combinations(zip(self.indices, self.levels), 2) if a != b
        )

    @property
    def extra_points(self) -> frozenset:
        return frozenset({self.theta})

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        # Each offset once per gap; each normal of the shared unit constants.
        pairs = self.pairs
        offsets = {gap: Fraction(-gap, self.scale) for gap in {gap for *_, gap in pairs}}
        zeros, halves = [ZERO] * self.theta.dim, []
        for other, preferred, gap in pairs:
            normal = zeros.copy()
            normal[other], normal[preferred] = ONE, MINUS_ONE
            halves.append(_halfspace(_vector(tuple(normal)), offsets[gap], Sense.STRICT_GREATER))
        return tuple(halves)

    def _split(self, x: Vector) -> tuple | None:
        """The oracle's pair as positions (p, o) in ``indices`` with whether
        d_p == d_o, or None when x is harmless.  d is taken over integers;
        the running minimum of d in level order, read where p's level
        begins, is the smallest d below p, and p is the first reaching it."""
        if x.dim != self.theta.dim:
            raise DimensionMismatch(f"type dims {self.theta.dim} vs {x.dim}")
        if x == self.theta:
            return None
        levels = self.levels
        x_scale, (reports,) = _common_numerators(self._pick(x.coords))
        shifts = [r * self.scale - t * x_scale for r, t in zip(reports, levels)]
        floors = [inf, *accumulate([shifts[p] for p in self._order], min)]
        for p, (d, start) in enumerate(zip(shifts, self._starts)):
            if d >= floors[start]:
                o = next(o for o, lo in enumerate(levels) if lo < levels[p] and shifts[o] <= d)
                return p, o, d == shifts[o]
        return None

    def contains(self, x: Vector) -> bool:
        return self._split(x) is None

    def rule(self, x: Vector) -> SeparatingRule | None:
        """The oracle's rule for x, or None when x is harmless: the first pair
        with theta_p > theta_o and d_p >= d_o, split at theta_p - theta_o to p."""
        split = self._split(x)
        if split is None:
            return None
        p, o, on_boundary = split
        masses = point_masses(self.theta.dim)
        preferred, other = masses[self.indices[p]], masses[self.indices[o]]
        overrides = ((self.theta, other),)
        if on_boundary:
            overrides += ((x, preferred),)
        price = Fraction(self.levels[p] - self.levels[o], self.scale)
        return SeparatingRule(preferred, other, price, TieSide.TO_I, overrides)


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

    Equals the intersection of the pairwise harmless sets, held as theta's
    ``PointMassRegion``, whose O(m) pass is the membership: x is harmless
    iff x == theta or no pair of allocations is split in x's favour.  The
    allocations are checked here, by one ``point_mass_indices`` call.
    """
    region = PointMassRegion(theta, point_mass_indices(allocations, theta.dim))
    return HarmlessResult(region.contains, region)


def point_mass_indices(allocations: Sequence[Allocation], dim: int) -> tuple[int, ...]:
    """Each allocation's coordinate, once each is checked to be a point mass
    of dimension ``dim`` (read off its integer row), there are at least two
    and they are distinct; O(m)."""
    indices = []
    for a in allocations:
        if a.dim != dim:
            raise DimensionMismatch(f"allocation dim {a.dim} vs type dim {dim}")
        k = point_mass_index(a)
        if k is None:
            raise MechanismError(
                f"deterministic harmless sets are over point-mass allocations; got {a.probs}"
            )
        indices.append(k)
    if len(indices) < 2:
        raise MechanismError("need at least two allocations")
    if len(set(indices)) != len(indices):
        raise MechanismError("allocations must be distinct")
    return tuple(indices)


def check_null_coordinate(*types: Vector) -> None:
    """Coordinate 0 is the null assignment, and every type values it at 0."""
    if any(t[0] != 0 for t in types):
        raise MechanismError("the null coordinate (index 0) must be worth 0")


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

    Once ``check_one_line`` has passed, every pair theta ranks splits the
    same reports, so the pair has the set's span and
    ``oracle.search_beneficial_misreport`` returns the same rule over it as
    over the set.  O(n m): each allocation is valued once.
    """
    return _ranked_pair([a.value_to(theta) for a in allocations], allocations)


def _ranked_pair(levels: Sequence, allocations: Sequence[Allocation]) -> tuple | None:
    """``decisive_pair`` on the allocations' levels for theta."""
    lowest = min(levels, default=0)
    p = next((k for k, level in enumerate(levels) if level > lowest), None)
    if p is None:
        return None
    o = next(k for k, level in enumerate(levels) if level < levels[p])
    return allocations[p], allocations[o]


def check_one_line(
    allocations: Sequence[Allocation], true_types: Sequence[Vector]
) -> Callable[[Vector], tuple | None]:
    """``decisive_pair`` on an explicit set, for any of ``true_types``.
    Raise :class:`SubspaceHypothesisError` if a true type values the set
    apart and the differences a_k - a_0 do not all lie on one line, the only
    case in which the scaled differences a type values apart form a subspace
    (two allocations on one level are collinear with any third).  Each is
    compared with the first nonzero one u by the exact Cauchy-Schwarz
    equality (a.u)^2 = (a.a)(u.u), O(n m); only an off-line set is valued.

    On the line a_k = a_0 + t_k u, so theta's levels order as t_k
    sign(u.theta); t_k |u|^2 = (a_k - a_0).u is taken once, as integers, and
    a theta costs one dot product and an O(n) scan."""
    differences = [a.probs - allocations[0].probs for a in allocations[1:]]
    line = next((u for u in differences if not u.is_zero()), None)
    if line is None:
        return lambda theta: None
    line_sq = line.dot(line)
    along = [u.dot(line) for u in differences]
    if any(s * s != u.dot(u) * line_sq for s, u in zip(along, differences)):
        if any(decisive_pair(t, allocations) for t in true_types):
            raise SubspaceHypothesisError(
                "scaled differences span more than one direction; "
                "the closed-form characterisation does not apply"
            )
        return lambda theta: None
    _, (steps,) = _common_numerators([ZERO, *along])

    def pair(theta: Vector) -> tuple[Allocation, Allocation] | None:
        c = line.dot(theta)
        sign = (c > 0) - (c < 0)
        return _ranked_pair([sign * t for t in steps], allocations)

    return pair


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _simplex_projection(
    theta: Vector, x: Vector, space: SimplexFamily
) -> tuple[list[int], int, int, list[int]]:
    """(A, N, BA, R): theta's and x's projections onto a simplex family's
    difference span as integer vectors A and B, one positive multiple of
    each, with N = A.A, BA = A.B and the residual R = N B - BA A.

    theta and x are scaled to integer numerators T and X over their lcm
    (``_common_numerators``).
    The full simplex's span is the sum-zero hyperplane (when theta has two
    distinct coordinates), so A = m T - sum(T) and B = m X - sum(X); the
    null-padded subsimplex's span is all of R^m (when theta is nonzero)
    because mass can leak to the null assignment, so A = T and B = X.  A
    type indifferent between everything has A = 0, the zero span, and then
    N = BA = 0 and R = 0.  Otherwise R is zero exactly when B is a scaling
    of A, by the factor BA / N.
    """
    m = theta.dim
    _, (a, b) = _common_numerators(theta.coords, x.coords)
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
    is d.x / d.theta, so x is harmless iff d.x <= d.theta.  The pair comes
    from ``check_one_line``, as in the CLI; with no pair every report is
    harmless.
    """
    if theta.dim != x.dim:
        raise DimensionMismatch(f"type dims {theta.dim} vs {x.dim}")
    if not isinstance(space, SimplexFamily):
        for a in space:
            _check_dim(a.probs, theta)
        pair = check_one_line(space, (theta,))(theta)
        if pair is None:
            return True
        d = pair[0].probs - pair[1].probs
        return d.dot(x) <= d.dot(theta)
    _, norm_sq, cross, residual = _simplex_projection(theta, x, space)
    return not any(residual) and cross <= norm_sq
