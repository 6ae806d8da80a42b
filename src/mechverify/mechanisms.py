"""Single-agent allocation rules and their incentive arithmetic.

Two rule shapes cover everything implementable with payments here:

* :class:`SeparatingRule` -- exactly two allocations split by the hyperplane
  whose normal is their difference, at a relative price.  Boundary types can
  be pinned individually via ``overrides``; everything else on the boundary
  follows ``tie_assignment``.
* :class:`TaxationRule` -- a menu of (allocation, price) entries; each type
  picks an entry maximising value minus price, ties to the earliest entry.

Utilities are raw allocation values: with verification substituting for
payments, the benefit comparison between a misreport and the truth never
involves money.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .geometry import DimensionMismatch, Frozen, RationalLike, Vector, frac, unit_vector


class MechanismError(ValueError):
    """Malformed rule, assignment set, or query."""


class AssignmentSet(Frozen):
    """Labels for the m possible assignments; at most one may be null."""

    __slots__ = ("labels", "null_index")

    def __init__(self, labels: Iterable[str], null_index: int | None = None) -> None:
        labels = tuple(labels)
        if len(labels) < 2:
            raise MechanismError("need at least two assignments")
        if len(set(labels)) != len(labels):
            raise MechanismError("assignment labels must be distinct")
        if null_index is not None and not 0 <= null_index < len(labels):
            raise MechanismError(f"null index {null_index} out of range")
        self._init(labels, null_index)

    @property
    def size(self) -> int:
        return len(self.labels)


class Allocation(Frozen):
    """A probability distribution over assignments (point mass = deterministic)."""

    __slots__ = ("probs",)

    def __init__(self, probs: Vector) -> None:
        total = Fraction(0)
        for p in probs:
            if p < 0 or p > 1:
                raise MechanismError(f"allocation probability {p} outside [0, 1]")
            total += p
        if total != 1:
            raise MechanismError(f"allocation probabilities sum to {total}, not 1")
        self._init(probs)

    @property
    def dim(self) -> int:
        return self.probs.dim

    def value_to(self, theta: Vector) -> Fraction:
        """Expected value of this allocation to a type."""
        return self.probs.dot(theta)


def point_mass(index: int, dim: int) -> Allocation:
    return Allocation(unit_vector(index, dim))


@lru_cache(maxsize=64)
def point_masses(dim: int) -> tuple[Allocation, ...]:
    """One deterministic allocation per assignment.

    Cached per dimension: the allocations are immutable, and validating m
    unit vectors costs O(m^2) on every build.
    """
    return tuple(point_mass(i, dim) for i in range(dim))


class TieSide(Enum):
    TO_I = "to_i"
    TO_J = "to_j"


class SeparatingRule(Frozen):
    """Two-allocation rule: a_i above the hyperplane, a_j below.

    The hyperplane is (a_i - a_j) . x = relative_price.  ``overrides`` may pin
    individual boundary points to either allocation; other boundary points
    get ``tie_assignment``.
    """

    __slots__ = ("a_i", "a_j", "relative_price", "tie_assignment", "overrides")
    # Unhashable: ``overrides`` is a dict.
    __hash__ = None

    def __init__(
        self,
        a_i: Allocation,
        a_j: Allocation,
        relative_price: RationalLike,
        tie_assignment: TieSide = TieSide.TO_I,
        overrides: Mapping[Vector, Allocation] | None = None,
    ) -> None:
        relative_price = frac(relative_price)
        if a_i.dim != a_j.dim:
            raise DimensionMismatch(f"allocation dimensions {a_i.dim} vs {a_j.dim}")
        if a_i == a_j:
            raise MechanismError("separating rule needs two distinct allocations")
        overrides = {} if overrides is None else dict(overrides)
        self._init(a_i, a_j, relative_price, tie_assignment, overrides)
        n = self.normal
        for point, target in overrides.items():
            if n.dot(point) != relative_price:
                raise MechanismError(f"override point {point} is off the boundary")
            if target not in (a_i, a_j):
                raise MechanismError("override target must be one of the rule's pair")

    @property
    def normal(self) -> Vector:
        return self.a_i.probs - self.a_j.probs


def allocate_separating(rule: SeparatingRule, x: Vector) -> Allocation:
    s = rule.normal.dot(x)
    if s > rule.relative_price:
        return rule.a_i
    if s < rule.relative_price:
        return rule.a_j
    if x in rule.overrides:
        return rule.overrides[x]
    return rule.a_i if rule.tie_assignment is TieSide.TO_I else rule.a_j


class TaxationRule(Frozen):
    """Menu of (allocation, price) entries; types self-select the best entry.

    When several entries tie on utility, the earliest one wins.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[Allocation, RationalLike]]) -> None:
        entries = tuple((a, frac(p)) for a, p in entries)
        if not entries:
            raise MechanismError("taxation rule needs at least one entry")
        dims = {a.dim for a, _ in entries}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed allocation dimensions: {sorted(dims)}")
        allocs = [a for a, _ in entries]
        for i, a in enumerate(allocs):
            if a in allocs[:i]:
                raise MechanismError("taxation entries must have distinct allocations")
        self._init(entries)


def best_entry(rule: TaxationRule, x: Vector) -> tuple[Allocation, Fraction]:
    """The entry x self-selects: max allocation value minus price, ties to
    the earliest entry."""
    utilities = [a.value_to(x) - p for a, p in rule.entries]
    return rule.entries[utilities.index(max(utilities))]


Rule = SeparatingRule | TaxationRule | Callable[[Vector], Allocation]


def apply_rule(rule: Rule, x: Vector) -> Allocation:
    if isinstance(rule, SeparatingRule):
        return allocate_separating(rule, x)
    if isinstance(rule, TaxationRule):
        return best_entry(rule, x)[0]
    return rule(x)


def is_truthful_with_verification(
    rule: Rule,
    verification: Callable[[Vector, Vector], bool],
    grid: Sequence[Vector],
) -> tuple[bool, tuple[Vector, Vector] | None]:
    """Check truthfulness on a finite grid of types, minus verified misreports.

    ``verification(true_type, report)`` says whether the designer detects and
    rejects that misreport.  Returns (True, None), or (False, (true_type,
    beneficial_report)) for the first violating pair in grid order: a pair
    where the report's allocation is strictly better for the true type and
    verification does not catch it.  The rule is applied once per grid point.
    """
    allocations = [apply_rule(rule, point) for point in grid]
    for theta, own in zip(grid, allocations):
        truthful_value = own.value_to(theta)
        for reported, received in zip(grid, allocations):
            if reported == theta:
                continue
            if received.value_to(theta) > truthful_value and not verification(theta, reported):
                return False, (theta, reported)
    return True, None
