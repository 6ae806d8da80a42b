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

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from .geometry import DimensionMismatch, Vector, frac, unit_vector


class MechanismError(ValueError):
    """Malformed rule, assignment set, or query."""


@dataclass(frozen=True)
class AssignmentSet:
    """Labels for the m possible assignments; at most one may be null."""

    labels: tuple[str, ...]
    null_index: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise MechanismError("need at least two assignments")
        if len(set(self.labels)) != len(self.labels):
            raise MechanismError("assignment labels must be distinct")
        if self.null_index is not None and not 0 <= self.null_index < len(self.labels):
            raise MechanismError(f"null index {self.null_index} out of range")

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Allocation:
    """A probability distribution over assignments (point mass = deterministic)."""

    probs: Vector

    def __post_init__(self) -> None:
        total = Fraction(0)
        for p in self.probs:
            if p < 0 or p > 1:
                raise MechanismError(f"allocation probability {p} outside [0, 1]")
            total += p
        if total != 1:
            raise MechanismError(f"allocation probabilities sum to {total}, not 1")

    @property
    def dim(self) -> int:
        return self.probs.dim

    def is_deterministic(self) -> bool:
        return all(p in (0, 1) for p in self.probs)

    def value_to(self, theta: Vector) -> Fraction:
        """Expected value of this allocation to a type."""
        return self.probs.dot(theta)


def point_mass(index: int, dim: int) -> Allocation:
    return Allocation(unit_vector(index, dim))


def point_masses(dim: int) -> tuple[Allocation, ...]:
    """One deterministic allocation per assignment."""
    return tuple(point_mass(i, dim) for i in range(dim))


class TieSide(Enum):
    TO_I = "to_i"
    TO_J = "to_j"


@dataclass(frozen=True)
class SeparatingRule:
    """Two-allocation rule: a_i above the hyperplane, a_j below.

    The hyperplane is (a_i - a_j) . x = relative_price.  ``overrides`` may pin
    individual boundary points to either allocation; other boundary points
    get ``tie_assignment``.
    """

    a_i: Allocation
    a_j: Allocation
    relative_price: Fraction
    tie_assignment: TieSide = TieSide.TO_I
    overrides: Mapping[Vector, Allocation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "relative_price", frac(self.relative_price))
        if self.a_i.dim != self.a_j.dim:
            raise DimensionMismatch(
                f"allocation dimensions {self.a_i.dim} vs {self.a_j.dim}"
            )
        if self.a_i == self.a_j:
            raise MechanismError("separating rule needs two distinct allocations")
        object.__setattr__(self, "overrides", dict(self.overrides))
        n = self.normal
        for point, target in self.overrides.items():
            if n.dot(point) != self.relative_price:
                raise MechanismError(f"override point {point} is off the boundary")
            if target not in (self.a_i, self.a_j):
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


@dataclass(frozen=True)
class TaxationRule:
    """Menu of (allocation, price) entries; types self-select the best entry.

    When several entries tie on utility, the earliest one wins.
    """

    entries: tuple[tuple[Allocation, Fraction], ...]

    def __post_init__(self) -> None:
        entries = tuple((a, frac(p)) for a, p in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise MechanismError("taxation rule needs at least one entry")
        dims = {a.dim for a, _ in entries}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed allocation dimensions: {sorted(dims)}")
        allocs = [a for a, _ in entries]
        for i, a in enumerate(allocs):
            if a in allocs[:i]:
                raise MechanismError("taxation entries must have distinct allocations")

    @property
    def dim(self) -> int:
        return self.entries[0][0].dim


def best_entry(rule: TaxationRule, x: Vector) -> tuple[Allocation, Fraction]:
    """The entry x self-selects: max allocation value minus price, ties to
    the earliest entry."""
    utilities = [a.value_to(x) - p for a, p in rule.entries]
    return rule.entries[utilities.index(max(utilities))]


def utility(rule: TaxationRule, true_type: Vector, reported: Vector) -> Fraction:
    """Value minus price of the entry the *report* selects, to the true type."""
    allocation, price = best_entry(rule, reported)
    return allocation.value_to(true_type) - price


Rule = Union[SeparatingRule, TaxationRule, Callable[[Vector], Allocation]]


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
