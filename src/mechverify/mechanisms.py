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
involves money.  The grid check ``is_truthful_with_verification`` takes
menus of point masses: a type x that picks e_k values it at x_k, read by
index, in integers, not by valuing e_k.

Every :class:`Allocation` passes one check: its probabilities, as integers
over their common denominator (``geometry._common_numerators``), lie in
[0, 1] and sum to 1; it keeps those integers as its row, and is valued on it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .geometry import (
    DimensionMismatch,
    Frozen,
    RationalLike,
    Vector,
    _check_dim,
    _common_numerators,
    _row_dot,
    frac,
    unit_vector,
)


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
    """A probability distribution over assignments (point mass = deterministic).

    ``row``, a slot outside the fields, keeps the check's integers: (scale,
    terms), the nonzero probabilities as terms (k, n) with n / scale = p_k."""

    __slots__ = ("probs", "row")

    def __init__(self, probs: Vector) -> None:
        # Each probability is n / scale: in [0, 1] iff 0 <= n <= scale.
        scale, (numerators,) = _common_numerators(probs.coords)
        for n in numerators:
            if n < 0 or n > scale:
                raise MechanismError(
                    f"allocation probability {Fraction(n, scale)} outside [0, 1]"
                )
        total = sum(numerators)
        if total != scale:
            raise MechanismError(
                f"allocation probabilities sum to {Fraction(total, scale)}, not 1"
            )
        self._init(probs, (scale, tuple([(k, n) for k, n in enumerate(numerators) if n])))

    def _fields(self) -> tuple:
        return (self.probs,)

    @property
    def dim(self) -> int:
        return self.probs.dim

    def value_to(self, theta: Vector) -> Fraction:
        """Expected value to a type, off the integer row (a point mass: one term)."""
        _check_dim(self.probs, theta)
        return _row_dot(*self.row, theta.coords)


def point_mass(index: int, dim: int) -> Allocation:
    return Allocation(unit_vector(index, dim))


@lru_cache(maxsize=64)
def point_masses(dim: int) -> tuple[Allocation, ...]:
    """One deterministic allocation per assignment.

    Cached per dimension: the allocations are immutable, so every caller
    at one dimension shares the same m objects.
    """
    return tuple(point_mass(i, dim) for i in range(dim))


class TieSide(Enum):
    TO_I = "to_i"
    TO_J = "to_j"


class SeparatingRule(Frozen):
    """Two-allocation rule: a_i above the hyperplane, a_j below.

    The hyperplane is (a_i - a_j) . x = relative_price.  ``overrides`` pins
    distinct boundary points to either allocation as (point, target) pairs,
    hashing none (a mapping gives its items); others get ``tie_assignment``.
    a_i - a_j is kept as (scale, terms), the two allocations' integer rows
    merged, in a slot outside the fields, and x is scored on those terms.
    """

    __slots__ = ("a_i", "a_j", "relative_price", "tie_assignment", "overrides", "difference")

    def __init__(
        self,
        a_i: Allocation,
        a_j: Allocation,
        relative_price: RationalLike,
        tie_assignment: TieSide = TieSide.TO_I,
        overrides: Iterable[tuple[Vector, Allocation]] | Mapping[Vector, Allocation] = (),
    ) -> None:
        relative_price = frac(relative_price)
        if a_i.dim != a_j.dim:
            raise DimensionMismatch(f"allocation dimensions {a_i.dim} vs {a_j.dim}")
        if a_i.row == a_j.row:  # equal rows are equal allocations
            raise MechanismError("separating rule needs two distinct allocations")
        overrides = tuple(overrides.items() if isinstance(overrides, Mapping) else overrides)
        (scale_i, terms_i), (scale_j, terms_j) = a_i.row, a_j.row
        scale = lcm(scale_i, scale_j)
        merged = {k: n * (scale // scale_i) for k, n in terms_i}
        for k, n in terms_j:
            merged[k] = merged.get(k, 0) - n * (scale // scale_j)
        terms = tuple([(k, n) for k, n in merged.items() if n])
        self._init(a_i, a_j, relative_price, tie_assignment, overrides, (scale, terms))
        for k, (point, target) in enumerate(overrides):
            _check_dim(a_i.probs, point)
            if _row_dot(scale, terms, point.coords) != relative_price:
                raise MechanismError(f"override point {point} is off the boundary")
            if target not in (a_i, a_j):
                raise MechanismError("override target must be one of the rule's pair")
            if any(point == seen for seen, _ in overrides[:k]):
                raise MechanismError(f"override point {point} is pinned twice")

    def _fields(self) -> tuple:
        return self.a_i, self.a_j, self.relative_price, self.tie_assignment, self.overrides


def allocate_separating(rule: SeparatingRule, x: Vector) -> Allocation:
    _check_dim(rule.a_i.probs, x)
    s = _row_dot(*rule.difference, x.coords)  # x's score, (a_i - a_j) . x
    if s > rule.relative_price:
        return rule.a_i
    if s < rule.relative_price:
        return rule.a_j
    for point, pinned in rule.overrides:
        if point == x:
            return pinned
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
        if len({a.row for a, _ in entries}) < len(entries):  # equal rows, equal allocations
            raise MechanismError("taxation entries must have distinct allocations")
        self._init(entries)


def best_entry(rule: TaxationRule, x: Vector) -> tuple[Allocation, Fraction]:
    """The entry x self-selects: max allocation value minus price, ties to
    the earliest entry."""
    utilities = [a.value_to(x) - p for a, p in rule.entries]
    return rule.entries[utilities.index(max(utilities))]


def apply_rule(rule: SeparatingRule | TaxationRule, x: Vector) -> Allocation:
    if isinstance(rule, SeparatingRule):
        return allocate_separating(rule, x)
    return best_entry(rule, x)[0]


def point_mass_index(allocation: Allocation) -> int | None:
    """The k with allocation = e_k, or None for a lottery: a point mass is
    the one allocation whose integer row has a single term."""
    _, terms = allocation.row
    return terms[0][0] if len(terms) == 1 else None


def point_mass_choice(rule: TaxationRule) -> Callable[[Vector, int, Sequence[int]], int]:
    """(x, scale, row) -> the k with apply_rule(rule, x) = e_k, where row is
    x's coordinates as integers over scale, for a menu of point masses;
    MechanismError for any other rule, or a menu with a lottery entry.

    The menu is read once, here, its prices as integers q over one
    denominator P: each call is then the first argmax of row_k P - q scale,
    a positive multiple of x_k - p_k (ties to the earliest entry, as
    ``best_entry`` breaks them), with no Fraction built.
    """
    if not isinstance(rule, TaxationRule):
        raise MechanismError(f"the grid check reads a menu, not a {type(rule).__name__}")
    indices = [point_mass_index(a) for a, _ in rule.entries]
    if None in indices:
        raise MechanismError("the grid check reads menus of point masses, not lotteries")
    probs = rule.entries[0][0].probs
    price_scale, (prices,) = _common_numerators([p for _, p in rule.entries])
    entries = list(zip(indices, prices))

    def choose(x: Vector, scale: int, row: Sequence[int]) -> int:
        _check_dim(probs, x)
        utilities = [row[k] * price_scale - q * scale for k, q in entries]
        return indices[utilities.index(max(utilities))]

    return choose


def is_truthful_with_verification(
    rule: TaxationRule,
    verification: Callable[[Vector, Vector, int], bool],
    grid: Sequence[Vector],
    table: tuple[int, Sequence[Sequence[int]]] | None = None,
) -> tuple[bool, tuple[Vector, Vector] | None]:
    """Check truthfulness on a finite grid of types, minus verified misreports.

    ``verification(true_type, report, k)`` says whether the designer detects
    and rejects that misreport, where e_k is the point mass the report
    receives.  Returns (True, None), or (False, (true_type,
    beneficial_report)) for the first violating pair in grid order: a pair
    where the report's allocation is strictly better for the true type and
    verification does not catch it.  ``verification`` is asked about
    beneficial pairs only, in grid order.

    The rule must be a menu of point masses (MechanismError otherwise), so
    the value of e_k to theta is theta_k, read by index from the grid's
    ``_common_numerators`` table (``table``, or built here).
    Each type's k is chosen once, by ``point_mass_choice(rule)``.
    A type's better indices, those k with row_k above its own, are found
    once per distinct received index: each pair is one set lookup.
    """
    scale, rows = table or _common_numerators(*[x.coords for x in grid])
    choose = point_mass_choice(rule)
    indices = [choose(x, scale, row) for x, row in zip(grid, rows)]
    received = set(indices)
    for theta, row, own in zip(grid, rows, indices):
        truthful_value = row[own]
        better = {k for k in received if row[k] > truthful_value}
        if not better:
            continue
        for reported, k in zip(grid, indices):
            if k in better and not verification(theta, reported, k):
                return False, (theta, reported)
    return True, None
