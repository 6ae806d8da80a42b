"""Unit-demand pricing: a multi-agent mechanism seen by one agent.

With two items and unit demand, the standard efficient mechanism charges
each agent the externality she imposes, which from her side is simply a
taxation menu: null at price zero, each item at its externality price.
Reserve prices turn the single menu into a family parameterised by a price
box, and deciding harmlessness against the family is a quantifier
elimination problem over the box.

The elimination is exact.  For a fixed pair of menu entries (what the report
would collect, what the truth would collect), the prices making that pair
live form a closed polyhedron cut out by entry-indifference lines and box
edges; if the polyhedron is nonempty it contains a vertex of the line
arrangement, so testing every pairwise line intersection inside the
(far-clipped) box decides existence.  Ties are resolved adversarially,
matching the convention that a report is harmless only if no tie-breaking
ever rewards it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import DimensionMismatch, Vector, frac
from .harmless import deterministic_harmless
from .mechanisms import MechanismError, TaxationRule, point_mass, point_masses

ITEMS = (1, 2)  # type coordinates; coordinate 0 is the null assignment


@dataclass(frozen=True)
class UnitDemandProfile:
    """Values of the other agents, one (item1, item2) pair per agent."""

    others: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        cleaned = tuple((frac(a), frac(b)) for a, b in self.others)
        object.__setattr__(self, "others", cleaned)
        for a, b in cleaned:
            if a < 0 or b < 0:
                raise MechanismError("unit-demand values must be nonnegative")


def best_matching_welfare(
    agents: Sequence[tuple[Fraction, Fraction]], items: Sequence[int]
) -> Fraction:
    """Max total value assigning the given items (subset of {1, 2}) to distinct
    agents, each taking at most one.  Exact enumeration; sizes here are tiny."""
    items = tuple(items)
    best = Fraction(0)

    def extend(position: int, used: frozenset[int], total: Fraction) -> None:
        nonlocal best
        if total > best:
            best = total
        if position == len(items):
            return
        item = items[position]
        extend(position + 1, used, total)  # leave this item unassigned
        for idx, values in enumerate(agents):
            if idx not in used:
                extend(position + 1, used | {idx}, total + values[item - 1])

    extend(0, frozenset(), Fraction(0))
    return best


def vcg_single_agent_rule(profile: UnitDemandProfile) -> TaxationRule:
    """The efficient mechanism's menu for one agent: externality prices.

    Each item's price is the others' best welfare using both items minus
    their best welfare with that item withheld.
    """
    full = best_matching_welfare(profile.others, ITEMS)
    prices = [
        full - best_matching_welfare(profile.others, tuple(i for i in ITEMS if i != item))
        for item in ITEMS
    ]
    entries = (
        (point_mass(0, 3), Fraction(0)),
        (point_mass(1, 3), prices[0]),
        (point_mass(2, 3), prices[1]),
    )
    return TaxationRule(entries)


@dataclass(frozen=True)
class PriceFamily:
    """All taxation menus with item prices inside a box; null is free.

    ``bounds`` holds one (low, high) pair per item; ``high`` may be None for
    an unbounded axis.  Lower bounds act as reserve prices.
    """

    bounds: tuple[tuple[Fraction, Fraction | None], tuple[Fraction, Fraction | None]]

    def __post_init__(self) -> None:
        if len(self.bounds) != 2:
            raise MechanismError("price family covers exactly two items")
        cleaned = []
        for low, high in self.bounds:
            low = frac(low)
            high = None if high is None else frac(high)
            if low < 0:
                raise MechanismError(f"reserve price {low} is negative")
            if high is not None and high < low:
                raise MechanismError(f"empty price interval [{low}, {high}]")
            cleaned.append((low, high))
        object.__setattr__(self, "bounds", tuple(cleaned))


UNRESERVED = PriceFamily(((Fraction(0), None), (Fraction(0), None)))


@dataclass(frozen=True)
class PriceWitness:
    """A price vector plus tie choices under which the report wins."""

    prices: tuple[Fraction, Fraction]
    report_entry: int
    truthful_entry: int
    gained_value: Fraction
    truthful_value: Fraction


def _check_types(theta: Vector, x: Vector) -> None:
    if theta.dim != 3 or x.dim != 3:
        raise DimensionMismatch(
            "unit-demand two-item types have three coordinates (null, item1, item2)"
        )


def _utilities(y: Vector, prices: tuple[Fraction, Fraction]) -> tuple[Fraction, ...]:
    return (y[0], y[1] - prices[0], y[2] - prices[1])


def _argmax(values: Sequence[Fraction]) -> tuple[int, ...]:
    top = max(values)
    return tuple(i for i, v in enumerate(values) if v == top)


def _benefit_at(
    theta: Vector, x: Vector, prices: tuple[Fraction, Fraction]
) -> PriceWitness | None:
    """Adversarial-tie benefit test at one price vector."""
    theta_picks = _argmax(_utilities(theta, prices))
    x_picks = _argmax(_utilities(x, prices))
    best_for_report = max(x_picks, key=lambda k: theta[k])
    worst_truthful = min(theta_picks, key=lambda k: theta[k])
    gained = theta[best_for_report]
    truthful = theta[worst_truthful]
    if gained > truthful:
        return PriceWitness(prices, best_for_report, worst_truthful, gained, truthful)
    return None


def _line_constants(
    theta: Vector, x: Vector, family: PriceFamily
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Axis and diagonal constants of the argmax-pattern line arrangement,
    with unbounded box sides clipped strictly beyond every possible vertex."""
    (low1, high1), (low2, high2) = family.bounds
    vertical = {theta[1] - theta[0], x[1] - x[0], low1}
    horizontal = {theta[2] - theta[0], x[2] - x[0], low2}
    diagonal = {theta[1] - theta[2], x[1] - x[2]}
    if high1 is not None:
        vertical.add(high1)
    if high2 is not None:
        horizontal.add(high2)
    far1 = max(vertical | {w + d for w in horizontal for d in diagonal}) + 1
    far2 = max(horizontal | {v - d for v in vertical for d in diagonal}) + 1
    if high1 is None:
        vertical.add(max(far1, low1 + 1))
    if high2 is None:
        horizontal.add(max(far2, low2 + 1))
    return sorted(vertical), sorted(horizontal), sorted(diagonal)


def _candidate_prices(
    theta: Vector, x: Vector, family: PriceFamily
) -> list[tuple[Fraction, Fraction]]:
    """Every pairwise intersection of arrangement lines inside the box."""
    vertical, horizontal, diagonal = _line_constants(theta, x, family)
    (low1, high1), (low2, high2) = family.bounds
    top1, top2 = vertical[-1], horizontal[-1]

    points: set[tuple[Fraction, Fraction]] = set()
    for v in vertical:
        for w in horizontal:
            points.add((v, w))
        for d in diagonal:
            points.add((v, v - d))
    for w in horizontal:
        for d in diagonal:
            points.add((w + d, w))

    def inside(p: tuple[Fraction, Fraction]) -> bool:
        p1, p2 = p
        if p1 < low1 or p2 < low2:
            return False
        if p1 > (high1 if high1 is not None else top1):
            return False
        if p2 > (high2 if high2 is not None else top2):
            return False
        return True

    return sorted(p for p in points if inside(p))


def find_beneficial_price(
    theta: Vector, family: PriceFamily, x: Vector
) -> PriceWitness | None:
    """Exact existence check over the whole price box; None means harmless.

    Every feasible (report-entry, truth-entry) pattern is achieved at some
    arrangement vertex, so scanning the vertices is complete.  Vertices are
    scanned in sorted order, making the returned witness deterministic.
    """
    _check_types(theta, x)
    if x == theta:
        return None
    for prices in _candidate_prices(theta, x, family):
        witness = _benefit_at(theta, x, prices)
        if witness is not None:
            return witness
    return None


def price_family_harmless_contains(theta: Vector, family: PriceFamily, x: Vector) -> bool:
    """True iff no prices in the box (and no tie-breaking) reward reporting x."""
    return find_beneficial_price(theta, family, x) is None


def find_beneficial_price_on_grid(
    theta: Vector,
    family: PriceFamily,
    x: Vector,
    resolution: Fraction = Fraction(1, 64),
) -> PriceWitness | None:
    """Grid fallback for cross-checking: prices stepped by resolution times
    the (clipped) box span per axis.  Sound when it finds a witness; a miss
    proves nothing.  Halving the resolution keeps every old grid point."""
    _check_types(theta, x)
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise MechanismError("resolution must be positive")
    if x == theta:
        return None
    vertical, horizontal, _ = _line_constants(theta, x, family)
    (low1, high1), (low2, high2) = family.bounds
    top1 = high1 if high1 is not None else vertical[-1]
    top2 = high2 if high2 is not None else horizontal[-1]
    axes: list[list[Fraction]] = []
    for low, top in ((low1, top1), (low2, top2)):
        step = (top - low) * resolution
        if step == 0:
            axes.append([low])
            continue
        count = int((top - low) / step)
        axes.append([low + step * k for k in range(count + 1)])
    for p1 in axes[0]:
        for p2 in axes[1]:
            witness = _benefit_at(theta, x, (p1, p2))
            if witness is not None:
                return witness
    return None


def vcg_harmless_contains(theta: Vector, x: Vector) -> bool:
    """Harmlessness against every deterministic assignment of the two items.

    The efficient mechanism's menu ranges over all nonnegative price pairs as
    the others' values vary, so the harmless set coincides with the
    deterministic one over the three point-mass allocations.
    """
    _check_types(theta, x)
    if theta[0] != 0 or x[0] != 0:
        raise MechanismError("the null coordinate (index 0) must be worth 0")
    return deterministic_harmless(theta, point_masses(3)).contains(x)
