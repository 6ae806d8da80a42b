"""Exact rational linear algebra: vectors, half-space regions, span projections.

Everything is computed over arbitrary-precision rationals
(:class:`fractions.Fraction`); no floats, no tolerances.  Regions are finite
intersections of open or closed half-spaces together with an explicit set of
always-included points.  The extra points exist because the boundary
behaviour of allocation rules is point-sensitive: a region can lawfully be
"an open half-space plus one point of its boundary", and membership must be
decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]


class DimensionMismatch(ValueError):
    """Operands live in different coordinate dimensions."""


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, and Fractions to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class Vector:
    """Immutable point/direction with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(frac(c) for c in self.coords)
        if not coords:
            raise ValueError("a vector needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    # The arithmetic below skips terms with a zero operand.  Coordinates are
    # always Fractions, so the results are the same exact values the dense
    # sums give, without a Fraction operation per zero coordinate.

    def dot(self, other: "Vector") -> Fraction:
        _check_dim(self, other)
        return sum((a * b for a, b in zip(self.coords, other.coords) if a and b), Fraction(0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        _check_dim(self, other)
        return Vector(tuple(a + b if b else a for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        _check_dim(self, other)
        return Vector(tuple(a - b if b else a for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(tuple(-a for a in self.coords))

    def scale(self, factor: RationalLike) -> "Vector":
        f = frac(factor)
        return Vector(tuple(f * a for a in self.coords))

    def __rmul__(self, factor: RationalLike) -> "Vector":
        return self.scale(factor)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]


def vec(*coords: RationalLike) -> Vector:
    """Build a Vector from loose rational-like values."""
    return Vector(tuple(frac(c) for c in coords))


def zero_vector(dim: int) -> Vector:
    return Vector((Fraction(0),) * dim)


def unit_vector(index: int, dim: int) -> Vector:
    if not 0 <= index < dim:
        raise ValueError(f"unit index {index} out of range for dimension {dim}")
    return Vector(tuple(Fraction(1 if i == index else 0) for i in range(dim)))


def ones_vector(dim: int) -> Vector:
    return Vector((Fraction(1),) * dim)


def _check_dim(u: Vector, v: Vector) -> None:
    if u.dim != v.dim:
        raise DimensionMismatch(f"dimension {u.dim} vs {v.dim}")


class Sense(Enum):
    """Orientation of a half-space relative to its hyperplane."""

    STRICT_GREATER = "strict"
    GREATER_EQUAL = "closed"


@dataclass(frozen=True)
class Hyperplane:
    """Points x with normal . x == offset."""

    normal: Vector
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", frac(self.offset))
        if self.normal.is_zero():
            raise ValueError("hyperplane normal must be nonzero")

    def side(self, x: Vector) -> int:
        """-1, 0, or +1 according to normal . x vs offset."""
        s = self.normal.dot(x)
        if s > self.offset:
            return 1
        if s < self.offset:
            return -1
        return 0


@dataclass(frozen=True)
class Halfspace:
    """One side of a hyperplane; strict or closed per ``sense``."""

    hyperplane: Hyperplane
    sense: Sense = Sense.STRICT_GREATER


def halfspace_contains(h: Halfspace, x: Vector) -> bool:
    s = h.hyperplane.normal.dot(x)
    if h.sense is Sense.STRICT_GREATER:
        return s > h.hyperplane.offset
    return s >= h.hyperplane.offset


@dataclass(frozen=True)
class ConvexRegion:
    """Intersection of half-spaces, plus points that are members regardless.

    An empty ``halfspaces`` tuple with no extra points is the whole space.
    ``extra_points`` lets an open region carry isolated boundary members.
    """

    halfspaces: tuple[Halfspace, ...] = ()
    extra_points: frozenset[Vector] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        object.__setattr__(self, "extra_points", frozenset(self.extra_points))
        dims = {h.hyperplane.normal.dim for h in self.halfspaces}
        dims |= {p.dim for p in self.extra_points}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed dimensions in region: {sorted(dims)}")

    @property
    def dim(self) -> int | None:
        for h in self.halfspaces:
            return h.hyperplane.normal.dim
        for p in self.extra_points:
            return p.dim
        return None


def whole_space() -> ConvexRegion:
    return ConvexRegion((), frozenset())


def empty_region(dim: int) -> ConvexRegion:
    # Two contradictory strict half-spaces on the first axis.
    n = unit_vector(0, dim)
    return ConvexRegion(
        (
            Halfspace(Hyperplane(n, Fraction(0)), Sense.STRICT_GREATER),
            Halfspace(Hyperplane(-n, Fraction(0)), Sense.STRICT_GREATER),
        ),
        frozenset(),
    )


def region_contains(region: ConvexRegion, x: Vector) -> bool:
    if x in region.extra_points:
        return True
    return all(halfspace_contains(h, x) for h in region.halfspaces)


def box_region(low: Vector | None, high: Vector | None) -> ConvexRegion:
    """Closed axis-aligned box as a ConvexRegion; a missing side is unbounded.

    Every lower bound comes first, then every upper bound.
    """
    if low is not None and high is not None:
        _check_dim(low, high)
    halves = []
    for bound, sign in ((low, 1), (high, -1)):
        if bound is not None:
            for i, b in enumerate(bound):
                normal = unit_vector(i, bound.dim).scale(sign)
                halves.append(Halfspace(Hyperplane(normal, sign * b), Sense.GREATER_EQUAL))
    return ConvexRegion(tuple(halves), frozenset())


@dataclass(frozen=True)
class Span:
    """Linear span of a finite set of generators (possibly dependent)."""

    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", tuple(self.basis))
        dims = {v.dim for v in self.basis}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed dimensions in span: {sorted(dims)}")

    @property
    def dim(self) -> int | None:
        return self.basis[0].dim if self.basis else None


def _echelon(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Row echelon form over the rationals; returns the nonzero rows."""
    work = [list(r) for r in rows]
    out: list[list[Fraction]] = []
    if not work:
        return out
    ncols = len(work[0])
    for col in range(ncols):
        pivot = next((r for r in work if r[col] != 0), None)
        if pivot is None:
            continue
        work.remove(pivot)
        out.append(pivot)
        for r in work:
            if r[col] != 0:
                factor = r[col] / pivot[col]
                for j in range(col, ncols):
                    r[j] -= factor * pivot[j]
    return out


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a square nonsingular rational system by Gaussian elimination."""
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise ArithmeticError("singular system")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def rank(vectors: Iterable[Vector]) -> int:
    rows = [list(v.coords) for v in vectors]
    return len(_echelon(rows))


def span_rank(span: Span) -> int:
    return rank(span.basis)


def project_onto_span(span: Span, x: Vector) -> Vector:
    """Orthogonal projection of x onto the span, exactly.

    The residual x - P(x) is orthogonal to every generator; P is idempotent.
    A span with no independent generators projects everything to zero.
    """
    if span.dim is not None and span.dim != x.dim:
        raise DimensionMismatch(f"span dimension {span.dim} vs vector {x.dim}")
    basis = _echelon([list(v.coords) for v in span.basis])
    if not basis:
        return zero_vector(x.dim)
    k = len(basis)
    gram = [
        [sum((a * b for a, b in zip(basis[i], basis[j])), Fraction(0)) for j in range(k)]
        for i in range(k)
    ]
    rhs = [
        sum((a * b for a, b in zip(basis[i], x.coords)), Fraction(0)) for i in range(k)
    ]
    weights = _solve(gram, rhs)
    coords = [
        sum((weights[i] * basis[i][j] for i in range(k)), Fraction(0))
        for j in range(x.dim)
    ]
    return Vector(tuple(coords))
