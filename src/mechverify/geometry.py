"""Exact rational linear algebra: vectors, half-space regions, span projections.

Everything is computed over arbitrary-precision rationals
(:class:`fractions.Fraction`); no floats, no tolerances.  Regions are finite
intersections of open or closed half-spaces together with an explicit set of
always-included points.  The extra points exist because the boundary
behaviour of allocation rules is point-sensitive: a region can lawfully be
"an open half-space plus one point of its boundary", and membership must be
decided exactly.  Rank and projection share one exact Gram-Schmidt pass over
a span's generators.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from fractions import Fraction

RationalLike = Fraction | int | str


class DimensionMismatch(ValueError):
    """Operands live in different coordinate dimensions."""


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, and Fractions to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and sets each once, in
    ``__init__``, through ``_init``.  Equality, hashing and repr run over
    those fields in order, and any later assignment raises
    ``AttributeError``.  Such a class is cheap to build at import.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles are rebuilt through the constructor.
        return self.__class__, self._fields()


class Vector(Frozen):
    """Immutable point/direction with exact rational coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[RationalLike]) -> None:
        coords = tuple([frac(c) for c in coords])
        if not coords:
            raise ValueError("a vector needs at least one coordinate")
        _set_coords(self, coords)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __str__(self) -> str:
        return f"({', '.join([str(c) for c in self.coords])})"

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
        return not any(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        _check_dim(self, other)
        return _vector(tuple([a + b if b else a for a, b in zip(self.coords, other.coords)]))

    def __sub__(self, other: "Vector") -> "Vector":
        _check_dim(self, other)
        return _vector(tuple([a - b if b else a for a, b in zip(self.coords, other.coords)]))

    def __neg__(self) -> "Vector":
        return _vector(tuple([-a for a in self.coords]))

    def scale(self, factor: RationalLike) -> "Vector":
        f = frac(factor)
        return _vector(tuple([f * a for a in self.coords]))

    def __rmul__(self, factor: RationalLike) -> "Vector":
        return self.scale(factor)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]


_set_coords = Vector.coords.__set__


def _vector(coords: tuple[Fraction, ...]) -> Vector:
    """A Vector over a non-empty tuple of Fractions, taken as it is.

    Vector arithmetic only ever holds such tuples, so it skips the coercion
    and the emptiness check that the public constructor runs.
    """
    v = object.__new__(Vector)
    _set_coords(v, coords)
    return v


def vec(*coords: RationalLike) -> Vector:
    """Build a Vector from loose rational-like values."""
    return Vector(coords)


def zero_vector(dim: int) -> Vector:
    return _constant_vector(Fraction(0), dim)


def unit_vector(index: int, dim: int) -> Vector:
    if not 0 <= index < dim:
        raise ValueError(f"unit index {index} out of range for dimension {dim}")
    coords = [Fraction(0)] * dim
    coords[index] = Fraction(1)
    return _vector(tuple(coords))


def ones_vector(dim: int) -> Vector:
    return _constant_vector(Fraction(1), dim)


def _constant_vector(value: Fraction, dim: int) -> Vector:
    if dim < 1:
        raise ValueError("a vector needs at least one coordinate")
    return _vector((value,) * dim)


def _check_dim(u: Vector, v: Vector) -> None:
    if u.dim != v.dim:
        raise DimensionMismatch(f"dimension {u.dim} vs {v.dim}")


class Sense(Enum):
    """Orientation of a half-space relative to its hyperplane."""

    STRICT_GREATER = "strict"
    GREATER_EQUAL = "closed"


class Hyperplane(Frozen):
    """Points x with normal . x == offset."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal: Vector, offset: RationalLike) -> None:
        offset = frac(offset)
        if normal.is_zero():
            raise ValueError("hyperplane normal must be nonzero")
        self._init(normal, offset)


class Halfspace(Frozen):
    """One side of a hyperplane; strict or closed per ``sense``."""

    __slots__ = ("hyperplane", "sense")

    def __init__(self, hyperplane: Hyperplane, sense: Sense = Sense.STRICT_GREATER) -> None:
        self._init(hyperplane, sense)


def halfspace_contains(h: Halfspace, x: Vector) -> bool:
    s = h.hyperplane.normal.dot(x)
    if h.sense is Sense.STRICT_GREATER:
        return s > h.hyperplane.offset
    return s >= h.hyperplane.offset


class ConvexRegion(Frozen):
    """Intersection of half-spaces, plus points that are members regardless.

    An empty ``halfspaces`` tuple with no extra points is the whole space.
    ``extra_points`` lets an open region carry isolated boundary members.
    """

    __slots__ = ("halfspaces", "extra_points")

    def __init__(
        self,
        halfspaces: Iterable[Halfspace] = (),
        extra_points: Iterable[Vector] = frozenset(),
    ) -> None:
        halfspaces = tuple(halfspaces)
        extra_points = frozenset(extra_points)
        dims = {h.hyperplane.normal.dim for h in halfspaces}
        dims |= {p.dim for p in extra_points}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed dimensions in region: {sorted(dims)}")
        self._init(halfspaces, extra_points)


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


class Span(Frozen):
    """Linear span of a finite set of generators (possibly dependent)."""

    __slots__ = ("basis",)

    def __init__(self, basis: Iterable[Vector]) -> None:
        basis = tuple(basis)
        dims = {v.dim for v in basis}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed dimensions in span: {sorted(dims)}")
        self._init(basis)

    @property
    def dim(self) -> int | None:
        return self.basis[0].dim if self.basis else None


def _orthogonal_basis(span: Span) -> list[tuple[Vector, Fraction]]:
    """Exact Gram-Schmidt: pairwise orthogonal nonzero vectors, each with its
    squared norm, spanning the same space.  Dependent and zero generators
    leave a zero residual and are dropped."""
    basis: list[tuple[Vector, Fraction]] = []
    for v in span.basis:
        r = _residual(basis, v)
        if not r.is_zero():
            basis.append((r, r.dot(r)))
    return basis


def _residual(basis: list[tuple[Vector, Fraction]], x: Vector) -> Vector:
    """x minus its projection onto an orthogonal basis."""
    for u, norm in basis:
        c = x.dot(u)
        if c:
            x = x - u.scale(c / norm)
    return x


def rank(vectors: Iterable[Vector]) -> int:
    return span_rank(Span(tuple(vectors)))


def span_rank(span: Span) -> int:
    return len(_orthogonal_basis(span))


def project_onto_span(span: Span, x: Vector) -> Vector:
    """Orthogonal projection of x onto the span, exactly.

    The residual x - P(x) is orthogonal to every generator; P is idempotent.
    A span with no independent generators projects everything to zero.
    """
    if span.dim is not None and span.dim != x.dim:
        raise DimensionMismatch(f"span dimension {span.dim} vs vector {x.dim}")
    return x - _residual(_orthogonal_basis(span), x)
