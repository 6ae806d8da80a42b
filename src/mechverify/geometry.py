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

from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

RationalLike = Fraction | int | str


# Shared exact constants.  Unit and zero vectors hold these very objects, so
# a serializer may print a coordinate that *is* ZERO without formatting it.
ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


class DimensionMismatch(ValueError):
    """Operands live in different coordinate dimensions."""


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, and Fractions to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and sets each once, in
    ``__init__``, through ``_init``.  Equality, hashing and repr run over
    ``_fields()`` (a derived last slot may stay out), and any later
    assignment raises ``AttributeError``.  Such a class is cheap to build.
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
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
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

    def dot(self, other: "Vector") -> Fraction:
        _check_dim(self, other)
        return sum([a * b for a, b in zip(self.coords, other.coords)], ZERO)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        _check_dim(self, other)
        return _vector(tuple([a + b for a, b in zip(self.coords, other.coords)]))

    def __sub__(self, other: "Vector") -> "Vector":
        _check_dim(self, other)
        return _vector(tuple([a - b for a, b in zip(self.coords, other.coords)]))

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
    return _constant_vector(ZERO, dim)


def unit_vector(index: int, dim: int) -> Vector:
    if not 0 <= index < dim:
        raise ValueError(f"unit index {index} out of range for dimension {dim}")
    coords = [ZERO] * dim
    coords[index] = ONE
    return _vector(tuple(coords))


def ones_vector(dim: int) -> Vector:
    return _constant_vector(ONE, dim)


def _constant_vector(value: Fraction, dim: int) -> Vector:
    if dim < 1:
        raise ValueError("a vector needs at least one coordinate")
    return _vector((value,) * dim)


def _check_dim(u: Vector, v: Vector) -> None:
    if u.dim != v.dim:
        raise DimensionMismatch(f"dimension {u.dim} vs {v.dim}")


def _common_numerators(*rows: Sequence[Fraction]) -> tuple[int, list[list[int]]]:
    """(scale, numerators): scale is the lcm of every value's denominator,
    and each row becomes the integers n with n / scale its values.  Integers
    across rows order and add as the rationals do, with no Fraction
    operation per comparison."""
    scale = lcm(*{c.denominator for row in rows for c in row})
    return scale, [[c.numerator * (scale // c.denominator) for c in row] for row in rows]


def _row_dot(scale: int, terms: Sequence[tuple[int, int]], coords: Sequence[Fraction]) -> Fraction:
    """Sum of n * coords[k] / scale over a sparse integer row's terms (k, n),
    as one Fraction: the products are summed as integers over a running
    lcm of the denominators read, so no Fraction operation runs per term."""
    total, common = 0, 1
    for k, n in terms:
        d = (c := coords[k]).denominator
        if common % d:
            grow = d // gcd(common, d)
            total, common = total * grow, common * grow
        total += n * c.numerator * (common // d)
    return Fraction(total, scale * common)


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


_set_normal = Hyperplane.normal.__set__
_set_offset = Hyperplane.offset.__set__
_set_hyperplane = Halfspace.hyperplane.__set__
_set_sense = Halfspace.sense.__set__


def _halfspace(normal: Vector, offset: Fraction, sense: Sense) -> Halfspace:
    """A Halfspace over a nonzero normal and a Fraction offset, taken as they
    are, in the style of ``_vector``: a caller that knows the normal is
    nonzero skips the public constructors' coercion and zero scan."""
    plane = object.__new__(Hyperplane)
    _set_normal(plane, normal)
    _set_offset(plane, offset)
    half = object.__new__(Halfspace)
    _set_hyperplane(half, plane)
    _set_sense(half, sense)
    return half


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
