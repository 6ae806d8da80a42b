"""Exact rational vectors, half-spaces, regions, and span projections."""

from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mechverify.geometry import (
    ConvexRegion,
    DimensionMismatch,
    Halfspace,
    Hyperplane,
    Sense,
    Span,
    Vector,
    _common_numerators,
    box_region,
    empty_region,
    frac,
    halfspace_contains,
    ones_vector,
    project_onto_span,
    rank,
    region_contains,
    span_rank,
    unit_vector,
    vec,
    whole_space,
    zero_vector,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def vectors(dim: int):
    return st.lists(rationals, min_size=dim, max_size=dim).map(
        lambda cs: Vector(tuple(cs))
    )


def test_frac_accepts_ints_strings_and_fractions():
    assert frac(3) == Fraction(3)
    assert frac("3/4") == Fraction(3, 4)
    assert frac(Fraction(1, 2)) == Fraction(1, 2)


def test_vector_coercion_and_arithmetic():
    v = vec(1, "1/2")
    w = vec("1/3", 2)
    assert v + w == vec("4/3", "5/2")
    assert v - w == vec("2/3", "-3/2")
    assert -v == vec(-1, "-1/2")
    assert v.scale(Fraction(2)) == vec(2, 1)
    assert 2 * v == vec(2, 1)
    assert v.dot(w) == Fraction(1, 3) + 1
    assert v[1] == Fraction(1, 2)
    assert list(v) == [Fraction(1), Fraction(1, 2)]
    assert v.dim == 2
    assert zero_vector(3).is_zero()
    assert not v.is_zero()


def test_vector_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        vec(1, 2).dot(vec(1, 2, 3))
    with pytest.raises(DimensionMismatch):
        vec(1, 2) + vec(1)


def test_unit_and_ones_vectors():
    assert unit_vector(1, 3) == vec(0, 1, 0)
    assert ones_vector(2) == vec(1, 1)
    with pytest.raises(ValueError):
        unit_vector(3, 3)


def test_hyperplane_rejects_zero_normal():
    with pytest.raises(ValueError):
        Hyperplane(zero_vector(2), Fraction(0))


def test_halfspace_strict_vs_closed_boundary():
    plane = Hyperplane(vec(1, 0), Fraction(1))
    strict = Halfspace(plane, Sense.STRICT_GREATER)
    closed = Halfspace(plane, Sense.GREATER_EQUAL)
    boundary = vec(1, 5)
    assert not halfspace_contains(strict, boundary)
    assert halfspace_contains(closed, boundary)
    assert halfspace_contains(strict, vec(2, 0))
    assert not halfspace_contains(closed, vec(0, 0))


def test_region_extra_points_short_circuit():
    region = ConvexRegion(
        (Halfspace(Hyperplane(vec(1, 0), Fraction(0))),),
        frozenset({vec(-1, 2)}),
    )
    assert region_contains(region, vec(-1, 2))
    assert not region_contains(region, vec(-1, 3))
    assert region_contains(region, vec(1, 0))


def test_region_mixed_dimensions_rejected():
    with pytest.raises(DimensionMismatch):
        ConvexRegion(
            (Halfspace(Hyperplane(vec(1, 0), Fraction(0))),),
            frozenset({vec(1, 2, 3)}),
        )


def test_whole_space_and_empty_region():
    assert region_contains(whole_space(), vec(5, -5))
    empty = empty_region(2)
    for point in (vec(0, 0), vec(3, -2), vec(-1, 7)):
        assert not region_contains(empty, point)


def test_box_region_membership():
    box = box_region(vec(0, 0), vec(1, 2))
    assert region_contains(box, vec(0, 0))
    assert region_contains(box, vec(1, 2))
    assert region_contains(box, vec("1/2", 1))
    assert not region_contains(box, vec("3/2", 1))
    assert not region_contains(box, vec("1/2", -1))


def _closed(normal, offset):
    return Halfspace(Hyperplane(normal, frac(offset)), Sense.GREATER_EQUAL)


def test_box_region_lists_lows_then_highs():
    low, high = vec(0, "-1/2"), vec(3, 2)
    lows = (_closed(vec(1, 0), 0), _closed(vec(0, 1), "-1/2"))
    highs = (_closed(vec(-1, 0), -3), _closed(vec(0, -1), -2))
    assert box_region(low, None).halfspaces == lows
    assert box_region(None, high).halfspaces == highs
    assert box_region(low, high).halfspaces == lows + highs
    assert box_region(None, None) == whole_space()
    assert region_contains(box_region(None, high), vec(-100, -100))
    assert not region_contains(box_region(low, None), vec(-1, 0))
    with pytest.raises(DimensionMismatch):
        box_region(vec(0, 0), vec(1, 1, 1))


def test_rank_of_dependent_and_independent_sets():
    assert rank([vec(1, 0, 0), vec(0, 1, 0)]) == 2
    assert rank([vec(1, 2), vec(2, 4)]) == 1
    assert rank([zero_vector(3)]) == 0
    assert rank([]) == 0


def test_span_rank_matches_basis_rank():
    span = Span((vec(1, 0, -1), vec(2, 0, -2), vec(0, 1, -1)))
    assert span_rank(span) == 2


def test_projection_onto_empty_span_is_zero():
    assert project_onto_span(Span(()), vec(3, 4)) == zero_vector(2)


@given(vectors(3))
def test_projection_idempotent_and_orthogonal(x):
    span = Span((vec(1, -1, 0), vec(0, 1, -1)))
    p = project_onto_span(span, x)
    assert project_onto_span(span, p) == p
    residual = x - p
    for basis_vector in span.basis:
        assert residual.dot(basis_vector) == 0
    # The projection itself stays inside the span.
    assert rank([*span.basis, p]) == span_rank(span)


@given(vectors(3))
def test_projection_fixes_span_members(x):
    span = Span((vec(1, 1, 1),))
    scaled = vec(1, 1, 1).scale(x[0])
    assert project_onto_span(span, scaled) == scaled


def test_rank_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        rank([vec(1, 0), vec(1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        rank([zero_vector(2), vec(1, 0, 0)])


def _determinant(matrix):
    """Leibniz expansion: a sum over permutations, no elimination."""
    total = Fraction(0)
    for perm in permutations(range(len(matrix))):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def _independent(generators):
    return _determinant([[u.dot(v) for v in generators] for u in generators]) != 0


def _largest_independent_subset(generators):
    for size in range(len(generators), 0, -1):
        for subset in combinations(generators, size):
            if _independent(subset):
                return list(subset)
    return []


@st.composite
def generator_lists(draw):
    """Up to five generators in dimension 1 to 4: a few drawn vectors, then
    zero vectors and small combinations of them, shuffled."""
    dim = draw(st.integers(1, 4))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    base = draw(st.lists(vectors(dim), min_size=0, max_size=3))
    generators = list(base)
    for _ in range(draw(st.integers(0, 5 - len(base)))):
        if base and draw(st.booleans()):
            combination = zero_vector(dim)
            for v in base:
                combination = combination + v.scale(draw(small))
            generators.append(combination)
        else:
            generators.append(zero_vector(dim))
    return dim, draw(st.permutations(generators))


@given(generator_lists())
def test_rank_is_the_largest_subset_with_nonzero_gram_determinant(drawn):
    _, generators = drawn
    assert rank(generators) == len(_largest_independent_subset(generators))
    assert span_rank(Span(tuple(generators))) == rank(generators)


@given(generator_lists(), st.data())
def test_projection_onto_dependent_generators(drawn, data):
    dim, generators = drawn
    x = data.draw(vectors(dim))
    span = Span(tuple(generators))
    p = project_onto_span(span, x)
    assert project_onto_span(span, p) == p
    for g in generators:
        assert (x - p).dot(g) == 0
    # p lies in the span: adding it to a maximal independent subset leaves
    # the Gram determinant zero.
    assert not _independent([*_largest_independent_subset(generators), p])


wide_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9)


@given(st.lists(st.lists(wide_rationals, max_size=6), min_size=1, max_size=4))
def test_common_numerators_scale_every_row_exactly(rows):
    scale, numerators = _common_numerators(*rows)
    assert scale >= 1
    assert [[Fraction(n, scale) for n in row] for row in numerators] == rows
    # Integers from any two rows order as their rationals do.
    pairs = [pair for row, ints in zip(rows, numerators) for pair in zip(row, ints)]
    for (u, m), (v, n) in product(pairs, repeat=2):
        assert (u < v) == (m < n) and (u == v) == (m == n)
