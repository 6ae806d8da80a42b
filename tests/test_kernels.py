"""The closed-form kernels against dense references kept here, and the
metamorphic properties every membership answer must keep.

The references are the generic forms the kernels replace: dense sums for
the vector arithmetic, the intersection of the pairwise harmless regions
for deterministic membership, and the exact span projection for the
expectation classes.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mechverify.geometry import (
    ConvexRegion,
    DimensionMismatch,
    Vector,
    ones_vector,
    project_onto_span,
    region_contains,
    vec,
)
from mechverify.harmless import (
    SimplexFamily,
    deterministic_harmless,
    difference_projection,
    difference_span,
    pairwise_harmless,
    tie_harmless_contains,
)
from mechverify.mechanisms import Allocation, point_mass, point_masses

FAMILIES = (SimplexFamily.FULL_SIMPLEX, SimplexFamily.SUBSIMPLEX_WITH_NULL)

dims = st.integers(min_value=2, max_value=8)
# Few distinct values and many zeros, so ties and skipped terms are common.
small = st.sampled_from([Fraction(v, d) for v in range(-3, 4) for d in (1, 2)])
sparse = st.one_of(st.just(Fraction(0)), small)


def vectors(dim, elements=sparse):
    return st.lists(elements, min_size=dim, max_size=dim).map(lambda cs: Vector(tuple(cs)))


@st.composite
def type_and_report(draw):
    """theta with frequent ties, and a report near it: theta itself, an
    affine image lam*theta + c*1 with lam in [0, 1], or theta plus a small
    perturbation."""
    m = draw(dims)
    theta = draw(vectors(m, small))
    shape = draw(st.sampled_from(["same", "affine", "perturbed"]))
    if shape == "same":
        return theta, theta
    if shape == "affine":
        lam = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
        shift = draw(small)
        return theta, Vector(tuple(lam * t + shift for t in theta))
    return theta, theta + draw(vectors(m))


@st.composite
def point_mass_subsets(draw, m):
    """At least two distinct point masses over m coordinates, in any order."""
    order = draw(st.permutations(range(m)))
    size = draw(st.integers(min_value=2, max_value=m))
    return tuple(point_mass(i, m) for i in order[:size])


def reference_region(theta, allocations):
    """The intersection of the pairwise harmless regions, with theta as its
    one extra point."""
    halfspaces = []
    for a_i, a_j in combinations(allocations, 2):
        halfspaces.extend(pairwise_harmless(theta, a_i, a_j).region.halfspaces)
    return ConvexRegion(tuple(halfspaces), frozenset({theta}))


# -- zero-skipping arithmetic -------------------------------------------------


@given(st.data())
def test_vector_arithmetic_matches_dense_sums(data):
    m = data.draw(dims)
    u = data.draw(vectors(m))
    v = data.draw(vectors(m))
    assert u.dot(v) == sum((a * b for a, b in zip(u, v)), Fraction(0))
    assert (u + v).coords == tuple(a + b for a, b in zip(u, v))
    assert (u - v).coords == tuple(a - b for a, b in zip(u, v))
    for c in (u + v).coords + (u - v).coords + (u.dot(v),):
        assert type(c) is Fraction


# -- deterministic membership -------------------------------------------------


@given(type_and_report(), st.data())
def test_deterministic_membership_matches_pairwise_region(pair, data):
    theta, x = pair
    allocations = data.draw(point_mass_subsets(theta.dim))
    reference = reference_region(theta, allocations)
    result = deterministic_harmless(theta, allocations)
    assert result.region == reference
    assert result.contains(x) == region_contains(reference, x)


@given(st.data())
def test_deterministic_membership_with_constant_theta(data):
    m = data.draw(dims)
    theta = ones_vector(m).scale(data.draw(small))
    x = data.draw(vectors(m))
    result = deterministic_harmless(theta, point_masses(m))
    assert result.region.halfspaces == ()
    assert result.contains(x)


def test_deterministic_membership_on_tied_levels():
    # Levels {0: coords 1, 3} < {2: coords 0, 2}; d = x - theta must be
    # larger on every coordinate of the lower level than on the upper one.
    theta = vec(2, 0, 2, 0)
    result = deterministic_harmless(theta, point_masses(4))
    assert result.contains(theta + vec(0, 1, -1, 2))
    assert not result.contains(theta + vec(1, 1, -1, 2))  # max upper == min lower
    assert not result.contains(theta + vec(0, 1, 2, 3))
    assert result.contains(theta + vec(5, 9, 7, 8))  # ties within a level are free
    assert result.contains(theta)
    assert not result.contains(theta + vec(1, 1, 1, 1))  # a shift of theta is not theta


def test_deterministic_membership_reads_only_the_listed_coordinates():
    theta = vec(3, 1, 2)
    result = deterministic_harmless(theta, (point_mass(2, 3), point_mass(0, 3)))
    # Only coordinates 0 and 2 are compared: x_2 - x_0 > theta_2 - theta_0.
    assert result.contains(vec(3, 100, 3))
    assert not result.contains(vec(3, -100, 2))


def test_deterministic_membership_rejects_other_dimensions():
    result = deterministic_harmless(vec(1, 1), point_masses(2))
    with pytest.raises(DimensionMismatch):
        result.contains(vec(1, 1, 1))


# -- expectation projection ---------------------------------------------------


@given(st.data())
def test_tie_projection_matches_span_projection(data):
    m = data.draw(dims)
    theta = data.draw(vectors(m, st.sampled_from([Fraction(0), Fraction(1), Fraction(-2)])))
    v = data.draw(vectors(m))
    for family in FAMILIES:
        expected = project_onto_span(difference_span(theta, family), v)
        assert difference_projection(theta, family)(v) == expected


@given(st.data())
def test_tie_projection_matches_span_projection_on_explicit_sets(data):
    m = data.draw(dims)
    theta = data.draw(vectors(m, small))
    v = data.draw(vectors(m))
    i, j = data.draw(st.permutations(range(m)))[:2]
    # Three allocations whose differences are all collinear with e_i - e_j.
    middle = Allocation((point_mass(i, m).probs + point_mass(j, m).probs).scale(Fraction(1, 2)))
    allocations = (point_mass(i, m), middle, point_mass(j, m))
    expected = project_onto_span(difference_span(theta, allocations), v)
    assert difference_projection(theta, allocations)(v) == expected


# -- metamorphic properties ---------------------------------------------------


def _permute(v, order):
    return Vector(tuple(v[i] for i in order))


def _deterministic_member(theta, x):
    return deterministic_harmless(theta, point_masses(theta.dim)).contains(x)


@given(type_and_report(), st.data())
def test_permuting_coordinates_keeps_membership(pair, data):
    theta, x = pair
    order = data.draw(st.permutations(range(theta.dim)))
    ptheta, px = _permute(theta, order), _permute(x, order)
    assert _deterministic_member(ptheta, px) == _deterministic_member(theta, x)
    for family in FAMILIES:
        assert tie_harmless_contains(ptheta, px, family) == tie_harmless_contains(theta, x, family)


@given(type_and_report(), small)
def test_common_shift_of_the_report_keeps_membership(pair, shift):
    theta, x = pair
    shifted = x + ones_vector(x.dim).scale(shift)
    if shifted != theta and x != theta:
        assert _deterministic_member(theta, shifted) == _deterministic_member(theta, x)
    family = SimplexFamily.FULL_SIMPLEX
    assert tie_harmless_contains(theta, shifted, family) == tie_harmless_contains(theta, x, family)


@given(type_and_report(), st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(7, 2)]))
def test_common_positive_scaling_keeps_membership(pair, factor):
    theta, x = pair
    stheta, sx = theta.scale(factor), x.scale(factor)
    assert _deterministic_member(stheta, sx) == _deterministic_member(theta, x)
    for family in FAMILIES:
        assert tie_harmless_contains(stheta, sx, family) == tie_harmless_contains(theta, x, family)
