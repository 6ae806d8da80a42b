"""The closed-form kernels against dense references kept here, and the
metamorphic properties every membership answer must keep.

The references are the generic forms the kernels replace: dense sums for
the vector arithmetic, the intersection of the pairwise harmless regions
for deterministic membership, the exact span projection for the
expectation classes, and the oracle's scan of allocation pairs for the
point-mass certificates.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mechverify.cli import parse_scenario, run_scenario
from mechverify.geometry import (
    ConvexRegion,
    DimensionMismatch,
    Span,
    Vector,
    ones_vector,
    project_onto_span,
    rank,
    region_contains,
    unit_vector,
    vec,
)
from mechverify.harmless import (
    SimplexFamily,
    SubspaceHypothesisError,
    decisive_pair,
    deterministic_harmless,
    difference_projection,
    pairwise_harmless,
    point_mass_rule,
    tie_harmless_contains,
)
from mechverify.mechanisms import Allocation, MechanismError, TieSide, point_mass, point_masses
from mechverify.oracle import search_beneficial_misreport

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


@st.composite
def certificate_cases(draw):
    """theta over m <= 12 coordinates on few tied levels, and a report that
    is theta itself, a harmless affine image lam*theta + c*1 with lam < 1,
    a common shift of theta (every pair on its boundary), or theta + d with
    each d_i in {-1, 0, 1}, so that d_p == d_o is common."""
    m = draw(st.integers(min_value=2, max_value=12))
    levels = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)])
    theta = draw(vectors(m, levels))
    shape = draw(st.sampled_from(["perturbed", "boundary", "harmless", "same"]))
    if shape == "same":
        return theta, theta
    shift = draw(small)
    if shape == "harmless":
        lam = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(3, 4)]))
        return theta, Vector(tuple(lam * t + shift for t in theta))
    if shape == "boundary":
        return theta, theta + ones_vector(m).scale(shift)
    steps = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)])
    return theta, theta + draw(vectors(m, steps))


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


# -- point-mass certificates ---------------------------------------------------


def rule_fields(rule):
    return (rule.a_i, rule.a_j, rule.relative_price, rule.tie_assignment, rule.overrides)


@given(certificate_cases(), st.data())
def test_point_mass_rule_matches_the_oracle(case, data):
    theta, x = case
    allocations = data.draw(point_mass_subsets(theta.dim))
    expected = search_beneficial_misreport(theta, x, allocations)
    rule = point_mass_rule(theta, x, allocations)
    assert (rule is None) == (expected is None)
    assert (rule is None) == deterministic_harmless(theta, allocations).contains(x)
    if rule is not None:
        assert rule_fields(rule) == rule_fields(expected)


def test_point_mass_rule_picks_the_oracles_pair_on_the_boundary():
    # Listed as e_2 (level 1), e_1 (level 2), e_0 (level 0), and x shifts
    # theta by 1, so every pair sits on its boundary.  The preferred side is
    # the outer loop: e_2 is tried first and qualifies against e_0.
    theta = vec(0, 2, 1)
    x = vec(1, 3, 2)
    allocations = (point_mass(2, 3), point_mass(1, 3), point_mass(0, 3))
    rule = point_mass_rule(theta, x, allocations)
    assert rule_fields(rule) == (
        point_mass(2, 3),
        point_mass(0, 3),
        Fraction(1),
        TieSide.TO_I,
        {theta: point_mass(0, 3), x: point_mass(2, 3)},
    )
    assert rule_fields(rule) == rule_fields(search_beneficial_misreport(theta, x, allocations))
    assert point_mass_rule(theta, theta, allocations) is None
    assert point_mass_rule(theta, theta.scale(Fraction(1, 2)), allocations) is None


def test_point_mass_pair_rejects_other_allocations():
    theta, x = vec(1, 0), vec(0, 1)
    half = Allocation(vec(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(MechanismError):
        point_mass_rule(theta, x, (point_mass(0, 2), half))
    with pytest.raises(DimensionMismatch):
        point_mass_rule(theta, x, point_masses(3))
    with pytest.raises(DimensionMismatch):
        point_mass_rule(theta, vec(0, 1, 0), point_masses(2))


# -- expectation projection ---------------------------------------------------


def simplex_span(theta, family):
    """The difference span's generators, taken from the definition: over
    the full simplex e_0 - e_j for every j (when theta has two distinct
    coordinates), over the null-padded subsimplex every e_i (when theta is
    nonzero), and nothing for a type indifferent between everything."""
    m = theta.dim
    if family is SimplexFamily.FULL_SIMPLEX:
        if len(set(theta.coords)) < 2:
            return Span(())
        return Span(tuple(unit_vector(0, m) - unit_vector(j, m) for j in range(1, m)))
    if theta.is_zero():
        return Span(())
    return Span(tuple(unit_vector(i, m) for i in range(m)))


@given(st.data())
def test_tie_projection_matches_span_projection(data):
    m = data.draw(dims)
    theta = data.draw(vectors(m, st.sampled_from([Fraction(0), Fraction(1), Fraction(-2)])))
    v = data.draw(vectors(m))
    for family in FAMILIES:
        expected = project_onto_span(simplex_span(theta, family), v)
        assert difference_projection(theta, family)(v) == expected


def test_difference_projection_refuses_explicit_sets():
    with pytest.raises(MechanismError):
        difference_projection(vec(1, 3), point_masses(2))


# -- explicit expectation sets -----------------------------------------------


@st.composite
def explicit_cases(draw):
    """theta, a report near it (a step along the first two allocations'
    difference plus a common shift, which every allocation difference is
    blind to, the shift alone, or a perturbation) and 2-6 allocations over
    m <= 5 coordinates: points of one segment, as the class's hypothesis
    asks, or arbitrary ones, which are often refused."""
    m = draw(st.integers(min_value=2, max_value=5))
    theta = draw(vectors(m, small))

    allocation = (
        st.lists(st.integers(0, 3), min_size=m, max_size=m)
        .filter(any)
        .map(lambda ws: Allocation(Vector(tuple(Fraction(w, sum(ws)) for w in ws))))
    )
    if draw(st.booleans()):
        a, b = draw(st.lists(allocation, min_size=2, max_size=2, unique=True))
        quarters = st.sampled_from([Fraction(k, 4) for k in range(5)])
        ts = draw(st.permutations([Fraction(0), Fraction(1), *draw(st.lists(quarters, max_size=4))]))
        allocations = tuple(Allocation(a.probs.scale(1 - t) + b.probs.scale(t)) for t in ts)
    else:
        allocations = tuple(draw(st.lists(allocation, min_size=2, max_size=6)))
    shift = ones_vector(m).scale(draw(small))
    shape = draw(st.sampled_from(["line", "shift", "perturbed"]))
    if shape == "line":
        step = (allocations[1].probs - allocations[0].probs).scale(draw(small))
        return theta, theta + step + shift, allocations
    if shape == "shift":
        return theta, theta + shift, allocations
    return theta, theta + draw(vectors(m)), allocations


def all_pairs_refuse(theta, allocations):
    """The generic hypothesis test: the differences of the pairs theta is
    not indifferent between have rank above one."""
    differences = [
        a.probs - b.probs
        for a, b in combinations(allocations, 2)
        if a.value_to(theta) != b.value_to(theta)
    ]
    return rank(differences) > 1


def span_member(theta, x, allocations):
    """Harmless by projection onto the span of all allocation differences:
    every report when theta values every allocation alike, and otherwise
    exactly when x projects to a scaling of theta's projection by at most
    one."""
    span = Span(tuple(a.probs - b.probs for a, b in combinations(allocations, 2)))
    ptheta, px = project_onto_span(span, theta), project_onto_span(span, x)
    if ptheta.is_zero():
        return True
    lam = px.dot(ptheta) / ptheta.dot(ptheta)
    return px == ptheta.scale(lam) and lam <= 1


@given(explicit_cases())
def test_decisive_pair_answers_for_the_whole_set(case):
    theta, x, allocations = case
    try:
        pair = decisive_pair(theta, allocations) or allocations[:2]
    except SubspaceHypothesisError:
        assert all_pairs_refuse(theta, allocations)
        return
    assert not all_pairs_refuse(theta, allocations)
    member = tie_harmless_contains(theta, x, pair)
    assert member == span_member(theta, x, allocations)
    expected = search_beneficial_misreport(theta, x, allocations)
    rule = search_beneficial_misreport(theta, x, pair)
    assert (rule is None) == (expected is None)
    if not member:
        assert rule_fields(rule) == rule_fields(expected)


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


def _scenario(anchor_line, query, allocations):
    lines = ["scenario duality", "class deterministic", anchor_line, f"query {query}"]
    lines += [f"allocation {_tokens(a.probs)}" for a in allocations]
    return parse_scenario("\n".join(lines) + "\n")


def _tokens(v):
    return " ".join(str(c) for c in v)


@given(certificate_cases(), st.data())
def test_reverse_harmful_set_is_the_forward_complement(case, data):
    # Reported r harms candidate c exactly when r is not harmless for the
    # true type c, and both directions ship the same certificate.
    candidate, reported = case
    allocations = data.draw(point_mass_subsets(candidate.dim))
    reverse = run_scenario(
        _scenario(f"reported {_tokens(reported)}", _tokens(candidate), allocations)
    )
    forward = run_scenario(
        _scenario(f"theta {_tokens(candidate)}", _tokens(reported), allocations)
    )
    assert reverse.queries[0].member == (not forward.queries[0].member)
    assert [(w.kind, w.fields) for w in reverse.witnesses] == [
        (w.kind, w.fields) for w in forward.witnesses
    ]
    assert len(reverse.witnesses) == int(reverse.queries[0].member)


# -- closed forms without generic machinery ------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("generic machinery on a closed-form path")


def test_closed_form_paths_build_no_region_and_no_span(monkeypatch):
    # Reverse point-mass membership builds no pairwise halfspaces, and an
    # explicit expectation set answers by d.x <= d.theta with no Gram-Schmidt.
    monkeypatch.setattr("mechverify.harmless._pairwise_halfspaces", _refuse)
    monkeypatch.setattr("mechverify.geometry._orthogonal_basis", _refuse)
    reverse = run_scenario(
        parse_scenario(
            "scenario r\nclass deterministic\nreported 0 0 3\nquery 0 1 2\nquery 0 0 3\n"
        )
    )
    assert [q.member for q in reverse.queries] == [True, False]
    assert len(reverse.witnesses) == 1
    explicit = run_scenario(
        parse_scenario(
            "scenario e\nclass truthful_in_expectation\ntheta 1 3\n"
            "allocation 1 0\nallocation 1/2 1/2\nallocation 0 1\n"
            "query 0 4\nquery 1 2\n"
        )
    )
    assert [q.member for q in explicit.queries] == [False, True]
    assert len(explicit.witnesses) == 1
    # The forward class still builds the region it prints.
    forward = parse_scenario("scenario f\nclass deterministic\ntheta 0 1 2\n")
    with pytest.raises(AssertionError, match="generic machinery"):
        run_scenario(forward)
