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
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mechverify import harmless, mechanisms
from mechverify.cli import (
    ResultDocument,
    _offset_token,
    _separating,
    _vector_token,
    parse_scenario,
    render_regions,
    run_scenario,
    run_verify,
    serialize_result,
)
from mechverify.geometry import (
    MINUS_ONE,
    ONE,
    ZERO,
    ConvexRegion,
    DimensionMismatch,
    Hyperplane,
    Span,
    Vector,
    _common_numerators,
    _vector,
    ones_vector,
    project_onto_span,
    rank,
    region_contains,
    unit_vector,
    vec,
)
from mechverify.harmless import (
    PointMassRegion,
    SimplexFamily,
    SubspaceHypothesisError,
    check_one_line,
    decisive_pair,
    deterministic_harmless,
    pairwise_harmless,
    point_mass_rule,
    tie_harmless_contains,
)
from mechverify.mechanisms import (
    Allocation,
    MechanismError,
    SeparatingRule,
    TaxationRule,
    TieSide,
    allocate_separating,
    best_entry,
    point_mass,
    point_mass_choice,
    point_masses,
)
from mechverify.multiagent import vcg_harmless_contains
from mechverify.oracle import search_beneficial_misreport
from mechverify.reverse import harmful_union_contains
from mechverify.scenarios import kminded_harmless_contains

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
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


# Zeros, small mixed denominators and denominators above 10^6.
dot_coords = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(10**6 + 1, 10**9)),
)


@given(st.data())
def test_dot_over_integer_numerators_matches_the_naive_sum(data):
    m = data.draw(st.integers(min_value=1, max_value=12))
    u = data.draw(vectors(m, dot_coords))
    v = data.draw(vectors(m, dot_coords))
    # Every product is zero where u keeps only v's zero coordinates.
    disjoint = Vector(tuple(a if not b else Fraction(0) for a, b in zip(u, v)))
    for w in (u, disjoint, Vector((Fraction(0),) * m)):
        product = w.dot(v)
        assert type(product) is Fraction
        assert product == sum([a * b for a, b in zip(w, v)], Fraction(0))
    assert disjoint.dot(v) == 0


# -- deterministic membership -------------------------------------------------


@given(type_and_report(), st.data())
def test_deterministic_membership_matches_pairwise_region(pair, data):
    theta, x = pair
    allocations = data.draw(point_mass_subsets(theta.dim))
    reference = reference_region(theta, allocations)
    result = deterministic_harmless(theta, allocations)
    assert result.region.halfspaces == reference.halfspaces
    assert result.region.extra_points == reference.extra_points
    assert result.contains(x) == region_contains(reference, x)


# Levels over denominators 1, 2, 3, 4 and 6, so the common denominator of
# theta's values is often neither 1 nor one of them.
mixed = st.sampled_from([Fraction(v, d) for v in range(-4, 5) for d in (1, 2, 3, 4, 6)])


@given(st.data())
def test_deterministic_region_over_mixed_denominators(data):
    # The region built from integer levels and shared unit constants is the
    # intersection of the pairwise regions, and stays all Fractions.
    m = data.draw(dims)
    theta = data.draw(vectors(m, mixed))
    allocations = data.draw(point_mass_subsets(m))
    region = deterministic_harmless(theta, allocations).region
    reference = reference_region(theta, allocations)
    assert region.halfspaces == reference.halfspaces
    assert region.extra_points == reference.extra_points
    for h in region.halfspaces:
        assert type(h.hyperplane.offset) is Fraction
        assert all(type(c) is Fraction for c in h.hyperplane.normal)


def _tokens(v):
    return " ".join(str(c) for c in v)


@given(st.data())
def test_printed_point_mass_region_matches_the_generic_rendering(data):
    # theta on tied levels over mixed denominators, the point masses or an
    # explicit subset in any order, with or without a box: the region lines
    # printed from the ranked pairs, header count included, are the generic
    # rendering of the materialized halfspaces.
    m = data.draw(dims)
    tied = st.sampled_from([Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4)])
    theta = data.draw(vectors(m, st.one_of(tied, mixed)))
    lines = ["scenario p", "class deterministic", f"theta {_tokens(theta)}"]
    if data.draw(st.booleans()):
        lines += [f"allocation {_tokens(a.probs)}" for a in data.draw(point_mass_subsets(m))]
    if data.draw(st.booleans()):
        lines.append(f"space_low {_tokens([-5] * m)}")
    document = run_scenario(parse_scenario("\n".join(lines) + "\n"))
    region = document.region
    fields = [getattr(document, name) for name in ResultDocument.__slots__]
    fields[ResultDocument.__slots__.index("region")] = ConvexRegion(
        region.halfspaces, region.extra_points
    )
    printed = serialize_result(document)
    assert printed == serialize_result(ResultDocument(*fields))
    assert f"region halfspaces={len(region.halfspaces)} extras=1\n" in printed


# Zeros that are the shared ZERO, zeros that are other objects (as parsed,
# or built with another denominator), and nonzero values of every sign.
token_coords = st.sampled_from(
    [ZERO, Fraction("0"), Fraction(0, 7), ONE, MINUS_ONE]
    + [Fraction(-3, 4), Fraction(5, 2), Fraction(-7)]
)


@given(st.lists(token_coords, min_size=1, max_size=12))
def test_vector_token_matches_the_formatted_coordinates(coords):
    assert Fraction(0, 7) is not ZERO and Fraction("0") is not ZERO
    v = _vector(tuple(coords))
    assert _vector_token(v) == ",".join(str(c) for c in v)


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
        ((theta, point_mass(0, 3)), (x, point_mass(2, 3))),
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


@st.composite
def expectation_cases(draw):
    """theta, often with a zero span (theta = 0, or theta constant), and a
    report that is an affine image lam*theta + c*1 or any vector."""
    m = draw(dims)
    shape = draw(st.sampled_from(["zero", "constant", "any"]))
    if shape == "zero":
        theta = Vector((Fraction(0),) * m)
    elif shape == "constant":
        theta = ones_vector(m).scale(draw(small))
    else:
        theta = draw(vectors(m, small))
    if draw(st.booleans()):
        return theta, draw(vectors(m))
    lam = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    shift = draw(sparse)
    return theta, Vector(tuple(lam * t + shift for t in theta))


@given(expectation_cases())
def test_tie_membership_matches_span_projection(case):
    # The reference: project both onto the span the definition gives, and
    # test whether px is lam * ptheta with lam <= 1 (px = 0 on a zero span).
    theta, x = case
    for family in FAMILIES:
        span = simplex_span(theta, family)
        ptheta, px = project_onto_span(span, theta), project_onto_span(span, x)
        if ptheta.is_zero():
            expected = px.is_zero()
        else:
            pivot = next(i for i, c in enumerate(ptheta) if c != 0)
            lam = px[pivot] / ptheta[pivot]
            expected = px == ptheta.scale(lam) and lam <= 1
        assert tie_harmless_contains(theta, x, family) == expected


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
        pair = decisive_pair(theta, allocations)
        if pair is not None:
            check_one_line(allocations)
    except SubspaceHypothesisError:
        assert all_pairs_refuse(theta, allocations)
        return
    assert not all_pairs_refuse(theta, allocations)
    pair = pair or allocations[:2]
    member = tie_harmless_contains(theta, x, pair)
    assert member == span_member(theta, x, allocations)
    expected = search_beneficial_misreport(theta, x, allocations)
    rule = search_beneficial_misreport(theta, x, pair)
    assert (rule is None) == (expected is None)
    if not member:
        assert rule_fields(rule) == rule_fields(expected)


@st.composite
def collinear_sets(draw):
    """2-6 allocations a + t (b - a) with b != a over m <= 5 coordinates, t
    in quarters with at least two distinct and often repeated (tied
    levels), and theta: any type, a constant one, or one orthogonal to
    b - a (u.theta = 0 then, and every level ties)."""
    m = draw(st.integers(min_value=2, max_value=5))
    weights = st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any)
    wa, wb = draw(weights), draw(weights)
    wb[wb.index(min(wb))] += 1  # two identical draws differ after this; assume drops the rest
    a, b = (Vector(tuple(Fraction(w, sum(ws)) for w in ws)) for ws in (wa, wb))
    assume(a != b)
    quarters = st.sampled_from([Fraction(k, 4) for k in range(5)])
    distinct = draw(st.lists(quarters, min_size=2, max_size=2, unique=True))
    ts = draw(st.permutations(distinct + draw(st.lists(quarters, max_size=4))))
    allocations = tuple(Allocation(a.scale(1 - t) + b.scale(t)) for t in ts)
    theta = draw(vectors(m, small))
    shape = draw(st.sampled_from(["any", "constant", "orthogonal"]))
    if shape == "constant":
        theta = ones_vector(m).scale(draw(small))
    elif shape == "orthogonal" and b != a:
        u = b - a
        theta = theta - u.scale(theta.dot(u) / u.dot(u))
    return theta, allocations


@given(collinear_sets())
def test_the_line_scan_finds_the_decisive_pair(case):
    # check_one_line's scan over t_k, from one dot product u.theta, names
    # the same two allocations (by position) as valuing every one of them.
    theta, allocations = case

    def positions(pair):
        if pair is None:
            return None
        return tuple(next(k for k, a in enumerate(allocations) if a is chosen) for chosen in pair)

    assert positions(check_one_line(allocations)(theta)) == positions(decisive_pair(theta, allocations))


@st.composite
def explicit_certificate_cases(draw):
    """(theta, x, allocations): a + t (b - a) with b != a over mixed
    denominators and steps t often repeated; theta free or, one time in
    four, orthogonal to b - a (every level ties then); x free or
    theta + c (b - a)."""
    m = draw(st.integers(min_value=2, max_value=5))
    weights = st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any)
    wa, wb = draw(weights), draw(weights)
    wb[wb.index(min(wb))] += 1  # two identical draws differ after this; assume drops the rest
    a, b = (Vector(tuple(Fraction(w, sum(ws)) for w in ws)) for ws in (wa, wb))
    assume(a != b)
    steps = st.sampled_from([Fraction(k, 12) for k in (0, 3, 4, 6, 8, 9, 12)])
    ts = draw(st.lists(steps, min_size=3, max_size=6))
    allocations = tuple(Allocation(a.scale(1 - t) + b.scale(t)) for t in ts)
    u, theta = b - a, draw(vectors(m, mixed))
    if draw(st.integers(0, 3)) == 0:
        theta = theta - u.scale(theta.dot(u) / u.dot(u))
    x = draw(st.one_of(vectors(m, mixed), mixed.map(lambda c: theta + u.scale(c))))
    return theta, x, allocations


@given(explicit_certificate_cases())
def test_explicit_certificate_is_the_oracles_rule(case):
    # Whenever d.x > d.theta on theta's decisive pair, both modes ship the
    # closed-form rule, and it is the oracle's, field by field, over the
    # pair and over the whole set; otherwise they ship none.
    theta, x, allocations = case
    pair = decisive_pair(theta, allocations)
    harmful = pair is not None and (d := pair[0].probs - pair[1].probs).dot(x) > d.dot(theta)
    lines = [f"allocation {_tokens(a.probs)}" for a in allocations]
    for anchor, query in ((f"theta {_tokens(theta)}", x), (f"reported {_tokens(x)}", theta)):
        text = "\n".join(["scenario e", "class truthful_in_expectation", anchor, *lines])
        document = run_scenario(parse_scenario(f"{text}\nquery {_tokens(query)}\n"))
        assert len(document.witnesses) == harmful
        if harmful:
            for oracle_set in (pair, allocations):
                rule = search_beneficial_misreport(theta, x, oracle_set)
                assert document.witnesses[0].fields == _separating(rule, theta, x)


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
    # Point-mass membership and printing build no halfspaces, and an explicit
    # expectation set answers by d.x <= d.theta with no Gram-Schmidt.
    monkeypatch.setattr(PointMassRegion, "halfspaces", property(_refuse))
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
    # The forward class prints its region from the ranked pairs alone.
    forward = run_scenario(
        parse_scenario("scenario f\nclass deterministic\ntheta 0 1 2\nquery 0 2 1\n")
    )
    assert [q.member for q in forward.queries] == [False]
    assert "region halfspaces=3 extras=1" in serialize_result(forward)


def test_plot_and_a_boxed_region_still_build_the_halfspaces(monkeypatch):
    # A plot slices the halfspaces, and a box is merged with them, so both
    # materialize the point-mass region.
    monkeypatch.setattr(PointMassRegion, "halfspaces", property(_refuse))
    forward = run_scenario(parse_scenario("scenario f\nclass deterministic\ntheta 0 1 2\n"))
    with pytest.raises(AssertionError, match="generic machinery"):
        render_regions(forward, (0, 1))
    boxed = parse_scenario("scenario b\nclass deterministic\ntheta 0 1 2\nspace_low 0 0 0\n")
    with pytest.raises(AssertionError, match="generic machinery"):
        run_scenario(boxed)


def test_forward_point_masses_are_checked_once_and_build_no_public_hyperplane(monkeypatch):
    # One point-mass check serves the region and every harmful query's
    # certificate, and the region's halfspaces skip the public constructor.
    calls = []
    check = harmless.point_mass_indices

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr("mechverify.harmless.point_mass_indices", counted)
    monkeypatch.setattr("mechverify.cli.point_mass_indices", counted)
    monkeypatch.setattr(Hyperplane, "__init__", _refuse)
    document = run_scenario(
        parse_scenario(
            "scenario f\nclass deterministic\ntheta 0 1 2 3\n"
            "query 0 2 2 3\nquery 1 1 2 3\nquery 0 1 4 3\nquery 0 1 2 4\n"
            "query 3 2 1 0\nquery 0 1/2 1 3/2\n"
        )
    )
    assert [q.member for q in document.queries] == [False] * 4 + [True] * 2
    assert len(document.witnesses) == 4
    assert len(document.region.halfspaces) == 6
    assert len(calls) == 1


def test_reverse_point_masses_are_checked_once_per_scenario(monkeypatch):
    # One check in the setup serves every candidate: the one pass decides
    # and certifies each from the same indices.
    calls = []
    check = harmless.point_mass_indices

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr("mechverify.harmless.point_mass_indices", counted)
    monkeypatch.setattr("mechverify.cli.point_mass_indices", counted)
    document = run_scenario(
        parse_scenario(
            "scenario r\nclass deterministic\nreported 0 1 2 3\n"
            "query 0 2 2 3\nquery 1 1 2 3\nquery 0 1 4 3\nquery 0 1 2 4\n"
            "query 1 0 2 3\nquery 0 1 2 3\n"
        )
    )
    assert [q.member for q in document.queries] == [True] * 5 + [False]
    assert len(document.witnesses) == 5
    assert len(calls) == 1


@pytest.mark.parametrize("anchor", ["theta", "reported"])
def test_allocation_lines_are_checked_once(anchor, monkeypatch):
    # The setup's one point-mass check of the listed allocations serves the
    # region and every query, in either mode.
    calls = []
    check = harmless.point_mass_indices

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr("mechverify.harmless.point_mass_indices", counted)
    monkeypatch.setattr("mechverify.cli.point_mass_indices", counted)
    document = run_scenario(
        parse_scenario(
            f"scenario a\nclass deterministic\n{anchor} 0 1 2\n"
            "allocation 0 0 1\nallocation 1 0 0\nquery 0 3 2\nquery 2 1 0\n"
        )
    )
    assert len(document.queries) == 2
    assert len(calls) == 1


# -- the verify grid ----------------------------------------------------------


def test_verify_dedupes_the_grid_on_integer_rows(monkeypatch):
    # (0, 2/4, 0) is (0, 1/2, 0) written again: the grid keeps the first, so
    # the violating true type (0, 1/2, 1) sits at grid position 2, not 3,
    # and no Fraction is hashed to find that out.
    scenario = parse_scenario(
        "scenario g\nclass deterministic\ntheta 0 0 2\n"
        "query 0 1/2 0\nquery 0 2/4 0\nquery 0 1/2 1\n"
        "option rule_prices 0 1/4 1\n"
    )
    hashed = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    document = run_verify(scenario)
    monkeypatch.undo()
    assert hashed == []
    assert ("truthful", "false") in document.summary
    assert ("grid_size", "3") in document.summary
    (witness,) = document.witnesses
    assert witness.query_index == 2
    assert witness.fields[:2] == (
        ("true_type", "v", vec(0, Fraction(1, 2), 1)),
        ("beneficial_report", "v", vec(0, 0, 2)),
    )


menu_values = st.sampled_from([Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)])


@given(st.data())
def test_integer_menu_choice_is_best_entrys(data):
    # Prices over mixed denominators, drawn free or as x_k minus a shared
    # utility, so that ties between entries are common: the first argmax on
    # integers is the entry best_entry picks.
    m = data.draw(st.integers(min_value=2, max_value=5))
    x = data.draw(vectors(m, menu_values))
    order = data.draw(st.permutations(range(m)))[: data.draw(st.integers(1, m))]
    tied = data.draw(menu_values)
    price = st.one_of(menu_values, st.just(None))
    prices = [data.draw(price) for _ in order]
    rule = TaxationRule(
        tuple((point_mass(k, m), x[k] - tied if p is None else p) for k, p in zip(order, prices))
    )
    scale, (row,) = _common_numerators(x.coords)
    allocation, _ = best_entry(rule, x)
    assert point_mass_choice(rule)(x, scale, row) == allocation.probs.coords.index(1)



# -- prepared true types and integer rows ------------------------------------


def sorted_pass(theta, x, indices):
    """The sort-based pass the prepared one replaced, kept as its oracle:
    theta's and x's values over one joint denominator, d = x - theta sorted
    by theta's level for every report, the running minimum of d where a
    level begins taken as the smallest d below it."""
    _, (levels, reports) = _common_numerators([theta[i] for i in indices], [x[i] for i in indices])
    shifts = [r - t for r, t in zip(reports, levels)]
    below, running = {}, None
    for level, d in sorted(zip(levels, shifts)):
        below.setdefault(level, running)
        running = d if running is None else min(running, d)
    for p, (level, d) in enumerate(zip(levels, shifts)):
        if below[level] is not None and d >= below[level]:
            o = next(o for o, (lo, do) in enumerate(zip(levels, shifts)) if lo < level and do <= d)
            return p, o, d == shifts[o]
    return None


@given(st.data())
def test_prepared_pair_matches_the_sorted_pass(data):
    # One theta on few tied levels over mixed denominators, prepared once,
    # against several reports: free ones, x = theta + c*1 (every pair on
    # its boundary) and near ones, over the point masses or a subset.
    m = data.draw(st.integers(min_value=2, max_value=9))
    tied = st.sampled_from([Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4)])
    theta = data.draw(vectors(m, st.one_of(tied, mixed)))
    order = data.draw(st.permutations(range(m)))
    indices = tuple(order[: data.draw(st.integers(min_value=2, max_value=m))])
    region = PointMassRegion(theta, indices)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        shape = data.draw(st.sampled_from(["free", "shift", "near"]))
        if shape == "free":
            x = data.draw(vectors(m, mixed))
        elif shape == "shift":
            x = theta + ones_vector(m).scale(data.draw(mixed))
        else:
            steps = st.sampled_from([Fraction(-1, 3), ZERO, Fraction(1, 2)])
            x = theta + data.draw(vectors(m, steps))
        expected = None if x == theta else sorted_pass(theta, x, indices)
        assert region._split(x) == expected
        assert region.contains(x) == (expected is None)


def allocations_over(m):
    """A point mass, or a lottery over mixed denominators (some zeros)."""
    weights = st.lists(st.sampled_from([0, 1, 2, 3, 5]), min_size=m, max_size=m)
    lottery = weights.filter(any).map(
        lambda w: Allocation(Vector(tuple(Fraction(v, sum(w)) for v in w)))
    )
    return st.one_of(st.integers(0, m - 1).map(lambda k: point_mass(k, m)), lottery)


@given(st.data())
def test_integer_rows_value_and_score_as_the_vectors_do(data):
    # value_to reads the allocation's integer row, and a rule scores x on
    # its merged terms: both equal the dense dot products, and those terms
    # are exactly a_i - a_j.
    m = data.draw(st.integers(min_value=2, max_value=8))
    a_i = data.draw(allocations_over(m))
    a_j = data.draw(allocations_over(m).filter(lambda a: a != a_i))
    theta, x = data.draw(vectors(m, mixed)), data.draw(vectors(m, mixed))
    for allocation in (a_i, a_j):
        assert allocation.value_to(theta) == allocation.probs.dot(theta)
        scale, terms = allocation.row
        numerators = dict(terms)
        assert all(numerators.values())
        assert Vector([Fraction(numerators.get(k, 0), scale) for k in range(m)]) == allocation.probs
    rule = SeparatingRule(a_i, a_j, data.draw(mixed))
    scale, terms = rule.difference
    numerators = dict(terms)
    assert Vector([Fraction(numerators.get(k, 0), scale) for k in range(m)]) == a_i.probs - a_j.probs
    score, price = (a_i.probs - a_j.probs).dot(x), rule.relative_price
    to_i = score > price or score == price and rule.tie_assignment is TieSide.TO_I
    assert allocate_separating(rule, x) is (rule.a_i if to_i else rule.a_j)


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=60))
def test_offset_token_prints_the_reduced_fraction(gap, scale):
    # Integer offsets (scale dividing gap) included.
    assert _offset_token(gap, scale) == str(Fraction(-gap, scale))
    assert _offset_token(scale * gap, scale) == str(-gap)


def test_forward_point_mass_run_hashes_no_rational(monkeypatch):
    # theta is the region's one extra point, printed from the region's
    # field: no frozenset is built, so no Fraction is hashed.
    scenario = parse_scenario((SCENARIO_DIR / "two_items.scn").read_text())
    text = "scenario h\nclass deterministic\ntheta 0 1/2 3/2 2\nquery 0 1 1 2\nquery 0 1/4 1 2\n"
    scenarios = [scenario, parse_scenario(text)]
    hashed = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    printed = [serialize_result(run_scenario(s)) for s in scenarios]
    monkeypatch.undo()
    assert hashed == []
    assert all("extras=1\n" in text for text in printed)
    assert "region_extra 0,1/2,3/2,2\n" in printed[1]


def test_point_mass_true_type_is_prepared_once(monkeypatch):
    # Forward: one region for the anchor, printed and certifying every
    # query; reverse: one region per candidate true type.
    calls = []
    build = PointMassRegion.__init__

    def counted(self, theta, indices):
        calls.append(theta)
        build(self, theta, indices)

    monkeypatch.setattr(PointMassRegion, "__init__", counted)
    queries = "".join(f"query 0 {k} 2 3\n" for k in range(6))
    run_scenario(parse_scenario("scenario f\nclass deterministic\ntheta 0 1 2 3\n" + queries))
    assert len(calls) == 1
    calls.clear()
    run_scenario(parse_scenario("scenario r\nclass deterministic\nreported 0 1 2 3\n" + queries))
    assert len(calls) == 6


def test_library_membership_builds_no_pairs(monkeypatch):
    # Every library membership over point masses is the region's O(m)
    # pass: none builds the m(m-1)/2 ranked pairs.
    monkeypatch.setattr(PointMassRegion, "pairs", property(_refuse))
    theta, harmful, harmless_report = vec(0, 1, 2), vec(0, 2, 1), vec(0, "1/2", 1)
    member = deterministic_harmless(theta, point_masses(3)).contains
    assert (member(harmful), member(harmless_report)) == (False, True)
    assert not vcg_harmless_contains(theta, harmful)
    assert kminded_harmless_contains(2, theta, harmless_report)
    assert harmful_union_contains(harmful, point_masses(3), theta)
    assert not harmful_union_contains(harmless_report, point_masses(3), theta)
