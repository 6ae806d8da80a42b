"""Search oracles and witness constructions for non-harmless reports.

Every witness returned by an oracle must survive direct re-evaluation: the
rule it names, applied to the truthful and the misreported type, must hand
the truthful type strictly more value under the misreport.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from mechverify.geometry import vec
from mechverify.harmless import (
    SimplexFamily,
    deterministic_harmless,
    tie_harmless_contains,
)
from mechverify.mechanisms import MechanismError, allocate_separating, point_masses
from mechverify.multiagent import PriceFamily
from mechverify.oracle import (
    construct_tie_witness,
    grid_harmless,
    rule_benefit,
    search_beneficial_misreport,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(lambda cs: vec(*cs))


def assert_tie_witness_valid(witness, theta, x):
    gained, truthful = rule_benefit(witness.rule, theta, x)
    assert gained == witness.gained_value
    assert truthful == witness.truthful_value
    assert gained > truthful
    assert allocate_separating(witness.rule, x) == witness.high
    assert allocate_separating(witness.rule, theta) == witness.low


@given(vectors(2), vectors(2))
def test_search_agrees_with_deterministic_membership_dim2(theta, x):
    rule = search_beneficial_misreport(theta, x, point_masses(2))
    member = deterministic_harmless(theta, point_masses(2)).contains(x)
    assert (rule is None) == member


@given(vectors(3), vectors(3))
def test_search_agrees_with_deterministic_membership_dim3(theta, x):
    rule = search_beneficial_misreport(theta, x, point_masses(3))
    member = deterministic_harmless(theta, point_masses(3)).contains(x)
    assert (rule is None) == member


@given(vectors(3), vectors(3))
def test_search_witness_yields_strict_benefit(theta, x):
    allocations = point_masses(3)
    rule = search_beneficial_misreport(theta, x, allocations)
    assume(rule is not None)
    gained, truthful = rule_benefit(rule, theta, x)
    assert gained > truthful
    assert rule.a_i in allocations
    assert rule.a_j in allocations


def test_search_guards():
    theta = vec(1, 3)
    assert search_beneficial_misreport(theta, theta, point_masses(2)) is None
    with pytest.raises(MechanismError):
        search_beneficial_misreport(theta, vec(0, 1), point_masses(2)[:1])
    with pytest.raises(MechanismError):
        search_beneficial_misreport(theta, vec(0, 1, 2), point_masses(2))


def test_search_finds_boundary_overreport():
    # Equal value gap, different report: the critical rule with the boundary
    # tie broken against truth is the witness.
    theta = vec(1, 3)
    x = vec(0, 2)
    rule = search_beneficial_misreport(theta, x, point_masses(2))
    assert rule is not None
    gained, truthful = rule_benefit(rule, theta, x)
    assert gained == 3
    assert truthful == 1


@given(vectors(3), vectors(3))
def test_tie_witness_none_iff_member_full_simplex(theta, x):
    witness = construct_tie_witness(theta, x, SimplexFamily.FULL_SIMPLEX)
    member = tie_harmless_contains(theta, x, SimplexFamily.FULL_SIMPLEX)
    assert (witness is None) == member
    if witness is not None:
        assert_tie_witness_valid(witness, theta, x)


def test_tie_witness_pure_upscale():
    theta = vec(1, 2, 4)
    witness = construct_tie_witness(
        theta, theta.scale(Fraction(3, 2)), SimplexFamily.FULL_SIMPLEX
    )
    assert witness is not None
    assert_tie_witness_valid(witness, theta, theta.scale(Fraction(3, 2)))


def test_tie_witness_residual_direction():
    # (1,2,5) leaves the ray through theta, so the witness must tilt toward
    # theta's projection rather than merely thresholding the scale.
    theta = vec(1, 2, 4)
    x = vec(1, 2, 5)
    witness = construct_tie_witness(theta, x, SimplexFamily.FULL_SIMPLEX)
    assert witness is not None
    assert_tie_witness_valid(witness, theta, x)


def test_tie_witness_subsimplex_paths():
    theta = vec(0, 1, 2)
    upscaled = theta.scale(2)
    witness = construct_tie_witness(theta, upscaled, SimplexFamily.SUBSIMPLEX_WITH_NULL)
    assert witness is not None
    assert_tie_witness_valid(witness, theta, upscaled)

    sideways = vec(0, 2, 1)
    witness = construct_tie_witness(theta, sideways, SimplexFamily.SUBSIMPLEX_WITH_NULL)
    assert witness is not None
    assert_tie_witness_valid(witness, theta, sideways)

    assert construct_tie_witness(theta, theta.scale(Fraction(1, 2)),
                                 SimplexFamily.SUBSIMPLEX_WITH_NULL) is None


def test_tie_witness_indifferent_type_has_none():
    # A type valuing every outcome equally cannot be hurt or helped.
    theta = vec(2, 2, 2)
    for x in (vec(0, 1, 5), vec(-1, 0, 0), theta):
        assert construct_tie_witness(theta, x, SimplexFamily.FULL_SIMPLEX) is None


def reference_tie_witness(theta, x, space):
    """The witness construction in Fractions, with epsilon halved from 1
    until the strict inequalities hold: (low, high, relative_price, tie,
    gained, truthful) or None, and the branch taken."""
    t, v, m = list(theta), list(x), theta.dim

    def dot(u, w):
        return sum([a * b for a, b in zip(u, w)], Fraction(0))

    if space is SimplexFamily.FULL_SIMPLEX:
        if len(set(t)) < 2:
            return None, "zero span"
        pt = [c - sum(t) / m for c in t]
        pv = [c - sum(v) / m for c in v]
    else:
        if not any(t):
            return None, "zero span"
        pt, pv = t, v
    along = dot(pv, pt) / dot(pt, pt)
    residual = [a - along * b for a, b in zip(pv, pt)]
    if not any(residual) and along <= 1:
        return None, "harmless"
    if space is SimplexFamily.SUBSIMPLEX_WITH_NULL and (t[0] != 0 or v[0] != 0):
        raise MechanismError("subsimplex types put value 0 on the null coordinate (index 0)")
    if not any(residual):
        direction, branch = pt, "upscaling"
    else:
        epsilon, branch = Fraction(1), "epsilon 1" if along < 1 else "epsilon 1, along >= 1"
        while True:
            direction = [r + epsilon * p for r, p in zip(residual, pt)]
            if dot(direction, pv) > dot(direction, pt) > 0:
                break
            epsilon, branch = epsilon / 2, "halved"
    if space is SimplexFamily.FULL_SIMPLEX:
        beta = Fraction(1, m) / max(abs(d) for d in direction)
        low = [Fraction(1, m) - beta * d / 2 for d in direction]
        high = [Fraction(1, m) + beta * d / 2 for d in direction]
    else:
        beta = Fraction(1, 2 * (m - 1)) / max(abs(d) for d in direction[1:])
        low = [beta * -d if d < 0 else Fraction(0) for d in direction[1:]]
        high = [beta * d if d > 0 else Fraction(0) for d in direction[1:]]
        low, high = [1 - sum(low), *low], [1 - sum(high), *high]
    price = dot([h - lo for h, lo in zip(high, low)], t)
    return (tuple(low), tuple(high), price, "to_j", dot(high, t), dot(low, t)), branch


def witness_fields(witness):
    if witness is None:
        return None
    return (
        witness.low.probs.coords,
        witness.high.probs.coords,
        witness.rule.relative_price,
        witness.rule.tie_assignment.value,
        witness.gained_value,
        witness.truthful_value,
    )


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def fractions_from(*values):
    return st.sampled_from([Fraction(v) for v in values])


# The factor along theta's projection and the weight of a direction
# orthogonal to it that steer each case into one branch of the construction.
BRANCH_STEERING = {
    "zero span": (fractions_from(0, 1, 2), fractions_from(0, 1)),
    "harmless": (fractions_from(-2, "-1/2", 0, "1/3", "3/4", 1), fractions_from(0)),
    "upscaling": (fractions_from("5/4", "3/2", 2, 3), fractions_from(0)),
    "epsilon 1, along >= 1": (fractions_from(1, "5/4", 2), fractions_from(-2, "-1/3", "1/2", 3)),
    "epsilon 1": (fractions_from(-1, 0, "1/2", "3/4"), fractions_from(-8, -3, 3, 8)),
    "halved": (fractions_from(0, "1/4", "1/2"), fractions_from("-1/8", "1/32", "-1/128")),
}


@st.composite
def tie_cases(draw, space, branch):
    """theta over 2 to 5 coordinates and x = lam * theta + mu * w + c * 1,
    with w orthogonal to theta's projection, the shift c only over the full
    simplex and coordinate 0 held at 0 over the subsimplex."""
    m = draw(st.integers(min_value=2, max_value=5))
    null = space is SimplexFamily.SUBSIMPLEX_WITH_NULL

    def projected():
        coords = draw(st.lists(coefficients, min_size=m, max_size=m))
        if null:
            return [Fraction(0), *coords[1:]]
        return [c - sum(coords) / m for c in coords]

    theta, w = projected(), projected()
    if branch == "zero span":
        theta = [Fraction(0)] * m
    norm_sq = sum([t * t for t in theta])
    if norm_sq:
        along = sum([t * u for t, u in zip(theta, w)]) / norm_sq
        w = [u - along * t for t, u in zip(theta, w)]
    lam_strategy, mu_strategy = BRANCH_STEERING[branch]
    lam, mu = draw(lam_strategy), draw(mu_strategy)
    shift = Fraction(0) if null else draw(coefficients)
    theta = [t + shift for t in theta] if not null else theta
    x = [lam * t + mu * u + shift for t, u in zip(theta, w)]
    return vec(*theta), vec(*x)


@pytest.mark.parametrize("branch", sorted(BRANCH_STEERING))
@pytest.mark.parametrize("space", [SimplexFamily.FULL_SIMPLEX, SimplexFamily.SUBSIMPLEX_WITH_NULL])
@given(data=st.data())
def test_tie_witness_matches_the_fraction_reference(space, branch, data):
    theta, x = data.draw(tie_cases(space, branch))
    expected, taken = reference_tie_witness(theta, x, space)
    assume(taken == branch)
    assert witness_fields(construct_tie_witness(theta, x, space)) == expected


@given(vectors(3), vectors(3))
@example(vec(1, 2, 4), vec(0, 2, 4))  # harmful, nonzero null values
@example(vec(1, 2, 4), vec(1, 2, 3))
@example(vec(1, 2, 4), vec(Fraction(1, 2), 1, 2))  # harmless: None, no refusal
@example(vec(0, 2, 4), vec(1, 3, 5))  # x alone off the null value
def test_tie_witness_subsimplex_refuses_after_membership(theta, x):
    space = SimplexFamily.SUBSIMPLEX_WITH_NULL
    try:
        expected, _ = reference_tie_witness(theta, x, space)
    except MechanismError:
        with pytest.raises(MechanismError, match="null coordinate"):
            construct_tie_witness(theta, x, space)
        return
    assert witness_fields(construct_tie_witness(theta, x, space)) == expected


def test_tie_witness_refuses_other_families_and_dimensions():
    theta = vec(1, 2, 4)
    with pytest.raises(MechanismError, match="simplex family"):
        construct_tie_witness(theta, theta, point_masses(3))
    with pytest.raises(MechanismError, match="type dims"):
        construct_tie_witness(theta, vec(1, 2), SimplexFamily.FULL_SIMPLEX)


@given(vectors(2), vectors(2))
def test_grid_matches_deterministic_for_point_masses(theta, x):
    # The grid always includes each pair's exact critical rule, so for a
    # finite allocation set the scan is complete, not just sound.
    assert grid_harmless(theta, x, point_masses(2)) == deterministic_harmless(
        theta, point_masses(2)
    ).contains(x)


@given(vectors(3), vectors(3))
def test_grid_refinement_never_flips_false_to_true(theta, x):
    coarse = grid_harmless(theta, x, point_masses(3), Fraction(1, 4))
    fine = grid_harmless(theta, x, point_masses(3), Fraction(1, 8))
    if not coarse:
        assert not fine


def test_grid_rejects_bad_resolution():
    with pytest.raises(MechanismError):
        grid_harmless(vec(1, 2), vec(0, 1), point_masses(2), Fraction(0))


def test_grid_handles_price_family():
    family = PriceFamily(((Fraction(0), Fraction(2)), (Fraction(0), Fraction(2))))
    theta = vec(0, 1, 2)
    # Strictly understating every value gap is safe; matching a gap exactly
    # is not, because a menu priced at the gap can break the tie against
    # truth.
    assert grid_harmless(theta, vec(0, Fraction(1, 2), 1), family, Fraction(1, 8))
    assert not grid_harmless(theta, vec(0, 1, 1), family, Fraction(1, 8))
    assert not grid_harmless(theta, vec(0, 1, 3), family, Fraction(1, 8))
