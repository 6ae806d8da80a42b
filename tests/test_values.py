"""Value semantics of the exported types.

Each type is a plain slotted class on ``geometry.Frozen``.  Equal inputs
give equal, equally hashed values; no attribute can be assigned after
construction; the keyword names and defaults are the documented ones;
and copies and pickles compare equal to the original.  A rule's overrides
are a tuple of (point, target) pairs, so a rule hashes like any other value.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from mechverify import (
    Allocation,
    AssignmentSet,
    ConvexRegion,
    FacilityLine,
    Halfspace,
    HarmlessResult,
    Hyperplane,
    MechanismError,
    PriceFamily,
    PriceWitness,
    QueryResult,
    ResultDocument,
    Scenario,
    Sense,
    SeparatingRule,
    Span,
    TaxationRule,
    TieSide,
    TieWitness,
    UnitDemandProfile,
    Vector,
    WitnessRecord,
    deterministic_harmless,
    point_mass,
    point_masses,
    vec,
)
from mechverify.harmless import PointMassRegion


def always(x):
    return True


def a0():
    return point_mass(0, 2)


def a1():
    return point_mass(1, 2)


def rule(**overrides):
    return SeparatingRule(a_i=a1(), a_j=a0(), relative_price=0, **overrides)


# (type, keyword arguments, the fields they give, defaults included).
CASES = [
    (Vector, dict(coords=(1, "1/2")), dict(coords=(Fraction(1), Fraction(1, 2)))),
    (
        Hyperplane,
        dict(normal=vec(1, 0), offset="1/2"),
        dict(normal=vec(1, 0), offset=Fraction(1, 2)),
    ),
    (
        Halfspace,
        dict(hyperplane=Hyperplane(vec(1, 0), 0)),
        dict(hyperplane=Hyperplane(vec(1, 0), 0), sense=Sense.STRICT_GREATER),
    ),
    (ConvexRegion, dict(), dict(halfspaces=(), extra_points=frozenset())),
    (Span, dict(basis=[vec(1, 0)]), dict(basis=(vec(1, 0),))),
    (AssignmentSet, dict(labels=["a", "b"]), dict(labels=("a", "b"), null_index=None)),
    (Allocation, dict(probs=vec(0, 1)), dict(probs=vec(0, 1))),
    (
        SeparatingRule,
        dict(a_i=a1(), a_j=a0(), relative_price="1/2"),
        dict(
            a_i=a1(),
            a_j=a0(),
            relative_price=Fraction(1, 2),
            tie_assignment=TieSide.TO_I,
            overrides=(),
        ),
    ),
    (TaxationRule, dict(entries=[(a0(), 0)]), dict(entries=((a0(), Fraction(0)),))),
    (
        HarmlessResult,
        dict(membership=always, region=ConvexRegion()),
        dict(membership=always, region=ConvexRegion()),
    ),
    (
        TieWitness,
        dict(low=a0(), high=a1(), rule=rule(), gained_value=1, truthful_value=0),
        dict(low=a0(), high=a1(), rule=rule(), gained_value=1, truthful_value=0),
    ),
    (UnitDemandProfile, dict(others=[(1, "1/2")]), dict(others=((Fraction(1), Fraction(1, 2)),))),
    (
        PriceFamily,
        dict(bounds=((0, None), ("1/2", 2))),
        dict(bounds=((Fraction(0), None), (Fraction(1, 2), Fraction(2)))),
    ),
    (
        PriceWitness,
        dict(prices=(0, 1), report_entry=1, truthful_entry=0, gained_value=1, truthful_value=0),
        dict(prices=(0, 1), report_entry=1, truthful_entry=0, gained_value=1, truthful_value=0),
    ),
    (
        FacilityLine,
        dict(locations=(0, 2), benefit=1),
        dict(locations=(Fraction(0), Fraction(2)), benefit=Fraction(1)),
    ),
    (
        Scenario,
        dict(name="s", mechanism_class="deterministic"),
        dict(
            name="s",
            mechanism_class="deterministic",
            theta=None,
            reported=None,
            queries=(),
            assignments=None,
            allocations=(),
            space_low=None,
            space_high=None,
            options=(),
        ),
    ),
    (
        WitnessRecord,
        dict(query_index=0, kind="threshold", fields=(("threshold", "r", Fraction(1)),)),
        dict(query_index=0, kind="threshold", fields=(("threshold", "r", Fraction(1)),)),
    ),
    (QueryResult, dict(query=vec(1), member=True), dict(query=vec(1), member=True)),
    (
        PointMassRegion,
        dict(theta=vec(0, "1/2", 1), indices=[2, 0]),
        dict(theta=vec(0, "1/2", 1), indices=(2, 0)),
    ),
    (
        ResultDocument,
        dict(scenario_name="s", mechanism_class="vcg", mode="forward", operation="o", anchor=vec(1)),
        dict(
            scenario_name="s",
            mechanism_class="vcg",
            mode="forward",
            operation="o",
            anchor=vec(1),
            region=None,
            queries=(),
            witnesses=(),
            summary=(),
            provenance=(),
        ),
    ),
]


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, kwargs, fields):
    first, second = cls(**kwargs), cls(**kwargs)
    assert first == second and not first != second
    assert first is not second
    for name, value in fields.items():
        assert getattr(first, name) == value
    assert first != object()
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(first, name, None)
    with pytest.raises(AttributeError):
        first.unknown_field = 1
    assert repr(first).startswith(f"{cls.__name__}(")
    assert copy.deepcopy(first) == first
    assert pickle.loads(pickle.dumps(first)) == first


def test_fields_take_part_in_equality():
    assert vec(1, 2) != vec(2, 1)
    assert Halfspace(Hyperplane(vec(1, 0), 0)) != Halfspace(
        Hyperplane(vec(1, 0), 0), Sense.GREATER_EQUAL
    )
    assert rule() != rule(tie_assignment=TieSide.TO_J)
    assert rule(overrides={vec(0, 0): a0()}) == rule(overrides={vec(0, 0): a0()})
    # A mapping of overrides is read as its (point, target) pairs.
    assert rule(overrides={vec(0, 0): a0()}).overrides == ((vec(0, 0), a0()),)
    # Vectors and allocations key a dict by value.
    overrides = {vec(0, 0): a0()}
    assert overrides[Vector((0, 0))] == Allocation(vec(1, 0))


def test_separating_rule_normal_is_derived_not_a_field():
    # The normal a_i - a_j is held as the rule's merged integer terms
    # (scale, ((k, n), ...)) outside the fields; equality, hashing, repr
    # and copies run over the five declared fields alone.
    built = rule(overrides={vec(0, 0): a0()})
    assert built.difference == (1, ((1, 1), (0, -1)))  # (-1, 1)
    assert "difference" not in repr(built)
    assert repr(built).endswith(f"overrides={built.overrides!r})")
    assert pickle.loads(pickle.dumps(built)).difference == built.difference
    assert copy.copy(built) == built and hash(copy.copy(built)) == hash(built)
    with pytest.raises(AttributeError):
        built.difference = (1, ((0, 1), (1, -1)))


def test_allocation_row_is_derived_not_a_field():
    # The integer row is kept from the range-and-sum check; equality,
    # hashing, repr and copies run over probs alone.
    built = Allocation(vec("1/3", 0, "2/3"))
    assert built.row == (3, ((0, 1), (2, 2)))
    assert point_mass(1, 3).row == (1, ((1, 1),))
    assert "row" not in repr(built)
    assert repr(built) == f"Allocation(probs={built.probs!r})"
    assert pickle.loads(pickle.dumps(built)).row == built.row
    assert copy.copy(built) == built and hash(copy.copy(built)) == hash(built)
    assert built == Allocation(vec("2/6", 0, "4/6")) and hash(built) == hash((built.probs,))
    with pytest.raises(AttributeError):
        built.row = (1, ())


def test_point_mass_region_prepares_outside_its_fields():
    # theta's levels are ordered once into slots outside the fields;
    # equality, hashing, repr and copies run over (theta, indices) alone,
    # and a copy is prepared again by the constructor.
    built = PointMassRegion(vec(0, "1/2", "3/2"), (0, 1, 2))
    assert (built.scale, list(built.levels)) == (2, [0, 1, 3])
    assert built.pairs == ((0, 1, 1), (0, 2, 3), (1, 2, 2))
    assert repr(built) == f"PointMassRegion(theta={built.theta!r}, indices=(0, 1, 2))"
    assert hash(built) == hash((built.theta, built.indices))
    assert built != PointMassRegion(built.theta, (1, 0, 2))
    for copied in (copy.copy(built), pickle.loads(pickle.dumps(built))):
        assert copied == built and copied.levels == built.levels
        assert copied.rule(vec(0, 1, 1)) == built.rule(vec(0, 1, 1))
    with pytest.raises(AttributeError):
        built.levels = (0, 1, 3)


def test_vector_still_coerces_and_rejects_empty():
    assert Vector(["1/2", 3]).coords == (Fraction(1, 2), Fraction(3))
    for build in (lambda: Vector(()), lambda: vec()):
        with pytest.raises(ValueError, match="at least one coordinate"):
            build()


def test_point_masses_are_cached():
    assert point_masses(5) is point_masses(5)
    assert point_masses(5) == tuple(point_mass(i, 5) for i in range(5))


def error_messages():
    """Messages of library errors that name a value type."""
    calls = [
        lambda: rule(overrides={vec(1, "1/2"): a0()}),
        lambda: deterministic_harmless(vec(0, 1), [Allocation(vec("1/2", "1/2")), a0()]),
        lambda: deterministic_harmless(vec(0, 1), [Allocation(vec("1/2", "1/2"))])
        .region.rule(vec(1, 0)),
    ]
    for call in calls:
        with pytest.raises(MechanismError) as info:
            call()
        yield str(info.value)


def test_error_messages_name_values_not_addresses():
    messages = list(error_messages())
    for fragment in ("object at 0x", "Fraction(", "Vector("):
        assert all(fragment not in message for message in messages), messages
    assert "override point (1, 1/2) is off the boundary" in messages
    assert messages[1].endswith("point-mass allocations; got (1/2, 1/2)")
    assert messages[2].endswith("point-mass allocations; got (1/2, 1/2)")
