"""Scenario files, result documents, rendering, and the executable module."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mechverify
from mechverify import cli, mechanisms, multiagent, scenarios
from mechverify.cli import (
    MECHANISM_CLASSES,
    Scenario,
    ScenarioError,
    load_scenario,
    main,
    parse_scenario,
    render_regions,
    run_scenario,
    run_verify,
    serialize_result,
    serialize_witnesses,
    slice_region_vertices,
)
from mechverify.geometry import (
    ConvexRegion,
    Halfspace,
    Hyperplane,
    Sense,
    Vector,
    empty_region,
    region_contains,
    vec,
)
from mechverify.harmless import deterministic_harmless
from mechverify.mechanisms import (
    MechanismError,
    TaxationRule,
    TieSide,
    is_truthful_with_verification,
    point_mass,
    point_masses,
)
from mechverify.multiagent import vcg_harmless_contains
from mechverify.oracle import search_beneficial_misreport
from mechverify.scenarios import kminded_harmless_contains

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

DETERMINISTIC_EXAMPLE = """\
scenario bundle_pair
class deterministic
assignments null bundle1 bundle2
null_assignment null
theta 0 1/2 3/2
query 0 1/4 1
query 0 1/10 7/5
"""

TIE_EXAMPLE = """\
scenario ratio_menu
class truthful_in_expectation
theta 1 2 4
query 7/2 4 5
query 3/2 3 6
"""

SECOND_PRICE_EXAMPLE = """\
scenario sealed_bid
class second_price
reported 1
option threshold 1/2
option allocation_dependent true
query 3/10
query 7/10
"""

FACILITY_EXAMPLE = """\
scenario two_facilities
class facility_line
theta 1/2
option facilities 0 2
option benefit 4
option verification no_underbid_distance direction_imposing
query 1
query 1/4
"""


def witness_field(witness, name):
    for field_name, code, value in witness.fields:
        if field_name == name:
            return code, value
    raise AssertionError(f"field {name} missing from {witness}")


def test_parse_scenario_fields():
    scenario = parse_scenario(DETERMINISTIC_EXAMPLE)
    assert scenario.name == "bundle_pair"
    assert scenario.mechanism_class == "deterministic"
    assert scenario.mode == "forward"
    assert scenario.theta == vec(0, Fraction(1, 2), Fraction(3, 2))
    assert scenario.assignments is not None
    assert scenario.assignments.labels == ("null", "bundle1", "bundle2")
    assert scenario.assignments.null_index == 0
    assert len(scenario.queries) == 2


def test_parse_comments_and_blank_lines():
    scenario = parse_scenario(
        "# a comment\n\nscenario s\nclass deterministic\ntheta 1 2\n\n# end\n"
    )
    assert scenario.name == "s"
    assert scenario.queries == ()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("scenario s\nclass deterministic\nfrobnicate 1\ntheta 1 2\n")
    assert err.value.line == 3

    with pytest.raises(ScenarioError) as err:
        parse_scenario("scenario s\nclass deterministic\ntheta 1 2\ntheta 2 1\n")
    assert err.value.line == 4

    with pytest.raises(ScenarioError) as err:
        parse_scenario("scenario s\nclass deterministic\ntheta 1 x\n")
    assert err.value.line == 3


# One line for each directive a scenario may give at most once.
ONCE_ONLY = {
    "scenario": "scenario s",
    "class": "class deterministic",
    "assignments": "assignments a b",
    "null_assignment": "null_assignment a",
    "theta": "theta 0 1",
    "reported": "reported 0 1",
    "space_low": "space_low -1 -1",
    "space_high": "space_high 2 2",
}


@pytest.mark.parametrize("key", ONCE_ONLY)
def test_parse_rejects_a_repeated_once_only_directive(key):
    lines = [line for k, line in ONCE_ONLY.items() if k not in (key, "reported")]
    lines += [ONCE_ONLY[key], "query 0 1", ONCE_ONLY[key]]
    with pytest.raises(ScenarioError) as err:
        parse_scenario("\n".join(lines) + "\n")
    assert err.value.line == len(lines)
    assert str(err.value) == f"line {len(lines)}: duplicate {key} line"


def test_parse_requires_exactly_one_anchor():
    with pytest.raises(ScenarioError):
        parse_scenario("scenario s\nclass deterministic\n")
    with pytest.raises(ScenarioError):
        parse_scenario("scenario s\nclass deterministic\ntheta 1 2\nreported 2 1\n")


def test_parse_rejects_unknown_class():
    with pytest.raises(ScenarioError):
        parse_scenario("scenario s\nclass quantum\ntheta 1 2\n")


@pytest.mark.parametrize(
    "cls, text, key",
    [
        ("facility_line", FACILITY_EXAMPLE + "option probe_step 1/100\n", "probe_step"),
        ("facility_line", FACILITY_EXAMPLE + "option span_multiplier 3\n", "span_multiplier"),
        ("facility_line", FACILITY_EXAMPLE + "option extra_probe -100\n", "extra_probe"),
        (
            "facility_line",
            FACILITY_EXAMPLE + "option exempt_when_preferred true\n",
            "exempt_when_preferred",
        ),
        (
            "second_price",
            SECOND_PRICE_EXAMPLE.replace("option threshold", "option treshold"),
            "treshold",
        ),
        (
            "truthful_in_expectation",
            TIE_EXAMPLE + "option tie_space subsimplex_with_null\n",
            "tie_space",
        ),
    ],
)
def test_parse_rejects_options_the_class_does_not_read(cls, text, key):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value).endswith(f"unknown option {key!r} for class {cls}")


def test_parse_validates_dimensions():
    with pytest.raises(ScenarioError):
        parse_scenario(
            "scenario s\nclass deterministic\nassignments a b\ntheta 1 2 3\n"
        )
    with pytest.raises(ScenarioError):
        parse_scenario("scenario s\nclass deterministic\ntheta 1 2\nquery 1 2 3\n")
    with pytest.raises(ScenarioError):
        parse_scenario(
            "scenario s\nclass deterministic\ntheta 1 2\n"
            "space_low 0 0\nspace_high 1 1\nquery 2 0\n"
        )
    with pytest.raises(ScenarioError):
        parse_scenario(
            "scenario s\nclass deterministic\ntheta 5 5\nspace_high 1 1\n"
        )


# A line over a budget is refused before its values are read: its tokens are
# malformed, so reading any of them would fail with "bad rational" instead.
@pytest.mark.parametrize(
    "key", ["theta", "reported", "space_low", "space_high", "query", "allocation", "assignments"]
)
def test_dimension_budget_refuses_one_value_more(key, tmp_path, capsys):
    text = f"scenario s\nclass deterministic\n{key} {' '.join(['x'] * (cli.MAX_DIMENSION + 1))}\n"
    with pytest.raises(ScenarioError, match="dimension budget is 64") as err:
        parse_scenario(text)
    assert err.value.line == 3
    (tmp_path / "big.scn").write_text(text)
    assert main(["harmless", "--scenario", str(tmp_path / "big.scn")]) == 1
    assert "dimension budget" in capsys.readouterr().err


def test_query_budget_refuses_one_query_more(tmp_path, capsys):
    lines = ["scenario s", "class second_price", "reported 1", "option threshold 1/2"]
    lines += ["query 1/4"] * cli.MAX_QUERIES + ["query x"]
    text = "\n".join(lines) + "\n"
    with pytest.raises(ScenarioError, match="more than 128 query lines") as err:
        parse_scenario(text)
    assert err.value.line == len(lines)
    (tmp_path / "many.scn").write_text(text)
    assert main(["harmful", "--scenario", str(tmp_path / "many.scn")]) == 1
    assert "more than 128 query lines" in capsys.readouterr().err


def test_budgets_admit_their_own_size():
    # The query budget, on a one-coordinate class.
    lines = ["scenario s", "class second_price", "reported 1", "option threshold 1/2"]
    text = "\n".join(lines + ["query 1/4"] * cli.MAX_QUERIES) + "\n"
    document = run_scenario(parse_scenario(text))
    assert len(document.queries) == cli.MAX_QUERIES
    assert all(q.member for q in document.queries)
    # The dimension budget, on a class with no region: every query is theta
    # itself, so each is harmless after one O(m) projection.
    theta = " ".join(str(i) for i in range(cli.MAX_DIMENSION))
    text = f"scenario s\nclass truthful_in_expectation\ntheta {theta}\nquery {theta}\n"
    document = run_scenario(parse_scenario(text))
    assert document.anchor.dim == cli.MAX_DIMENSION
    assert [q.member for q in document.queries] == [True]


# The repeat budget, for allocation lines and for a repeatable option: the
# line one over it is refused before its tokens are read.
REPEATED_LINES = {
    "allocation": ("deterministic", "theta " + " ".join(["0"] * 64), "allocation", None),
    "others": ("vcg", "theta 0 2 1", "option others", "1 0"),
    "verification": (
        "facility_line", "theta 1/2\noption facilities 0 2", "option verification",
        "no_underbid_distance",
    ),
}


def _repeated(cls, head, directive, value, count):
    lines = ["scenario s", f"class {cls}", *head.splitlines()]
    for index in range(count):
        # Allocation lines run through the 64 point masses.
        tokens = value or " ".join("1" if i == index else "0" for i in range(64))
        lines.append(f"{directive} {tokens}")
    return lines


@pytest.mark.parametrize("case", REPEATED_LINES.values(), ids=REPEATED_LINES)
def test_repeat_budget_refuses_one_line_more(case, tmp_path, capsys):
    cls, head, directive, value = case
    lines = _repeated(cls, head, directive, value, cli.MAX_REPEATS) + [f"{directive} x"]
    text = "\n".join(lines) + "\n"
    message = f"more than {cli.MAX_REPEATS} {directive} lines (the budget)"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert (err.value.line, str(err.value)) == (len(lines), f"line {len(lines)}: {message}")
    (tmp_path / "many.scn").write_text(text)
    assert main(["harmless", "--scenario", str(tmp_path / "many.scn")]) == 1
    assert capsys.readouterr().err == f"error: line {len(lines)}: {message}\n"


@pytest.mark.parametrize("case", REPEATED_LINES.values(), ids=REPEATED_LINES)
def test_repeat_budget_admits_its_own_size(case):
    cls, head, directive, value = case
    lines = _repeated(cls, head, directive, value, cli.MAX_REPEATS)
    scenario = parse_scenario("\n".join(lines + [lines[2].replace("theta", "query")]) + "\n")
    document = run_scenario(scenario)
    assert [q.member for q in document.queries] == [True]
    if directive == "allocation":
        assert len(scenario.allocations) == cli.MAX_REPEATS
    else:
        assert len(dict(scenario.options)[directive.split()[1]]) == cli.MAX_REPEATS


def test_run_deterministic_worked_example():
    document = run_scenario(parse_scenario(DETERMINISTIC_EXAMPLE))
    assert document.operation == "deterministic_harmless"
    assert [qr.member for qr in document.queries] == [True, False]
    assert len(document.witnesses) == 1
    witness = document.witnesses[0]
    assert witness.query_index == 1
    assert witness.kind == "separating"
    assert witness_field(witness, "gained")[1] == Fraction(3, 2)
    assert witness_field(witness, "truthful")[1] == Fraction(1, 2)

    region = document.region
    assert region is not None
    described = {
        (hs.hyperplane.normal.coords, hs.hyperplane.offset, hs.sense)
        for hs in region.halfspaces
    }
    gap = Fraction(1)
    assert described == {
        ((Fraction(1), Fraction(-1), Fraction(0)), Fraction(-1, 2), Sense.STRICT_GREATER),
        ((Fraction(1), Fraction(0), Fraction(-1)), Fraction(-3, 2), Sense.STRICT_GREATER),
        ((Fraction(0), Fraction(1), Fraction(-1)), -gap, Sense.STRICT_GREATER),
    }
    assert region.extra_points == frozenset({vec(0, Fraction(1, 2), Fraction(3, 2))})


def test_run_universally_truthful_matches_deterministic():
    text = DETERMINISTIC_EXAMPLE.replace("class deterministic", "class universally_truthful")
    document = run_scenario(parse_scenario(text))
    assert document.operation == "universally_truthful_harmless"
    assert [qr.member for qr in document.queries] == [True, False]


def test_run_tie_full_simplex():
    document = run_scenario(parse_scenario(TIE_EXAMPLE))
    assert document.operation == "tie_harmless_contains"
    assert [qr.member for qr in document.queries] == [True, False]
    assert len(document.witnesses) == 1
    witness = document.witnesses[0]
    assert witness.kind == "randomized_pair"
    assert witness_field(witness, "gained")[1] == Fraction(14, 5)
    assert witness_field(witness, "truthful")[1] == Fraction(28, 15)
    assert document.region is None


def test_run_tie_subsimplex():
    text = """\
scenario null_menu
class truthful_in_expectation
assignments null item1 item2
null_assignment null
theta 0 1 2
query 0 1/2 1
query 0 2 4
"""
    document = run_scenario(parse_scenario(text))
    assert [qr.member for qr in document.queries] == [True, False]
    assert document.summary[0] == ("family", "subsimplex_with_null")


def test_run_second_price():
    document = run_scenario(parse_scenario(SECOND_PRICE_EXAMPLE))
    assert document.mode == "reverse"
    assert [qr.member for qr in document.queries] == [True, False]
    witness = document.witnesses[0]
    assert witness.kind == "threshold"
    assert witness_field(witness, "threshold")[1] == Fraction(1, 2)
    assert witness_field(witness, "candidate")[1] == Fraction(3, 10)
    region = document.region
    assert region is not None
    described = {
        (hs.hyperplane.normal.coords, hs.hyperplane.offset) for hs in region.halfspaces
    }
    assert described == {
        ((Fraction(1),), Fraction(0)),
        ((Fraction(-1),), Fraction(-1, 2)),
    }


def test_second_price_threshold_above_the_report_leaves_nothing_to_check():
    # With allocation_dependent the item never changes hands when the
    # threshold is above the report, so no candidate is harmful and the
    # region is the empty one.
    text = (
        "scenario s\nclass second_price\nreported 1\noption threshold 2\n"
        "option allocation_dependent true\nquery 1/2\nquery 3\n"
    )
    document = run_scenario(parse_scenario(text))
    assert [qr.member for qr in document.queries] == [False, False]
    assert document.witnesses == ()
    assert document.region == empty_region(1)
    assert not any(region_contains(document.region, vec(c)) for c in (0, 1, 2, 3))


def test_run_vcg():
    text = """\
scenario two_items
class vcg
theta 0 2 1
option others 1 0
option others 0 1
query 0 2 1
query 0 3 0
"""
    document = run_scenario(parse_scenario(text))
    assert [qr.member for qr in document.queries] == [True, False]
    assert ("price_item1", "1") in document.summary
    assert ("price_item2", "1") in document.summary
    assert document.witnesses[0].kind == "separating"

    with pytest.raises(ScenarioError, match="three coordinates"):
        run_scenario(parse_scenario("scenario s\nclass vcg\ntheta 0 2\n"))


def test_run_price_family_reserves():
    text = """\
scenario reserve_box
class price_family
theta 0 1/2 1
option price_low 3/2 3/2
query 0 1 5/4
query 0 2 0
"""
    document = run_scenario(parse_scenario(text))
    assert [qr.member for qr in document.queries] == [True, False]
    witness = document.witnesses[0]
    assert witness.kind == "prices"
    assert witness_field(witness, "price_item1")[1] == Fraction(3, 2)
    assert witness_field(witness, "price_item2")[1] == Fraction(3, 2)
    assert ("price_high", "inf,inf") in document.summary


def test_run_kminded():
    text = """\
scenario bundles
class kminded
option k 2
theta 0 1/2 3/2
query 0 1/4 1
query 0 1/10 7/5
"""
    document = run_scenario(parse_scenario(text))
    assert [qr.member for qr in document.queries] == [True, False]
    assert document.witnesses[0].kind == "separating"

    bad = text.replace("theta 0 1/2 3/2", "theta 1 1/2 3/2")
    with pytest.raises(MechanismError):
        run_scenario(parse_scenario(bad))

    with pytest.raises(ScenarioError, match="k 1 use 2 coordinates"):
        run_scenario(parse_scenario(text.replace("option k 2", "option k 1")))


def test_run_facility():
    document = run_scenario(parse_scenario(FACILITY_EXAMPLE))
    assert ("covered", "true") in document.summary
    assert ("preferred", "0") in document.summary
    assert [qr.member for qr in document.queries] == [True, False]
    witness = document.witnesses[0]
    assert witness.kind == "separating"
    assert witness_field(witness, "agent_type")[1] == vec(Fraction(7, 2), Fraction(5, 2))
    assert witness_field(witness, "report_type")[1] == vec(Fraction(15, 4), Fraction(9, 4))

    single = FACILITY_EXAMPLE.replace(
        "option verification no_underbid_distance direction_imposing",
        "option verification no_underbid_distance",
    )
    document = run_scenario(parse_scenario(single))
    assert ("covered", "false") in document.summary
    # Uncovered: (-inf, -1/2]; the smallest decisive probe is min B - 1.
    assert ("first_uncovered", "-3/2") in document.summary

    outside = """\
scenario outside_right
class facility_line
theta 3
option facilities 0 2
option benefit 4
"""
    document = run_scenario(parse_scenario(outside))
    assert ("covered", "true") in document.summary
    assert ("verifications", "none") in document.summary


# A harmful query for each class certified by the point-mass closed form.
POINT_MASS_HARMFUL = {
    "deterministic": DETERMINISTIC_EXAMPLE,
    "deterministic_reverse": """\
scenario s
class deterministic
reported 0 1/10 7/5
query 0 1/2 3/2
""",
    "universally_truthful": DETERMINISTIC_EXAMPLE.replace(
        "class deterministic", "class universally_truthful"
    ),
    "vcg": "scenario s\nclass vcg\ntheta 0 2 1\noption others 1 0\nquery 0 3 0\n",
    "kminded": "scenario s\nclass kminded\noption k 2\ntheta 0 1/2 3/2\nquery 0 1/10 7/5\n",
    "facility_line": """\
scenario s
class facility_line
theta 1/2
option facilities 0 2
option benefit 4
query -1
""",
}


@pytest.mark.parametrize("text", POINT_MASS_HARMFUL.values(), ids=POINT_MASS_HARMFUL)
def test_point_mass_classes_certify_without_the_oracle(text, monkeypatch):
    def refuse(*args):
        raise AssertionError("the generic search ran for a point-mass class")

    monkeypatch.setattr(cli, "search_beneficial_misreport", refuse)
    document = run_scenario(parse_scenario(text))
    assert [w.kind for w in document.witnesses] == ["separating"]
    gained = witness_field(document.witnesses[0], "gained")[1]
    assert gained > witness_field(document.witnesses[0], "truthful")[1]


# vcg and kminded anchors that value the null assignment, with no query.
NULL_WORTH_NONZERO = {
    "vcg": "scenario s\nclass vcg\ntheta 1 2 1\noption others 1 0\n",
    "kminded": "scenario s\nclass kminded\noption k 2\ntheta 1 1/2 3/2\n",
}


@pytest.mark.parametrize("text", NULL_WORTH_NONZERO.values(), ids=NULL_WORTH_NONZERO)
def test_null_coordinate_is_checked_at_setup(text, tmp_path, capsys):
    message = "the null coordinate (index 0) must be worth 0"
    with pytest.raises(MechanismError) as err:
        run_scenario(parse_scenario(text))
    assert str(err.value) == message
    scenario = tmp_path / "s.scn"
    scenario.write_text(text)
    assert main(["harmless", "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "name, library_contains",
    [
        ("two_items", vcg_harmless_contains),
        ("bundles_k2", lambda theta, x: kminded_harmless_contains(2, theta, x)),
    ],
    ids=["vcg", "kminded"],
)
def test_vcg_and_kminded_build_one_harmless_set(name, library_contains, monkeypatch):
    scenario = load_scenario(SCENARIO_DIR / f"{name}.scn")
    builds = []
    build = cli.deterministic_harmless

    def counted(*args):
        builds.append(args)
        return build(*args)

    def refuse(*args):
        raise AssertionError("a library wrapper rebuilt the harmless set")

    monkeypatch.setattr(cli, "deterministic_harmless", counted)
    monkeypatch.setattr(multiagent, "deterministic_harmless", refuse)
    monkeypatch.setattr(scenarios, "deterministic_harmless", refuse)
    document = run_scenario(scenario)
    assert len(builds) == 1
    monkeypatch.undo()
    theta = scenario.anchor
    assert document.region == deterministic_harmless(theta, point_masses(theta.dim)).region
    assert [qr.member for qr in document.queries] == [
        library_contains(theta, q) for q in scenario.queries
    ]
    assert len(document.witnesses) == [qr.member for qr in document.queries].count(False)


def _refuse_search(*args):
    raise AssertionError("the CLI ran the generic search")


def oracle_fields(theta, x, allocations):
    """The fields the CLI prints for the oracle's rule."""
    return cli._separating(search_beneficial_misreport(theta, x, allocations), theta, x)


def test_explicit_allocation_expectation_scenarios_use_the_oracle(monkeypatch):
    # The closed-form certificate is the oracle's rule, found without it.
    monkeypatch.setattr(cli, "search_beneficial_misreport", _refuse_search)
    text = """\
scenario s
class truthful_in_expectation
theta 1 2 4
allocation 1 0 0
allocation 0 1 0
query 1/2 1 0
query 0 5 0
"""
    scenario = parse_scenario(text)
    document = run_scenario(scenario)
    assert [qr.member for qr in document.queries] == [True, False]
    assert [w.kind for w in document.witnesses] == ["separating"]
    harmful = scenario.queries[1]
    assert document.witnesses[0].fields == oracle_fields(
        scenario.anchor, harmful, scenario.allocations
    )


def test_explicit_allocation_queries_see_only_the_decisive_pair(monkeypatch):
    # The set is checked before any query, and its decisive pair is found
    # once for the true type, by the check itself, not per query and not
    # again in the setup; every harmful query then ships the oracle's rule
    # on the pair alone, and no query asks the set's membership.
    seen = []
    original = cli.decisive_pair

    def recorded(*args):
        seen.append(("decisive_pair", args[-1]))
        return original(*args)

    monkeypatch.setattr(cli, "decisive_pair", recorded)
    monkeypatch.setattr(cli, "search_beneficial_misreport", _refuse_search)

    def refuse(*args):
        raise AssertionError("a query asked the set's membership")

    monkeypatch.setattr(cli, "tie_harmless_contains", refuse)
    text = (
        "scenario s\nclass truthful_in_expectation\ntheta 1 2 4\n"
        "allocation 1 0 0\nallocation 1/2 1/2 0\nallocation 0 1 0\n"
        "query 1/2 1 0\nquery 0 5 0\nquery 3 3 3\n"
    )
    scenario = parse_scenario(text)
    document = run_scenario(scenario)
    assert [qr.member for qr in document.queries] == [True, False, True]
    pair = (scenario.allocations[1], scenario.allocations[0])
    assert seen == [("decisive_pair", scenario.allocations)]
    theta, harmful = scenario.anchor, scenario.queries[1]
    assert [w.fields for w in document.witnesses] == [oracle_fields(theta, harmful, pair)]


# Per class: an anchor, which serves as theta or as reported, and the
# options that make the scenario runnable.
CLASS_ANCHORS = {
    "deterministic": ("0 1/2 3/2", ""),
    "universally_truthful": ("0 1/2 3/2", ""),
    "truthful_in_expectation": ("1 2 4", ""),
    "vcg": ("0 2 1", "option others 1 0\n"),
    "price_family": ("0 1/2 1", ""),
    "second_price": ("1", "option threshold 1/2\n"),
    "kminded": ("0 1/2 3/2", "option k 2\n"),
    "facility_line": ("1/2", "option facilities 0 2\n"),
}
# Each mode's anchor line and the verbs that read a file of that mode.
MODE_VERBS = {
    "forward": ("theta", ("harmless", "witness", "verify")),
    "reverse": ("reported", ("harmful", "witness")),
}
# The verify verb's options, which every class accepts and run_scenario ignores.
VERIFY_OPTIONS = (
    "option rule_pair 0 1\noption rule_price 1\noption rule_tie to_j\n"
    "option rule_prices 0 1\noption verification_kind no_overbid\n"
)


@pytest.mark.parametrize("mode", ["forward", "reverse"])
@pytest.mark.parametrize("cls", MECHANISM_CLASSES)
def test_class_runs_in_both_modes(cls, mode):
    anchor, options = CLASS_ANCHORS[cls]
    anchor_line = f"{MODE_VERBS[mode][0]} {anchor}"
    scenario = parse_scenario(
        f"scenario s\nclass {cls}\n{anchor_line}\n{options}{VERIFY_OPTIONS}query {anchor}\n"
    )
    document = run_scenario(scenario)
    assert (document.mechanism_class, document.mode) == (cls, mode)
    # A report equal to the true type is harmless, in either role.
    assert [qr.member for qr in document.queries] == [mode == "forward"]
    assert document.witnesses == ()
    # Point-mass classes print their region forward, second_price its own
    # reverse; the facility's coverage keys describe a true position.
    point_mass = cls in ("deterministic", "universally_truthful", "vcg", "kminded")
    regions = {"forward": point_mass, "reverse": cls == "second_price"}
    assert (document.region is not None) == regions[mode]
    if cls == "facility_line":
        forward_keys = ["covered", "preferred", "verifications", "first_uncovered"]
        keys = [key for key, _ in document.summary]
        assert keys == (forward_keys if mode == "forward" else ["verifications"])


# Per class: a report that beats the anchor as the true type.
HARMFUL_REPORTS = {
    "deterministic": "0 1 3/2",
    "universally_truthful": "0 1 3/2",
    "truthful_in_expectation": "2 4 8",
    "vcg": "0 3 1",
    "price_family": "0 1 1",
    "second_price": "2",
    "kminded": "0 1 3/2",
    "facility_line": "0",
}


@pytest.mark.parametrize("cls", MECHANISM_CLASSES)
def test_a_harmful_pair_has_one_certificate_in_either_role(cls):
    # Forward, the true type is the anchor and the report a query; reverse,
    # the report is the anchor and the true type a query.  The one pass
    # gives the same certificate either way.
    anchor, options = CLASS_ANCHORS[cls]
    report = HARMFUL_REPORTS[cls]
    documents = [
        run_scenario(parse_scenario(
            f"scenario s\nclass {cls}\n{MODE_VERBS[mode][0]} {first}\n{options}query {second}\n"
        ))
        for mode, first, second in (("forward", anchor, report), ("reverse", report, anchor))
    ]
    forward, reverse = documents
    assert [qr.member for qr in forward.queries] == [False]
    assert [qr.member for qr in reverse.queries] == [True]
    assert len(forward.witnesses) == 1
    assert reverse.witnesses == forward.witnesses


def test_an_explicit_set_off_one_line_is_refused_for_a_true_type_that_values_it_apart():
    # The true types are the queries in reverse mode: a report that values
    # every allocation alike does not make the set's line test run, and a
    # candidate that does, does.
    head = "scenario s\nclass truthful_in_expectation\n"
    allocations = "allocation 1 0 0\nallocation 0 1 0\nallocation 0 0 1\n"
    for anchor, query in (("theta 0 1 2", "1 1 1"), ("reported 1 1 1", "0 1 2")):
        with pytest.raises(MechanismError, match="span more than one direction"):
            run_scenario(parse_scenario(f"{head}{anchor}\n{allocations}query {query}\n"))
    answered = (("theta 1 1 1", "0 1 2", True), ("reported 0 1 2", "1 1 1", False))
    for anchor, query, member in answered:
        document = run_scenario(parse_scenario(f"{head}{anchor}\n{allocations}query {query}\n"))
        assert [qr.member for qr in document.queries] == [member]
        assert document.witnesses == ()


def _tokens(values):
    return " ".join(str(v) for v in values)


SMALL_VALUES = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
NONNEGATIVE_VALUES = st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))
FRACTIONS_OF_ONE = st.sampled_from([Fraction(k, 4) for k in range(5)])


def _point_mass_lines(dim, indices):
    return [f"allocation {_tokens(int(i == k) for i in range(dim))}" for k in indices]


@st.composite
def role_cases(draw):
    """A class, option and allocation lines that suit it, and a (true type,
    report) pair of its types: the report is the truth, a scaling of it
    plus a shift (the shapes that reach each boundary), or anything."""
    cls = draw(st.sampled_from(MECHANISM_CLASSES))
    values = NONNEGATIVE_VALUES if cls == "second_price" else SMALL_VALUES
    null = cls in ("vcg", "price_family", "kminded")
    dim = {"vcg": 3, "price_family": 3, "second_price": 1, "facility_line": 1}.get(cls)
    if dim is None:
        dim = draw(st.integers(2, 4) if cls != "kminded" else st.sampled_from([2, 3]))
    pairs = st.lists(NONNEGATIVE_VALUES, min_size=2, max_size=2)
    lines = []
    if cls == "kminded":
        lines.append(f"option k {dim - 1}")
    elif cls == "vcg":
        lines += [f"option others {_tokens(draw(pairs))}" for _ in range(draw(st.integers(0, 2)))]
    elif cls == "price_family":
        lows = draw(pairs)
        highs = [draw(st.sampled_from(["inf", low + draw(NONNEGATIVE_VALUES)])) for low in lows]
        lines += [f"option price_low {_tokens(lows)}", f"option price_high {_tokens(highs)}"]
    elif cls == "second_price":
        lines.append(f"option threshold {draw(NONNEGATIVE_VALUES)}")
        lines.append(f"option allocation_dependent {draw(st.sampled_from(['true', 'false']))}")
    elif cls == "facility_line":
        g1, g2 = sorted(draw(st.lists(SMALL_VALUES, min_size=2, max_size=2, unique=True)))
        lines += [f"option facilities {g1} {g2}", f"option benefit {draw(NONNEGATIVE_VALUES)}"]
        kinds = ["no_underbid_distance", "direction_imposing"]
        lines += [f"option verification {kind}" for kind in kinds if draw(st.booleans())]
    elif cls in ("deterministic", "universally_truthful") and draw(st.booleans()):
        indices = draw(st.permutations(range(dim)))[: draw(st.integers(2, dim))]
        lines += _point_mass_lines(dim, indices)
    elif cls == "truthful_in_expectation":
        family = draw(st.sampled_from(["full_simplex", "subsimplex", "segment", "point_masses"]))
        if family == "subsimplex":
            null = True
            lines += [f"assignments null {_tokens(f'a{i}' for i in range(1, dim))}"]
            lines += ["null_assignment null"]
        elif family == "segment":
            weights = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).filter(any)
            ends = draw(st.tuples(weights, weights))
            p, q = (Vector(tuple(Fraction(w, sum(ws)) for w in ws)) for ws in ends)
            steps = draw(st.lists(FRACTIONS_OF_ONE, min_size=2, max_size=4))
            lines += [f"allocation {_tokens(p + (q - p).scale(t))}" for t in steps]
        elif family == "point_masses":  # off one line from three on, so often refused
            lines += _point_mass_lines(dim, range(dim))
    theta = draw(st.lists(values, min_size=dim, max_size=dim))
    shape = draw(st.sampled_from(["any", "affine", "any", "truth"]))
    if shape == "truth":
        x = list(theta)
    elif shape == "affine" and cls != "second_price":
        scale = draw(st.sampled_from([0, Fraction(1, 2), 1, Fraction(3, 2), 2]))
        shift = draw(SMALL_VALUES)
        x = [scale * t + shift for t in theta]
    else:
        x = draw(st.lists(values, min_size=dim, max_size=dim))
    if null:
        theta[0] = x[0] = Fraction(0)
    return cls, "".join(f"{line}\n" for line in lines), theta, x


@settings(max_examples=300)
@given(role_cases())
def test_reverse_membership_is_the_forward_answer_with_roles_swapped(case):
    # reported x with candidate theta asks "does x help theta?": the
    # negation of forward membership for (theta, x), with the same
    # certificate.  A pair one mode refuses, the other refuses alike.
    cls, options, theta, x = case

    def run(anchor_key, anchor, query):
        text = f"scenario s\nclass {cls}\n{anchor_key} {_tokens(anchor)}\n{options}"
        try:
            return run_scenario(parse_scenario(f"{text}query {_tokens(query)}\n"))
        except (ScenarioError, MechanismError) as exc:
            return str(exc)

    forward, reverse = run("theta", theta, x), run("reported", x, theta)
    if isinstance(forward, str) or isinstance(reverse, str):
        assert forward == reverse
        return
    assert [qr.member for qr in reverse.queries] == [not qr.member for qr in forward.queries]
    assert reverse.witnesses == forward.witnesses
    assert len(forward.witnesses) == (not forward.queries[0].member)


# Files that break a class's type rule or hold a bad option value, each
# with and without a query: every verb that reads the file's mode refuses
# them with the same message.
CLASS_RULE_BREACHES = {
    "reverse-fractional-allocation": (
        "scenario s\nclass deterministic\nreported 0 1 2\nallocation 1/2 1/2 0\nallocation 0 0 1\n",
        "query 1 0 2\n",
        "deterministic harmless sets are over point-mass allocations; got (1/2, 1/2, 0)",
    ),
    "forward-fractional-allocation": (
        "scenario s\nclass deterministic\ntheta 0 1 2\nallocation 1/2 1/2 0\nallocation 0 0 1\n",
        "query 1 0 2\n",
        "deterministic harmless sets are over point-mass allocations; got (1/2, 1/2, 0)",
    ),
    "reverse-equal-allocations": (
        "scenario s\nclass universally_truthful\nreported 0 1\nallocation 1 0\nallocation 1 0\n",
        "query 1 0\n",
        "allocations must be distinct",
    ),
    "second-price-negative": (
        "scenario s\nclass second_price\nreported -1\noption threshold 1/2\n",
        "query 1\n",
        "second_price scenarios use nonnegative values",
    ),
    "price-family-dimension": (
        "scenario s\nclass price_family\ntheta 0 1\n",
        "query 0 2\n",
        "price_family scenarios use three coordinates (null, item1, item2)",
    ),
    "rule-tie": (
        "scenario s\nclass deterministic\ntheta 0 1\noption rule_tie sideways\n",
        "query 1 0\n",
        "line 4: option rule_tie: 'sideways' is not one of to_i, to_j",
    ),
    "two-direction-expectation-set": (
        "scenario s\nclass truthful_in_expectation\ntheta 0 1 2\n"
        "allocation 1 0 0\nallocation 0 1 0\nallocation 0 0 1\n",
        "query 0 2 1\n",
        "scaled differences span more than one direction; "
        "the closed-form characterisation does not apply",
    ),
    "allocations-not-read": (
        "scenario s\nclass vcg\ntheta 0 1 2\nallocation 1/2 1/2 0\nallocation 0 0 1\n",
        "query 0 2 1\n",
        "vcg scenarios read no allocation lines",
    ),
    "empty-price-interval": (
        "scenario s\nclass price_family\ntheta 0 1 2\noption price_low 2 2\n"
        "option price_high 1 1\noption rule_prices 0 0 0\n",
        "query 0 2 1\n",
        "line 5: option price_high: empty price interval [2, 1]",
    ),
    "unsorted-facilities": (
        "scenario s\nclass facility_line\ntheta 1/2\noption benefit 2\noption facilities 2 0\n",
        "query 1\n",
        "line 5: option facilities: facility locations must be distinct and sorted",
    ),
}


@pytest.mark.parametrize("with_query", [False, True], ids=["no-query", "query"])
@pytest.mark.parametrize(
    "text, query, message", CLASS_RULE_BREACHES.values(), ids=CLASS_RULE_BREACHES
)
def test_every_verb_refuses_a_class_rule_breach(text, query, message, with_query, tmp_path, capsys):
    scenario = tmp_path / "s.scn"
    scenario.write_text(text + (query if with_query else ""))
    forward = "\ntheta " in text
    verbs = ("harmless", "witness", "plot", "verify") if forward else ("harmful", "witness", "plot")
    for verb in verbs:
        assert main([verb, "--scenario", str(scenario)]) == 1, verb
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), verb


TABLE_KEYS = [
    (cls, key) for cls in MECHANISM_CLASSES for key in (*cli._CLASSES[cls][1], *cli._VERIFY_OPTIONS)
]


@pytest.mark.parametrize("cls, key", TABLE_KEYS, ids=[f"{cls}-{key}" for cls, key in TABLE_KEYS])
def test_a_malformed_option_value_names_its_line(cls, key, tmp_path, capsys):
    anchor, options = CLASS_ANCHORS[cls]
    for anchor_key, (verb, *_) in MODE_VERBS.values():
        lines = ["scenario s", f"class {cls}", f"{anchor_key} {anchor}"]
        lines += [line for line in options.splitlines() if line.split()[1] != key]
        count = {**cli._VERIFY_OPTIONS, **cli._CLASSES[cls][1]}[key][0]
        lines.append(f"option {key} " + " ".join(["x"] * (count or 1)))
        scenario = tmp_path / "s.scn"
        scenario.write_text("\n".join(lines) + "\n")
        assert main([verb, "--scenario", str(scenario)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {len(lines)}: option {key}: "), err


REQUIRED_KEYS = [
    (cls, key)
    for cls in MECHANISM_CLASSES
    for key, (_, _, kind) in cli._CLASSES[cls][1].items()
    if kind == "required"
]


@pytest.mark.parametrize(
    "cls, key", REQUIRED_KEYS, ids=[f"{cls}-{key}" for cls, key in REQUIRED_KEYS]
)
def test_a_missing_required_option_is_refused(cls, key, tmp_path, capsys):
    anchor, options = CLASS_ANCHORS[cls]
    for anchor_key, verbs in MODE_VERBS.values():
        lines = ["scenario s", f"class {cls}", f"{anchor_key} {anchor}"]
        lines += [line for line in options.splitlines() if line.split()[1] != key]
        scenario = tmp_path / "s.scn"
        scenario.write_text("\n".join(lines) + "\n")
        for verb in verbs:
            assert main([verb, "--scenario", str(scenario)]) == 1, verb
            assert capsys.readouterr().err == f"error: {cls} scenarios need option {key}\n", verb


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "scenario s\nclass kminded\noption k 2\ntheta 0 1 2\noption k 2\n",
            "line 5: option 'k' given more than once",
        ),
        (
            "scenario s\nclass kminded\noption k 1 2\ntheta 0 1 2\n",
            "line 3: option k: takes 1 value, not 2",
        ),
        (
            "scenario s\nclass vcg\ntheta 0 2 1\noption others -1 0\n",
            "line 4: option others: values are nonnegative, not -1",
        ),
        (
            "scenario s\nclass price_family\ntheta 0 1 2\noption price_high none 5\n",
            "line 4: option price_high: bad rational 'none'",
        ),
        (
            "scenario s\nclass price_family\ntheta 0 1 2\noption price_low inf 0\n",
            "line 4: option price_low: bad rational 'inf'",
        ),
        (
            "scenario s\nclass deterministic\ntheta 0 1\noption rule_prices 0 1\n"
            "option rule_pair 0\n",
            "line 5: option rule_pair: takes 2 values, not 1",
        ),
    ],
    ids=["repeated", "count", "negative", "none-is-not-inf", "finite-low", "pair-count"],
)
def test_option_lines_are_checked_at_their_line(text, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message


def test_option_values_are_checked_together_once(monkeypatch):
    # Parsing runs the class's cross-value check once, on all the values,
    # and the setup builds the line once more.
    builds = []
    init = scenarios.FacilityLine.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(scenarios.FacilityLine, "__init__", counted)
    document = run_scenario(load_scenario(SCENARIO_DIR / "two_facilities.scn"))
    assert len(document.queries) == 3
    assert len(builds) <= 2
    # On an error the lines are checked again one by one, so the first line
    # that breaks the values is named, before a later malformed line.
    text = "scenario s\nclass facility_line\ntheta 1/2\noption facilities 2 0\noption benefit x\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == (
        "line 4: option facilities: facility locations must be distinct and sorted"
    )


def test_parse_scenario_reads_typed_options():
    # An option line may come before the class line; values arrive typed.
    text = (
        "scenario s\noption allocation_dependent true\noption threshold 1/2\n"
        "class second_price\nreported 1\noption rule_tie to_j\n"
    )
    assert parse_scenario(text).options == (
        ("allocation_dependent", True),
        ("threshold", Fraction(1, 2)),
        ("rule_tie", TieSide.TO_J),
    )
    reserve = load_scenario(SCENARIO_DIR / "reserve_box.scn")
    assert reserve.options == (("price_low", (Fraction(3, 2), Fraction(3, 2))),)
    split = FACILITY_EXAMPLE.replace(" direction_imposing", "")
    facility = parse_scenario(split + "option verification direction_imposing\n")
    kinds = dict(facility.options)["verification"]
    assert kinds == (
        (scenarios.VerificationKind.NO_UNDERBID_DISTANCE,),
        (scenarios.VerificationKind.DIRECTION_IMPOSING,),
    )
    assert run_scenario(facility).summary == run_scenario(parse_scenario(FACILITY_EXAMPLE)).summary


def test_run_scenario_appends_the_type_space_box():
    # Pinned output: the pairwise halfspaces, then every lower bound of the
    # box, then every upper bound.
    text = """\
scenario boxed_det
class deterministic
theta 1 3 2
space_low 0 -1 1/2
space_high 4 5 7/2
query 0 2 1
"""
    lines = serialize_result(run_scenario(parse_scenario(text))).splitlines()
    assert [line for line in lines if line.startswith("region")] == [
        "region halfspaces=9 extras=1",
        "region_halfspace normal=1,-1,0 offset=-2 sense=strict",
        "region_halfspace normal=1,0,-1 offset=-1 sense=strict",
        "region_halfspace normal=0,-1,1 offset=-1 sense=strict",
        "region_halfspace normal=1,0,0 offset=0 sense=closed",
        "region_halfspace normal=0,1,0 offset=-1 sense=closed",
        "region_halfspace normal=0,0,1 offset=1/2 sense=closed",
        "region_halfspace normal=-1,0,0 offset=-4 sense=closed",
        "region_halfspace normal=0,-1,0 offset=-5 sense=closed",
        "region_halfspace normal=0,0,-1 offset=-7/2 sense=closed",
        "region_extra 1,3,2",
    ]
    high_only = text.replace("space_low 0 -1 1/2\n", "")
    region = run_scenario(parse_scenario(high_only)).region
    assert [hs.hyperplane.offset for hs in region.halfspaces[3:]] == [-4, -5, Fraction(-7, 2)]


def test_run_verify_grid():
    text = """\
scenario menu_check
class deterministic
theta 0 1/4 1
option rule_prices 0 1/4 1
query 0 1/2 3/2
"""
    document = run_verify(parse_scenario(text))
    assert ("truthful", "false") in document.summary
    assert ("grid_size", "2") in document.summary
    witness = document.witnesses[0]
    assert witness.kind == "grid_violation"
    assert witness_field(witness, "true_type")[1] == vec(0, Fraction(1, 4), 1)
    assert witness_field(witness, "beneficial_report")[1] == vec(
        0, Fraction(1, 2), Fraction(3, 2)
    )

    guarded = text + "option verification_kind no_overbid\n"
    document = run_verify(parse_scenario(guarded))
    assert ("truthful", "true") in document.summary
    assert document.witnesses == ()


def test_run_verify_no_overbid_on_received():
    # The report (0, 1/2, 3/2) gains entry 2 but overstates its value, so it
    # is caught; (-1, 1/4, 1) gains entry 1 and values it as theta does.
    text = """\
scenario s
class deterministic
theta 0 1/4 1
option rule_prices 0 1/4 1
query 0 1/2 3/2
query -1 1/4 1
option verification_kind no_overbid_on_received
"""
    document = run_verify(parse_scenario(text))
    assert ("truthful", "false") in document.summary
    assert ("verification", "no_overbid_on_received") in document.summary
    (witness,) = document.witnesses
    assert witness.query_index == 0
    assert witness_field(witness, "true_type")[1] == vec(0, Fraction(1, 4), 1)
    assert witness_field(witness, "beneficial_report")[1] == vec(-1, Fraction(1, 4), 1)
    assert witness_field(witness, "gained")[1] == Fraction(1, 4)
    assert witness_field(witness, "truthful")[1] == 0
    unguarded = run_verify(parse_scenario(text.replace("no_overbid_on_received", "none")))
    report = witness_field(unguarded.witnesses[0], "beneficial_report")[1]
    assert report == vec(0, Fraction(1, 2), Fraction(3, 2))


def test_run_verify_needs_exactly_one_rule():
    text = """\
scenario menu_check
class deterministic
theta 0 1
query 1 0
"""
    with pytest.raises(ScenarioError):
        run_verify(parse_scenario(text))
    both = text + "option rule_prices 0 1\noption rule_pair 0 1\n"
    with pytest.raises(ScenarioError):
        run_verify(parse_scenario(both))


TIE_SIDE_PAIR = """\
scenario tie
class deterministic
theta 0 1
query 0 2
query 0 0
option rule_pair 1 0
option rule_price 1
option verification_kind none
"""
TIE_SIDE_DOCUMENT = """\
result tie
mode forward
class deterministic
operation is_truthful_with_verification
anchor 0,1
{middle}summary verification none
summary grid_size 3
provenance package mechverify
provenance version {version}
provenance class deterministic
provenance operation is_truthful_with_verification
"""


@pytest.mark.parametrize(
    "tie, middle",
    [
        ("to_i", "summary truthful true\n"),
        (
            "to_j",
            "witness query=0 kind=grid_violation true_type=v:0,1 beneficial_report=v:0,2 "
            "gained=r:1 truthful=r:0\nsummary truthful false\n",
        ),
    ],
    ids=["to_i", "to_j"],
)
def test_a_declared_pair_keeps_its_tie_side(tie, middle):
    # theta = (0, 1) sits on the pair's boundary, theta_1 - theta_0 = 1 = the
    # price: to_i gives it e_1, worth 1, as the report (0, 2) gets; to_j gives
    # it e_0, worth 0, so the report gains.
    text = TIE_SIDE_PAIR + f"option rule_tie {tie}\n"
    document = serialize_result(run_verify(parse_scenario(text)))
    assert document == TIE_SIDE_DOCUMENT.format(middle=middle, version=mechverify.__version__)


@pytest.mark.parametrize(
    "text",
    [
        "scenario s\nclass deterministic\ntheta 0 1 2\nallocation 0 0 1\nallocation 1 0 0\n",
        "scenario s\nclass truthful_in_expectation\ntheta 1 2 4\n"
        "allocation 1 0 0\nallocation 1/2 1/2 0\nallocation 0 1 0\n",
    ],
    ids=["point-masses", "expectation-set"],
)
def test_checked_hands_over_the_class_setup_unbound(text):
    # The class's setup reads its own allocation lines: _checked binds nothing.
    scenario = parse_scenario(text)
    assert cli._checked(scenario)[0] is cli._CLASSES[scenario.mechanism_class][0]


# vcg, kminded and subsimplex expectation scenarios whose types harmless
# refuses; verify must refuse them with the same message, with or without
# queries, harmless or not.
SUBSIMPLEX = "scenario s\nclass truthful_in_expectation\nassignments z a b\nnull_assignment z\n"
VERIFY_CLASS_CHECKS = {
    "subsimplex-null-harmful-query": (
        SUBSIMPLEX + "theta 1 2 3\nquery 1 5 9\noption rule_prices 0 1 1\n",
        "the null coordinate (index 0) must be worth 0",
    ),
    "subsimplex-null-harmless-query": (
        SUBSIMPLEX + "theta 1 2 3\nquery 1/2 1 3/2\noption rule_prices 0 1 1\n",
        "the null coordinate (index 0) must be worth 0",
    ),
    "subsimplex-null-no-query": (
        SUBSIMPLEX + "theta 1 2 3\noption rule_prices 0 1 1\n",
        "the null coordinate (index 0) must be worth 0",
    ),
    "subsimplex-null-query-of-zero-type": (
        SUBSIMPLEX + "theta 0 0 0\nquery 5 1 1\noption rule_prices 0 1 1\n",
        "the null coordinate (index 0) must be worth 0",
    ),
    "vcg-null": (
        "scenario s\nclass vcg\ntheta 0 2 1\nquery 1 2 1\noption rule_prices 0 1 1\n"
        "option verification_kind harmless_complement\n",
        "the null coordinate (index 0) must be worth 0",
    ),
    "vcg-dimension": (
        "scenario s\nclass vcg\ntheta 0 2\noption rule_prices 0 1\n",
        "vcg scenarios use three coordinates (null, item1, item2)",
    ),
    "kminded-null": (
        "scenario s\nclass kminded\noption k 1\ntheta 1 2\noption rule_prices 0 1\n",
        "the null coordinate (index 0) must be worth 0",
    ),
    "kminded-dimension": (
        "scenario s\nclass kminded\noption k 2\ntheta 0 1\noption rule_prices 0 1\n",
        "kminded scenarios with k 2 use 3 coordinates (null first)",
    ),
}


@pytest.mark.parametrize("text, message", VERIFY_CLASS_CHECKS.values(), ids=VERIFY_CLASS_CHECKS)
def test_verify_runs_the_class_checks_of_harmless(text, message, tmp_path, capsys):
    scenario = tmp_path / "s.scn"
    scenario.write_text(text)
    for verb in ("verify", "harmless"):
        assert main([verb, "--scenario", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_verify_refuses_facility_positions(tmp_path, capsys):
    # A position is no value vector, so no taxation rule can be checked on it.
    text = "scenario s\nclass facility_line\ntheta 1/2\noption facilities 0 2\noption rule_prices 0\n"
    with pytest.raises(ScenarioError) as err:
        run_verify(parse_scenario(text))
    message = "verify reads value vectors, not facility_line positions"
    assert str(err.value) == message
    scenario = tmp_path / "s.scn"
    scenario.write_text(text)
    assert main(["verify", "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("index", ["\u0661", "\u00b2"], ids=["arabic-indic-one", "superscript-two"])
def test_rule_pair_takes_ascii_indices(index, tmp_path, capsys):
    text = (
        "scenario s\nclass deterministic\ntheta 0 1\n"
        f"option rule_pair {index} 0\noption rule_price 1\n"
    )
    message = f"line 4: option rule_pair: bad assignment index {index!r}"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message
    scenario = tmp_path / "s.scn"
    scenario.write_text(text, encoding="utf-8")
    assert main(["verify", "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# Few values, so types tie on coordinates and repeat across the grid.
menu_values = st.sampled_from([Fraction(v, 2) for v in range(-2, 5)])


def _tokens(values):
    return " ".join(str(v) for v in values)


@st.composite
def point_mass_menus(draw):
    """A verify scenario over m point masses with the harmless_complement
    verification, the rule it declares, and its types (anchor first)."""
    m = draw(st.integers(min_value=2, max_value=5))
    coords = st.lists(menu_values, min_size=m, max_size=m)
    types = [Vector(tuple(c)) for c in draw(st.lists(coords, min_size=2, max_size=8))]
    if draw(st.booleans()):
        prices = draw(coords)
        rule = TaxationRule(tuple((point_mass(i, m), p) for i, p in enumerate(prices)))
        options = [f"option rule_prices {_tokens(prices)}"]
    else:
        i, j = draw(st.permutations(range(m)))[:2]
        price = draw(menu_values)
        tie = draw(st.sampled_from([TieSide.TO_I, TieSide.TO_J]))
        # The pair's menu: e_i at the price, e_j free, the tie side first.
        entries = ((point_mass(i, m), price), (point_mass(j, m), 0))
        rule = TaxationRule(entries if tie is TieSide.TO_I else entries[::-1])
        options = [
            f"option rule_pair {i} {j}",
            f"option rule_price {price}",
            f"option rule_tie {tie.value}",
        ]
    lines = ["scenario menu", "class deterministic", f"theta {_tokens(types[0])}"]
    lines += [f"query {_tokens(t)}" for t in types[1:]]
    lines += options + ["option verification_kind harmless_complement"]
    return "\n".join(lines) + "\n", rule, types


@given(point_mass_menus())
def test_harmless_complement_matches_the_harmless_set(menu):
    # Every rule verify declares is deterministic over the point masses, so
    # the grid run that verifies the harmless set's complement is truthful,
    # and verify answers as that run does, without running it.
    text, rule, types = menu
    allocations = point_masses(types[0].dim)

    def outside_harmless(true, reported, k):
        return not deterministic_harmless(true, allocations).contains(reported)

    grid = list(dict.fromkeys(types))
    assert is_truthful_with_verification(rule, outside_harmless, grid) == (True, None)
    document = run_verify(parse_scenario(text))
    assert ("truthful", "true") in document.summary
    assert ("grid_size", str(len(grid))) in document.summary
    assert document.witnesses == ()


def test_verify_checks_the_grid_violation_before_shipping_it(monkeypatch):
    scenario = load_scenario(SCENARIO_DIR / "menu_check.scn")
    document = run_verify(scenario)
    assert [w.kind for w in document.witnesses] == ["grid_violation"]
    # A pass that names a pair the report does not help is caught by the
    # witness's own evaluation: (0, 0, 0) takes theta's free entry.
    theta, _, unhelpful = (scenario.anchor, *scenario.queries)
    violation = (False, (theta, unhelpful))
    monkeypatch.setattr(cli, "is_truthful_with_verification", lambda *args: violation)
    with pytest.raises(AssertionError, match="grid violation failed validation: 0 <= 0"):
        run_verify(scenario)


def test_harmless_complement_runs_no_grid_search(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("verify searched the grid")

    monkeypatch.setattr(cli, "is_truthful_with_verification", refuse)
    monkeypatch.setattr(cli, "PointMassRegion", refuse)
    text = (SCENARIO_DIR / "menu_check.scn").read_text()
    guarded = parse_scenario(text + "option verification_kind harmless_complement\n")
    document = run_verify(guarded)
    assert ("truthful", "true") in document.summary
    assert document.witnesses == ()
    # One coordinate is one point mass: no harmless set to complement.
    scenario = tmp_path / "s.scn"
    scenario.write_text(
        "scenario s\nclass deterministic\ntheta 1\nquery 2\noption rule_prices 0\n"
        "option verification_kind harmless_complement\n"
    )
    assert main(["verify", "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: need at least two allocations\n")


def test_harmless_complement_builds_no_harmless_set(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify built a harmless set")

    monkeypatch.setattr(cli, "deterministic_harmless", refuse)
    guarded = parse_scenario(
        (SCENARIO_DIR / "menu_check.scn").read_text()
        + "option verification_kind harmless_complement\n"
    )
    document = run_verify(guarded)
    assert ("truthful", "true") in document.summary
    assert ("verification", "harmless_complement") in document.summary


EXAMPLES = {
    "deterministic": DETERMINISTIC_EXAMPLE,
    "tie": TIE_EXAMPLE,
    "second_price": SECOND_PRICE_EXAMPLE,
    "facility": FACILITY_EXAMPLE,
}


def _example_documents():
    return [run_scenario(parse_scenario(source)) for source in EXAMPLES.values()]


@pytest.mark.parametrize("name", EXAMPLES)
def test_checker_reads_every_serialized_field(name, checker):
    # The result document is output only.  Its one reader is the benchmark's
    # checker, which shares no code with the serializer, so it is the
    # reference for what the text says.
    document = run_scenario(parse_scenario(EXAMPLES[name]))
    text = serialize_result(document)
    assert serialize_result(document) == text
    read = checker.parse_document(text)
    assert read.header == {
        "result": document.scenario_name,
        "mode": document.mode,
        "class": document.mechanism_class,
        "operation": document.operation,
        "anchor": ",".join(str(c) for c in document.anchor.coords),
    }
    region = document.region
    assert read.halfspaces == (0 if region is None else len(region.halfspaces))
    assert read.queries == [(qr.query.coords, qr.member) for qr in document.queries]
    assert [(w.index, w.kind) for w in read.witnesses] == [
        (w.query_index, w.kind) for w in document.witnesses
    ]
    assert read.summary == dict(document.summary)


@pytest.mark.parametrize("key", ["result", "mode", "class", "operation", "anchor", "region"])
def test_serialized_header_lines_appear_once(key):
    for document in _example_documents():
        directives = [line.split()[0] for line in serialize_result(document).splitlines()]
        assert directives[:5] == ["result", "mode", "class", "operation", "anchor"]
        expected = 0 if key == "region" and document.region is None else 1
        assert directives.count(key) == expected, (document.scenario_name, key)


def _halfspace(normal, offset, sense=Sense.STRICT_GREATER):
    return Halfspace(Hyperplane(normal, offset), sense)


REGIONS = {
    "whole-space": ConvexRegion(),
    "empty": empty_region(3),
    "harmless-set": deterministic_harmless(vec(0, "1/2", "3/2"), point_masses(3)).region,
    "extras-out-of-order": ConvexRegion(
        (_halfspace(vec(0, 1, -1), "-1/2", Sense.GREATER_EQUAL),),
        frozenset({vec(2, 0, 0), vec(0, 1, 0), vec(1, -1, 3)}),
    ),
}


@pytest.mark.parametrize("region", REGIONS.values(), ids=REGIONS)
def test_serialized_region_line_counts_its_lines(region):
    document = cli.ResultDocument("r", "deterministic", "forward", "o", vec(0, 0, 0), region)
    lines = serialize_result(document).splitlines()
    directives = [line.split()[0] for line in lines]
    start = directives.index("region")
    h, e = len(region.halfspaces), len(region.extra_points)
    assert lines[start] == f"region halfspaces={h} extras={e}"
    body = directives[start + 1:]
    assert body[: h + e] == ["region_halfspace"] * h + ["region_extra"] * e
    assert not {"region_halfspace", "region_extra"} & set(body[h + e:])
    extras = [
        vec(*line.split()[1].split(",")) for line in lines[start + 1 + h: start + 1 + h + e]
    ]
    assert extras == sorted(region.extra_points, key=lambda p: p.coords)


def _vector_tokens(tokens):
    # The vectors a line carries: its bare token or its normal= token.
    key = tokens[0]
    if key in ("anchor", "region_extra", "query"):
        return [tokens[1]]
    if key == "region_halfspace":
        return [tokens[1].removeprefix("normal=")]
    return []


# Each rule a well-formed document keeps, as a test of one line's tokens
# given the document's dimension.
WELL_FORMED = {
    "result-one-token": lambda tokens, dim: tokens[0] != "result" or len(tokens) == 2,
    "halfspace-fields": lambda tokens, dim: tokens[0] != "region_halfspace"
    or [t.partition("=")[0] for t in tokens[1:]] == ["normal", "offset", "sense"],
    "sense-known": lambda tokens, dim: tokens[0] != "region_halfspace"
    or tokens[3].removeprefix("sense=") in {s.value for s in Sense},
    "summary-key": lambda tokens, dim: tokens[0] != "summary" or len(tokens) >= 2,
    "normal-nonzero": lambda tokens, dim: tokens[0] != "region_halfspace"
    or any(Fraction(c) for c in _vector_tokens(tokens)[0].split(",")),
    "one-dimension": lambda tokens, dim: all(
        len(v.split(",")) == dim for v in _vector_tokens(tokens)
    ),
}


@pytest.mark.parametrize("rule", WELL_FORMED)
def test_serialized_lines_are_well_formed(rule):
    check = WELL_FORMED[rule]
    documents = _example_documents() + [
        cli.ResultDocument("r", "deterministic", "forward", "o", vec(0, 0, 0), region)
        for region in REGIONS.values()
    ]
    for document in documents:
        for line in serialize_result(document).splitlines():
            assert check(line.split(), document.anchor.dim), (rule, line)


# One digit more than int() reads from a string by default
# (sys.get_int_max_str_digits()), in the numerator and in the denominator.
OVERLONG = "1" * 4301


# One digit more than the digit budget, in the numerator and in the denominator.
OVER_BUDGET = "9" * (cli.MAX_DIGITS + 1)


@pytest.mark.parametrize(
    "token", ["1e400", "1_000", "1.5", OVERLONG, f"1/{OVERLONG}", OVER_BUDGET, f"-1/{OVER_BUDGET}"]
)
def test_rationals_are_integers_or_p_over_q(token, tmp_path, cli_env):
    text = f"scenario s\nclass deterministic\ntheta {token} 1\nquery 0 1\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert str(info.value) == f"line 3: bad rational {token!r}"
    (tmp_path / "s.scn").write_text(text)
    result = run_cli(["harmless", "--scenario", "s.scn"], tmp_path, cli_env)
    assert result.returncode == 1
    assert "bad rational" in result.stderr


# Tokens of the rational grammar: an optional sign, up to the digit budget
# of digits with leading zeros allowed, and an optional /q with q >= 1.
digit_strings = st.text("0123456789", min_size=1, max_size=cli.MAX_DIGITS)
rational_tokens = st.builds(
    lambda sign, p, q: sign + p + ("" if q is None else "/" + q),
    st.sampled_from(["", "+", "-"]),
    digit_strings,
    st.none() | digit_strings.filter(lambda q: int(q) > 0),
)


@given(rational_tokens)
def test_parse_rational_matches_fraction(token):
    assert cli._parse_rational(token) == Fraction(token)


def test_digit_budget_refuses_an_offset_too_long_to_print(tmp_path, capsys):
    # 1/p - 1/q, the region's offset, has a 6000-digit denominator: more than
    # str() prints by default.  Each 3000-digit token is refused as it is read.
    p, q = 10**2999 + 1, 10**2999 + 3  # odd and 2 apart: coprime
    scenario = tmp_path / "s.scn"
    scenario.write_text(f"scenario s\nclass deterministic\ntheta 1/{p} 1/{q}\n")
    assert main(["harmless", "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line 3: bad rational '1/{p}'\n")


@given(st.lists(rational_tokens, min_size=1, max_size=6))
def test_parsed_vector_matches_fractions(tokens):
    scenario = parse_scenario(f"scenario s\nclass deterministic\ntheta {' '.join(tokens)}\n")
    assert scenario.theta == Vector(Fraction(t) for t in tokens)


@given(st.sampled_from(["", "+", "-"]), digit_strings, st.sampled_from(["0", "00"]))
def test_zero_denominators_are_bad_rationals(sign, p, q):
    token = f"{sign}{p}/{q}"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(f"scenario s\nclass deterministic\ntheta 1 {token}\n")
    assert str(info.value) == f"line 3: bad rational {token!r}"


def test_signed_rationals_still_parse():
    scenario = parse_scenario("scenario s\nclass deterministic\ntheta -3/4 +2 07\n")
    assert scenario.theta == vec("-3/4", 2, 7)


def test_serialized_rationals_stay_exact():
    document = run_scenario(parse_scenario(DETERMINISTIC_EXAMPLE))
    text = serialize_result(document)
    assert "0,1/2,3/2" in text
    assert "." not in text.split("provenance")[0]  # no floats anywhere


def test_witness_document_lists_count():
    document = run_scenario(parse_scenario(DETERMINISTIC_EXAMPLE))
    text = serialize_witnesses(document)
    assert text.splitlines()[-1] == "summary witnesses 1"
    assert "witness query=1 kind=separating" in text


def test_slice_region_vertices_worked_example():
    text = DETERMINISTIC_EXAMPLE + "space_low 0 0 0\n"
    document = run_scenario(parse_scenario(text))
    vertices = slice_region_vertices(document, axes=(1, 2))
    assert set(vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(3, 2)),
    }


def test_an_empty_four_coordinate_slice_has_no_vertices_and_no_polygon():
    # The pair (2, 3) lies off the axes, and its strict halfspace has the
    # anchor on its boundary, so the slice through the anchor is empty.
    text = "scenario s\nclass deterministic\ntheta 0 1 2 3\n"
    document = run_scenario(parse_scenario(text))
    assert slice_region_vertices(document, axes=(0, 1)) == ()
    svg = render_regions(document, axes=(0, 1))
    assert "<polygon" not in svg
    # The boundary lines of the pairs that meet the axes are still drawn.
    assert svg.count("<line") == 7


def test_render_regions_deterministic_bytes():
    document = run_scenario(parse_scenario(DETERMINISTIC_EXAMPLE))
    first = render_regions(document, axes=(1, 2))
    second = render_regions(document, axes=(1, 2))
    assert first == second
    assert first.startswith("<svg")
    assert "true type" in first

    tie_document = run_scenario(parse_scenario(TIE_EXAMPLE))
    with pytest.raises(ScenarioError):
        render_regions(tie_document)


def _naive_line_segment(nx, ny, offset, bounds):
    """Meet the line with the four edge lines of the box, keep the meeting
    points inside the box, and take the smallest and the largest."""
    xmin, xmax, ymin, ymax = bounds
    points = set()
    for ex, ey, edge in ((1, 0, xmin), (1, 0, xmax), (0, 1, ymin), (0, 1, ymax)):
        det = nx * ey - ny * ex
        if det == 0:
            continue
        x = (offset * ey - edge * ny) / det
        y = (nx * edge - ex * offset) / det
        if xmin <= x <= xmax and ymin <= y <= ymax:
            points.add((x, y))
    if len(points) < 2:
        return None
    return min(points), max(points)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def lines_and_boxes(draw):
    """A box and a line nx*x + ny*y = offset: through a random point, a box
    corner, or along a box edge."""
    xmin, ymin = draw(small_rationals), draw(small_rationals)
    xmax = xmin + draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
    ymax = ymin + draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
    kind = draw(st.sampled_from(["free", "corner", "edge"]))
    if kind == "edge":
        nx, ny = draw(st.sampled_from([(1, 0), (0, 1), (-2, 0), (0, -1)]))
        x, y = draw(st.sampled_from([xmin, xmax])), draw(st.sampled_from([ymin, ymax]))
    else:
        nx, ny = draw(small_rationals), draw(small_rationals)
        if nx == ny == 0:
            nx = Fraction(1)
        if kind == "corner":
            x, y = draw(st.sampled_from([xmin, xmax])), draw(st.sampled_from([ymin, ymax]))
        else:
            x, y = draw(small_rationals), draw(small_rationals)
    return Fraction(nx), Fraction(ny), nx * x + ny * y, (xmin, xmax, ymin, ymax)


@settings(max_examples=300)
@given(lines_and_boxes())
def test_line_segment_matches_the_edge_line_intersections(drawn):
    nx, ny, offset, bounds = drawn
    xmin, xmax, ymin, ymax = bounds
    box = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    assert cli._line_segment(nx, ny, offset, box) == _naive_line_segment(nx, ny, offset, bounds)


def run_cli(args, tmp_path, env):
    return subprocess.run(
        [sys.executable, "-m", "mechverify", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )


def test_cli_executable(tmp_path, cli_env):
    scenario = tmp_path / "pair.scn"
    scenario.write_text(DETERMINISTIC_EXAMPLE)

    for args in (
        ["--help"], ["-h"], ["harmless", "-h"], ["plot", "--scenario", "pair.scn", "--help"]
    ):
        result = run_cli(args, tmp_path, cli_env)
        assert result.returncode == 0, args
        assert result.stdout.startswith("usage: mechverify harmless --scenario FILE"), args
        assert "  plot      render the scenario's region" in result.stdout, args

    result = run_cli(["harmless", "--scenario", "pair.scn"], tmp_path, cli_env)
    assert result.returncode == 0
    members = [line.split()[2] for line in result.stdout.splitlines() if line.startswith("query ")]
    assert members == ["member=true", "member=false"]

    out = tmp_path / "result.txt"
    rerun = run_cli(
        ["harmless", "--scenario", "pair.scn", "--out", "result.txt"],
        tmp_path,
        cli_env,
    )
    assert rerun.returncode == 0
    assert out.read_text() == result.stdout

    joined = run_cli(["harmless", "--out=x.txt", "--scenario=pair.scn"], tmp_path, cli_env)
    assert joined.returncode == 0
    assert (tmp_path / "x.txt").read_text() == result.stdout

    witness = run_cli(["witness", "--scenario", "pair.scn"], tmp_path, cli_env)
    assert witness.returncode == 0
    assert "summary witnesses 1" in witness.stdout

    plot = run_cli(
        ["plot", "--scenario", "pair.scn", "--axes", "1,2", "--out", "pair.svg"],
        tmp_path,
        cli_env,
    )
    assert plot.returncode == 0
    assert (tmp_path / "pair.svg").read_text().startswith("<svg")


# Modules a CLI run has no use for.  A cold start-up pays to load each one it
# imports, and to compile it too when no bytecode cache holds it.
UNUSED_MODULES = (
    "argparse", "pathlib", "typing", "shutil", "locale", "gettext", "bz2", "lzma",
    "dataclasses", "inspect", "ast", "dis", "tokenize",
)
IMPORT_PROBE = """\
import sys
from mechverify import cli
assert cli.main(["harmless", "--scenario", sys.argv[1], "--out", "result.txt"]) == 0
assert cli.main(["plot", "--scenario", sys.argv[1], "--out", "region.svg"]) == 0
print(" ".join(sorted(sys.modules)))
"""


def test_cli_run_imports_no_unused_module(tmp_path, cli_env):
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "bundle_pair.scn"
    child = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, str(scenario)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env,
    )
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "mechverify.cli" in loaded
    assert sorted(loaded.intersection(UNUSED_MODULES)) == []


def test_cli_error_paths(tmp_path, cli_env):
    missing = run_cli(["harmless", "--scenario", "absent.scn"], tmp_path, cli_env)
    assert missing.returncode == 1
    assert "error:" in missing.stderr

    scenario = tmp_path / "pair.scn"
    scenario.write_text(DETERMINISTIC_EXAMPLE)
    wrong_verb = run_cli(["harmful", "--scenario", "pair.scn"], tmp_path, cli_env)
    assert wrong_verb.returncode == 1

    usage = run_cli(["harmless"], tmp_path, cli_env)
    assert usage.returncode == 1
    assert "the following arguments are required: --scenario" in usage.stderr

    for args, message in (
        ([], "the following arguments are required: verb"),
        (["bogus", "--scenario", "pair.scn"], "invalid verb 'bogus'"),
        (["harmless", "--scenario", "pair.scn", "--out"], "argument --out: expected one argument"),
        (["harmless", "--scenario", "--out", "x"], "argument --scenario: expected one argument"),
    ):
        bad = run_cli(args, tmp_path, cli_env)
        assert bad.returncode == 1, args
        assert message in bad.stderr, args
        assert bad.stdout == "", args

    # Each verb takes only its own flags.
    for verb, flag, value in (
        ("harmless", "--axes", "1,2"),
        ("witness", "--bounds", "0,1,0,1"),
        ("harmless", "--resolution", "1/3"),
        ("witness", "--resolution", "1/3"),
        ("verify", "--resolution", "1/3"),
        ("plot", "--resolution", "1/3"),
    ):
        wrong_flag = run_cli([verb, "--scenario", "pair.scn", flag, value], tmp_path, cli_env)
        assert wrong_flag.returncode == 1, (verb, flag)
        assert "unrecognized arguments" in wrong_flag.stderr

    short_bounds = run_cli(
        ["plot", "--scenario", "pair.scn", "--bounds", "0,1"], tmp_path, cli_env
    )
    assert short_bounds.returncode == 1
    assert "bounds must be xmin,xmax,ymin,ymax" in short_bounds.stderr

    # Axes are ASCII indices: other Unicode digits are not indices.
    for axes in ("0,\u0661", "\u00b2,1"):
        non_ascii = run_cli(["plot", "--scenario", "pair.scn", "--axes", axes], tmp_path, cli_env)
        assert non_ascii.returncode == 1, axes
        assert f"axes must be two indices like 1,2, not {axes!r}" in non_ascii.stderr, axes

    retired = tmp_path / "retired.scn"
    retired.write_text(FACILITY_EXAMPLE + "option probe_step 1/100\n")
    unknown_option = run_cli(["harmless", "--scenario", "retired.scn"], tmp_path, cli_env)
    assert unknown_option.returncode == 1
    assert "unknown option 'probe_step' for class facility_line" in unknown_option.stderr


@pytest.mark.parametrize(
    "verb, text, message",
    [
        (
            "harmless",
            SECOND_PRICE_EXAMPLE,
            "error: harmless needs a forward-mode scenario (theta line)\n",
        ),
        (
            "harmful",
            DETERMINISTIC_EXAMPLE,
            "error: harmful needs a reverse-mode scenario (reported line)\n",
        ),
        (
            "harmless",
            FACILITY_EXAMPLE + "option verification no_overbid\n",
            "error: line 9: option verification: 'no_overbid' is not one of "
            "no_underbid_distance, direction_imposing\n",
        ),
        ("harmless", "class deterministic\ntheta 0 1\n", "error: missing scenario line\n"),
        ("harmless", "scenario s\ntheta 0 1\n", "error: missing class line\n"),
        (
            "harmless",
            "scenario s\nclass deterministic\ntheta 0 1\noption\n",
            "error: line 4: option needs a key\n",
        ),
        (
            "harmless",
            "scenario s\nclass deterministic\nassignments a\ntheta 0 1\n",
            "error: line 3: need at least two assignment labels\n",
        ),
        (
            "harmless",
            "scenario s\nclass deterministic\nassignments a b\nnull_assignment c\ntheta 0 1\n",
            "error: null_assignment 'c' not in assignments\n",
        ),
        (
            "harmless",
            "scenario s\nclass deterministic\nnull_assignment a\ntheta 0 1\n",
            "error: null_assignment needs an assignments line\n",
        ),
        (
            "harmless",
            "scenario s\nclass truthful_in_expectation\nassignments a b\nnull_assignment b\n"
            "theta 0 1\n",
            "error: the null assignment must be listed first\n",
        ),
        (
            "verify",
            "scenario s\nclass truthful_in_expectation\nassignments a b\nnull_assignment b\n"
            "theta 0 1\noption rule_prices 0 1\n",
            "error: the null assignment must be listed first\n",
        ),
        (
            "harmless",
            "scenario s\nclass deterministic\ntheta 0 1\nspace_low 0 2\nspace_high 1 1\n",
            "error: space_low 2 exceeds space_high 1\n",
        ),
        (
            "harmless",
            "scenario s\nclass deterministic\ntheta 0 1\nspace_low 0 2\n",
            "error: anchor lies below the type-space box\n",
        ),
        (
            "verify",
            "scenario s\nclass deterministic\ntheta 0 1\noption rule_prices 0\n",
            "error: rule_prices takes 2 values\n",
        ),
        (
            "verify",
            "scenario s\nclass deterministic\ntheta 0 1\noption rule_pair 0 2\n"
            "option rule_price 1\n",
            "error: rule_pair indices out of range\n",
        ),
        (
            "verify",
            "scenario s\nclass deterministic\ntheta 0 1\noption rule_pair 0 1\n",
            "error: rule_pair needs option rule_price\n",
        ),
        (
            "verify",
            "scenario s\nclass deterministic\ntheta 0 1\noption rule_pair 1 1\n"
            "option rule_price 1\n",
            "error: rule_pair takes two distinct indices\n",
        ),
        (
            "verify",
            "scenario s\nclass deterministic\nallocation 1 0 0\nallocation 0 0 1\ntheta 0 1 2\n"
            "option rule_prices 0 1 2\nquery 0 2 1\n",
            "error: verify reads no allocation lines\n",
        ),
        (
            "verify",
            "scenario s\nclass truthful_in_expectation\ntheta 1 1 1\nallocation 1 0 0\n"
            "allocation 0 1 0\nallocation 0 0 1\noption rule_prices 0 0 0\n",
            "error: verify reads no allocation lines\n",
        ),
        (
            "verify",
            SECOND_PRICE_EXAMPLE + "option rule_prices 0\n",
            "error: verify needs a forward-mode scenario\n",
        ),
        (
            "plot --axes 0,3",
            "scenario s\nclass deterministic\ntheta 0 1 2\n",
            "error: axes (0, 3) invalid for dimension 3\n",
        ),
        (
            "harmless",
            "scenario a b\nclass deterministic\ntheta 0 1\n",
            "error: line 1: scenario takes exactly one name token\n",
        ),
        (
            "harmless",
            "scenario s\nclass deterministic\ntheta 0 1 2\nallocation 1/2 1/3 0\n",
            "error: line 4: allocation probabilities sum to 5/6, not 1\n",
        ),
        (
            "harmless",
            "scenario s\nclass deterministic\nassignments a b a\ntheta 0 1 2\n",
            "error: assignment labels must be distinct\n",
        ),
    ],
    ids=[
        "harmless-on-reverse",
        "harmful-on-forward",
        "facility-no-overbid",
        "missing-scenario",
        "missing-class",
        "option-without-key",
        "one-assignment-label",
        "null-not-listed",
        "null-without-assignments",
        "null-not-first",
        "verify-null-not-first",
        "box-low-above-high",
        "anchor-below-box",
        "rule-prices-count",
        "rule-pair-range",
        "rule-pair-without-price",
        "rule-pair-same-index",
        "verify-allocation-lines",
        "verify-expectation-set-valued-alike",
        "verify-on-reverse",
        "plot-axes-out-of-range",
        "scenario-two-names",
        "allocation-sum",
        "repeated-labels",
    ],
)
def test_cli_rejects_with_exact_messages(verb, text, message, tmp_path, capsys):
    scenario = tmp_path / "s.scn"
    scenario.write_text(text)
    # A verb may carry its own flags after it.
    assert main([*verb.split(), "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


@pytest.mark.parametrize("verb, anchor", [("harmless", "theta"), ("harmful", "reported")])
def test_one_coordinate_point_mass_scenario_is_refused(verb, anchor, tmp_path, capsys):
    # One coordinate is one point mass: there is no pair for a rule to split,
    # in either mode, however the point masses are read.
    scenario = tmp_path / "s.scn"
    scenario.write_text(f"scenario s\nclass deterministic\n{anchor} 1\nquery 2\n")
    assert main([verb, "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: need at least two allocations\n")


def test_plot_refuses_a_bounds_box_without_area(tmp_path, capsys):
    scenario = tmp_path / "s.scn"
    scenario.write_text(DETERMINISTIC_EXAMPLE)
    assert main(["plot", "--scenario", str(scenario), "--bounds", "1,1,0,1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        "error: bounds box must have positive width and height\n",
    )


def test_cli_repeat_runs_are_byte_identical(tmp_path, cli_env):
    scenario = tmp_path / "pair.scn"
    scenario.write_text(DETERMINISTIC_EXAMPLE)
    first = run_cli(["harmless", "--scenario", "pair.scn"], tmp_path, cli_env)
    second = run_cli(["harmless", "--scenario", "pair.scn"], tmp_path, cli_env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    svg1 = run_cli(["plot", "--scenario", "pair.scn", "--axes", "1,2"], tmp_path, cli_env)
    svg2 = run_cli(["plot", "--scenario", "pair.scn", "--axes", "1,2"], tmp_path, cli_env)
    assert svg1.returncode == svg2.returncode == 0
    assert svg1.stdout == svg2.stdout


def test_facility_scenarios_find_each_preferred_facility_once(monkeypatch):
    # Forward: coverage, the summary and the anchor's harmless test share
    # one facility_preferred call, and no call iterates VerificationKind;
    # reverse: one call per candidate position.
    calls, iterated = [], []
    preferred = scenarios.facility_preferred
    enum_iter = type(scenarios.VerificationKind).__iter__

    def counted(*args):
        calls.append(args)
        return preferred(*args)

    def counted_iter(cls):
        if cls is scenarios.VerificationKind:
            iterated.append(cls)
        return enum_iter(cls)

    monkeypatch.setattr(scenarios, "facility_preferred", counted)
    monkeypatch.setattr(cli, "facility_preferred", counted)
    monkeypatch.setattr(type(scenarios.VerificationKind), "__iter__", counted_iter)
    text = (SCENARIO_DIR / "two_facilities.scn").read_text()
    document = run_scenario(parse_scenario(text))
    assert len(calls) == 1 and iterated == []
    assert ("preferred", "0") in document.summary and ("covered", "true") in document.summary
    assert [q.member for q in document.queries] == [True, True, False]
    calls.clear()
    reverse = text.replace("theta 1/2", "reported 1/4")
    document = run_scenario(parse_scenario(reverse))
    assert len(calls) == len(document.queries) == 3 and iterated == []


def test_received_overbid_check_reads_the_menu_once(monkeypatch):
    # The grid pass chooses each type's entry once and hands it to the
    # predicate, which does not choose it again.
    reads, choices = [], []
    choice = mechanisms.point_mass_choice

    def counted(rule):
        reads.append(rule)
        choose = choice(rule)

        def counted_choose(x, scale, row):
            choices.append(x)
            return choose(x, scale, row)

        return counted_choose

    monkeypatch.setattr(mechanisms, "point_mass_choice", counted)
    text = (
        "scenario v\nclass deterministic\ntheta 0 1/4 1\noption rule_prices 0 1/4 1\n"
        "option verification_kind no_overbid_on_received\n"
        "query 0 1/2 3/2\nquery 0 0 0\nquery 0 1 2\nquery 0 2 1\nquery 0 1/3 1/2\n"
    )
    document = run_verify(parse_scenario(text))
    assert len(reads) == 1
    assert len(choices) == int(dict(document.summary)["grid_size"]) == 6
    assert ("truthful", "true") in document.summary
