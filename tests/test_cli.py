"""Scenario files, result documents, rendering, and the executable module."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mechverify.cli import (
    MECHANISM_CLASSES,
    Scenario,
    ScenarioError,
    main,
    parse_result,
    parse_scenario,
    render_regions,
    run_scenario,
    run_verify,
    serialize_result,
    serialize_witnesses,
    slice_region_vertices,
)
from mechverify.geometry import Sense, vec
from mechverify.mechanisms import MechanismError

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


# Per class: the mode it runs in (None for both), an anchor, and the
# options that make the scenario runnable.
CLASS_MODES = {
    "deterministic": (None, "0 1/2 3/2", ""),
    "universally_truthful": (None, "0 1/2 3/2", ""),
    "truthful_in_expectation": ("forward", "1 2 4", ""),
    "vcg": ("forward", "0 2 1", "option others 1 0\n"),
    "price_family": ("forward", "0 1/2 1", ""),
    "second_price": ("reverse", "1", "option threshold 1/2\n"),
    "kminded": ("forward", "0 1/2 3/2", "option k 2\n"),
    "facility_line": ("forward", "1/2", "option facilities 0 2\n"),
}
# The verify verb's options, which every class accepts and run_scenario ignores.
VERIFY_OPTIONS = (
    "option rule_pair 0 1\noption rule_price 1\noption rule_tie to_j\n"
    "option rule_prices 0 1\noption verification_kind no_overbid\n"
)


@pytest.mark.parametrize("mode", ["forward", "reverse"])
@pytest.mark.parametrize("cls", MECHANISM_CLASSES)
def test_class_runs_only_in_its_modes(cls, mode):
    runs_in, anchor, options = CLASS_MODES[cls]
    anchor_line = f"{'theta' if mode == 'forward' else 'reported'} {anchor}"
    scenario = parse_scenario(
        f"scenario s\nclass {cls}\n{anchor_line}\n{options}{VERIFY_OPTIONS}query {anchor}\n"
    )
    if runs_in in (None, mode):
        document = run_scenario(scenario)
        assert (document.mechanism_class, document.mode) == (cls, mode)
        assert len(document.queries) == 1
    else:
        with pytest.raises(ScenarioError) as err:
            run_scenario(scenario)
        assert str(err.value) == f"{cls} scenarios are {runs_in}-mode only"


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


def test_serialize_round_trips_exactly():
    for source in (
        DETERMINISTIC_EXAMPLE,
        TIE_EXAMPLE,
        SECOND_PRICE_EXAMPLE,
        FACILITY_EXAMPLE,
    ):
        document = run_scenario(parse_scenario(source))
        text = serialize_result(document)
        assert parse_result(text) == document
        assert serialize_result(parse_result(text)) == text


@pytest.mark.parametrize(
    "text, message",
    [
        ("result\n", "line 1: result takes exactly one token"),
        (
            "result r\nregion\nregion_halfspace normal=1,0 sense=strict\n",
            "line 3: region_halfspace missing offset=",
        ),
        (
            "result r\nregion_halfspace normal=1,0 offset=0 sense=weird\n",
            "line 2: bad sense 'weird'",
        ),
        ("result r\nsummary\n", "line 2: summary needs a key"),
        (
            "result r\nregion_halfspace normal=0,0 offset=0 sense=strict\n",
            "line 2: region_halfspace normal must be nonzero",
        ),
        (
            "result r\nmode forward\nclass deterministic\noperation o\nanchor 1,2\n"
            "region\nregion_halfspace normal=1,0 offset=0 sense=strict\nregion_extra 1,2,3\n",
            "mixed dimensions in region",
        ),
    ],
)
def test_parse_result_reports_malformed_lines(text, message):
    with pytest.raises(ScenarioError) as info:
        parse_result(text)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("token", ["1e400", "1_000", "1.5"])
def test_rationals_are_integers_or_p_over_q(token, tmp_path, cli_env):
    text = f"scenario s\nclass deterministic\ntheta {token} 1\nquery 0 1\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert str(info.value) == f"line 3: bad rational {token!r}"
    (tmp_path / "s.scn").write_text(text)
    result = run_cli(["harmless", "--scenario", "s.scn"], tmp_path, cli_env)
    assert result.returncode == 1
    assert "bad rational" in result.stderr


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

    result = run_cli(["--help"], tmp_path, cli_env)
    assert result.returncode == 0

    result = run_cli(["harmless", "--scenario", "pair.scn"], tmp_path, cli_env)
    assert result.returncode == 0
    document = parse_result(result.stdout)
    assert [qr.member for qr in document.queries] == [True, False]

    out = tmp_path / "result.txt"
    rerun = run_cli(
        ["harmless", "--scenario", "pair.scn", "--out", "result.txt"],
        tmp_path,
        cli_env,
    )
    assert rerun.returncode == 0
    assert out.read_text() == result.stdout

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
            "error: unknown verification kind 'no_overbid'\n",
        ),
    ],
    ids=["harmless-on-reverse", "harmful-on-forward", "facility-no-overbid"],
)
def test_cli_rejects_with_exact_messages(verb, text, message, tmp_path, capsys):
    scenario = tmp_path / "s.scn"
    scenario.write_text(text)
    assert main([verb, "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


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
