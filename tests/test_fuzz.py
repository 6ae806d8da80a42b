"""Fuzzing the two text inputs: scenario files and the command line.

Whatever the text, parsing gives a scenario or the library's own error, and
the command line exits 0 or 1.  An uncaught exception would be exit 2.  A
scenario that runs gives a result document the benchmark's checker reads.
"""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mechverify import cli
from mechverify.cli import (
    MECHANISM_CLASSES,
    Scenario,
    ScenarioError,
    main,
    parse_scenario,
    run_scenario,
    serialize_result,
)
from mechverify.mechanisms import MechanismError

VALID_NUMBERS = st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "-3/4", "+5", "7/3", "0/4"])
NONNEGATIVE = st.sampled_from(["0", "1", "2", "1/2", "7/3"])
MALFORMED_NUMBERS = st.sampled_from(
    ["1e400", "1_000", "1.5", "x", "1/0", "inf", "-", "/2", "--1", "٣", "1/-2"]
)
NUMBERS = st.one_of(VALID_NUMBERS, MALFORMED_NUMBERS)
WORDS = st.sampled_from(
    ["true", "false", "maybe", "inf", "none", "to_i", "to_j", "to_k", "no_overbid",
     "no_overbid_on_received", "harmless_complement", "no_underbid_distance",
     "direction_imposing"]
)
# Per option key: values that make sense for a scenario of dimension dim.
VALID_OPTIONS = {
    "others": lambda draw, dim: draw(st.lists(NONNEGATIVE, min_size=2, max_size=2)),
    "price_low": lambda draw, dim: draw(st.lists(NONNEGATIVE, min_size=2, max_size=2)),
    "price_high": lambda draw, dim: draw(
        st.lists(st.sampled_from(["5", "7", "inf"]), min_size=2, max_size=2)
    ),
    "threshold": lambda draw, dim: [draw(NONNEGATIVE)],
    "allocation_dependent": lambda draw, dim: [draw(st.sampled_from(["true", "false"]))],
    "k": lambda draw, dim: [str(dim - 1)],
    "facilities": lambda draw, dim: draw(st.sampled_from([["0", "2"], ["-1", "1"], ["0", "1/2"]])),
    "benefit": lambda draw, dim: [draw(st.sampled_from(["1", "4", "7/3"]))],
    "verification": lambda draw, dim: draw(
        st.lists(st.sampled_from(["no_underbid_distance", "direction_imposing"]), unique=True)
    ),
    "rule_prices": lambda draw, dim: draw(st.lists(VALID_NUMBERS, min_size=dim, max_size=dim)),
    "rule_pair": lambda draw, dim: [str(i) for i in draw(st.permutations(range(dim)))[:2]],
    "rule_price": lambda draw, dim: [draw(VALID_NUMBERS)],
    "rule_tie": lambda draw, dim: [draw(st.sampled_from(["to_i", "to_j"]))],
    "verification_kind": lambda draw, dim: [
        draw(st.sampled_from(
            ["none", "no_overbid", "no_overbid_on_received", "harmless_complement"]
        ))
    ],
}
# Per class: its anchor line (None: either), dimensions, whether coordinate 0
# is a null worth 0, whether values are nonnegative, and the options it reads.
CLASS_SHAPES = {
    "deterministic": (None, (2, 3), False, False, ()),
    "universally_truthful": (None, (2, 3), False, False, ()),
    "truthful_in_expectation": ("theta", (2, 3), False, False, ()),
    "vcg": ("theta", (3,), True, False, ("others",)),
    "price_family": ("theta", (3,), True, False, ("price_low", "price_high")),
    "second_price": ("reported", (1,), False, True, ("threshold", "allocation_dependent")),
    "kminded": ("theta", (2, 3), True, False, ("k",)),
    "facility_line": ("theta", (1,), False, False, ("facilities", "benefit", "verification")),
}


def test_option_keys_match_the_class_table():
    table = {cls: set(row[2]) for cls, row in cli._CLASSES.items()}
    keys = set(cli._VERIFY_OPTIONS).union(*table.values())
    assert set(VALID_OPTIONS) == keys
    assert {cls: set(shape[4]) for cls, shape in CLASS_SHAPES.items()} == table
    assert set(re.findall(r"option ([a-z_]+)", cli.__doc__)) == keys


DIRECTIVES = (
    "assignments", "null_assignment", "theta", "reported", "space_low", "space_high",
    "allocation", "query", "option", "scenario", "class", "frobnicate",
)


@st.composite
def vectors(draw, dim, null=False, nonnegative=False):
    numbers = NONNEGATIVE if nonnegative else VALID_NUMBERS
    coords = draw(st.lists(numbers, min_size=dim, max_size=dim))
    if null:
        coords[0] = "0"
    return " ".join(coords)


@st.composite
def corrupt_options(draw, key=None):
    """An option line of any key, with any count of numbers and words."""
    if key is None:
        key = draw(st.sampled_from(tuple(VALID_OPTIONS) + ("probe_step", "")))
    values = draw(st.lists(st.one_of(NUMBERS, WORDS), max_size=3))
    return " ".join(["option", key, *values]).strip()


@st.composite
def directive_lines(draw, dim):
    """Any directive, with any token count and malformed tokens among the valid."""
    key = draw(st.sampled_from(DIRECTIVES))
    if key == "option":
        return draw(corrupt_options())
    if key in ("assignments", "null_assignment"):
        labels = draw(st.lists(st.sampled_from(["null", "a", "b", "c"]), max_size=dim + 1))
        return " ".join([key, *labels])
    if key == "allocation" and draw(st.booleans()):
        index = draw(st.integers(0, dim - 1))
        return "allocation " + " ".join("1" if i == index else "0" for i in range(dim))
    if key == "scenario":
        return "scenario " + " ".join(draw(st.lists(st.sampled_from(["s", "t"]), max_size=2)))
    if key == "class":
        return f"class {draw(st.sampled_from(MECHANISM_CLASSES + ('bogus',)))}"
    size = draw(st.integers(0, dim + 1))
    return " ".join([key, *draw(st.lists(NUMBERS, min_size=size, max_size=size))])


@st.composite
def scenario_texts(draw, corrupt=None):
    """A scenario of a random class.  Half are shaped to run: the class's
    anchor, dimension and value ranges, its options and one verify rule.
    The other half may break any rule of the grammar: another anchor or
    dimension, options with random values, and random directive lines."""
    if corrupt is None:
        corrupt = draw(st.booleans())
    cls = draw(st.sampled_from(MECHANISM_CLASSES))
    anchor, dims, null, nonnegative, keys = CLASS_SHAPES[cls]
    if anchor is None or (corrupt and draw(st.booleans())):
        anchor = draw(st.sampled_from(["theta", "reported"]))
    dim = draw(st.sampled_from((1, 2, 3) if corrupt and draw(st.booleans()) else dims))
    points = [draw(vectors(dim, null, nonnegative)) for _ in range(draw(st.integers(1, 4)))]
    lines = ["scenario fuzz", f"class {cls}", f"{anchor} {points[0]}"]
    lines += [f"query {point}" for point in points[1:]]
    keys += draw(st.sampled_from([("rule_prices",), ("rule_pair", "rule_price"),
                                  ("rule_pair", "rule_price", "rule_tie")] if dim > 1
                                 else [("rule_prices",)]))
    keys += draw(st.sampled_from([(), ("verification_kind",)]))
    for key in keys:
        if corrupt and draw(st.booleans()):
            lines.append(draw(corrupt_options(key)))
        else:
            lines.append(" ".join(["option", key, *VALID_OPTIONS[key](draw, dim)]))
    if draw(st.booleans()):
        low = draw(st.lists(st.sampled_from(["-3", "-1"]), min_size=dim, max_size=dim))
        high = draw(st.lists(st.sampled_from(["5", "7"]), min_size=dim, max_size=dim))
        lines += [f"space_low {' '.join(low)}", f"space_high {' '.join(high)}"]
    if corrupt:
        for line in draw(st.lists(directive_lines(dim), min_size=1, max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))), line)
    lines += draw(st.lists(st.sampled_from(["", "# comment", "  # indented"]), max_size=2))
    if draw(st.booleans()):
        lines[-1] += "  # trailing comment"
    return "\n".join(lines) + "\n"


@given(scenario_texts())
def test_parse_scenario_returns_a_scenario_or_raises_scenario_error(text):
    try:
        assert isinstance(parse_scenario(text), Scenario)
    except ScenarioError:
        pass


PLOT_FLAGS = st.sampled_from(
    [[], ["--axes", "0,1"], ["--axes", "1,2"], ["--axes", "0,0"], ["--axes", "x"],
     ["--bounds", "-1,1,-1,1"], ["--bounds", "1,0,0,1"], ["--bounds", "0,1"]]
)


VERBS = ("harmless", "harmful", "witness", "verify", "plot")


@st.composite
def cli_runs(draw):
    """A scenario text and, most of the time, a verb its anchor line suits."""
    text = draw(scenario_texts())
    forward = ("harmless", "witness", "verify", "plot")
    suited = forward if "\ntheta " in "\n" + text else ("harmful", "witness", "plot")
    return text, draw(st.sampled_from(suited if draw(st.integers(0, 4)) else VERBS))


@settings(max_examples=300)
@given(cli_runs(), PLOT_FLAGS)
def test_cli_exits_0_or_1_on_any_scenario(run, plot_flags):
    text, verb = run
    with tempfile.TemporaryDirectory() as work:
        scenario = Path(work) / "fuzz.scn"
        scenario.write_text(text)
        argv = [verb, "--scenario", str(scenario), "--out", str(Path(work) / "out")]
        if verb == "plot":
            argv += plot_flags
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1), stderr.getvalue()
    assert "object at 0x" not in stderr.getvalue()


BUNDLED = Path(__file__).resolve().parent.parent / "scenarios" / "bundle_pair.scn"
FLAGS = ("--scenario", "--out", "--axes", "--bounds")
FLAG_VALUES = st.sampled_from(["in.scn", "out.txt", "absent.scn", "0,1", "1,2", "-1,1,-1,1", ""])
# Stray tokens never hold "/", so no value names a path outside the work directory.
ARGV_TOKENS = st.one_of(
    st.sampled_from(VERBS),
    st.sampled_from(FLAGS),
    FLAG_VALUES,
    st.sampled_from(["-h", "--help", "-", "--", "=", "--scen", "--axes=", "-x", "help"]),
    st.builds("{}={}".format, st.sampled_from(FLAGS), FLAG_VALUES),
    st.text(st.characters(blacklist_characters="/"), max_size=6),
)


@st.composite
def argvs(draw):
    """Token lists, most of them a verb and a scenario flag followed by more."""
    head = []
    if draw(st.integers(0, 3)):
        head = [draw(st.sampled_from(VERBS)), "--scenario", "in.scn"]
    return head + draw(st.lists(ARGV_TOKENS, max_size=6))


@settings(max_examples=300)
@given(argvs())
def test_cli_exits_0_or_1_on_any_argv(argv):
    home = os.getcwd()
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        Path(work, "in.scn").write_text(BUNDLED.read_text())
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(home)
    assert code in (0, 1), stderr.getvalue()
    if "-h" in argv or "--help" in argv:
        assert code == 0 and stdout.getvalue().startswith("usage: mechverify"), argv


@settings(max_examples=100)
@given(scenario_texts(corrupt=False))
def test_checker_reads_the_result_of_any_scenario_that_runs(checker, text):
    try:
        document = run_scenario(parse_scenario(text))
    except (ScenarioError, MechanismError, ValueError):
        return
    read = checker.parse_document(serialize_result(document))
    assert read.header["result"] == document.scenario_name
    assert read.header["class"] == document.mechanism_class
    assert read.queries == [(qr.query.coords, qr.member) for qr in document.queries]
