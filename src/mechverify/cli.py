"""Scenario files in, exact result documents and SVG region plots out.

Scenario format: one directive per line; ``#`` starts a comment; blank lines
are ignored.  Rationals are integers or "p/q" strings, optionally signed,
with at most ``MAX_DIGITS`` digits in p and in q.

    scenario NAME            required; single token
    class KIND               deterministic | universally_truthful |
                             truthful_in_expectation | vcg | price_family |
                             second_price | kminded | facility_line
    assignments LABEL...     optional labels; fixes the type dimension
    null_assignment LABEL    optional; names the valueless assignment
    theta R...               forward-mode anchor (the agent's true type)
    reported R...            reverse-mode anchor (the observed report)
    space_low R...           optional box restriction of the type space
    space_high R...          optional upper bounds (may appear without lows)
    allocation R...          optional explicit allocation, repeatable
    query R...               repeatable; points to test
    option KEY VALUE...      repeatable; class-specific settings

Exactly one of ``theta``/``reported`` must appear: ``theta`` makes a
forward-mode scenario, ``reported`` a reverse-mode one; there is no mode
directive.  Anchors and queries must lie inside the declared type-space box.
Class-specific options (V and P nonnegative):

    vcg            option others V1 V2        (repeatable, one per other agent)
    price_family   option price_low P1 P2 / option price_high P1 P2 ("inf" ok)
    second_price   option threshold T (required) /
                   option allocation_dependent true|false
    kminded        option k 1|2 (required)
    facility_line  option facilities G1 G2 (required) / option benefit B /
                   option verification no_underbid_distance|direction_imposing...
                   (repeatable)
    verify verb    option rule_prices P... | option rule_pair I J +
                   option rule_price C [+ option rule_tie to_i|to_j];
                   option verification_kind none|no_overbid|
                   no_overbid_on_received|harmless_complement

``verify`` reads every declared rule as a menu of point masses: a
``rule_pair`` with I != J is the two-entry menu e_I at C, e_J at 0, its
tie side first.  It reads no ``allocation`` lines, and refuses them.

Every class accepts the verify-verb options.  An unknown key, a repeated
single line, a bad value and values that contradict each other are errors
that name their line.  Every verb checks the class's type rule (dimension,
a null coordinate 0 worth 0, nonnegative values, allocation lines only for
the classes that read them) before it answers any query; the class's setup
checks the allocation lines it reads (point masses, expectation
allocations on one line if a true type values them apart), also before
any query.  ``plot`` draws the setup's region and certifies no query.

Four budgets bound the work a file can ask for: at most ``MAX_DIMENSION``
coordinates (or assignment labels) on a line, at most ``MAX_QUERIES``
query lines, at most ``MAX_REPEATS`` ``allocation`` lines and as many
``option`` lines of each key, and at most ``MAX_DIGITS`` digits in each
integer of a rational.  Each is checked as the line or token is read,
before its values are parsed and before any set is built.

Verbs and their own flags: every verb takes ``--scenario FILE`` and
``--out FILE``; ``plot`` takes ``--axes I,J`` and
``--bounds XMIN,XMAX,YMIN,YMAX``.  A flag reads ``--flag VALUE`` or
``--flag=VALUE`` (the ``=`` form for a value that begins with ``-``); the
last one given wins, and flags are spelled out in full.  ``-h`` or
``--help`` anywhere prints the usage to stdout and exits 0; a usage error
goes to stderr and exits 1.  The command line is parsed by a small table
of verbs and flags, so a run imports no module it does not use.

Result documents are an output format: line-delimited text with every
rational kept exact, so identical inputs give byte-identical documents.
SVG output is the only place floats appear, formatted at six decimal places
so that it is deterministic too.
"""

from __future__ import annotations

import os
import re
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial
from math import gcd

from .geometry import (
    ZERO,
    ConvexRegion,
    DimensionMismatch,
    Frozen,
    Halfspace,
    Hyperplane,
    Sense,
    Vector,
    _common_numerators,
    _vector,
    box_region,
    empty_region,
    frac,
)
from .harmless import (
    PointMassRegion,
    SimplexFamily,
    check_null_coordinate,
    check_one_line,
    deterministic_harmless,
    point_mass_indices,
    tie_harmless_contains,  # unused here; perfbench/tracing.py wraps it under this module
    universally_truthful_harmless,  # unused here; perfbench/tracing.py wraps it under this module
)
from .mechanisms import (
    Allocation,
    AssignmentSet,
    MechanismError,
    SeparatingRule,
    TaxationRule,
    TieSide,
    apply_rule,
    is_truthful_with_verification,
    point_masses,
)
from .multiagent import (
    PriceFamily,
    UnitDemandProfile,
    find_beneficial_price,
    vcg_single_agent_rule,
)
from .oracle import construct_tie_witness, rule_benefit
from .oracle import search_beneficial_misreport  # unused here; perfbench/tracing.py wraps it
from .reverse import harmful_union_contains  # unused here; perfbench/tracing.py wraps it
from .scenarios import (
    FacilityLine,
    VerificationKind,
    facility_first_uncovered,
    facility_harmless_test,
    facility_preferred,
    facility_type,
    second_price_harmful_contains,
)


class ScenarioError(ValueError):
    """Scenario file or command-line problem, with a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# An assignment or axis index: ASCII digits only (str.isdigit and int()
# also take other scripts' digits and superscripts).
_INDEX = re.compile(r"[0-9]+")


def _parse_rational(token: str, line: int | None = None) -> Fraction:
    """An integer or p/q with an optional sign and at most ``MAX_DIGITS``
    digits in p and in q; nothing else (no decimals, exponents or digit
    separators).  The integers are the pattern's own groups, so no second,
    general parse runs."""
    match = _RATIONAL.fullmatch(token)
    if match is not None:
        numerator, denominator = match.groups()
        if denominator is None:
            return Fraction(int(numerator))
        if int(denominator):
            return Fraction(int(numerator), int(denominator))
    raise ScenarioError(f"bad rational {token!r}", line)


def _parse_vector(tokens: Sequence[str], line: int, values: dict[str, Fraction]) -> Vector:
    """The coordinates; ``values`` holds the scenario's tokens read so far."""
    if not tokens:
        raise ScenarioError("expected at least one coordinate", line)
    for token in tokens:
        if token not in values:
            values[token] = _parse_rational(token, line)
    return _vector(tuple([values[token] for token in tokens]))


class Scenario(Frozen):
    """A named setting: mechanism class, anchor type, queries, options.

    ``options`` pairs each option key with its value as the class table
    reads it; a repeatable key's value is the tuple of its lines' values.
    """

    __slots__ = (
        "name", "mechanism_class", "theta", "reported", "queries",
        "assignments", "allocations", "space_low", "space_high", "options",
    )

    def __init__(
        self,
        name: str,
        mechanism_class: str,
        theta: Vector | None = None,
        reported: Vector | None = None,
        queries: tuple[Vector, ...] = (),
        assignments: AssignmentSet | None = None,
        allocations: tuple[Allocation, ...] = (),
        space_low: Vector | None = None,
        space_high: Vector | None = None,
        options: tuple[tuple[str, object], ...] = (),
    ) -> None:
        self._init(
            name, mechanism_class, theta, reported, queries,
            assignments, allocations, space_low, space_high, options,
        )

    @property
    def mode(self) -> str:
        return "forward" if self.theta is not None else "reverse"

    @property
    def anchor(self) -> Vector:
        anchor = self.theta if self.theta is not None else self.reported
        if anchor is None:
            raise ScenarioError("exactly one of theta or reported must be given")
        return anchor


def _nonnegative(token: str) -> Fraction:
    value = _parse_rational(token)
    if value < 0:
        raise ScenarioError(f"values are nonnegative, not {token}")
    return value


def _price_bound(token: str) -> Fraction | None:
    """A nonnegative price, or None for "inf" (no upper bound)."""
    return None if token == "inf" else _nonnegative(token)


def _index(token: str) -> int:
    if not _INDEX.fullmatch(token):
        raise ScenarioError(f"bad assignment index {token!r}")
    return int(token)


def _option_value(tokens: Sequence[str], spec: tuple) -> object:
    """One option line's value under its key's spec in the class table."""
    count, read, _ = spec
    if count is not None and len(tokens) != count:
        raise ScenarioError(f"takes {count} value{'s' * (count > 1)}, not {len(tokens)}")
    values = []
    for token in tokens:
        if not isinstance(read, dict):
            values.append(read(token))
        elif token in read:
            values.append(read[token])
        else:
            raise ScenarioError(f"{token!r} is not one of {', '.join(read)}")
    return values[0] if count == 1 else tuple(values)


# The budgets.  A deterministic region prints m(m-1)/2 normals of m
# coordinates, verify compares every pair of grid points, an explicit
# allocation set is checked per scenario, not per query, and the vcg
# price sums over the other agents' matchings, so work and output grow
# polynomially in every size; the largest scenario they admit takes
# seconds, not minutes.  The digits of a rational bound the integers that
# exact arithmetic builds from it: at the other budgets, with 8-digit
# numerators and denominators, the slowest class takes about 6 s and prints
# integers of about 2100 digits, under int()'s default limit of 4300.
MAX_DIMENSION = 64
MAX_QUERIES = 128
MAX_REPEATS = 64
MAX_DIGITS = 8
# A rational token, p and q of at most MAX_DIGITS digits each: a longer one
# is refused before int() reads it.
_RATIONAL = re.compile(rf"([+-]?[0-9]{{1,{MAX_DIGITS}}})(?:/([0-9]{{1,{MAX_DIGITS}}}))?")
# The directives whose arguments are one coordinate or label per dimension.
_DIMENSION_DIRECTIVES = (
    "theta", "reported", "space_low", "space_high", "query", "allocation", "assignments"
)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text, reporting the offending line on error."""
    # The directives given at most once, by key.
    once: dict[str, str | tuple[str, ...] | Vector] = {}
    queries: list[Vector] = []
    allocations: list[Allocation] = []
    option_lines: list[tuple[int, str, list[str]]] = []
    # Lines read so far of each repeatable directive, and of each option key.
    repeats: dict[str, int] = {}
    # Coordinate tokens read so far: "0" is the ZERO the serializer skips.
    values = {"0": ZERO}

    for line_no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, *args = stripped.split()
        if key in once:
            raise ScenarioError(f"duplicate {key} line", line_no)
        if key in _DIMENSION_DIRECTIVES and len(args) > MAX_DIMENSION:
            raise ScenarioError(
                f"{key} has {len(args)} values; the dimension budget is {MAX_DIMENSION}", line_no
            )
        if key in ("query", "allocation", "option"):
            counted = f"option {args[0]}" if key == "option" and args else key
            seen = repeats.get(counted, 0)
            if seen == (MAX_QUERIES if key == "query" else MAX_REPEATS):
                raise ScenarioError(f"more than {seen} {counted} lines (the budget)", line_no)
            repeats[counted] = seen + 1
        if key in ("theta", "reported", "space_low", "space_high"):
            once[key] = _parse_vector(args, line_no, values)
        elif key == "scenario":
            if len(args) != 1:
                raise ScenarioError("scenario takes exactly one name token", line_no)
            once[key] = args[0]
        elif key == "class":
            if len(args) != 1 or args[0] not in MECHANISM_CLASSES:
                raise ScenarioError(
                    f"class must be one of {', '.join(MECHANISM_CLASSES)}", line_no
                )
            once[key] = args[0]
        elif key == "assignments":
            if len(args) < 2:
                raise ScenarioError("need at least two assignment labels", line_no)
            once[key] = tuple(args)
        elif key == "null_assignment":
            if len(args) != 1:
                raise ScenarioError("null_assignment takes one label", line_no)
            once[key] = args[0]
        elif key == "query":
            queries.append(_parse_vector(args, line_no, values))
        elif key == "allocation":
            try:
                allocations.append(Allocation(_parse_vector(args, line_no, values)))
            except MechanismError as exc:
                raise ScenarioError(str(exc), line_no) from None
        elif key == "option":
            if not args:
                raise ScenarioError("option needs a key", line_no)
            option_lines.append((line_no, args[0], args[1:]))
        else:
            raise ScenarioError(f"unknown directive {key!r}", line_no)

    name = once.get("scenario")
    mechanism_class = once.get("class")
    theta = once.get("theta")
    reported = once.get("reported")
    labels = once.get("assignments")
    null_label = once.get("null_assignment")
    if name is None:
        raise ScenarioError("missing scenario line")
    if mechanism_class is None:
        raise ScenarioError("missing class line")
    if (theta is None) == (reported is None):
        raise ScenarioError("exactly one of theta or reported must be given")
    _, specs, _, model = _CLASSES[mechanism_class]
    required = [key for key, (_, _, kind) in specs.items() if kind == "required"]

    def read_options(every_line: bool) -> dict[str, object]:
        options: dict[str, object] = {}
        for n, (line_no, key, args) in enumerate(option_lines, 1):
            spec = specs.get(key) or _VERIFY_OPTIONS.get(key)
            if spec is None:
                raise ScenarioError(f"unknown option {key!r} for class {mechanism_class}", line_no)
            if key in options and spec[2] != "repeatable":
                raise ScenarioError(f"option {key!r} given more than once", line_no)
            try:
                value = _option_value(args, spec)
                options[key] = options.get(key, ()) + (value,) if spec[2] == "repeatable" else value
                # Values that must agree: checked once all are read, or after each line.
                checked = every_line or n == len(option_lines)
                if checked and model is not None and all(k in options for k in required):
                    model(options)
            except ValueError as exc:
                raise ScenarioError(f"option {key}: {exc}", line_no) from None
        return options

    try:
        options = read_options(every_line=False)
    except ScenarioError:
        read_options(every_line=True)  # names the first line that breaks the values
        raise

    assignments = None
    if labels is not None:
        null_index = None
        if null_label is not None:
            if null_label not in labels:
                raise ScenarioError(f"null_assignment {null_label!r} not in assignments")
            null_index = labels.index(null_label)
        try:
            assignments = AssignmentSet(labels, null_index)
        except MechanismError as exc:
            raise ScenarioError(str(exc)) from None
    elif null_label is not None:
        raise ScenarioError("null_assignment needs an assignments line")

    scenario = Scenario(
        name=name,
        mechanism_class=mechanism_class,
        theta=theta,
        reported=reported,
        queries=tuple(queries),
        assignments=assignments,
        allocations=tuple(allocations),
        space_low=once.get("space_low"),
        space_high=once.get("space_high"),
        options=tuple(options.items()),
    )
    _validate_dimensions(scenario)
    return scenario


def _validate_dimensions(scenario: Scenario) -> None:
    anchor = scenario.anchor
    dim = anchor.dim
    if scenario.assignments is not None and scenario.assignments.size != dim:
        raise ScenarioError(
            f"{scenario.assignments.size} assignment labels but dimension {dim}"
        )
    low, high = scenario.space_low, scenario.space_high
    named = [("query", q) for q in scenario.queries]
    named += [("allocation", a.probs) for a in scenario.allocations]
    named += [(label, v) for label, v in (("space_low", low), ("space_high", high)) if v]
    for label, v in named:
        if v.dim != dim:
            raise ScenarioError(f"{label} dimension {v.dim} does not match {dim}")
    if low is None and high is None:
        return  # no box: every point lies in the type space
    for lo, hi in zip(low or (), high or ()):
        if lo > hi:
            raise ScenarioError(f"space_low {lo} exceeds space_high {hi}")
    _check_in_space(scenario, anchor, "anchor")
    for index, q in enumerate(scenario.queries):
        _check_in_space(scenario, q, f"query {index}")


def _check_in_space(scenario: Scenario, point: Vector, label: str) -> None:
    # Points outside the declared type space are not types at all; the box
    # prunes the region rather than flipping memberships, so out-of-space
    # queries are rejected instead of answered.
    if any(c < lo for c, lo in zip(point, scenario.space_low or ())):
        raise ScenarioError(f"{label} lies below the type-space box")
    if any(c > hi for c, hi in zip(point, scenario.space_high or ())):
        raise ScenarioError(f"{label} lies above the type-space box")


def load_scenario(path: str | os.PathLike[str]) -> Scenario:
    with open(path) as handle:
        return parse_scenario(handle.read())


# --------------------------------------------------------------------------
# Result documents


FieldValue = Vector | Fraction | str
Fields = tuple[tuple[str, str, FieldValue], ...]


class WitnessRecord(Frozen):
    """A certificate attached to one query: named, typed fields.

    Type codes: "v" vector, "r" rational, "t" token.
    """

    __slots__ = ("query_index", "kind", "fields")

    def __init__(self, query_index: int, kind: str, fields: Fields) -> None:
        self._init(query_index, kind, fields)


class QueryResult(Frozen):
    __slots__ = ("query", "member")

    def __init__(self, query: Vector, member: bool) -> None:
        self._init(query, member)


class ResultDocument(Frozen):
    """Everything a scenario run produced, exact and serializable."""

    __slots__ = (
        "scenario_name", "mechanism_class", "mode", "operation", "anchor",
        "region", "queries", "witnesses", "summary", "provenance",
    )

    def __init__(
        self,
        scenario_name: str,
        mechanism_class: str,
        mode: str,
        operation: str,
        anchor: Vector,
        region: ConvexRegion | PointMassRegion | None = None,
        queries: tuple[QueryResult, ...] = (),
        witnesses: tuple[WitnessRecord, ...] = (),
        summary: tuple[tuple[str, str], ...] = (),
        provenance: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._init(
            scenario_name, mechanism_class, mode, operation, anchor,
            region, queries, witnesses, summary, provenance,
        )


def _provenance(mechanism_class: str, operation: str) -> tuple[tuple[str, str], ...]:
    from . import __version__

    return (
        ("package", "mechverify"),
        ("version", __version__),
        ("class", mechanism_class),
        ("operation", operation),
    )


# A certificate for one (true type, report) pair: witness kind and fields.
Certificate = tuple[str, Fields]
Certify = Callable[[Vector], Certificate | None]
# What a class's setup returns: (operation, prepare, region before the
# type-space box or None, summary).  prepare(theta) does the work that
# depends on the true type alone, once, and gives certify(x): the checked
# certificate under which reporting x beats the truth theta, or None when x
# is harmless for theta.  Forward mode prepares the anchor and certifies
# each query, a member exactly when it has none; reverse mode prepares each
# query and certifies the anchor, a member exactly when it has one.
Setup = tuple[str, Callable[[Vector], Certify], ConvexRegion | None, tuple[tuple[str, str], ...]]


def _separating(rule: SeparatingRule, true_type: Vector, report: Vector) -> Fields:
    """The fields of ``rule``, under which reporting ``report`` beats the
    truth, checked by direct evaluation before it is shipped."""
    gained, truthful = rule_benefit(rule, true_type, report)
    if not gained > truthful:
        raise AssertionError(f"certificate failed validation: {gained} <= {truthful}")
    fields: list[tuple[str, str, FieldValue]] = [
        ("allocation_i", "v", rule.a_i.probs),
        ("allocation_j", "v", rule.a_j.probs),
        ("relative_price", "r", rule.relative_price),
        ("tie", "t", rule.tie_assignment.value),
        ("gained", "r", gained),
        ("truthful", "r", truthful),
    ]
    pinned = sorted(rule.overrides, key=lambda item: item[0].coords)
    for n, (point, target) in enumerate(pinned):
        fields.append((f"override_point_{n}", "v", point))
        fields.append((f"override_target_{n}", "v", target.probs))
    return tuple(fields)


def _point_mass(
    scenario: Scenario,
    operation: str,
    allocations: Sequence[Allocation],
    summary: tuple[tuple[str, str], ...],
) -> Setup:
    """Every point-mass class: the point masses are checked once per
    scenario, before any query (forward by ``deterministic_harmless``), and
    one ``PointMassRegion`` per true type decides and certifies each (theta,
    x) in closed form.  Forward mode prepares the anchor alone: its queries
    are certified from the region it prints; reverse mode builds one region
    per candidate."""
    region = indices = None
    if scenario.mode == "forward":
        region = deterministic_harmless(scenario.anchor, allocations).region
    else:
        operation = "harmful_union_contains"
        indices = point_mass_indices(allocations, scenario.anchor.dim)

    def certify(prepared: PointMassRegion, x: Vector) -> Certificate | None:
        rule = prepared.rule(x)
        return None if rule is None else ("separating", _separating(rule, prepared.theta, x))

    def prepare(theta: Vector) -> Certify:
        return partial(certify, region or PointMassRegion(theta, indices))

    return operation, prepare, region, summary


def _setup_point_mass(scenario: Scenario, options: dict) -> Setup:
    """deterministic and universally_truthful classes."""
    allocations = scenario.allocations or point_masses(scenario.anchor.dim)
    summary = (("allocations", str(len(allocations))),)
    operation = f"{scenario.mechanism_class}_harmless"
    return _point_mass(scenario, operation, allocations, summary)


def _setup_tie(scenario: Scenario, options: dict) -> Setup:
    """truthful_in_expectation.  An explicit set is read here, before any
    query, by ``check_one_line`` for the true types (the anchor forward, the
    queries in reverse), as ``tie_harmless_contains`` reads it: off one line
    it is refused once one of them values it apart, and pair_of(theta) is
    theta's decisive pair, which answers every report as the set does."""
    allocations = scenario.allocations
    if allocations:
        true_types = (scenario.anchor,) if scenario.mode == "forward" else scenario.queries
        pair_of = check_one_line(allocations, true_types)

        def prepare(theta: Vector) -> Certify:
            pair = pair_of(theta)
            if pair is None:
                return lambda x: None  # theta values every allocation alike
            d = pair[0].probs - pair[1].probs
            level = d.dot(theta)
            # The oracle's rule on the pair: a harmful x is off the boundary, so
            # theta alone is pinned, to the worse allocation.
            rule = SeparatingRule(*pair, level, TieSide.TO_I, ((theta, pair[1]),))

            def certify(x: Vector) -> Certificate | None:
                return None if d.dot(x) <= level else ("separating", _separating(rule, theta, x))

            return certify

        return "tie_harmless_contains", prepare, None, (("family", "explicit"),)
    family = SimplexFamily.FULL_SIMPLEX
    if scenario.assignments is not None and scenario.assignments.null_index is not None:
        family = SimplexFamily.SUBSIMPLEX_WITH_NULL  # null first, as _checked has seen

    def certify(theta: Vector, x: Vector) -> Certificate | None:
        # The witness construction decides membership itself: None is harmless.
        witness = construct_tie_witness(theta, x, family)
        if witness is None:
            return None
        fields = (
            ("low", "v", witness.low.probs),
            ("high", "v", witness.high.probs),
            ("relative_price", "r", witness.rule.relative_price),
            ("tie", "t", witness.rule.tie_assignment.value),
            ("gained", "r", witness.gained_value),
            ("truthful", "r", witness.truthful_value),
        )
        return "randomized_pair", fields

    summary = (("family", family.value),)
    return "tie_harmless_contains", lambda theta: partial(certify, theta), None, summary


def _setup_vcg(scenario: Scenario, options: dict) -> Setup:
    others = options.get("others", ())
    rule = vcg_single_agent_rule(UnitDemandProfile(others))
    prices = [price for _, price in rule.entries]
    summary = (
        ("others", str(len(others))),
        ("price_item1", str(prices[1])),
        ("price_item2", str(prices[2])),
    )
    return _point_mass(scenario, "vcg_harmless_contains", point_masses(3), summary)


def _price_family(options: dict) -> PriceFamily:
    lows = options.get("price_low", (Fraction(0), Fraction(0)))
    highs = options.get("price_high", (None, None))
    return PriceFamily(((lows[0], highs[0]), (lows[1], highs[1])))


def _setup_price_family(scenario: Scenario, options: dict) -> Setup:
    family = _price_family(options)

    def certify(theta: Vector, x: Vector) -> Certificate | None:
        # The vertex scan decides membership itself: None is harmless.
        witness = find_beneficial_price(theta, family, x)
        if witness is None:
            return None
        fields = (
            ("price_item1", "r", witness.prices[0]),
            ("price_item2", "r", witness.prices[1]),
            ("report_entry", "t", str(witness.report_entry)),
            ("truthful_entry", "t", str(witness.truthful_entry)),
            ("gained", "r", witness.gained_value),
            ("truthful", "r", witness.truthful_value),
        )
        return "prices", fields

    def bound_token(bound: Fraction | None) -> str:
        return "inf" if bound is None else str(bound)

    (low1, high1), (low2, high2) = family.bounds
    summary = (
        ("price_low", f"{low1},{low2}"),
        ("price_high", f"{bound_token(high1)},{bound_token(high2)}"),
    )
    return "price_family_harmless_contains", lambda theta: partial(certify, theta), None, summary


def _setup_kminded(scenario: Scenario, options: dict) -> Setup:
    k = options["k"]
    summary = (("k", str(k)),)
    return _point_mass(scenario, "kminded_harmless_contains", point_masses(k + 1), summary)


def _setup_second_price(scenario: Scenario, options: dict) -> Setup:
    threshold = options["threshold"]
    allocation_dependent = options.get("allocation_dependent", False)

    def certify(theta: Vector, x: Vector) -> Certificate | None:
        # Does the bid x help the true value theta?
        if not second_price_harmful_contains(x[0], threshold, allocation_dependent, theta[0]):
            return None
        return "threshold", (
            ("threshold", "r", threshold), ("reported", "r", x[0]), ("candidate", "r", theta[0])
        )

    region = None
    if scenario.mode == "reverse":
        region = _second_price_region(scenario.anchor[0], threshold, allocation_dependent)
    summary = (
        ("threshold", str(threshold)),
        ("allocation_dependent", "true" if allocation_dependent else "false"),
    )
    return "second_price_harmful_contains", lambda theta: partial(certify, theta), region, summary


def _second_price_region(
    reported: Fraction, threshold: Fraction, allocation_dependent: bool
) -> ConvexRegion:
    if allocation_dependent and threshold > reported:
        # The item never changes hands, so no candidate needs checking.
        return empty_region(1)
    upper = threshold if allocation_dependent else reported
    return ConvexRegion(
        (
            Halfspace(Hyperplane(Vector((Fraction(1),)), Fraction(0))),
            Halfspace(Hyperplane(Vector((Fraction(-1),)), -upper)),
        )
    )


def _facility_line(options: dict) -> FacilityLine:
    return FacilityLine(options["facilities"], options.get("benefit", Fraction(1)))


def _setup_facility(scenario: Scenario, options: dict) -> Setup:
    line = _facility_line(options)
    kinds = [kind for listed in options.get("verification", ()) for kind in listed]

    def prepare(theta: Vector, preferred=...) -> Certify:
        # theta's harmless test (on its preferred facility, found here unless
        # given), type and region, once.
        harmless = facility_harmless_test(theta[0], line, _preferred=preferred)
        agent_type = facility_type(theta[0], line)
        region = PointMassRegion(agent_type, (0, 1))

        def certify(x: Vector) -> Certificate | None:
            if harmless(x[0]):
                return None
            report_type = facility_type(x[0], line)
            rule = region.rule(report_type)
            fields = (("agent_type", "v", agent_type), ("report_type", "v", report_type))
            return "separating", fields + _separating(rule, agent_type, report_type)

        return certify

    summary = (("verifications", ",".join(kind.value for kind in kinds) or "none"),)
    if scenario.mode == "forward":
        # Coverage, the summary and the anchor's harmless test share the
        # anchor's preferred facility, found once.
        position = scenario.anchor[0]
        preferred = facility_preferred(position, line)
        uncovered = facility_first_uncovered(position, line, kinds, _preferred=preferred)
        summary = (
            ("covered", "true" if uncovered is None else "false"),
            ("preferred", "indifferent" if preferred is None else str(preferred)),
        ) + summary
        if uncovered is not None:
            summary += (("first_uncovered", str(uncovered)),)
        prepare = partial(prepare, preferred=preferred)  # forward mode prepares the anchor alone
    return "facility_verification_covers", prepare, None, summary


# The class table.  An option key maps to (count, read, kind): a line of the
# key holds ``count`` values (any number when None), each read by a function
# of its token or looked up in a dict of the allowed tokens, and kind is
# "repeatable", "required" or None.  Every class reads the verify verb's keys.
_VERIFY_OPTIONS = {
    "rule_prices": (None, _parse_rational, None),
    "rule_pair": (2, _index, None),
    "rule_price": (1, _parse_rational, None),
    "rule_tie": (1, {"to_i": TieSide.TO_I, "to_j": TieSide.TO_J}, None),
    "verification_kind": (1, {"none": "none", "no_overbid": "no_overbid",
                              "no_overbid_on_received": "no_overbid_on_received",
                              "harmless_complement": "harmless_complement"}, None),
}
# Each class, in both modes: its setup, its own option keys, its type rule:
# the types' dimension (None for any, or a function of the options) with the
# message naming it, then tags for a null coordinate 0 worth 0, nonnegative
# values, explicit allocations read (point masses, or any set whose
# differences span one line) and "positions" (a type is a position on a
# line, not a value vector), and the library object, if any, that checks
# option values against each other.
_CLASSES = {
    "deterministic": (_setup_point_mass, {}, (None, "", "point_masses"), None),
    "universally_truthful": (_setup_point_mass, {}, (None, "", "point_masses"), None),
    "truthful_in_expectation": (_setup_tie, {}, (None, "", "allocations"), None),
    "vcg": (_setup_vcg, {"others": (2, _nonnegative, "repeatable")},
            (3, "vcg scenarios use three coordinates (null, item1, item2)", "null"), None),
    "price_family": (_setup_price_family,
                     {"price_low": (2, _nonnegative, None), "price_high": (2, _price_bound, None)},
                     (3, "price_family scenarios use three coordinates (null, item1, item2)"),
                     _price_family),
    "second_price": (_setup_second_price,
                     {"threshold": (1, _parse_rational, "required"),
                      "allocation_dependent": (1, {"true": True, "false": False}, None)},
                     (1, "second_price scenarios use one-coordinate values", "nonnegative"),
                     None),
    "kminded": (_setup_kminded, {"k": (1, {"1": 1, "2": 2}, "required")},
                (lambda options: options["k"] + 1,
                 "kminded scenarios with k {k} use {dim} coordinates (null first)", "null"),
                None),
    "facility_line": (_setup_facility,
                      {"facilities": (2, _parse_rational, "required"),
                       "benefit": (1, _parse_rational, None),
                       "verification": (None, {
                           "no_underbid_distance": VerificationKind.NO_UNDERBID_DISTANCE,
                           "direction_imposing": VerificationKind.DIRECTION_IMPOSING,
                       }, "repeatable")},
                      (1, "facility_line scenarios use one-coordinate positions", "positions"),
                      _facility_line),
}
MECHANISM_CLASSES = tuple(_CLASSES)


def _checked(scenario: Scenario) -> tuple[Callable[[Scenario, dict], Setup], dict, tuple]:
    """The class's setup, the scenario's options as a dict and the type
    rule's tags, once the class's required options are given, its type rule
    holds for the anchor and every query, and allocation lines come only to
    a class that reads them; its setup checks those lines before any query.
    Every verb calls this before it answers a query."""
    cls = scenario.mechanism_class
    if cls not in _CLASSES:
        raise ScenarioError(f"unsupported mechanism class {cls!r}")
    setup, specs, (dim, message, *tags), _ = _CLASSES[cls]
    options = dict(scenario.options)
    for key, (_, _, kind) in specs.items():
        if kind == "required" and key not in options:
            raise ScenarioError(f"{cls} scenarios need option {key}")
    anchor = scenario.anchor
    dim = dim(options) if callable(dim) else dim
    if dim is not None and anchor.dim != dim:
        raise ScenarioError(message.format(dim=dim, **options))
    types = (anchor, *scenario.queries)
    null_index = scenario.assignments.null_index if scenario.assignments else None
    if "allocations" in tags and not scenario.allocations and null_index is not None:
        # The subsimplex with a null assignment: coordinate 0 is the null.
        if null_index != 0:
            raise ScenarioError("the null assignment must be listed first")
        tags.append("null")
    if "null" in tags:
        check_null_coordinate(*types)
    if "nonnegative" in tags and any(c < 0 for t in types for c in t):
        raise ScenarioError(f"{cls} scenarios use nonnegative values")
    if scenario.allocations and not {"allocations", "point_masses"} & set(tags):
        raise ScenarioError(f"{cls} scenarios read no allocation lines")
    return setup, options, tags


def _set_up(scenario: Scenario) -> Setup:
    """The checked scenario's class setup, its region cut to the type-space box."""
    setup, options, _ = _checked(scenario)
    operation, prepare, region, summary = setup(scenario, options)
    boxed = scenario.space_low is not None or scenario.space_high is not None
    if region is not None and boxed:
        box = box_region(scenario.space_low, scenario.space_high)
        region = ConvexRegion(region.halfspaces + box.halfspaces, region.extra_points)
    return operation, prepare, region, summary


def run_scenario(source: Scenario | str | os.PathLike[str]) -> ResultDocument:
    """Evaluate a scenario (or scenario file) and return its result document."""
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    operation, prepare, region, summary = _set_up(scenario)
    mode = scenario.mode
    forward = mode == "forward"
    anchor = scenario.anchor
    if forward:
        certificates = map(prepare(anchor), scenario.queries)
    else:
        certificates = (prepare(q)(anchor) for q in scenario.queries)
    queries: list[QueryResult] = []
    witnesses: list[WitnessRecord] = []
    for index, (q, certificate) in enumerate(zip(scenario.queries, certificates)):
        queries.append(QueryResult(q, (certificate is None) == forward))
        if certificate is not None:
            witnesses.append(WitnessRecord(index, *certificate))
    cls = scenario.mechanism_class
    return ResultDocument(
        scenario_name=scenario.name,
        mechanism_class=cls,
        mode=mode,
        operation=operation,
        anchor=anchor,
        region=region,
        queries=tuple(queries),
        witnesses=tuple(witnesses),
        summary=summary,
        provenance=_provenance(cls, operation),
    )


# --------------------------------------------------------------------------
# Truthfulness checks with explicit verification (the verify verb)


def _verify_rule(dim: int, options: dict) -> TaxationRule:
    """The declared rule as a menu of point masses: ``rule_prices`` lists
    one price per e_k; ``rule_pair i j`` is e_i at ``rule_price`` against
    e_j free, so x takes e_i when x_i - x_j exceeds the price, and the tie
    side goes first, as the earliest entry wins a tie."""
    prices = options.get("rule_prices")
    pair = options.get("rule_pair")
    if (prices is None) == (pair is None):
        raise ScenarioError("verify needs exactly one of rule_prices or rule_pair")
    allocations = point_masses(dim)
    if prices is not None:
        if len(prices) != dim:
            raise ScenarioError(f"rule_prices takes {dim} values")
        return TaxationRule(tuple(zip(allocations, prices)))
    i, j = pair
    if not (i < dim and j < dim):
        raise ScenarioError("rule_pair indices out of range")
    if i == j:
        raise ScenarioError("rule_pair takes two distinct indices")
    if "rule_price" not in options:
        raise ScenarioError("rule_pair needs option rule_price")
    entries = ((allocations[i], options["rule_price"]), (allocations[j], 0))
    tie = options.get("rule_tie", TieSide.TO_I)
    return TaxationRule(entries if tie is TieSide.TO_I else entries[::-1])


# verification_kind -> is (true type, report) caught, where e_k is the
# report's point mass; harmless_complement is answered by the theorem.
_GRID_VERIFICATIONS: dict[str, Callable[[Vector, Vector, int], bool]] = {
    "none": lambda true, reported, k: False,
    "no_overbid": lambda true, reported, k: any(r > t for t, r in zip(true, reported)),
    "no_overbid_on_received": lambda true, reported, k: reported[k] > true[k],
}


def run_verify(source: Scenario | str | os.PathLike[str]) -> ResultDocument:
    """Check a declared rule for truthfulness on the scenario's type grid.

    Every rule declared here is deterministic over the point masses, so a
    report it rewards lies outside the true type's deterministic harmless
    set: verifying that set's complement (``harmless_complement``) makes
    the rule truthful over the whole type space, with no grid search.
    """
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    if scenario.mode != "forward":
        raise ScenarioError("verify needs a forward-mode scenario")
    setup, options, tags = _checked(scenario)
    if scenario.allocations:
        setup(scenario, options)  # a class's own complaint about a line comes first
        raise ScenarioError("verify reads no allocation lines")
    cls = scenario.mechanism_class
    if "positions" in tags:
        raise ScenarioError(f"verify reads value vectors, not {cls} positions")
    theta = scenario.anchor
    rule = _verify_rule(theta.dim, options)
    token = options.get("verification_kind", "none")
    # The distinct types, first occurrences first, on one integer table: no hashed Fraction.
    types = (theta, *scenario.queries)
    scale, rows = _common_numerators(*[t.coords for t in types])
    first: dict[tuple[int, ...], Vector] = {}
    for t, row in zip(types, rows):
        first.setdefault(tuple(row), t)
    grid = list(first.values())
    if token == "harmless_complement":
        if theta.dim < 2:
            raise MechanismError("need at least two allocations")
        truthful, violation = True, None
    else:
        table = scale, list(first)  # the grid's rows
        verification = _GRID_VERIFICATIONS[token]
        truthful, violation = is_truthful_with_verification(rule, verification, grid, table)
    operation = "is_truthful_with_verification"
    witnesses: tuple[WitnessRecord, ...] = ()
    summary = [
        ("truthful", "true" if truthful else "false"),
        ("verification", token),
        ("grid_size", str(len(grid))),
    ]
    if violation is not None:
        true_type, beneficial = violation
        # Checked through the generic evaluation, not the pass's index reading.
        gained = apply_rule(rule, beneficial).value_to(true_type)
        kept = apply_rule(rule, true_type).value_to(true_type)
        if not gained > kept:
            raise AssertionError(f"grid violation failed validation: {gained} <= {kept}")
        # The witness indexes the checked grid: position 0 is the anchor.
        witnesses = (
            WitnessRecord(
                grid.index(true_type),
                "grid_violation",
                (
                    ("true_type", "v", true_type),
                    ("beneficial_report", "v", beneficial),
                    ("gained", "r", gained),
                    ("truthful", "r", kept),
                ),
            ),
        )
    return ResultDocument(
        scenario_name=scenario.name,
        mechanism_class=cls,
        mode="forward",
        operation=operation,
        anchor=theta,
        witnesses=witnesses,
        summary=tuple(summary),
        provenance=_provenance(cls, operation),
    )


# --------------------------------------------------------------------------
# Serialization: exact, line-delimited, deterministic


def _vector_token(v: Vector) -> str:
    # A coordinate that is the shared ZERO object is 0: it needs no formatting.
    return ",".join(["0" if c is ZERO else str(c) for c in v.coords])


def _field_token(name: str, code: str, value: FieldValue) -> str:
    if code != "v":
        return f"{name}={code}:{value}"
    if not isinstance(value, Vector):
        raise ScenarioError(f"witness field {name!r} is typed v but holds {value!r}")
    return f"{name}={code}:{_vector_token(value)}"


def _header_lines(document: ResultDocument) -> list[str]:
    return [
        f"result {document.scenario_name}",
        f"mode {document.mode}",
        f"class {document.mechanism_class}",
        f"operation {document.operation}",
        f"anchor {_vector_token(document.anchor)}",
    ]


def _witness_line(witness: WitnessRecord) -> str:
    tokens = [f"witness query={witness.query_index} kind={witness.kind}"]
    tokens += [_field_token(*field_entry) for field_entry in witness.fields]
    return " ".join(tokens)


def _offset_token(gap: int, scale: int) -> str:
    """``str(Fraction(-gap, scale))`` from integers, gap and scale positive."""
    common = gcd(gap, scale)
    return f"-{gap // common}" + ("" if scale == common else f"/{scale // common}")


def _pair_lines(region: PointMassRegion) -> list[str]:
    """The generic lines of ``region.halfspaces`` from the pairs alone: one
    zero row, 1 spliced in once per coordinate and -1 once per pair (normal
    coordinate k at character 2k), and each offset formatted once per gap."""
    dim, pairs = region.theta.dim, region.pairs
    zeros = ",".join(["0"] * dim)
    rows = [f"{zeros[:2 * k]}1{zeros[2 * k + 1:]}" for k in range(dim)]
    gaps = {g for *_, g in pairs}
    tails = {g: f" offset={_offset_token(g, region.scale)} sense=strict" for g in gaps}
    return [
        f"region_halfspace normal={rows[o][:2 * p]}-1{rows[o][2 * p + 1:]}{tails[g]}"
        for o, p, g in pairs
    ]


def serialize_result(document: ResultDocument) -> str:
    """Render a result document, every rational exact; the same document
    always gives the same bytes."""
    lines = _header_lines(document)
    if document.region is not None:
        region = document.region
        if isinstance(region, PointMassRegion):
            body = _pair_lines(region)
            extras = [region.theta]  # the one extra point, with no set built
        else:  # the generic rendering: every coordinate of every halfspace
            body = [
                f"region_halfspace normal={_vector_token(hs.hyperplane.normal)} "
                f"offset={hs.hyperplane.offset} sense={hs.sense.value}"
                for hs in region.halfspaces
            ]
            extras = sorted(region.extra_points, key=lambda p: p.coords)
        lines.append(f"region halfspaces={len(body)} extras={len(extras)}")
        lines += body
        lines += [f"region_extra {_vector_token(point)}" for point in extras]
    for qr in document.queries:
        lines.append(
            f"query {_vector_token(qr.query)} member={'true' if qr.member else 'false'}"
        )
    lines += [_witness_line(witness) for witness in document.witnesses]
    for key, value in document.summary:
        lines.append(f"summary {key} {value}")
    for key, value in document.provenance:
        lines.append(f"provenance {key} {value}")
    return "\n".join(lines) + "\n"


def serialize_witnesses(document: ResultDocument) -> str:
    """The witness lines alone, under the same header."""
    lines = _header_lines(document)
    lines += [_witness_line(witness) for witness in document.witnesses]
    lines.append(f"summary witnesses {len(document.witnesses)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# SVG rendering


_SVG_SIZE = 480
_SVG_MARGIN = 50
# A constraint's boundary line, and its parallel through the indifference point.
_SOLID = 'stroke="#1a1a1a" stroke-width="1.5"'
_DASHED = 'stroke="#555555" stroke-width="1" stroke-dasharray="6 4"'


def _fmt(value) -> str:
    return f"{float(value):.6f}"


def _slice(
    document: ResultDocument, axes: tuple[int, int], purpose: str
) -> tuple[list[tuple[Fraction, Fraction, Fraction, Fraction]], bool]:
    """The document's region with off-axis coordinates pinned to the anchor.

    Returns each halfspace that still cuts the plane as (nx, ny, offset,
    indifference offset), for nx*x + ny*y >= offset and its parallel through
    the indifference point, and whether an off-axis halfspace already
    excludes the whole slice.
    """
    if document.region is None:
        raise ScenarioError(
            f"result for {document.scenario_name!r} carries no region to {purpose}"
        )
    anchor = document.anchor
    i, j = axes
    if i == j or not (0 <= i < anchor.dim and 0 <= j < anchor.dim):
        raise ScenarioError(f"axes {axes} invalid for dimension {anchor.dim}")
    sliced = []
    empty = False
    for hs in document.region.halfspaces:
        normal, offset = hs.hyperplane.normal, hs.hyperplane.offset
        rest = sum(
            (normal[k] * anchor[k] for k in range(normal.dim) if k not in (i, j)),
            Fraction(0),
        )
        nx, ny = normal[i], normal[j]
        if nx or ny:
            sliced.append((nx, ny, offset - rest, -rest))
        elif not (rest > offset if hs.sense is Sense.STRICT_GREATER else rest >= offset):
            empty = True
    return sliced, empty


def _clip_polygon(
    polygon: list[tuple[Fraction, Fraction]], nx: Fraction, ny: Fraction, offset: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """One Sutherland-Hodgman pass against nx*x + ny*y >= offset."""

    def inside(p: tuple[Fraction, Fraction]) -> bool:
        return nx * p[0] + ny * p[1] >= offset

    def crossing(
        p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]
    ) -> tuple[Fraction, Fraction]:
        sp = nx * p[0] + ny * p[1] - offset
        sq = nx * q[0] + ny * q[1] - offset
        t = sp / (sp - sq)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    output: list[tuple[Fraction, Fraction]] = []
    for index, current in enumerate(polygon):
        previous = polygon[index - 1]
        if inside(current):
            if not inside(previous):
                output.append(crossing(previous, current))
            output.append(current)
        elif inside(previous):
            output.append(crossing(previous, current))
    return output


def _line_segment(
    nx: Fraction, ny: Fraction, offset: Fraction, box: list[tuple[Fraction, Fraction]]
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] | None:
    """The piece of the line nx*x + ny*y = offset inside the convex polygon
    ``box``: the polygon clipped to both closed sides of the line."""
    points = _clip_polygon(_clip_polygon(box, nx, ny, offset), -nx, -ny, -offset)
    unique = sorted(set(points))
    if len(unique) < 2:
        return None
    return unique[0], unique[-1]


def slice_region_vertices(
    document: ResultDocument, axes: tuple[int, int] = (0, 1)
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Vertices of the closure of the document's region, sliced to two axes.

    Off-axis coordinates are pinned to the anchor.  Every pairwise
    intersection of boundary lines that satisfies all closed constraints is a
    candidate; for bounded slices this is exactly the vertex set.  Unbounded
    slices return only the vertices their constraints do pin down.
    """
    sliced, empty = _slice(document, axes, "slice")
    if empty:
        return ()
    vertices: set[tuple[Fraction, Fraction]] = set()
    for a, (nx1, ny1, c1, _) in enumerate(sliced):
        for nx2, ny2, c2, _ in sliced[a + 1 :]:
            det = nx1 * ny2 - ny1 * nx2
            if det == 0:
                continue
            px = (c1 * ny2 - c2 * ny1) / det
            py = (nx1 * c2 - nx2 * c1) / det
            if all(nx * px + ny * py >= c for nx, ny, c, _ in sliced):
                vertices.add((px, py))
    return tuple(sorted(vertices))


def render_regions(
    document: ResultDocument,
    axes: tuple[int, int] = (0, 1),
    bounds: tuple[Fraction, Fraction, Fraction, Fraction] | None = None,
) -> str:
    """Draw the document's region as a 2-D slice through the anchor.

    Off-axis coordinates are pinned to the anchor.  The shaded polygon is the
    closure of the sliced region clipped to the bounds; every constraint
    contributes a solid boundary line at its own offset and a dashed line at
    the zero-offset (indifference) position.  Floats appear only here, at six
    decimal places, so equal inputs give byte-identical output.
    """
    sliced, empty = _slice(document, axes, "plot")
    anchor = document.anchor
    i, j = axes
    if bounds is None:
        bounds = (anchor[i] - 2, anchor[i] + 2, anchor[j] - 2, anchor[j] + 2)
    xmin, xmax, ymin, ymax = (frac(b) for b in bounds)
    if xmin >= xmax or ymin >= ymax:
        raise ScenarioError("bounds box must have positive width and height")
    box = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]

    polygon = [] if empty else box
    for nx, ny, offset, _ in sliced:
        if not polygon:
            break
        polygon = _clip_polygon(polygon, nx, ny, offset)
    polygon = [
        p for index, p in enumerate(polygon) if p != polygon[(index + 1) % len(polygon)]
    ]

    span_x = xmax - xmin
    span_y = ymax - ymin
    inner = _SVG_SIZE - 2 * _SVG_MARGIN

    def to_px(p: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        x = _SVG_MARGIN + (p[0] - xmin) / span_x * inner
        y = _SVG_SIZE - _SVG_MARGIN - (p[1] - ymin) / span_y * inner
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect x="0" y="0" width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="#ffffff"/>',
        f'<rect x="{_SVG_MARGIN}" y="{_SVG_MARGIN}" width="{inner}" height="{inner}" '
        f'fill="none" stroke="#222222" stroke-width="1"/>',
    ]
    if len(polygon) >= 3:
        points = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(p) for p in polygon)
        )
        lines.append(
            f'<polygon points="{points}" fill="#9ecae1" fill-opacity="0.55" stroke="none"/>'
        )

    def canonical(nx: Fraction, ny: Fraction, offset: Fraction):
        lead = nx if nx != 0 else ny
        return (nx / lead, ny / lead, offset / lead)

    seen: set = set()
    for nx, ny, solid, dashed in sliced:
        for attrs, offset in ((_SOLID, solid), (_DASHED, dashed)):
            key = (attrs, canonical(nx, ny, offset))
            segment = None if key in seen else _line_segment(nx, ny, offset, box)
            seen.add(key)
            if segment is not None:
                x1, y1, x2, y2 = [_fmt(c) for p in segment for c in to_px(p)]
                lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {attrs}/>')

    if xmin <= anchor[i] <= xmax and ymin <= anchor[j] <= ymax:
        ax, ay = to_px((anchor[i], anchor[j]))
        label = "true type" if document.mode == "forward" else "reported type"
        lines.append(f'<circle cx="{_fmt(ax)}" cy="{_fmt(ay)}" r="4" fill="#c0392b"/>')
        lines.append(
            f'<text x="{_fmt(ax + 8)}" y="{_fmt(ay - 8)}" font-family="sans-serif" '
            f'font-size="12" fill="#c0392b">{label}</text>'
        )
    lines += [
        f'<text x="{_SVG_SIZE // 2}" y="30" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" fill="#111111">{document.scenario_name}</text>',
        f'<text x="{_SVG_SIZE - _SVG_MARGIN}" y="{_SVG_SIZE - _SVG_MARGIN + 32}" '
        f'text-anchor="end" font-family="sans-serif" font-size="12" '
        f'fill="#333333">coordinate {i}</text>',
        f'<text x="{_SVG_MARGIN - 36}" y="{_SVG_MARGIN + 4}" font-family="sans-serif" '
        f'font-size="12" fill="#333333">coordinate {j}</text>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Command line


def _parse_axes(token: str) -> tuple[int, int]:
    parts = [p.strip() for p in token.split(",")]
    if len(parts) != 2 or not all(_INDEX.fullmatch(p) for p in parts):
        raise ScenarioError(f"axes must be two indices like 1,2, not {token!r}")
    return int(parts[0]), int(parts[1])


def _parse_bounds(token: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = token.split(",")
    if len(parts) != 4:
        raise ScenarioError(f"bounds must be xmin,xmax,ymin,ymax, not {token!r}")
    return tuple([_parse_rational(p.strip()) for p in parts])


_VERB_HELP = {
    "harmless": "evaluate a forward-mode scenario (which misreports are harmless)",
    "harmful": "evaluate a reverse-mode scenario (which true types a report could help)",
    "witness": "emit only the certificates for a scenario's negative answers",
    "verify": "check a declared rule for truthfulness on the scenario's type grid",
    "plot": "render the scenario's region as a 2-D SVG slice",
}
# Each verb's flags, in usage order; --scenario is required, the rest optional.
_VERB_FLAGS = {
    verb: ("--scenario", "--out") + (("--axes", "--bounds") if verb == "plot" else ())
    for verb in _VERB_HELP
}
_METAVARS = {
    "--scenario": "FILE", "--out": "FILE", "--axes": "I,J", "--bounds": "XMIN,XMAX,YMIN,YMAX"
}


def _usage() -> str:
    lines = []
    for verb, flags in _VERB_FLAGS.items():
        words = [f"{flag} {_METAVARS[flag]}" for flag in flags]
        optional = " ".join(f"[{word}]" for word in words[1:])
        lines.append(f"mechverify {verb:<8} {words[0]} {optional}")
    verbs = "".join(f"  {verb:<9} {text}\n" for verb, text in _VERB_HELP.items())
    return (
        "usage: " + "\n       ".join(lines) + "\n\n"
        "Exact harmless/harmful set computations for verification design.\n\n"
        f"verbs:\n{verbs}\n"
        "--out writes to FILE instead of stdout; plot's --axes defaults to 0,1.\n"
        "Flags take --flag VALUE or --flag=VALUE, the last one given wins; a value\n"
        "that begins with '-' needs the = form.  -h or --help prints this text.\n"
    )


def _parse_command(argv: Sequence[str]) -> tuple[str, dict[str, str]]:
    """The verb and its flag values.  A flag without a value fails first,
    then a missing ``--scenario``, then any argument the verb does not take."""
    choices = ", ".join(_VERB_FLAGS)
    if not argv:
        raise ScenarioError(f"the following arguments are required: verb (choose from {choices})")
    verb, *rest = argv
    if verb not in _VERB_FLAGS:
        raise ScenarioError(f"invalid verb {verb!r} (choose from {choices})")
    values: dict[str, str] = {}
    unrecognized: list[str] = []
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in _VERB_FLAGS[verb]:
            unrecognized.append(token)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                raise ScenarioError(f"argument {flag}: expected one argument")
        values[flag] = value
    if "--scenario" not in values:
        raise ScenarioError("the following arguments are required: --scenario")
    if unrecognized:
        raise ScenarioError(f"unrecognized arguments: {' '.join(unrecognized)}")
    return verb, values


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _dispatch(verb: str, flags: dict[str, str]) -> int:
    scenario = load_scenario(flags["--scenario"])
    if verb in ("harmless", "harmful"):
        mode, anchor = ("forward", "theta") if verb == "harmless" else ("reverse", "reported")
        if scenario.mode != mode:
            raise ScenarioError(f"{verb} needs a {mode}-mode scenario ({anchor} line)")
        text = serialize_result(run_scenario(scenario))
    elif verb == "witness":
        text = serialize_witnesses(run_scenario(scenario))
    elif verb == "verify":
        text = serialize_result(run_verify(scenario))
    else:
        # The region alone is drawn, so no query is certified.
        operation, _, region, _ = _set_up(scenario)
        cls, anchor = scenario.mechanism_class, scenario.anchor
        document = ResultDocument(scenario.name, cls, scenario.mode, operation, anchor, region)
        axes = _parse_axes(flags.get("--axes", "0,1"))
        bounds = _parse_bounds(flags["--bounds"]) if "--bounds" in flags else None
        text = render_regions(document, axes, bounds)
    _write_output(text, flags.get("--out"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if "-h" in args or "--help" in args:
        sys.stdout.write(_usage())
        return 0
    try:
        return _dispatch(*_parse_command(args))
    except (ScenarioError, MechanismError, DimensionMismatch, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - exit code 2 is the contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
