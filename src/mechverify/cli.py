"""Scenario files in, exact result documents and SVG region plots out.

Scenario format: one directive per line; ``#`` starts a comment; blank lines
are ignored.  Rationals are integers or "p/q" strings, optionally signed.

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
Class-specific options:

    vcg            option others V1 V2        (repeatable, one per other agent)
    price_family   option price_low P1 P2 / option price_high P1 P2 ("inf" ok)
    second_price   option threshold T / option allocation_dependent true|false
    kminded        option k 1|2
    facility_line  option facilities G1 G2 / option benefit B /
                   option verification no_underbid_distance|direction_imposing...
    verify verb    option rule_prices P... | option rule_pair I J +
                   option rule_price C [+ option rule_tie to_i|to_j];
                   option verification_kind none|no_overbid|
                   no_overbid_on_received|harmless_complement

Every class accepts the verify-verb options; any other option key a class
does not read is an error.

Verbs and their own flags: every verb takes ``--scenario FILE`` and
``--out FILE``; ``plot`` takes ``--axes I,J`` and
``--bounds XMIN,XMAX,YMIN,YMAX``.

Result documents are line-delimited text with every rational kept exact;
serialize/parse round-trips are lossless.  SVG output is the only place
floats appear, formatted at six decimal places so identical inputs give
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence, Union

from .geometry import (
    ConvexRegion,
    DimensionMismatch,
    Halfspace,
    Hyperplane,
    Sense,
    Vector,
    box_region,
    empty_region,
    frac,
)
from .harmless import (
    HarmlessResult,
    SimplexFamily,
    deterministic_harmless,
    tie_harmless_contains,
    universally_truthful_harmless,
)
from .mechanisms import (
    Allocation,
    AssignmentSet,
    MechanismError,
    Rule,
    SeparatingRule,
    TaxationRule,
    TieSide,
    apply_rule,
    is_truthful_with_verification,
    point_mass,
    point_masses,
)
from .multiagent import (
    PriceFamily,
    UnitDemandProfile,
    find_beneficial_price,
    vcg_harmless_contains,
    vcg_single_agent_rule,
)
from .oracle import construct_tie_witness, rule_benefit, search_beneficial_misreport
from .reverse import harmful_union_contains
from .scenarios import (
    FacilityLine,
    VerificationKind,
    facility_first_uncovered,
    facility_harmless_position,
    facility_preferred,
    facility_type,
    kminded_harmless_contains,
    second_price_harmful_contains,
)


class ScenarioError(ValueError):
    """Scenario file or result document problem, with a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _parse_rational(token: str, line: int | None = None) -> Fraction:
    """An integer or p/q with an optional sign; nothing else (no decimals,
    exponents or digit separators)."""
    if not _RATIONAL.fullmatch(token):
        raise ScenarioError(f"bad rational {token!r}", line)
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ScenarioError(f"bad rational {token!r}", line) from None


def _parse_vector(tokens: Sequence[str], line: int | None = None) -> Vector:
    if not tokens:
        raise ScenarioError("expected at least one coordinate", line)
    return Vector(tuple(_parse_rational(t, line) for t in tokens))


@dataclass(frozen=True)
class Scenario:
    """A named setting: mechanism class, anchor type, queries, options."""

    name: str
    mechanism_class: str
    theta: Vector | None = None
    reported: Vector | None = None
    queries: tuple[Vector, ...] = ()
    assignments: AssignmentSet | None = None
    allocations: tuple[Allocation, ...] = ()
    space_low: Vector | None = None
    space_high: Vector | None = None
    options: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @property
    def mode(self) -> str:
        return "forward" if self.theta is not None else "reverse"

    @property
    def anchor(self) -> Vector:
        anchor = self.theta if self.theta is not None else self.reported
        if anchor is None:
            raise ScenarioError("exactly one of theta or reported must be given")
        return anchor


def option_values(scenario: Scenario, key: str) -> list[tuple[str, ...]]:
    """All values given for a repeatable option, in file order."""
    return [values for k, values in scenario.options if k == key]


def option_single(scenario: Scenario, key: str) -> tuple[str, ...] | None:
    """The value tuple of a non-repeatable option, or None."""
    found = option_values(scenario, key)
    if not found:
        return None
    if len(found) > 1:
        raise ScenarioError(f"option {key!r} given more than once")
    return found[0]


def _option_token(scenario: Scenario, key: str, default: str | None = None) -> str | None:
    values = option_single(scenario, key)
    if values is None:
        return default
    if len(values) != 1:
        raise ScenarioError(f"option {key!r} takes exactly one value")
    return values[0]


def _option_flag(scenario: Scenario, key: str, default: bool = False) -> bool:
    token = _option_token(scenario, key)
    if token is None:
        return default
    if token not in ("true", "false"):
        raise ScenarioError(f"option {key!r} must be true or false, not {token!r}")
    return token == "true"


def _option_rational(scenario: Scenario, key: str) -> Fraction | None:
    token = _option_token(scenario, key)
    return None if token is None else _parse_rational(token)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text, reporting the offending line on error."""
    name = None
    mechanism_class = None
    theta = None
    reported = None
    labels: tuple[str, ...] | None = None
    null_label = None
    space_low = None
    space_high = None
    queries: list[Vector] = []
    allocations: list[Allocation] = []
    options: list[tuple[str, tuple[str, ...]]] = []
    option_lines: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        key, args = parts[0], parts[1:]
        if key == "scenario":
            if name is not None:
                raise ScenarioError("duplicate scenario line", line_no)
            if len(args) != 1:
                raise ScenarioError("scenario takes exactly one name token", line_no)
            name = args[0]
        elif key == "class":
            if mechanism_class is not None:
                raise ScenarioError("duplicate class line", line_no)
            if len(args) != 1 or args[0] not in MECHANISM_CLASSES:
                raise ScenarioError(
                    f"class must be one of {', '.join(MECHANISM_CLASSES)}", line_no
                )
            mechanism_class = args[0]
        elif key == "assignments":
            if labels is not None:
                raise ScenarioError("duplicate assignments line", line_no)
            if len(args) < 2:
                raise ScenarioError("need at least two assignment labels", line_no)
            labels = tuple(args)
        elif key == "null_assignment":
            if null_label is not None:
                raise ScenarioError("duplicate null_assignment line", line_no)
            if len(args) != 1:
                raise ScenarioError("null_assignment takes one label", line_no)
            null_label = args[0]
        elif key == "theta":
            if theta is not None:
                raise ScenarioError("duplicate theta line", line_no)
            theta = _parse_vector(args, line_no)
        elif key == "reported":
            if reported is not None:
                raise ScenarioError("duplicate reported line", line_no)
            reported = _parse_vector(args, line_no)
        elif key == "space_low":
            if space_low is not None:
                raise ScenarioError("duplicate space_low line", line_no)
            space_low = _parse_vector(args, line_no)
        elif key == "space_high":
            if space_high is not None:
                raise ScenarioError("duplicate space_high line", line_no)
            space_high = _parse_vector(args, line_no)
        elif key == "query":
            queries.append(_parse_vector(args, line_no))
        elif key == "allocation":
            try:
                allocations.append(Allocation(_parse_vector(args, line_no)))
            except MechanismError as exc:
                raise ScenarioError(str(exc), line_no) from None
        elif key == "option":
            if not args:
                raise ScenarioError("option needs a key", line_no)
            options.append((args[0], tuple(args[1:])))
            option_lines.setdefault(args[0], line_no)
        else:
            raise ScenarioError(f"unknown directive {key!r}", line_no)

    if name is None:
        raise ScenarioError("missing scenario line")
    if mechanism_class is None:
        raise ScenarioError("missing class line")
    if (theta is None) == (reported is None):
        raise ScenarioError("exactly one of theta or reported must be given")
    known_options = _CLASSES[mechanism_class][2] + _VERIFY_OPTIONS
    for key, line_no in option_lines.items():
        if key not in known_options:
            raise ScenarioError(
                f"unknown option {key!r} for class {mechanism_class}", line_no
            )

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
        space_low=space_low,
        space_high=space_high,
        options=tuple(options),
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
    for q in scenario.queries:
        if q.dim != dim:
            raise ScenarioError(f"query dimension {q.dim} does not match {dim}")
    for a in scenario.allocations:
        if a.dim != dim:
            raise ScenarioError(f"allocation dimension {a.dim} does not match {dim}")
    for bound_name, bound in (("space_low", scenario.space_low), ("space_high", scenario.space_high)):
        if bound is not None and bound.dim != dim:
            raise ScenarioError(f"{bound_name} dimension {bound.dim} does not match {dim}")
    if scenario.space_low is not None and scenario.space_high is not None:
        for lo, hi in zip(scenario.space_low, scenario.space_high):
            if lo > hi:
                raise ScenarioError(f"space_low {lo} exceeds space_high {hi}")
    _check_in_space(scenario, anchor, "anchor")
    for index, q in enumerate(scenario.queries):
        _check_in_space(scenario, q, f"query {index}")


def _check_in_space(scenario: Scenario, point: Vector, label: str) -> None:
    # Points outside the declared type space are not types at all; the box
    # prunes the region rather than flipping memberships, so out-of-space
    # queries are rejected instead of answered.
    if scenario.space_low is not None:
        for coord, lo in zip(point, scenario.space_low):
            if coord < lo:
                raise ScenarioError(f"{label} lies below the type-space box")
    if scenario.space_high is not None:
        for coord, hi in zip(point, scenario.space_high):
            if coord > hi:
                raise ScenarioError(f"{label} lies above the type-space box")


def load_scenario(path: Union[str, Path]) -> Scenario:
    return parse_scenario(Path(path).read_text())


# --------------------------------------------------------------------------
# Result documents


FieldValue = Union[Vector, Fraction, str]
Fields = tuple[tuple[str, str, FieldValue], ...]


@dataclass(frozen=True)
class WitnessRecord:
    """A certificate attached to one query: named, typed fields.

    Type codes: "v" vector, "r" rational, "t" token.
    """

    query_index: int
    kind: str
    fields: Fields


@dataclass(frozen=True)
class QueryResult:
    query: Vector
    member: bool


@dataclass(frozen=True)
class ResultDocument:
    """Everything a scenario run produced, exact and serializable."""

    scenario_name: str
    mechanism_class: str
    mode: str
    operation: str
    anchor: Vector
    region: ConvexRegion | None = None
    queries: tuple[QueryResult, ...] = ()
    witnesses: tuple[WitnessRecord, ...] = ()
    summary: tuple[tuple[str, str], ...] = ()
    provenance: tuple[tuple[str, str], ...] = ()


def _provenance(mechanism_class: str, operation: str) -> tuple[tuple[str, str], ...]:
    from . import __version__

    return (
        ("package", "mechverify"),
        ("version", __version__),
        ("class", mechanism_class),
        ("operation", operation),
    )


# A certificate for one query: the witness kind and its fields.
Certificate = tuple[str, Fields]
# decide(q) gives q's membership and, for the answer that needs one, a
# certificate that has been checked.
Decide = Callable[[Vector], tuple[bool, Union[Certificate, None]]]
# What a class's setup returns: (operation, decide, region before the
# type-space box or None, summary).
Setup = tuple[str, Decide, Union[ConvexRegion, None], tuple[tuple[str, str], ...]]


def _separating(
    true_type: Vector, report: Vector, allocations: Sequence[Allocation]
) -> Fields:
    """The oracle's rule under which reporting ``report`` beats the truth.

    Called only where a closed form said harmful, so the independent search
    finding no rule means the two disagree.
    """
    rule = search_beneficial_misreport(true_type, report, allocations)
    if rule is None:
        raise AssertionError("membership said harmful but no rule benefits")
    gained, truthful = rule_benefit(rule, true_type, report)
    fields: list[tuple[str, str, FieldValue]] = [
        ("allocation_i", "v", rule.a_i.probs),
        ("allocation_j", "v", rule.a_j.probs),
        ("relative_price", "r", rule.relative_price),
        ("tie", "t", rule.tie_assignment.value),
        ("gained", "r", gained),
        ("truthful", "r", truthful),
    ]
    pinned = sorted(rule.overrides.items(), key=lambda item: item[0].coords)
    for n, (point, target) in enumerate(pinned):
        fields.append((f"override_point_{n}", "v", point))
        fields.append((f"override_target_{n}", "v", target.probs))
    return tuple(fields)


def _certified(
    contains: Callable[[Vector], bool], theta: Vector, allocations: Sequence[Allocation]
) -> Decide:
    """Membership from a closed form; each harmful report certified by the oracle."""

    def decide(q: Vector) -> tuple[bool, Certificate | None]:
        if contains(q):
            return True, None
        return False, ("separating", _separating(theta, q, allocations))

    return decide


def _setup_point_mass(scenario: Scenario) -> Setup:
    """deterministic and universally_truthful classes, both modes."""
    anchor = scenario.anchor
    allocations = scenario.allocations or point_masses(anchor.dim)
    summary = (("allocations", str(len(allocations))),)
    if scenario.mode == "reverse":

        def decide(q: Vector) -> tuple[bool, Certificate | None]:
            if not harmful_union_contains(anchor, allocations, q):
                return False, None
            return True, ("separating", _separating(q, anchor, allocations))

        return "harmful_union_contains", decide, None, summary
    if scenario.mechanism_class == "universally_truthful":
        operation = "universally_truthful_harmless"
        result = universally_truthful_harmless(anchor, allocations)
    else:
        operation = "deterministic_harmless"
        result = deterministic_harmless(anchor, allocations)
    return operation, _certified(result.contains, anchor, allocations), result.region, summary


def _setup_tie(scenario: Scenario) -> Setup:
    theta = scenario.anchor
    if scenario.allocations:
        # Explicit allocation sets satisfy the rank-one hypothesis, where
        # the expectation class and the two-allocation search coincide.
        allocations = scenario.allocations
        decide = _certified(
            lambda q: tie_harmless_contains(theta, q, allocations), theta, allocations
        )
        return "tie_harmless_contains", decide, None, (("family", "explicit"),)
    family = SimplexFamily.FULL_SIMPLEX
    if scenario.assignments is not None and scenario.assignments.null_index is not None:
        if scenario.assignments.null_index != 0:
            raise ScenarioError("the null assignment must be listed first")
        family = SimplexFamily.SUBSIMPLEX_WITH_NULL

    def decide(q: Vector) -> tuple[bool, Certificate | None]:
        # The witness construction decides membership itself: None is harmless.
        witness = construct_tie_witness(theta, q, family)
        if witness is None:
            return True, None
        fields = (
            ("low", "v", witness.low.probs),
            ("high", "v", witness.high.probs),
            ("relative_price", "r", witness.rule.relative_price),
            ("tie", "t", witness.rule.tie_assignment.value),
            ("gained", "r", witness.gained_value),
            ("truthful", "r", witness.truthful_value),
        )
        return False, ("randomized_pair", fields)

    return "tie_harmless_contains", decide, None, (("family", family.value),)


def _setup_vcg(scenario: Scenario) -> Setup:
    theta = scenario.anchor
    if theta.dim != 3:
        raise ScenarioError("vcg scenarios use three coordinates (null, item1, item2)")
    others = []
    for values in option_values(scenario, "others"):
        if len(values) != 2:
            raise ScenarioError("option others takes two item values")
        others.append((_parse_rational(values[0]), _parse_rational(values[1])))
    rule = vcg_single_agent_rule(UnitDemandProfile(tuple(others)))
    prices = [price for _, price in rule.entries]
    decide = _certified(lambda q: vcg_harmless_contains(theta, q), theta, point_masses(3))
    region = deterministic_harmless(theta, point_masses(3)).region
    summary = (
        ("others", str(len(others))),
        ("price_item1", str(prices[1])),
        ("price_item2", str(prices[2])),
    )
    return "vcg_harmless_contains", decide, region, summary


def _parse_price_bound(values: tuple[str, ...] | None, default: Fraction | None):
    if values is None:
        return (default, default)
    if len(values) != 2:
        raise ScenarioError("price bounds take two values")

    def one(token: str):
        if token in ("inf", "none"):
            return None
        return _parse_rational(token)

    return (one(values[0]), one(values[1]))


def _setup_price_family(scenario: Scenario) -> Setup:
    theta = scenario.anchor
    lows = _parse_price_bound(option_single(scenario, "price_low"), Fraction(0))
    highs = _parse_price_bound(option_single(scenario, "price_high"), None)
    if lows[0] is None or lows[1] is None:
        raise ScenarioError("price_low bounds must be finite")
    family = PriceFamily(((lows[0], highs[0]), (lows[1], highs[1])))

    def decide(q: Vector) -> tuple[bool, Certificate | None]:
        # The vertex scan decides membership itself: None is harmless.
        witness = find_beneficial_price(theta, family, q)
        if witness is None:
            return True, None
        fields = (
            ("price_item1", "r", witness.prices[0]),
            ("price_item2", "r", witness.prices[1]),
            ("report_entry", "t", str(witness.report_entry)),
            ("truthful_entry", "t", str(witness.truthful_entry)),
            ("gained", "r", witness.gained_value),
            ("truthful", "r", witness.truthful_value),
        )
        return False, ("prices", fields)

    def bound_token(bound: Fraction | None) -> str:
        return "inf" if bound is None else str(bound)

    summary = (
        ("price_low", f"{lows[0]},{lows[1]}"),
        ("price_high", f"{bound_token(highs[0])},{bound_token(highs[1])}"),
    )
    return "price_family_harmless_contains", decide, None, summary


def _setup_kminded(scenario: Scenario) -> Setup:
    theta = scenario.anchor
    token = _option_token(scenario, "k")
    if token is None:
        raise ScenarioError("kminded scenarios need option k")
    if token not in ("1", "2"):
        raise ScenarioError("option k must be 1 or 2")
    k = int(token)
    if theta.dim != k + 1:
        raise ScenarioError(
            f"kminded scenarios with k {k} use {k + 1} coordinates (null first)"
        )
    allocations = point_masses(k + 1)
    decide = _certified(lambda q: kminded_harmless_contains(k, theta, q), theta, allocations)
    region = deterministic_harmless(theta, allocations).region
    return "kminded_harmless_contains", decide, region, (("k", token),)


def _setup_second_price(scenario: Scenario) -> Setup:
    reported = scenario.anchor
    if reported.dim != 1:
        raise ScenarioError("second_price scenarios use one-coordinate values")
    threshold = _option_rational(scenario, "threshold")
    if threshold is None:
        raise ScenarioError("second_price scenarios need option threshold")
    allocation_dependent = _option_flag(scenario, "allocation_dependent", False)

    def decide(q: Vector) -> tuple[bool, Certificate | None]:
        if not second_price_harmful_contains(
            reported[0], threshold, allocation_dependent, q[0]
        ):
            return False, None
        fields = (
            ("threshold", "r", threshold),
            ("reported", "r", reported[0]),
            ("candidate", "r", q[0]),
        )
        return True, ("threshold", fields)

    region = _second_price_region(reported[0], threshold, allocation_dependent)
    summary = (
        ("threshold", str(threshold)),
        ("allocation_dependent", "true" if allocation_dependent else "false"),
    )
    return "second_price_harmful_contains", decide, region, summary


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


def _setup_facility(scenario: Scenario) -> Setup:
    theta = scenario.anchor
    if theta.dim != 1:
        raise ScenarioError("facility_line scenarios use one-coordinate positions")
    facilities = option_single(scenario, "facilities")
    if facilities is None or len(facilities) != 2:
        raise ScenarioError("facility_line scenarios need option facilities G1 G2")
    benefit = _option_rational(scenario, "benefit")
    line = FacilityLine(
        (_parse_rational(facilities[0]), _parse_rational(facilities[1])),
        Fraction(1) if benefit is None else benefit,
    )
    kinds = []
    for values in option_values(scenario, "verification"):
        for token in values:
            try:
                kinds.append(VerificationKind(token))
            except ValueError:
                raise ScenarioError(f"unknown verification kind {token!r}") from None
    uncovered = facility_first_uncovered(theta[0], line, kinds)
    agent_type = facility_type(theta[0], line)

    def decide(q: Vector) -> tuple[bool, Certificate | None]:
        if facility_harmless_position(theta[0], line, q[0]):
            return True, None
        report_type = facility_type(q[0], line)
        fields = (
            ("agent_type", "v", agent_type),
            ("report_type", "v", report_type),
        ) + _separating(agent_type, report_type, point_masses(2))
        return False, ("separating", fields)

    preferred = facility_preferred(theta[0], line)
    summary = [
        ("covered", "true" if uncovered is None else "false"),
        ("preferred", "indifferent" if preferred is None else str(preferred)),
        ("verifications", ",".join(kind.value for kind in kinds) or "none"),
    ]
    if uncovered is not None:
        summary.append(("first_uncovered", str(uncovered)))
    return "facility_verification_covers", decide, None, tuple(summary)


# Each class: the scenario mode it runs in (None for both), its setup, and
# the option keys that setup reads.
_CLASSES = {
    "deterministic": (None, _setup_point_mass, ()),
    "universally_truthful": (None, _setup_point_mass, ()),
    "truthful_in_expectation": ("forward", _setup_tie, ()),
    "vcg": ("forward", _setup_vcg, ("others",)),
    "price_family": ("forward", _setup_price_family, ("price_low", "price_high")),
    "second_price": ("reverse", _setup_second_price, ("threshold", "allocation_dependent")),
    "kminded": ("forward", _setup_kminded, ("k",)),
    "facility_line": ("forward", _setup_facility, ("facilities", "benefit", "verification")),
}
MECHANISM_CLASSES = tuple(_CLASSES)
# The verify verb's options, which every class accepts.
_VERIFY_OPTIONS = ("rule_prices", "rule_pair", "rule_price", "rule_tie", "verification_kind")


def run_scenario(source: Union[Scenario, str, Path]) -> ResultDocument:
    """Evaluate a scenario (or scenario file) and return its result document."""
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    cls = scenario.mechanism_class
    if cls not in _CLASSES:
        raise ScenarioError(f"unsupported mechanism class {cls!r}")
    mode, setup, _ = _CLASSES[cls]
    if mode is not None and scenario.mode != mode:
        raise ScenarioError(f"{cls} scenarios are {mode}-mode only")
    operation, decide, region, summary = setup(scenario)
    if region is not None:
        box = box_region(scenario.space_low, scenario.space_high)
        region = ConvexRegion(region.halfspaces + box.halfspaces, region.extra_points)
    queries: list[QueryResult] = []
    witnesses: list[WitnessRecord] = []
    for index, q in enumerate(scenario.queries):
        member, certificate = decide(q)
        queries.append(QueryResult(q, member))
        if certificate is not None:
            witnesses.append(WitnessRecord(index, *certificate))
    return ResultDocument(
        scenario_name=scenario.name,
        mechanism_class=cls,
        mode=scenario.mode,
        operation=operation,
        anchor=scenario.anchor,
        region=region,
        queries=tuple(queries),
        witnesses=tuple(witnesses),
        summary=summary,
        provenance=_provenance(cls, operation),
    )


# --------------------------------------------------------------------------
# Truthfulness checks with explicit verification (the verify verb)


def _verify_rule(scenario: Scenario) -> Rule:
    dim = scenario.anchor.dim
    prices = option_single(scenario, "rule_prices")
    pair = option_single(scenario, "rule_pair")
    if (prices is None) == (pair is None):
        raise ScenarioError("verify needs exactly one of rule_prices or rule_pair")
    if prices is not None:
        if len(prices) != dim:
            raise ScenarioError(f"rule_prices takes {dim} values")
        entries = tuple(
            (point_mass(i, dim), _parse_rational(token)) for i, token in enumerate(prices)
        )
        return TaxationRule(entries)
    if len(pair) != 2 or not all(t.isdigit() for t in pair):
        raise ScenarioError("rule_pair takes two assignment indices")
    i, j = int(pair[0]), int(pair[1])
    if not (0 <= i < dim and 0 <= j < dim):
        raise ScenarioError("rule_pair indices out of range")
    price = _option_rational(scenario, "rule_price")
    if price is None:
        raise ScenarioError("rule_pair needs option rule_price")
    tie_token = _option_token(scenario, "rule_tie", "to_i")
    if tie_token not in ("to_i", "to_j"):
        raise ScenarioError("option rule_tie must be to_i or to_j")
    tie = TieSide.TO_I if tie_token == "to_i" else TieSide.TO_J
    return SeparatingRule(point_mass(i, dim), point_mass(j, dim), price, tie)


def _verification(token: str, rule: Rule, dim: int) -> Callable[[Vector, Vector], bool]:
    """The verification_kind's predicate: is (true type, report) caught?"""
    if token == "none":
        return lambda true, reported: False
    if token == "no_overbid":
        return lambda true, reported: any(r > t for t, r in zip(true, reported))
    if token == "no_overbid_on_received":

        def overstates_received(true: Vector, reported: Vector) -> bool:
            received = apply_rule(rule, reported)
            return received.value_to(reported) > received.value_to(true)

        return overstates_received
    if token == "harmless_complement":
        allocations = point_masses(dim)
        harmless_sets: dict[Vector, HarmlessResult] = {}

        def outside_harmless(true: Vector, reported: Vector) -> bool:
            # One harmless set per true type, however many reports it meets.
            if true not in harmless_sets:
                harmless_sets[true] = deterministic_harmless(true, allocations)
            return not harmless_sets[true].contains(reported)

        return outside_harmless
    raise ScenarioError(f"unknown verification_kind {token!r}")


def run_verify(source: Union[Scenario, str, Path]) -> ResultDocument:
    """Check a declared rule for truthfulness on the scenario's type grid."""
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    if scenario.mode != "forward":
        raise ScenarioError("verify needs a forward-mode scenario")
    theta = scenario.anchor
    rule = _verify_rule(scenario)
    token = _option_token(scenario, "verification_kind", "none")
    verification = _verification(token, rule, theta.dim)
    grid: list[Vector] = []
    for point in (theta, *scenario.queries):
        if point not in grid:
            grid.append(point)
    truthful, violation = is_truthful_with_verification(rule, verification, grid)
    operation = "is_truthful_with_verification"
    witnesses: tuple[WitnessRecord, ...] = ()
    summary = [
        ("truthful", "true" if truthful else "false"),
        ("verification", token),
        ("grid_size", str(len(grid))),
    ]
    if violation is not None:
        true_type, beneficial = violation
        gained = apply_rule(rule, beneficial).value_to(true_type)
        kept = apply_rule(rule, true_type).value_to(true_type)
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
        mechanism_class=scenario.mechanism_class,
        mode="forward",
        operation=operation,
        anchor=theta,
        region=None,
        queries=(),
        witnesses=witnesses,
        summary=tuple(summary),
        provenance=_provenance(scenario.mechanism_class, operation),
    )


# --------------------------------------------------------------------------
# Serialization: exact, line-delimited, round-trippable


def _vector_token(v: Vector) -> str:
    return ",".join(str(c) for c in v)


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


def serialize_result(document: ResultDocument) -> str:
    """Render a result document; parse_result inverts this exactly."""
    lines = _header_lines(document)
    if document.region is not None:
        region = document.region
        lines.append(
            f"region halfspaces={len(region.halfspaces)} extras={len(region.extra_points)}"
        )
        for hs in region.halfspaces:
            lines.append(
                "region_halfspace normal={} offset={} sense={}".format(
                    _vector_token(hs.hyperplane.normal),
                    hs.hyperplane.offset,
                    hs.sense.value,
                )
            )
        for point in sorted(region.extra_points, key=lambda p: p.coords):
            lines.append(f"region_extra {_vector_token(point)}")
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


def _parse_vector_token(token: str, line: int) -> Vector:
    return _parse_vector(token.split(","), line)


def _parse_witness_line(args: list[str], line_no: int) -> WitnessRecord:
    if len(args) < 2 or not args[0].startswith("query=") or not args[1].startswith("kind="):
        raise ScenarioError("witness line needs query= and kind= first", line_no)
    try:
        query_index = int(args[0].removeprefix("query="))
    except ValueError:
        raise ScenarioError("bad witness query index", line_no) from None
    kind = args[1].removeprefix("kind=")
    fields: list[tuple[str, str, FieldValue]] = []
    for token in args[2:]:
        name, eq, rest = token.partition("=")
        code, colon, payload = rest.partition(":")
        if not eq or not colon or code not in ("v", "r", "t"):
            raise ScenarioError(f"bad witness field {token!r}", line_no)
        value: FieldValue
        if code == "v":
            value = _parse_vector_token(payload, line_no)
        elif code == "r":
            value = _parse_rational(payload, line_no)
        else:
            value = payload
        fields.append((name, code, value))
    return WitnessRecord(query_index, kind, tuple(fields))


_SINGLE_TOKEN_DIRECTIVES = ("result", "mode", "class", "operation", "anchor", "region_extra")
_HALFSPACE_FIELDS = ("normal", "offset", "sense")


def _parse_halfspace(args: list[str], line_no: int) -> Halfspace:
    entries: dict[str, str] = {}
    for token in args:
        field_name, eq, value = token.partition("=")
        if not eq or field_name not in _HALFSPACE_FIELDS or field_name in entries:
            raise ScenarioError(f"bad region_halfspace field {token!r}", line_no)
        entries[field_name] = value
    missing = [f"{n}=" for n in _HALFSPACE_FIELDS if n not in entries]
    if missing:
        raise ScenarioError(f"region_halfspace missing {' '.join(missing)}", line_no)
    normal = _parse_vector_token(entries["normal"], line_no)
    if normal.is_zero():
        raise ScenarioError("region_halfspace normal must be nonzero", line_no)
    offset = _parse_rational(entries["offset"], line_no)
    try:
        sense = Sense(entries["sense"])
    except ValueError:
        raise ScenarioError(f"bad sense {entries['sense']!r}", line_no) from None
    return Halfspace(Hyperplane(normal, offset), sense)


def parse_result(text: str) -> ResultDocument:
    """Read a serialized result document back, every rational exact."""
    name = None
    mode = None
    mechanism_class = None
    operation = None
    anchor = None
    region_declared = False
    halfspaces: list[Halfspace] = []
    extras: list[Vector] = []
    queries: list[QueryResult] = []
    witnesses: list[WitnessRecord] = []
    summary: list[tuple[str, str]] = []
    provenance: list[tuple[str, str]] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        key, args = parts[0], parts[1:]
        if key in _SINGLE_TOKEN_DIRECTIVES and len(args) != 1:
            raise ScenarioError(f"{key} takes exactly one token", line_no)
        if key in ("summary", "provenance") and not args:
            raise ScenarioError(f"{key} needs a key", line_no)
        if key == "result":
            name = args[0]
        elif key == "mode":
            mode = args[0]
        elif key == "class":
            mechanism_class = args[0]
        elif key == "operation":
            operation = args[0]
        elif key == "anchor":
            anchor = _parse_vector_token(args[0], line_no)
        elif key == "region":
            region_declared = True
        elif key == "region_halfspace":
            halfspaces.append(_parse_halfspace(args, line_no))
        elif key == "region_extra":
            extras.append(_parse_vector_token(args[0], line_no))
        elif key == "query":
            if len(args) != 2 or not args[1].startswith("member="):
                raise ScenarioError("bad query line", line_no)
            member_token = args[1].removeprefix("member=")
            if member_token not in ("true", "false"):
                raise ScenarioError(f"bad membership {member_token!r}", line_no)
            queries.append(
                QueryResult(_parse_vector_token(args[0], line_no), member_token == "true")
            )
        elif key == "witness":
            witnesses.append(_parse_witness_line(args, line_no))
        elif key == "summary":
            summary.append((args[0], " ".join(args[1:])))
        elif key == "provenance":
            provenance.append((args[0], " ".join(args[1:])))
        else:
            raise ScenarioError(f"unknown result directive {key!r}", line_no)
    if name is None or mode is None or mechanism_class is None or operation is None:
        raise ScenarioError("result document missing header lines")
    if anchor is None:
        raise ScenarioError("result document missing anchor")
    try:
        region = (
            ConvexRegion(tuple(halfspaces), frozenset(extras)) if region_declared else None
        )
    except DimensionMismatch as exc:
        raise ScenarioError(str(exc)) from None
    return ResultDocument(
        scenario_name=name,
        mechanism_class=mechanism_class,
        mode=mode,
        operation=operation,
        anchor=anchor,
        region=region,
        queries=tuple(queries),
        witnesses=tuple(witnesses),
        summary=tuple(summary),
        provenance=tuple(provenance),
    )


# --------------------------------------------------------------------------
# SVG rendering


_SVG_SIZE = 480
_SVG_MARGIN = 50


def _fmt(value) -> str:
    return f"{float(value):.6f}"


@dataclass(frozen=True)
class _SlicedHalfspace:
    nx: Fraction
    ny: Fraction
    offset: Fraction
    indifference_offset: Fraction
    sense: Sense


def _slice_halfspaces(
    region: ConvexRegion, anchor: Vector, axes: tuple[int, int]
) -> tuple[list[_SlicedHalfspace], bool]:
    """Fix off-axis coordinates at the anchor; returns (sliced, slice_empty)."""
    i, j = axes
    sliced: list[_SlicedHalfspace] = []
    empty = False
    for hs in region.halfspaces:
        normal = hs.hyperplane.normal
        rest = sum(
            (normal[k] * anchor[k] for k in range(normal.dim) if k not in (i, j)),
            Fraction(0),
        )
        nx, ny = normal[i], normal[j]
        if nx == 0 and ny == 0:
            satisfied = (
                rest > hs.hyperplane.offset
                if hs.sense is Sense.STRICT_GREATER
                else rest >= hs.hyperplane.offset
            )
            if not satisfied:
                empty = True
            continue
        sliced.append(
            _SlicedHalfspace(nx, ny, hs.hyperplane.offset - rest, -rest, hs.sense)
        )
    return sliced, empty


def _clip_polygon(
    polygon: list[tuple[Fraction, Fraction]], h: _SlicedHalfspace
) -> list[tuple[Fraction, Fraction]]:
    """One Sutherland-Hodgman pass against the closure of the halfplane."""

    def inside(p: tuple[Fraction, Fraction]) -> bool:
        return h.nx * p[0] + h.ny * p[1] >= h.offset

    def crossing(
        p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]
    ) -> tuple[Fraction, Fraction]:
        sp = h.nx * p[0] + h.ny * p[1] - h.offset
        sq = h.nx * q[0] + h.ny * q[1] - h.offset
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
    nx: Fraction,
    ny: Fraction,
    offset: Fraction,
    bounds: tuple[Fraction, Fraction, Fraction, Fraction],
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] | None:
    """The piece of the line nx*x + ny*y = offset inside the bounds box."""
    xmin, xmax, ymin, ymax = bounds
    corners = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    points: list[tuple[Fraction, Fraction]] = []
    for index, p in enumerate(corners):
        q = corners[(index + 1) % 4]
        sp = nx * p[0] + ny * p[1] - offset
        sq = nx * q[0] + ny * q[1] - offset
        if sp == 0:
            points.append(p)
        if (sp < 0 < sq) or (sq < 0 < sp):
            t = sp / (sp - sq)
            points.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
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
    if document.region is None:
        raise ScenarioError(
            f"result for {document.scenario_name!r} carries no region to slice"
        )
    anchor = document.anchor
    i, j = axes
    if i == j or not (0 <= i < anchor.dim and 0 <= j < anchor.dim):
        raise ScenarioError(f"axes {axes} invalid for dimension {anchor.dim}")
    sliced, slice_empty = _slice_halfspaces(document.region, anchor, (i, j))
    if slice_empty:
        return ()
    vertices: set[tuple[Fraction, Fraction]] = set()
    for a in range(len(sliced)):
        for b in range(a + 1, len(sliced)):
            h1, h2 = sliced[a], sliced[b]
            det = h1.nx * h2.ny - h1.ny * h2.nx
            if det == 0:
                continue
            px = (h1.offset * h2.ny - h2.offset * h1.ny) / det
            py = (h1.nx * h2.offset - h2.nx * h1.offset) / det
            if all(h.nx * px + h.ny * py >= h.offset for h in sliced):
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
    if document.region is None:
        raise ScenarioError(
            f"result for {document.scenario_name!r} carries no region to plot"
        )
    anchor = document.anchor
    dim = anchor.dim
    i, j = axes
    if i == j or not (0 <= i < dim and 0 <= j < dim):
        raise ScenarioError(f"axes {axes} invalid for dimension {dim}")
    if bounds is None:
        bounds = (anchor[i] - 2, anchor[i] + 2, anchor[j] - 2, anchor[j] + 2)
    xmin, xmax, ymin, ymax = (frac(b) for b in bounds)
    if xmin >= xmax or ymin >= ymax:
        raise ScenarioError("bounds box must have positive width and height")
    bounds = (xmin, xmax, ymin, ymax)

    sliced, slice_empty = _slice_halfspaces(document.region, anchor, (i, j))

    polygon: list[tuple[Fraction, Fraction]] = [
        (xmin, ymin),
        (xmax, ymin),
        (xmax, ymax),
        (xmin, ymax),
    ]
    if slice_empty:
        polygon = []
    for h in sliced:
        if not polygon:
            break
        polygon = _clip_polygon(polygon, h)
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
    segments: list[tuple[str, tuple[Fraction, Fraction], tuple[Fraction, Fraction]]] = []
    for h in sliced:
        for style, offset in (("solid", h.offset), ("dashed", h.indifference_offset)):
            key = (style, canonical(h.nx, h.ny, offset))
            if key in seen:
                continue
            seen.add(key)
            segment = _line_segment(h.nx, h.ny, offset, bounds)
            if segment is not None:
                segments.append((style, *segment))
    for style, start, end in segments:
        sx, sy = to_px(start)
        ex, ey = to_px(end)
        if style == "solid":
            attrs = 'stroke="#1a1a1a" stroke-width="1.5"'
        else:
            attrs = 'stroke="#555555" stroke-width="1" stroke-dasharray="6 4"'
        lines.append(
            f'<line x1="{_fmt(sx)}" y1="{_fmt(sy)}" x2="{_fmt(ex)}" y2="{_fmt(ey)}" {attrs}/>'
        )

    if xmin <= anchor[i] <= xmax and ymin <= anchor[j] <= ymax:
        ax, ay = to_px((anchor[i], anchor[j]))
        label = "true type" if document.mode == "forward" else "reported type"
        lines.append(f'<circle cx="{_fmt(ax)}" cy="{_fmt(ay)}" r="4" fill="#c0392b"/>')
        lines.append(
            f'<text x="{_fmt(ax + 8)}" y="{_fmt(ay - 8)}" font-family="sans-serif" '
            f'font-size="12" fill="#c0392b">{label}</text>'
        )
    lines.append(
        f'<text x="{_SVG_SIZE // 2}" y="30" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" fill="#111111">{document.scenario_name}</text>'
    )
    lines.append(
        f'<text x="{_SVG_SIZE - _SVG_MARGIN}" y="{_SVG_SIZE - _SVG_MARGIN + 32}" '
        f'text-anchor="end" font-family="sans-serif" font-size="12" '
        f'fill="#333333">coordinate {i}</text>'
    )
    lines.append(
        f'<text x="{_SVG_MARGIN - 36}" y="{_SVG_MARGIN + 4}" font-family="sans-serif" '
        f'font-size="12" fill="#333333">coordinate {j}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Command line


def _parse_axes(token: str) -> tuple[int, int]:
    parts = token.split(",")
    if len(parts) != 2 or not all(p.strip().isdigit() for p in parts):
        raise ScenarioError(f"axes must be two indices like 1,2, not {token!r}")
    return int(parts[0]), int(parts[1])


def _parse_bounds(token: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = token.split(",")
    if len(parts) != 4:
        raise ScenarioError(f"bounds must be xmin,xmax,ymin,ymax, not {token!r}")
    values = tuple(_parse_rational(p.strip()) for p in parts)
    return values[0], values[1], values[2], values[3]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechverify",
        description="Exact harmless/harmful set computations for verification design.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    helps = {
        "harmless": "evaluate a forward-mode scenario (which misreports are harmless)",
        "harmful": "evaluate a reverse-mode scenario (which true types a report could help)",
        "witness": "emit only the certificates for a scenario's negative answers",
        "verify": "check a declared rule for truthfulness on the scenario's type grid",
        "plot": "render the scenario's region as a 2-D SVG slice",
    }
    for verb, help_text in helps.items():
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("--scenario", required=True, help="path to a scenario file")
        sp.add_argument("--out", help="write output here instead of stdout")
        if verb == "plot":
            sp.add_argument("--axes", default="0,1", help="plot axes as i,j")
            sp.add_argument("--bounds", help="plot box as xmin,xmax,ymin,ymax")
    return parser


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _dispatch(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.verb in ("harmless", "harmful"):
        mode, anchor = ("forward", "theta") if args.verb == "harmless" else ("reverse", "reported")
        if scenario.mode != mode:
            raise ScenarioError(f"{args.verb} needs a {mode}-mode scenario ({anchor} line)")
        text = serialize_result(run_scenario(scenario))
    elif args.verb == "witness":
        text = serialize_witnesses(run_scenario(scenario))
    elif args.verb == "verify":
        text = serialize_result(run_verify(scenario))
    else:
        document = run_scenario(scenario)
        axes = _parse_axes(args.axes)
        bounds = _parse_bounds(args.bounds) if args.bounds is not None else None
        text = render_regions(document, axes, bounds)
    _write_output(text, args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; report those as validation errors.
        return 0 if not exc.code else 1
    try:
        return _dispatch(args)
    except (ScenarioError, MechanismError, DimensionMismatch, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - exit code 2 is the contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
