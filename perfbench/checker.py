"""Independent correctness checks for mechverify's outputs.

Nothing here imports mechverify.  Scenario files and result documents are
read with this module's own parsers, every verdict is recomputed from the
definitions, and every certificate is re-evaluated directly:

* deterministic verdicts (also ``kminded``, ``vcg``, reverse mode and the
  ``harmless_complement`` verification): x is harmless for theta iff
  x == theta or, for every pair theta strictly ranks, (a - b).x < (a - b).theta;
* truthful-in-expectation verdicts: the centred (full simplex) or raw
  (subsimplex with null) report is a factor <= 1 of theta's;
* second-price verdicts: the threshold rule;
* facility coverage: harmful and unblocked positions, decided exactly on the
  line from the breakpoints, and the reported first uncovered point;
* price-family verdicts: certificates re-evaluated at their prices, and
  ``member=true`` searched on a price grid;
* ``verify`` verdicts: truthfulness on the grid, first violation in grid order;
* SVG output: parsed as XML.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction

SVG_ROOT = "{http://www.w3.org/2000/svg}svg"


class CheckError(Exception):
    """An output disagrees with the benchmark's reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _vector(token: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in token.split(","))


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _unit(index: int, dim: int):
    return tuple(Fraction(int(i == index)) for i in range(dim))


# --------------------------------------------------------------------------
# Scenario files


@dataclass
class Scenario:
    name: str = ""
    cls: str = ""
    theta: tuple | None = None
    reported: tuple | None = None
    queries: list = field(default_factory=list)
    allocations: list = field(default_factory=list)
    null_label: str | None = None
    options: dict = field(default_factory=dict)

    @property
    def anchor(self):
        return self.theta if self.theta is not None else self.reported

    def option(self, key: str, default=None):
        values = self.options.get(key)
        return default if values is None else values[0]


def parse_scenario(text: str) -> Scenario:
    s = Scenario()
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        key, args = parts[0], parts[1:]
        if key == "scenario":
            s.name = args[0]
        elif key == "class":
            s.cls = args[0]
        elif key in ("theta", "reported"):
            setattr(s, key, tuple(Fraction(a) for a in args))
        elif key == "query":
            s.queries.append(tuple(Fraction(a) for a in args))
        elif key == "allocation":
            s.allocations.append(tuple(Fraction(a) for a in args))
        elif key == "null_assignment":
            s.null_label = args[0]
        elif key == "option":
            s.options.setdefault(args[0], []).append(tuple(args[1:]))
    return s


# --------------------------------------------------------------------------
# Result documents


@dataclass
class Document:
    header: dict = field(default_factory=dict)
    halfspaces: int = 0
    queries: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


@dataclass
class Witness:
    index: int
    kind: str
    fields: dict

    def get(self, name: str, code: str):
        _require(name in self.fields, f"witness {self.index} lacks field {name}")
        got_code, payload = self.fields[name]
        _require(got_code == code, f"witness field {name} has type {got_code}, not {code}")
        if code == "v":
            return _vector(payload)
        if code == "r":
            return Fraction(payload)
        return payload


HEADER_KEYS = ("result", "mode", "class", "operation", "anchor")


def parse_document(text: str) -> Document:
    doc = Document()
    _require(text.endswith("\n"), "document does not end with a newline")
    for line in text.splitlines():
        parts = line.split()
        _require(bool(parts), "blank line in document")
        key, args = parts[0], parts[1:]
        if key in HEADER_KEYS:
            _require(key not in doc.header and len(args) == 1, f"bad {key} line")
            doc.header[key] = args[0]
        elif key == "region_halfspace":
            doc.halfspaces += 1
        elif key in ("region", "region_extra", "provenance"):
            pass
        elif key == "query":
            _require(len(args) == 2 and args[1] in ("member=true", "member=false"), "bad query line")
            doc.queries.append((_vector(args[0]), args[1] == "member=true"))
        elif key == "witness":
            _require(args[0].startswith("query=") and args[1].startswith("kind="), "bad witness line")
            fields = {}
            for token in args[2:]:
                name, _, rest = token.partition("=")
                code, _, payload = rest.partition(":")
                _require(code in ("v", "r", "t") and name not in fields, f"bad field {token}")
                fields[name] = (code, payload)
            doc.witnesses.append(Witness(int(args[0][6:]), args[1][5:], fields))
        elif key == "summary":
            doc.summary[args[0]] = " ".join(args[1:])
        else:
            raise CheckError(f"unknown document line {key!r}")
    for key in HEADER_KEYS:
        _require(key in doc.header, f"document lacks its {key} line")
    return doc


# --------------------------------------------------------------------------
# Reference verdicts


def deterministic_harmless(theta, x, allocations=None) -> bool:
    """x == theta, or (a - b).x < (a - b).theta for every pair theta ranks a over b."""
    if x == theta:
        return True
    if allocations is None:
        m = len(theta)
        return all(
            x[p] - x[o] < theta[p] - theta[o]
            for p in range(m)
            for o in range(m)
            if theta[p] > theta[o]
        )
    for a in allocations:
        for b in allocations:
            d = _sub(a, b)
            if _dot(d, theta) > 0 and not _dot(d, x) < _dot(d, theta):
                return False
    return True


def _centred(v):
    mean = sum(v, Fraction(0)) / len(v)
    return tuple(c - mean for c in v)


def expectation_harmless(theta, x, null: bool) -> bool:
    """Projection of x is a factor <= 1 of theta's; indifferent theta: all harmless."""
    pt, px = (theta, x) if null else (_centred(theta), _centred(x))
    if all(c == 0 for c in pt):
        return True
    pivot = next(i for i, c in enumerate(pt) if c != 0)
    lam = px[pivot] / pt[pivot]
    return lam <= 1 and all(a == lam * b for a, b in zip(px, pt))


def second_price_harmful(reported, threshold, allocation_dependent: bool, candidate) -> bool:
    """A true value is helped iff it loses on its own and the report wins."""
    if allocation_dependent:
        return reported >= threshold and 0 < candidate < threshold
    return 0 < candidate < reported


# --------------------------------------------------------------------------
# Certificates


def _allocate(a_i, a_j, price, tie, overrides, v):
    s = _dot(_sub(a_i, a_j), v)
    if s > price:
        return a_i
    if s < price:
        return a_j
    if v in overrides:
        return overrides[v]
    return a_i if tie == "to_i" else a_j


def check_separating(w: Witness, true_type, report, allowed) -> None:
    """Re-evaluate a two-allocation rule: the report must strictly beat the truth."""
    _require(w.kind == "separating", f"unexpected witness kind {w.kind}")
    a_i, a_j = w.get("allocation_i", "v"), w.get("allocation_j", "v")
    _require(a_i in allowed and a_j in allowed and a_i != a_j, "witness allocations not in the family")
    price = w.get("relative_price", "r")
    tie = w.get("tie", "t")
    _require(tie in ("to_i", "to_j"), f"bad tie side {tie}")
    overrides = {}
    n = 0
    while f"override_point_{n}" in w.fields:
        point = w.get(f"override_point_{n}", "v")
        target = w.get(f"override_target_{n}", "v")
        _require(_dot(_sub(a_i, a_j), point) == price, "override point off the boundary")
        _require(target in (a_i, a_j), "override target outside the pair")
        overrides[point] = target
        n += 1
    gained = _dot(_allocate(a_i, a_j, price, tie, overrides, report), true_type)
    truthful = _dot(_allocate(a_i, a_j, price, tie, overrides, true_type), true_type)
    _require(w.get("gained", "r") == gained, "witness gained value is wrong")
    _require(w.get("truthful", "r") == truthful, "witness truthful value is wrong")
    _require(gained > truthful, "witness rule gives no benefit")


def _is_distribution(v) -> bool:
    return all(0 <= c <= 1 for c in v) and sum(v) == 1


def check_randomized_pair(w: Witness, theta, x) -> None:
    low, high = w.get("low", "v"), w.get("high", "v")
    _require(_is_distribution(low) and _is_distribution(high) and low != high, "bad randomized pair")
    price = w.get("relative_price", "r")
    tie = w.get("tie", "t")
    _require(tie in ("to_i", "to_j"), f"bad tie side {tie}")
    gained = _dot(_allocate(high, low, price, tie, {}, x), theta)
    truthful = _dot(_allocate(high, low, price, tie, {}, theta), theta)
    _require(w.get("gained", "r") == gained, "randomized witness gained value is wrong")
    _require(w.get("truthful", "r") == truthful, "randomized witness truthful value is wrong")
    _require(gained > truthful, "randomized witness gives no benefit")


def _price_bounds(s: Scenario):
    def bound(token):
        return None if token in ("inf", "none") else Fraction(token)

    lows = [bound(t) for t in s.option("price_low", ("0", "0"))]
    highs = [bound(t) for t in s.option("price_high", ("inf", "inf"))]
    return list(zip(lows, highs))


def _menu_utilities(y, prices):
    return (y[0], y[1] - prices[0], y[2] - prices[1])


def _argmax(values):
    top = max(values)
    return [i for i, v in enumerate(values) if v == top]


def _price_benefit(theta, x, prices) -> bool:
    """Some tie-breaking hands the report an entry theta values above its own."""
    gained = max(theta[k] for k in _argmax(_menu_utilities(x, prices)))
    truthful = min(theta[k] for k in _argmax(_menu_utilities(theta, prices)))
    return gained > truthful


def check_prices(w: Witness, theta, x, bounds) -> None:
    prices = (w.get("price_item1", "r"), w.get("price_item2", "r"))
    for p, (low, high) in zip(prices, bounds):
        _require(p >= low and (high is None or p <= high), "witness prices outside the box")
    report_entry = int(w.get("report_entry", "t"))
    truthful_entry = int(w.get("truthful_entry", "t"))
    _require(report_entry in _argmax(_menu_utilities(x, prices)), "report does not pick its entry")
    _require(truthful_entry in _argmax(_menu_utilities(theta, prices)), "truth does not pick its entry")
    _require(w.get("gained", "r") == theta[report_entry], "price witness gained value is wrong")
    _require(w.get("truthful", "r") == theta[truthful_entry], "price witness truthful value is wrong")
    _require(theta[report_entry] > theta[truthful_entry], "price witness gives no benefit")


def price_grid_finds_benefit(theta, x, bounds, steps: int = 24) -> bool:
    """Search a price grid over the box (unbounded sides clipped past every value)."""
    far = max(abs(c) for c in theta + x) * 2 + 2
    axes = []
    for low, high in bounds:
        top = high if high is not None else max(low, Fraction(0)) + far
        axes.append([low + (top - low) * Fraction(k, steps) for k in range(steps + 1)])
    return any(_price_benefit(theta, x, (p1, p2)) for p1 in axes[0] for p2 in axes[1])


# --------------------------------------------------------------------------
# Facility coverage on a line


@dataclass(frozen=True)
class FacilityCase:
    z: Fraction
    g: tuple[Fraction, Fraction]
    benefit: Fraction
    kinds: tuple[str, ...]

    @classmethod
    def of(cls, s: Scenario) -> "FacilityCase":
        g = tuple(Fraction(t) for t in s.option("facilities"))
        benefit = Fraction(s.option("benefit", ("1",))[0])
        kinds = tuple(k for values in s.options.get("verification", []) for k in values)
        return cls(s.theta[0], g, benefit, kinds)

    def induced(self, position):
        return tuple(self.benefit - abs(position - g) for g in self.g)

    def preferred(self):
        t = self.induced(self.z)
        if t[0] == t[1]:
            return None
        return 0 if t[0] > t[1] else 1

    def harmful(self, position) -> bool:
        """The report looks strictly keener on the agent's preferred facility."""
        p = self.preferred()
        if p is None:
            return False
        t, r = self.induced(self.z), self.induced(position)
        return r[p] - r[1 - p] > t[p] - t[1 - p]

    def blocked(self, position) -> bool:
        g = self.g[self.preferred()]
        for kind in self.kinds:
            if kind == "no_underbid_distance" and abs(position - g) < abs(self.z - g):
                return True
            if kind == "direction_imposing" and (position - g) * (self.z - g) < 0:
                return True
        return False

    def uncovered(self, position) -> bool:
        return position != self.z and self.harmful(position) and not self.blocked(position)

    def exactly_covered(self) -> bool:
        """Every predicate is constant between these breakpoints, so testing
        each breakpoint, each gap's midpoint and a point past each end decides."""
        if self.preferred() is None:
            return True
        z, (g1, g2) = self.z, self.g
        points = sorted({g1, g2, z, (g1 + g2) / 2, 2 * g1 - z, 2 * g2 - z})
        probes = points + [(a + b) / 2 for a, b in zip(points, points[1:])]
        probes += [points[0] - 1, points[-1] + 1]
        return not any(self.uncovered(p) for p in probes)


# --------------------------------------------------------------------------
# Whole documents


def _check_header(doc: Document, s: Scenario, mode: str) -> None:
    _require(doc.header["result"] == s.name, "result name differs from the scenario")
    _require(doc.header["class"] == s.cls, "result class differs from the scenario")
    _require(doc.header["mode"] == mode, f"mode is {doc.header['mode']}, not {mode}")
    _require(_vector(doc.header["anchor"]) == s.anchor, "anchor differs from the scenario")


def _family(s: Scenario):
    """(reference verdict, is_negative, certificate check, mode) for the scenario's class."""
    cls, anchor = s.cls, s.anchor
    if cls in ("deterministic", "universally_truthful", "vcg", "kminded"):
        if cls == "kminded":
            k = int(s.option("k")[0])
            dim = k + 1
        else:
            dim = len(anchor)
        explicit = [tuple(a) for a in s.allocations] or None
        allowed = explicit or [_unit(i, dim) for i in range(dim)]
        if s.theta is not None:

            def verdict(q):
                return deterministic_harmless(anchor, q, explicit)

            def certify(w, q):
                check_separating(w, anchor, q, allowed)

            return verdict, (lambda member: not member), certify, "forward"

        def verdict(q):
            return not deterministic_harmless(q, anchor, explicit)

        def certify(w, q):
            check_separating(w, q, anchor, allowed)

        return verdict, (lambda member: member), certify, "reverse"
    if cls == "truthful_in_expectation":
        _require(not s.allocations, "explicit expectation families are not checked")
        null = s.null_label is not None

        def verdict(q):
            return expectation_harmless(anchor, q, null)

        def certify(w, q):
            _require(w.kind == "randomized_pair", f"unexpected witness kind {w.kind}")
            check_randomized_pair(w, anchor, q)

        return verdict, (lambda member: not member), certify, "forward"
    if cls == "second_price":
        threshold = Fraction(s.option("threshold")[0])
        dependent = s.option("allocation_dependent", ("false",))[0] == "true"

        def verdict(q):
            return second_price_harmful(anchor[0], threshold, dependent, q[0])

        def certify(w, q):
            _require(w.kind == "threshold", f"unexpected witness kind {w.kind}")
            _require(w.get("threshold", "r") == threshold, "witness threshold differs")
            _require(w.get("reported", "r") == anchor[0], "witness report differs")
            _require(w.get("candidate", "r") == q[0], "witness candidate differs")
            _require(verdict(q), "threshold witness for a candidate the report cannot help")

        return verdict, (lambda member: member), certify, "reverse"
    if cls == "price_family":
        bounds = _price_bounds(s)

        def verdict(q):
            return None  # decided by certificate or grid search below

        def certify(w, q):
            _require(w.kind == "prices", f"unexpected witness kind {w.kind}")
            check_prices(w, anchor, q, bounds)

        return verdict, (lambda member: not member), certify, "forward"
    if cls == "facility_line":
        case = FacilityCase.of(s)
        pair = [_unit(0, 2), _unit(1, 2)]

        def verdict(q):
            return not case.harmful(q[0])

        def certify(w, q):
            _require(w.get("agent_type", "v") == case.induced(case.z), "agent_type is wrong")
            _require(w.get("report_type", "v") == case.induced(q[0]), "report_type is wrong")
            check_separating(w, case.induced(case.z), case.induced(q[0]), pair)

        return verdict, (lambda member: not member), certify, "forward"
    raise CheckError(f"class {cls} is not checked")


def _check_verdicts(doc: Document, s: Scenario, verdict) -> None:
    _require(len(doc.queries) == len(s.queries), "query count differs from the scenario")
    for (query, member), expected in zip(doc.queries, s.queries):
        _require(query == expected, "query differs from the scenario")
        reference = verdict(query)
        if reference is None:
            continue
        _require(member == reference, f"verdict {member} for query {query} should be {reference}")


def _check_witnesses(doc: Document, s: Scenario, negatives, certify) -> None:
    indices = [w.index for w in doc.witnesses]
    _require(indices == negatives, f"witnesses for queries {indices}, expected {negatives}")
    for w in doc.witnesses:
        certify(w, s.queries[w.index])


def check_result(s: Scenario, text: str) -> None:
    """A `harmless` or `harmful` result document."""
    doc = parse_document(text)
    verdict, negative, certify, mode = _family(s)
    _check_header(doc, s, mode)
    _check_verdicts(doc, s, verdict)
    negatives = [i for i, (_, member) in enumerate(doc.queries) if negative(member)]
    _check_witnesses(doc, s, negatives, certify)
    if s.cls == "price_family":
        bounds = _price_bounds(s)
        for query, member in doc.queries:
            if member:
                _require(
                    not price_grid_finds_benefit(s.theta, query, bounds),
                    f"grid prices reward query {query} marked harmless",
                )
    if s.cls == "facility_line":
        _check_coverage(doc, FacilityCase.of(s))


def _check_coverage(doc: Document, case: FacilityCase) -> None:
    covered = case.exactly_covered()
    _require(doc.summary.get("covered") == ("true" if covered else "false"), "coverage verdict is wrong")
    p = case.preferred()
    _require(doc.summary.get("preferred") == ("indifferent" if p is None else str(case.g[p])), "preferred facility is wrong")
    _require(doc.summary.get("verifications") == (",".join(case.kinds) or "none"), "verification list is wrong")
    if covered:
        _require("first_uncovered" not in doc.summary, "covered case reports an uncovered point")
    else:
        point = Fraction(doc.summary.get("first_uncovered", "nan"))
        _require(case.uncovered(point), f"first_uncovered {point} is harmless or blocked")


def check_witness_listing(s: Scenario, text: str) -> None:
    """A `witness` document: certificates for exactly the negative queries."""
    doc = parse_document(text)
    verdict, negative, certify, mode = _family(s)
    _check_header(doc, s, mode)
    _require(not doc.queries and doc.halfspaces == 0, "witness listing carries query or region lines")
    if s.cls == "price_family":
        # Negatives are exactly the queries the grid or a certificate shows harmful.
        negatives = [w.index for w in doc.witnesses]
        for i, q in enumerate(s.queries):
            if i not in negatives:
                _require(not price_grid_finds_benefit(s.theta, q, _price_bounds(s)), f"query {i} lacks a witness")
    else:
        negatives = [i for i, q in enumerate(s.queries) if negative(verdict(q))]
    _check_witnesses(doc, s, negatives, certify)
    _require(doc.summary.get("witnesses") == str(len(doc.witnesses)), "witness count line is wrong")


def _menu_choice(prices, v) -> int:
    utilities = [v[i] - p for i, p in enumerate(prices)]
    return utilities.index(max(utilities))


def _verification_covers(kind: str, prices, true_type, report) -> bool:
    if kind == "none":
        return False
    if kind == "no_overbid":
        return any(r > t for t, r in zip(true_type, report))
    if kind == "no_overbid_on_received":
        got = _menu_choice(prices, report)
        return report[got] > true_type[got]
    if kind == "harmless_complement":
        return not deterministic_harmless(true_type, report)
    raise CheckError(f"verification kind {kind} is not checked")


def check_verify(s: Scenario, text: str) -> None:
    """A `verify` document: truthfulness of a taxation menu on the type grid."""
    doc = parse_document(text)
    _check_header(doc, s, "forward")
    _require("rule_prices" in s.options, "only rule_prices menus are checked")
    prices = [Fraction(t) for t in s.option("rule_prices")]
    kind = s.option("verification_kind", ("none",))[0]
    grid = []
    for point in (s.theta, *s.queries):
        if point not in grid:
            grid.append(point)
    violation = None
    for t in grid:
        kept = t[_menu_choice(prices, t)]
        for r in grid:
            if r != t and t[_menu_choice(prices, r)] > kept and not _verification_covers(kind, prices, t, r):
                violation = (t, r)
                break
        if violation:
            break
    _require(doc.summary.get("truthful") == ("false" if violation else "true"), "truthfulness verdict is wrong")
    _require(doc.summary.get("verification") == kind, "verification kind is wrong")
    _require(doc.summary.get("grid_size") == str(len(grid)), "grid size is wrong")
    if violation is None:
        _require(not doc.witnesses, "truthful menu carries a violation")
        return
    _require(len(doc.witnesses) == 1, "expected exactly one violation witness")
    w = doc.witnesses[0]
    t, r = violation
    _require(w.kind == "grid_violation" and w.index == grid.index(t), "violation witness index is wrong")
    _require(w.get("true_type", "v") == t and w.get("beneficial_report", "v") == r, "not the first violation")
    _require(w.get("gained", "r") == t[_menu_choice(prices, r)], "violation gained value is wrong")
    _require(w.get("truthful", "r") == t[_menu_choice(prices, t)], "violation truthful value is wrong")


def check_svg(s: Scenario, text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse: {exc}") from None
    _require(root.tag == SVG_ROOT, f"root element is {root.tag}")
    titles = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
    _require(s.name in titles, "SVG lacks the scenario title")


CHECKS = {
    "harmless": check_result,
    "harmful": check_result,
    "witness": check_witness_listing,
    "verify": check_verify,
    "plot": check_svg,
}


def check(verb: str, scenario_text: str, output: str) -> None:
    """Raise CheckError unless ``output`` is a correct answer to the request."""
    try:
        CHECKS[verb](parse_scenario(scenario_text), output)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
