"""Spans around mechverify's layers, recorded from outside the package.

Each traced function is replaced, for the length of a traced round, by a
wrapper stored under the module attribute its callers look it up by (a
function imported into ``mechverify.cli`` is wrapped there, not only where
it is defined).  A span is (name, start_ns, end_ns, parent, request); spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# Span name -> the (module, attribute) lookups that lead into that layer.
SPANS = {
    "cli.parse_scenario": [("mechverify.cli", "parse_scenario")],
    "cli.run_scenario": [("mechverify.cli", "run_scenario"), ("mechverify.cli", "run_verify")],
    "cli.serialize": [("mechverify.cli", "serialize_result"), ("mechverify.cli", "serialize_witnesses")],
    "cli.render": [("mechverify.cli", "render_regions")],
    "harmless.build": [
        ("mechverify.cli", "deterministic_harmless"),
        ("mechverify.cli", "universally_truthful_harmless"),
        ("mechverify.reverse", "deterministic_harmless"),
        ("mechverify.scenarios", "deterministic_harmless"),
        ("mechverify.multiagent", "deterministic_harmless"),
    ],
    "harmless.contains": [("mechverify.harmless", "HarmlessResult.contains")],
    "harmless.tie_contains": [
        ("mechverify.cli", "tie_harmless_contains"),
        ("mechverify.oracle", "tie_harmless_contains"),
    ],
    "geometry.project": [("mechverify.harmless", "project_onto_span")],
    "oracle.search": [("mechverify.cli", "search_beneficial_misreport")],
    "oracle.tie_witness": [("mechverify.cli", "construct_tie_witness")],
    "reverse.harmful_union": [("mechverify.cli", "harmful_union_contains")],
    "mechanisms.truthful_check": [("mechverify.cli", "is_truthful_with_verification")],
    "multiagent.price_scan": [
        ("mechverify.cli", "find_beneficial_price"),
        ("mechverify.multiagent", "find_beneficial_price"),
    ],
    "scenarios.coverage": [("mechverify.cli", "facility_first_uncovered")],
}

# Calls only counted: they are too small and too many for a span each.
COUNTED_CALLS = {
    "mechanisms.apply_rule_calls": [
        ("mechverify.mechanisms", "apply_rule"),
        ("mechverify.cli", "apply_rule"),
        ("mechverify.harmless", "apply_rule"),
        ("mechverify.reverse", "apply_rule"),
    ],
    "scenarios.probes": [("mechverify.scenarios", "facility_harmless_position")],
}

# Certificates are what the result document ships for negative answers.
CERTIFICATE_SOURCES = {
    ("mechverify.cli", "search_beneficial_misreport"),
    ("mechverify.cli", "construct_tie_witness"),
    ("mechverify.cli", "find_beneficial_price"),
}

# Per-call self time of these spans, in ms unless the metric says us.
TIME_METRICS = {
    "cli.parse_scenario_ms": "cli.parse_scenario",
    "cli.run_scenario_self_ms": "cli.run_scenario",
    "cli.render_ms": "cli.render",
    "cli.serialize_ms": "cli.serialize",
    "harmless.build_ms": "harmless.build",
    "harmless.contains_us": "harmless.contains",
    "harmless.tie_contains_ms": "harmless.tie_contains",
    "geometry.project_ms": "geometry.project",
    "oracle.search_ms": "oracle.search",
    "oracle.tie_witness_ms": "oracle.tie_witness",
    "reverse.harmful_union_ms": "reverse.harmful_union",
    "mechanisms.truthful_check_ms": "mechanisms.truthful_check",
    "multiagent.price_scan_ms": "multiagent.price_scan",
    "scenarios.coverage_ms": "scenarios.coverage",
}

# Work counts, reported per round.
COUNT_METRICS = {
    "harmless.halfspaces": "halfspaces",
    "geometry.projections": "geometry.project",
    "oracle.certificates": "certificates",
    "mechanisms.apply_rule_calls": "mechanisms.apply_rule_calls",
    "multiagent.price_scans": "multiagent.price_scan",
    "scenarios.probes": "scenarios.probes",
}


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Collects spans and counts while installed; restores the package on removal."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._saved: list = []

    def _span_wrapper(self, name, original, source):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.request)
            self.counts[name] += 1
            self.counts[f"{name} via {'.'.join(source)}"] += 1
            if name == "harmless.build":
                self.counts["halfspaces"] += len(result.region.halfspaces)
            if source in CERTIFICATE_SOURCES and result is not None:
                self.counts["certificates"] += 1
            return result

        return traced

    def _count_wrapper(self, name, original):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        return counted

    def install(self) -> None:
        for name, sources in SPANS.items():
            for source in sources:
                owner, attr = _resolve(*source)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._span_wrapper(name, original, source))
        for name, sources in COUNTED_CALLS.items():
            for source in sources:
                owner, attr = _resolve(*source)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._count_wrapper(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def merge(self, data: dict, request) -> None:
        """Add the spans and counts another process dumped, as one request."""
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append((name, start, end, None if parent is None else parent + base, request))
        self.counts.update(data["counts"])

    def dump(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, out)


def self_times(spans) -> dict[str, list[int]]:
    """Span name -> self times (ns): each span's duration minus its children's."""
    covered = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    result = defaultdict(list)
    for index, (name, start, end, _, _) in enumerate(spans):
        result[name].append(end - start - covered[index])
    return result


def caller_counts(spans) -> dict[str, int]:
    """'parent -> child' span-name pairs with their call counts."""
    pairs = Counter()
    for name, _, _, parent, _ in spans:
        pairs[f"{spans[parent][0] if parent is not None else 'request'} -> {name}"] += 1
    return dict(pairs)


def layer_metrics(spans, counts, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-call self time of each layer and per-round work counts."""
    selfs = self_times(spans)
    metrics = {}
    for metric, span in TIME_METRICS.items():
        values = selfs.get(span, [])
        mean_ns = sum(values) / len(values) if values else 0.0
        if metric.endswith("_us"):
            metrics[metric] = (mean_ns / 1e3, "us")
        else:
            metrics[metric] = (mean_ns / 1e6, "ms")
    for metric, key in COUNT_METRICS.items():
        metrics[metric] = (counts.get(key, 0) / rounds, "count")
    return metrics
