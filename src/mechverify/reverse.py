"""Harmful sets: given an observed report, which true types it could benefit.

This is the designer's ex-post view.  A candidate true type is harmful for a
report under a rule when the report's allocation beats the candidate's own,
valued by the candidate.  Against a whole family the union (some rule
benefits) is what verification must rule out; by symmetry of the benefit
relation the report is in it exactly when it lies outside the candidate's
forward harmless set, which ``point_mass_rule``'s O(m) pass decides
without building the set's region.
"""

from __future__ import annotations

from collections.abc import Sequence

from .geometry import Vector
from .harmless import (
    deterministic_harmless,  # unused here; perfbench/tracing.py wraps it under this module
    point_mass_rule,
)
from .mechanisms import (
    Allocation,
    apply_rule,  # unused here; perfbench/tracing.py wraps it under this module
)


def harmful_union_contains(
    reported: Vector, allocations: Sequence[Allocation], candidate: Vector
) -> bool:
    """True iff some deterministic rule over the allocations makes the report
    beneficial for the candidate -- i.e. the report sits outside the
    candidate's forward harmless set, so the candidate's closed-form
    certificate exists."""
    return point_mass_rule(candidate, reported, allocations) is not None

