"""Seeded scenario texts for the in-process workloads.

Every generated value is a small rational (denominators 1 to 4), so the
cost of a request depends on its class and size, not on the seed.  Each
part of a round is a fixed number of requests of fixed sizes; the seed
only picks the numbers.  About half of the queries are harmless by
construction, the rest harmful by construction, and the benchmark's
checker confirms each verdict independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from checker import expectation_harmless

DENOMINATORS = (1, 2, 3, 4)
QUERIES_PER_REQUEST = 4


@dataclass(frozen=True)
class Request:
    """One unit of user work: a scenario text taken through one verb."""

    part: str
    verb: str
    text: str


def _rational(rng: random.Random, low: int, high: int) -> Fraction:
    d = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(low * d, high * d), d)


def _token(values) -> str:
    return " ".join(str(v) for v in values)


def _affine(theta, lam: Fraction, shift: Fraction) -> list[Fraction]:
    return [lam * t + shift for t in theta]


def _non_constant(rng: random.Random, m: int, low: int, high: int) -> list[Fraction]:
    while True:
        theta = [_rational(rng, low, high) for _ in range(m)]
        if len(set(theta)) > 1:
            return theta


def rank_order(m: int) -> list[int]:
    """A fixed order of the m coordinates, from lowest value to highest.

    The pairs a deterministic set ranks, and so the path of its membership
    test and of the certificate search, follow from this order alone; it
    depends on m but not on the seed, which only draws the values.
    """
    return random.Random(f"ranks:{m}").sample(range(m), m)


def _ranked(rng: random.Random, m: int) -> list[Fraction]:
    """m distinct values in [0, 12], placed by rank_order(m).

    Distinct values give a deterministic set all m(m-1)/2 halfspaces.
    """
    pool = sorted({Fraction(k, d) for d in DENOMINATORS for k in range(12 * d + 1)})
    values = sorted(rng.sample(pool, m))
    theta = [Fraction(0)] * m
    for rank, index in enumerate(rank_order(m)):
        theta[index] = values[rank]
    return theta


def _scenario(name: str, cls: str, anchor_key: str, anchor, queries, extra=()) -> str:
    lines = [f"scenario {name}", f"class {cls}", *extra, f"{anchor_key} {_token(anchor)}"]
    lines += [f"query {_token(q)}" for q in queries]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Deterministic class: harmless iff x == theta or x_p - x_o < theta_p - theta_o
# for every pair theta strictly ranks.


def _deterministic_harmful(rng: random.Random, theta) -> list[Fraction]:
    """Start from a harmless report and break one ranked pair (boundary or beyond).

    The broken pair is the coordinate of median rank over the one ranked
    just below it, so the work to find it is the same whatever the seed.
    """
    m = len(theta)
    x = _affine(theta, rng.choice((Fraction(1, 2), Fraction(3, 4))), _rational(rng, -1, 1))
    order = rank_order(m)
    p, o = order[m // 2], order[m // 2 - 1]
    x[p] = x[o] + (theta[p] - theta[o]) + rng.choice((0, Fraction(1, 2), 1))
    return x


def _deterministic_harmless(rng: random.Random, theta) -> list[Fraction]:
    lam = rng.choice((Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
    return _affine(theta, lam, _rational(rng, -2, 2))


def deterministic_forward(rng: random.Random, m: int, index: int) -> str:
    theta = _ranked(rng, m)
    queries = []
    for k in range(QUERIES_PER_REQUEST):
        make = _deterministic_harmless if k % 2 == 0 else _deterministic_harmful
        queries.append(make(rng, theta))
    return _scenario(f"det_m{m}_{index}", "deterministic", "theta", theta, queries)


def deterministic_reverse(rng: random.Random, m: int, index: int) -> str:
    """Candidates for whom the report is harmless (so not harmful) or not."""
    reported = _ranked(rng, m)
    order = rank_order(m)
    p, o = order[m // 2], order[m // 2 - 1]
    candidates = []
    for k in range(QUERIES_PER_REQUEST):
        if k % 2 == 0:
            # reported = lam * candidate + shift with lam < 1: harmless for it.
            lam = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
            shift = _rational(rng, -1, 1)
            candidates.append([(r - shift) / lam for r in reported])
        else:
            candidate = _ranked(rng, m)
            # The candidate ranks p over o, by no more than the report does
            # (equality is the boundary): harmful.
            gap = reported[p] - reported[o]
            candidate[p] = candidate[o] + gap * rng.choice((Fraction(1, 2), Fraction(1)))
            candidates.append(candidate)
    return _scenario(f"rev_m{m}_{index}", "deterministic", "reported", reported, candidates)


# --------------------------------------------------------------------------
# Truthful-in-expectation class: harmless iff the projection of x is a
# factor <= 1 of theta's (centred vectors on the full simplex, raw vectors
# on the subsimplex with a null coordinate kept at 0).


def expectation_forward(rng: random.Random, m: int, index: int, family: str) -> str:
    null = family == "subsimplex_with_null"
    if null:
        theta = [Fraction(0)] + _non_constant(rng, m - 1, 0, 8)
        extra = (f"assignments null {_token(f'a{i}' for i in range(1, m))}", "null_assignment null")
    else:
        theta = _non_constant(rng, m, 0, 8)
        extra = ()
    queries = []
    for k in range(QUERIES_PER_REQUEST):
        shift = Fraction(0) if null else _rational(rng, -2, 2)
        if k % 2 == 0:
            lam = rng.choice((Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
            queries.append(_affine(theta, lam, shift))
        elif k % 4 == 1:
            queries.append(_affine(theta, rng.choice((Fraction(3, 2), Fraction(2))), shift))
        else:
            while True:
                x = [t + _rational(rng, -1, 1) for t in theta]
                if null:
                    x[0] = Fraction(0)
                if not expectation_harmless(theta, x, null):
                    break
            queries.append(x)
    cls = "truthful_in_expectation"
    return _scenario(f"tie_{family}_m{m}_{index}", cls, "theta", theta, queries, extra)


# --------------------------------------------------------------------------
# Designer-side checks: taxation menus on type grids, facility coverage.

VERIFICATION_KINDS = ("none", "no_overbid", "no_overbid_on_received", "harmless_complement")


def menu_verify(rng: random.Random, m: int, grid: int, kind: str, index: int) -> str:
    """A taxation menu (null free, items priced 1 to 3) on a grid of types.

    Prices near the values make many types buy nothing or a cheaper item,
    so most grid pairs are beneficial misreports the verification must see.
    """
    prices = [Fraction(0)] + [_rational(rng, 1, 3) for _ in range(m - 1)]
    types: list[list[Fraction]] = []
    while len(types) < grid:
        t = [Fraction(0)] + [_rational(rng, 0, 4) for _ in range(m - 1)]
        if t not in types:
            types.append(t)
    extra = (f"option rule_prices {_token(prices)}", f"option verification_kind {kind}")
    return _scenario(f"menu_{kind}_{index}", "deterministic", "theta", types[0], types[1:], extra)


FACILITY_SUBSETS = ((), ("no_underbid_distance",), ("direction_imposing",),
                    ("no_underbid_distance", "direction_imposing"))
# Where the agent sits relative to facilities g1 < g2: nearer one of them,
# exactly between them, or outside both.
FACILITY_POSITIONS = ("near_left", "near_right", "midpoint", "outside")


def facility(rng: random.Random, position: str, subset, index: int) -> str:
    g1 = _rational(rng, -4, 0)
    g2 = g1 + _rational(rng, 2, 4)
    span = g2 - g1
    if position == "near_left":
        z = g1 + span / 4
    elif position == "near_right":
        z = g2 - span / 4
    elif position == "midpoint":
        z = (g1 + g2) / 2
    else:
        z = rng.choice((g1 - _rational(rng, 1, 2), g2 + _rational(rng, 1, 2)))
    benefit = _rational(rng, 3, 6)
    queries = [[z + _rational(rng, -2, 2)] for _ in range(QUERIES_PER_REQUEST)]
    extra = [f"option facilities {g1} {g2}", f"option benefit {benefit}"]
    if subset:
        extra.append(f"option verification {_token(subset)}")
    return _scenario(f"facility_{position}_{index}", "facility_line", "theta", [z], queries, extra)
