"""Acceptance suite: one test per stated criterion, exact checks throughout.

Each test name carries its criterion number so a verbose run gives one
pass/fail line per criterion. Randomness is seeded; every check is exact
rational arithmetic with zero tolerance. The last test is a timing gate on
the slowest scenario at the input budgets.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from mechverify import cli
from mechverify.cli import (
    parse_scenario,
    run_scenario,
    serialize_result,
    serialize_witnesses,
    slice_region_vertices,
)
from mechverify.geometry import Sense, ones_vector, vec
from mechverify.harmless import (
    SimplexFamily,
    deterministic_harmless,
    pairwise_harmless,
    tie_harmless_contains,
)
from mechverify.mechanisms import allocate_separating, point_mass, point_masses
from mechverify.multiagent import (
    UNRESERVED,
    PriceFamily,
    find_beneficial_price,
    price_family_harmless_contains,
)
from mechverify.oracle import (
    construct_tie_witness,
    rule_benefit,
    search_beneficial_misreport,
)
from mechverify.reverse import harmful_union_contains
from mechverify.scenarios import (
    FacilityLine,
    VerificationKind,
    facility_verification_covers,
    kminded_harmless_contains,
    second_price_harmful_contains,
)


def rational(rng, lo=-5, hi=5, max_den=12):
    return Fraction(rng.randint(lo * max_den, hi * max_den), max_den)


def random_vector(rng, dim, lo=-5, hi=5):
    return vec(*(rational(rng, lo, hi) for _ in range(dim)))


def distinct_vector(rng, dim, lo=-5, hi=5):
    while True:
        candidate = random_vector(rng, dim, lo, hi)
        if len(set(candidate.coords)) == dim:
            return candidate


def check_tie_witness(witness, theta, x):
    gained, truthful = rule_benefit(witness.rule, theta, x)
    assert gained == witness.gained_value
    assert truthful == witness.truthful_value
    assert gained > truthful
    assert allocate_separating(witness.rule, x) == witness.high
    assert allocate_separating(witness.rule, theta) == witness.low


def test_criterion_01_pairwise_formula_dim2():
    rng = random.Random(101)
    a1, a2 = point_masses(2)
    start = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        theta = random_vector(rng, 2)
        while theta[0] == theta[1]:
            theta = random_vector(rng, 2)
        x = theta if rng.random() < 0.05 else random_vector(rng, 2)
        p, o = (0, 1) if theta[0] > theta[1] else (1, 0)
        expected = x == theta or (x[p] - x[o] < theta[p] - theta[o])
        member = pairwise_harmless(theta, a1, a2).contains(x)
        if member != expected:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 5


def test_criterion_02_oracle_equivalence_deterministic():
    rng = random.Random(202)
    start = time.monotonic()
    mismatches = 0
    for instance in range(500):
        m = (2, 3, 4)[instance % 3]
        allocations = point_masses(m)
        theta = random_vector(rng, m)
        harmless_set = deterministic_harmless(theta, allocations)
        for _ in range(50):
            x = theta if rng.random() < 0.04 else random_vector(rng, m)
            member = harmless_set.contains(x)
            rule = search_beneficial_misreport(theta, x, allocations)
            if member != (rule is None):
                mismatches += 1
            if rule is not None:
                gained, truthful = rule_benefit(rule, theta, x)
                assert gained > truthful
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 60


def test_criterion_03_golden_region_and_slice_vertices():
    theta = vec(0, Fraction(1, 2), Fraction(3, 2))
    result = deterministic_harmless(theta, point_masses(3))
    described = {
        (hs.hyperplane.normal.coords, hs.hyperplane.offset, hs.sense)
        for hs in result.region.halfspaces
    }
    # Written on the simplex coordinates these are exactly x1 < 1/2,
    # x2 < 3/2, and x2 - x1 < 1 (after pinning x0 = 0).
    assert described == {
        ((Fraction(1), Fraction(-1), Fraction(0)), Fraction(-1, 2), Sense.STRICT_GREATER),
        ((Fraction(1), Fraction(0), Fraction(-1)), Fraction(-3, 2), Sense.STRICT_GREATER),
        ((Fraction(0), Fraction(1), Fraction(-1)), Fraction(-1), Sense.STRICT_GREATER),
    }
    assert result.region.extra_points == frozenset({theta})

    scenario = parse_scenario(
        "scenario golden\n"
        "class deterministic\n"
        "theta 0 1/2 3/2\n"
        "space_low 0 0 0\n"
        "query 0 1/4 1\n"
    )
    vertices = slice_region_vertices(run_scenario(scenario), axes=(1, 2))
    assert set(vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(3, 2)),
        (Fraction(1, 2), Fraction(0)),
    }


def test_criterion_04_tie_characterization():
    rng = random.Random(404)
    lambda_in = (Fraction(1), Fraction(0), Fraction(-3, 2), Fraction(5, 8))
    shifts = (Fraction(0), Fraction(-1), Fraction(7, 3))
    lambda_out = (Fraction(9, 8), Fraction(3))
    for index in range(500):
        m = 3 if index % 2 == 0 else 4
        theta = distinct_vector(rng, m)
        ones = ones_vector(m)

        for lam in lambda_in:
            for shift in shifts:
                x = theta.scale(lam) + ones.scale(shift)
                assert tie_harmless_contains(theta, x, SimplexFamily.FULL_SIMPLEX)
        for lam in lambda_out:
            x = theta.scale(lam)
            assert not tie_harmless_contains(theta, x, SimplexFamily.FULL_SIMPLEX)
            witness = construct_tie_witness(theta, x, SimplexFamily.FULL_SIMPLEX)
            assert witness is not None
            check_tie_witness(witness, theta, x)

        # With a null assignment (coordinate 0 pinned to zero) the harmless
        # set is the ray through theta.
        sub_theta = theta
        while 0 in sub_theta.coords[1:]:
            sub_theta = distinct_vector(rng, m)
        sub_theta = vec(0, *sub_theta.coords[1:])
        off_ray = vec(0, Fraction(1, 3), *([0] * (m - 2)))
        for lam in lambda_in:
            x = sub_theta.scale(lam)
            assert tie_harmless_contains(
                sub_theta, x, SimplexFamily.SUBSIMPLEX_WITH_NULL
            )
            # Two nonzero coordinates keep a single-axis shift off the ray.
            assert not tie_harmless_contains(
                sub_theta, x + off_ray, SimplexFamily.SUBSIMPLEX_WITH_NULL
            )
        for lam in lambda_out:
            x = sub_theta.scale(lam)
            assert not tie_harmless_contains(
                sub_theta, x, SimplexFamily.SUBSIMPLEX_WITH_NULL
            )
            witness = construct_tie_witness(
                sub_theta, x, SimplexFamily.SUBSIMPLEX_WITH_NULL
            )
            assert witness is not None
            check_tie_witness(witness, sub_theta, x)


def test_criterion_05_class_separation():
    rng = random.Random(505)
    allocations = point_masses(3)
    for _ in range(200):
        theta = distinct_vector(rng, 3)
        x = random_vector(rng, 3)
        if tie_harmless_contains(theta, x, SimplexFamily.FULL_SIMPLEX):
            assert deterministic_harmless(theta, allocations).contains(x)

        # A report that shrinks every value gap by a different, non-affine
        # amount stays deterministic-harmless but leaves the ratio ray, so
        # the richer randomized family rejects it.
        order = sorted(range(3), key=lambda i: theta[i])
        eps = Fraction(1, 7)
        for coefs in ((0, 1, 3), (0, 1, 4)):
            coords = list(theta.coords)
            for rank, i in enumerate(order):
                coords[i] = theta[i] - eps * coefs[rank]
            separator = vec(*coords)
            if not tie_harmless_contains(theta, separator, SimplexFamily.FULL_SIMPLEX):
                break
        assert deterministic_harmless(theta, allocations).contains(separator)
        assert not tie_harmless_contains(theta, separator, SimplexFamily.FULL_SIMPLEX)


def test_criterion_06_duality():
    rng = random.Random(606)
    allocations = point_masses(3)
    mismatches = 0
    for _ in range(1000):
        reported = random_vector(rng, 3)
        candidate = random_vector(rng, 3)
        union = harmful_union_contains(reported, allocations, candidate)
        forward = deterministic_harmless(candidate, allocations).contains(reported)
        if union != (not forward):
            mismatches += 1
    assert mismatches == 0


def test_criterion_07_price_family_equals_deterministic():
    theta = vec(0, Fraction(1, 2), 1)
    allocations = point_masses(3)
    step = Fraction(1, 16)
    mismatches = 0
    for i in range(50):
        for j in range(50):
            x = vec(0, step * i, step * j)
            family_member = price_family_harmless_contains(theta, UNRESERVED, x)
            deterministic_member = deterministic_harmless(theta, allocations).contains(x)
            if family_member != deterministic_member:
                mismatches += 1
    assert mismatches == 0

    reserves = PriceFamily(((Fraction(3, 2), None), (Fraction(3, 2), None)))
    for i in range(50):
        for j in range(50):
            x = vec(0, step * i, step * j)
            if x[1] < Fraction(3, 2) and x[2] < Fraction(3, 2):
                assert price_family_harmless_contains(theta, reserves, x)
    assert not price_family_harmless_contains(theta, reserves, vec(0, 2, 0))


def test_criterion_08_kminded():
    rng = random.Random(808)
    for sample in range(1000):
        truth = Fraction(0) if sample % 20 == 0 else rational(rng, 0, 5)
        report = Fraction(0) if sample % 25 == 0 else rational(rng, 0, 5)
        member = kminded_harmless_contains(1, vec(0, truth), vec(0, report))
        expected = True if truth == 0 else report <= truth
        assert member == expected

    theta = vec(0, Fraction(1, 2), Fraction(3, 2))
    x = vec(0, Fraction(1, 10), Fraction(7, 5))
    assert x[1] < theta[1] and x[2] < theta[2]  # underbids both bundles
    assert not kminded_harmless_contains(2, theta, x)
    rule = search_beneficial_misreport(theta, x, point_masses(3))
    assert rule is not None
    gained, truthful = rule_benefit(rule, theta, x)
    assert gained > truthful


def test_criterion_09_facility_coverage():
    line = FacilityLine((0, 2), 4)
    between = Fraction(1, 2)
    outcomes = (
        facility_verification_covers(
            between,
            line,
            (
                VerificationKind.NO_UNDERBID_DISTANCE,
                VerificationKind.DIRECTION_IMPOSING,
            ),
        ),
        facility_verification_covers(
            between, line, (VerificationKind.NO_UNDERBID_DISTANCE,)
        ),
        facility_verification_covers(3, line, ()),
    )
    assert outcomes == (True, False, True)


def test_criterion_10_cli_determinism(tmp_path, cli_env):
    scenario = tmp_path / "golden.scn"
    scenario.write_text(
        "scenario golden\n"
        "class deterministic\n"
        "theta 0 1/2 3/2\n"
        "space_low 0 0 0\n"
        "query 0 1/4 1\n"
        "query 0 1/10 7/5\n"
    )

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "mechverify", *args],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cli_env,
        )

    first = run(["harmless", "--scenario", "golden.scn"])
    second = run(["harmless", "--scenario", "golden.scn"])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    svg1 = run(["plot", "--scenario", "golden.scn", "--axes", "1,2"])
    svg2 = run(["plot", "--scenario", "golden.scn", "--axes", "1,2"])
    assert svg1.returncode == svg2.returncode == 0
    assert svg1.stdout == svg2.stdout

    witness1 = run(["witness", "--scenario", "golden.scn"])
    witness2 = run(["witness", "--scenario", "golden.scn"])
    assert witness1.returncode == witness2.returncode == 0
    assert witness1.stdout == witness2.stdout


def test_reverse_deterministic_at_the_budgets_takes_under_two_seconds():
    # Each candidate's membership is one O(m log m) pass: no candidate's
    # m(m-1)/2 halfspaces are built.
    rng = random.Random(1117)
    m = cli.MAX_DIMENSION

    def distinct_type():
        return vec(*(Fraction(k, 12) for k in rng.sample(range(-600, 601), m)))

    def tokens(v):
        return " ".join(str(c) for c in v)

    reported = distinct_type()
    candidates = [reported] + [distinct_type() for _ in range(cli.MAX_QUERIES - 1)]
    lines = ["scenario reverse_budget", "class deterministic", f"reported {tokens(reported)}"]
    lines += [f"query {tokens(c)}" for c in candidates]
    text = "\n".join(lines) + "\n"
    start = time.monotonic()
    document = run_scenario(parse_scenario(text))
    serialize_result(document)
    serialize_witnesses(document)
    elapsed = time.monotonic() - start
    members = [q.member for q in document.queries]
    assert not members[0]
    assert len(document.witnesses) == sum(members) > 0
    assert elapsed < 2
