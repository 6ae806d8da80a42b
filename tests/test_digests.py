"""Outputs keep their stored sha256: every (verb, bundled scenario) pair, and
the documents of the benchmark's generated in-process requests.

``perfbench/digests.py check`` runs the CLI on each pair in a fresh process
and compares with ``perfbench/digests.json``.  A change that alters output
on purpose runs ``python3 perfbench/digests.py update`` and commits the new
digests, and updates ``GENERATED_SHA256`` and ``SHAPES_SHA256`` below.
"""

import hashlib
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from mechverify import (
    MechanismError,
    ScenarioError,
    parse_scenario,
    render_regions,
    run_scenario,
    run_verify,
    serialize_result,
    serialize_witnesses,
)

ROOT = Path(__file__).resolve().parent.parent


def test_every_cli_output_is_byte_identical_to_its_stored_digest():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "digests.py"), "check"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "21 of 21 outputs byte-identical" in result.stdout


# For seeds 1, 2 and 3, the requests of perfbench/run.py's
# dimension_scaling_requests(seed) and then verification_checks_requests(seed),
# 384 in all, each through parse_scenario and run_scenario (run_verify for
# the verify verb); one sha256 over serialize_result + serialize_witnesses of
# every document, in that order.  As the benchmark does, the benchmark's
# checker checks each serialize_result; the child counts the verify
# documents it checked, and how many of them are untruthful.
GENERATED_SHA256 = "da146bf4bfb48ed99964766aa21de8ac8448e6730213e28b0f1040e7be7d8257"
GENERATED_HASH = """
import hashlib, sys
sys.path[:0] = sys.argv[1:]
import checker, run
from mechverify import cli
digest, count, verified, untruthful = hashlib.sha256(), 0, 0, 0
for seed in (1, 2, 3):
    for build in (run.dimension_scaling_requests, run.verification_checks_requests):
        for request in build(seed):
            scenario = cli.parse_scenario(request.text)
            verify = request.verb == "verify"
            document = (cli.run_verify if verify else cli.run_scenario)(scenario)
            result = cli.serialize_result(document)
            checker.check(request.verb, request.text, result)
            digest.update((result + cli.serialize_witnesses(document)).encode())
            count += 1
            verified += verify
            untruthful += verify and ("truthful", "false") in document.summary
print(count, digest.hexdigest(), verified, untruthful)
"""


def test_generated_request_documents_keep_their_hash():
    # -B: importing the benchmark's modules writes no bytecode under perfbench/.
    result = subprocess.run(
        [sys.executable, "-B", "-c", GENERATED_HASH, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["384", GENERATED_SHA256, "144", "46"]


# -- every class shape, generated in process -----------------------------------
#
# The bundled scenarios and the generated requests never reach vcg, kminded,
# listed point masses, boxes or explicit expectation sets, so this corpus
# covers every class in both modes from a seeded random.Random (not
# Hypothesis, so the hash is stable).  Each document hashes
# serialize_result + serialize_witnesses, a forward region adds
# render_regions on axes 0,1, and each refusal its message.
# Computed before the point-mass region took over the helpers it replaced.
SHAPE_COUNT = 864
SHAPES_SHA256 = "03e07575c70a2c658e3442a4c755760e43dbfc5065df3748896fc2f638c222d0"
SHAPE_ROUNDS = 16


def _q(rng, low=-3, high=3):
    d = rng.choice((1, 2, 3, 5))
    return Fraction(rng.randint(low * d, high * d), d)


def _tokens(values):
    return " ".join(str(v) for v in values)


def _value_vector(rng, m, null=False, low=-3):
    """A type on few tied levels over mixed denominators."""
    pool = [_q(rng, low) for _ in range(rng.randint(1, m))]
    v = [rng.choice(pool + [_q(rng, low)]) for _ in range(m)]
    if null:
        v[0] = Fraction(0)
    return v


def _reports(rng, theta, null=False, low=-3):
    """Reports around theta: itself, a common shift (every pair on its
    boundary), small steps and free draws."""
    start = 1 if null else 0
    out = [list(theta)]
    for _ in range(rng.randint(2, 5)):
        shape = rng.choice(("shift", "step", "free"))
        if shape == "shift":
            c = _q(rng, -1, 1)
            x = [t if k < start else t + c for k, t in enumerate(theta)]
        elif shape == "step":
            x = [t if k < start else t + rng.choice((Fraction(-1, 3), 0, Fraction(1, 2)))
                 for k, t in enumerate(theta)]
        else:
            x = _value_vector(rng, len(theta), null, low)
        out.append([max(c, Fraction(low)) for c in x] if low == 0 else x)
    rng.shuffle(out)
    return out


def _lottery(rng, m):
    weights = [rng.choice((0, 1, 2, 3, 5)) for _ in range(m)]
    if not any(weights):
        weights[rng.randrange(m)] = 1
    return [Fraction(w, sum(weights)) for w in weights]


def _point_mass_shape(shape, cls):
    def build(rng):
        m = rng.randint(2, 5)
        theta = _value_vector(rng, m)
        lines = [f"class {cls}"]
        if shape == "listed":
            chosen = rng.sample(range(m), rng.randint(2, m))
            lines += [f"allocation {_tokens(int(k == i) for k in range(m))}" for i in chosen]
        points = _reports(rng, theta)
        if shape == "boxed":
            lows = [min(p[k] for p in points + [theta]) - rng.choice((0, Fraction(1, 2)))
                    for k in range(m)]
            lines.append(f"space_low {_tokens(lows)}")
            if rng.random() < 0.5:
                highs = [max(p[k] for p in points + [theta]) + 1 for k in range(m)]
                lines.append(f"space_high {_tokens(highs)}")
        return lines, theta, points
    return build


def _explicit_set(rng):
    m = rng.randint(2, 4)
    a, b = _lottery(rng, m), _lottery(rng, m)
    steps = [rng.choice((0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 1))
             for _ in range(rng.randint(2, 5))]
    lines = ["class truthful_in_expectation"] + [
        f"allocation {_tokens(x + t * (y - x) for x, y in zip(a, b))}" for t in steps
    ]
    theta = _value_vector(rng, m)
    u = [y - x for x, y in zip(a, b)]
    if rng.random() < 0.25 and any(u):  # theta orthogonal to the line
        c = sum(p * q for p, q in zip(u, theta)) / sum(p * p for p in u)
        theta = [t - c * p for t, p in zip(theta, u)]
    return lines, theta, _reports(rng, theta)


def _simplex(rng):
    m = rng.randint(2, 4)
    theta = _value_vector(rng, m)
    return ["class truthful_in_expectation"], theta, _reports(rng, theta)


def _null_simplex(rng):
    m = rng.randint(2, 4)
    theta = _value_vector(rng, m, null=True)
    labels = " ".join(f"a{k}" for k in range(m))
    lines = ["class truthful_in_expectation", f"assignments {labels}", "null_assignment a0"]
    return lines, theta, _reports(rng, theta, null=True)


def _vcg(others):
    def build(rng):
        theta = _value_vector(rng, 3, null=True, low=0)
        lines = ["class vcg"] + [
            f"option others {_tokens(_q(rng, 0) for _ in range(2))}" for _ in range(others)
        ]
        return lines, theta, _reports(rng, theta, null=True)
    return build


def _kminded(k):
    def build(rng):
        theta = _value_vector(rng, k + 1, null=True)
        return ["class kminded", f"option k {k}"], theta, _reports(rng, theta, null=True)
    return build


def _price_family(rng):
    theta = _value_vector(rng, 3, null=True, low=0)
    lows = [_q(rng, 0, 2) for _ in range(2)]
    highs = [rng.choice(("inf", low + _q(rng, 0, 2))) for low in lows]
    lines = ["class price_family", f"option price_low {_tokens(lows)}"]
    if rng.random() < 0.7:
        lines.append(f"option price_high {_tokens(highs)}")
    return lines, theta, _reports(rng, theta, null=True)


def _facility(kinds):
    def build(rng):
        g1 = _q(rng, -2, 2)
        lines = ["class facility_line", f"option facilities {g1} {g1 + _q(rng, 1, 3) or 1}"]
        if rng.random() < 0.5:
            lines.append(f"option benefit {_q(rng, 1, 4) or 1}")
        lines += [f"option verification {kind}" for kind in kinds]
        theta = [_q(rng, -4, 4)]
        return lines, theta, [theta] + [[_q(rng, -4, 4)] for _ in range(rng.randint(2, 5))]
    return build


def _second_price(dependent):
    def build(rng):
        lines = ["class second_price", f"option threshold {_q(rng, 0, 3)}",
                 f"option allocation_dependent {dependent}"]
        theta = [_q(rng, 0, 3)]
        return lines, theta, [theta] + [[_q(rng, 0, 3)] for _ in range(rng.randint(2, 5))]
    return build


def _verify(declared, kind):
    def build(rng):
        m = rng.randint(2, 4)
        theta = _value_vector(rng, m)
        lines = ["class deterministic", f"option verification_kind {kind}"]
        if declared == "rule_prices":
            lines.append(f"option rule_prices {_tokens(_q(rng, -1, 2) for _ in range(m))}")
        else:
            i, j = rng.sample(range(m), 2)
            lines += [f"option rule_pair {i} {j}", f"option rule_price {_q(rng, -1, 1)}"]
            if rng.random() < 0.5:
                lines.append(f"option rule_tie {rng.choice(('to_i', 'to_j'))}")
        return lines, theta, _reports(rng, theta)
    return build


def _lottery_line(rng):
    m = rng.randint(2, 4)
    theta = _value_vector(rng, m)
    lines = ["class deterministic", "allocation " + _tokens(int(k == 0) for k in range(m)),
             "allocation " + _tokens([Fraction(1, 2)] * 2 + [0] * (m - 2))]
    return lines, theta, _reports(rng, theta)


def _valued_apart(rng):
    m = rng.randint(3, 4)
    theta = [Fraction(k) + _q(rng, 0, 0) for k in range(m)]
    lines = ["class truthful_in_expectation"] + [
        "allocation " + _tokens(int(k == i) for k in range(m)) for i in range(3)
    ]
    return lines, theta, _reports(rng, theta)


SHAPES = {
    **{f"{cls}_{shape}": _point_mass_shape(shape, cls)
       for cls in ("deterministic", "universally_truthful")
       for shape in ("default", "listed", "boxed")},
    "explicit_set": _explicit_set,
    "full_simplex": _simplex,
    "null_subsimplex": _null_simplex,
    **{f"vcg_{n}": _vcg(n) for n in range(3)},
    **{f"kminded_{k}": _kminded(k) for k in (1, 2)},
    "price_family": _price_family,
    **{f"facility_{'_'.join(kinds) or 'none'}": _facility(kinds)
       for kinds in ((), ("no_underbid_distance",), ("direction_imposing",),
                     ("no_underbid_distance", "direction_imposing"))},
    **{f"second_price_{flag}": _second_price(flag) for flag in ("true", "false")},
}
VERIFY_SHAPES = {
    f"verify_{declared}_{kind}": _verify(declared, kind)
    for declared in ("rule_prices", "rule_pair")
    for kind in ("none", "no_overbid", "no_overbid_on_received", "harmless_complement")
}
REFUSALS = {"lottery_allocation": _lottery_line, "valued_apart": _valued_apart}


def shape_corpus(rounds=SHAPE_ROUNDS):
    """(name, verb, scenario text, refused) per generated document, in order."""
    rng = random.Random(20261020)
    for _ in range(rounds):
        for table, verb in ((SHAPES, "run"), (VERIFY_SHAPES, "verify"), (REFUSALS, "run")):
            for name, build in table.items():
                for mode in ("theta", "reported") if verb == "run" else ("theta",):
                    lines, anchor, queries = build(rng)
                    body = [f"scenario {name}", *lines[:1], f"{mode} {_tokens(anchor)}",
                            *lines[1:], *(f"query {_tokens(q)}" for q in queries)]
                    yield name, verb, "\n".join(body) + "\n", table is REFUSALS


def shape_digest(rounds=SHAPE_ROUNDS):
    digest, count = hashlib.sha256(), 0
    for name, verb, text, refused in shape_corpus(rounds):
        scenario = parse_scenario(text)
        try:
            document = (run_verify if verb == "verify" else run_scenario)(scenario)
        except (MechanismError, ScenarioError) as exc:
            assert refused, f"{name}: {exc}\n{text}"
            digest.update(f"refused {exc}\n".encode())
            count += 1
            continue
        assert not refused, f"{name} answered\n{text}"
        out = serialize_result(document) + serialize_witnesses(document)
        if document.mode == "forward" and document.region is not None and scenario.anchor.dim > 1:
            out += render_regions(document, (0, 1))
        digest.update(out.encode())
        count += 1
    return count, digest.hexdigest()


def test_every_class_shape_keeps_its_hash():
    assert shape_digest() == (SHAPE_COUNT, SHAPES_SHA256)


# The checker's refusals of what it cannot judge yet: a class or mode its
# references do not cover, explicit expectation sets and rule_pair menus.
OUT_OF_REACH = re.compile(r"mode is \w+, not \w+|.* not checked|only rule_prices menus are checked")


def test_checker_judges_every_answered_shape(checker):
    # Every answered corpus document goes through the benchmark's checker.
    # Reverse facility_line is out of its reach too: it reads the anchor as
    # theta, None in reverse mode, and raises TypeError.  The 5 rejected
    # documents are the checker's known defect, pinned so that it shows:
    # its price grid rewards the truthful report x = theta, marked harmless.
    outcomes = Counter()
    for name, verb, text, refused in shape_corpus():
        if refused:
            continue
        scenario = parse_scenario(text)
        if verb == "verify":
            document = run_verify(scenario)
        else:
            document = run_scenario(scenario)
            verb = "harmless" if scenario.mode == "forward" else "harmful"
        try:
            checker.check(verb, text, serialize_result(document))
            outcomes["pass"] += 1
        except TypeError:
            assert name.startswith("facility_") and scenario.mode == "reverse", text
            outcomes["out of reach"] += 1
        except checker.CheckError as exc:
            message = str(exc)
            if OUT_OF_REACH.fullmatch(message):
                outcomes["out of reach"] += 1
                continue
            assert (name, scenario.mode) == ("price_family", "forward"), f"{message}\n{text}"
            anchor = tuple(scenario.anchor.coords)
            assert message == f"grid prices reward query {anchor} marked harmless", text
            outcomes["x = theta rejected"] += 1
    assert outcomes == {"pass": 555, "out of reach": 240, "x = theta rejected": 5}
