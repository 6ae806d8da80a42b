"""The benchmark's checker accepts today's outputs and rejects corrupted ones.

    python3 -m pytest perfbench/tests -q
"""

import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import inputs  # noqa: E402
from mechverify import cli  # noqa: E402


def cli_output(verb: str, name: str) -> tuple[str, str]:
    path = ROOT / "scenarios" / f"{name}.scn"
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main([verb, "--scenario", str(path)]) == 0
    return path.read_text(), out.getvalue()


def replace_once(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


@pytest.mark.parametrize("verb,name", [
    ("harmless", "bundle_pair"), ("witness", "bundle_pair"), ("harmless", "ratio_menu"),
    ("harmless", "reserve_box"), ("harmless", "two_facilities"), ("harmful", "sealed_bid"),
    ("verify", "menu_check"), ("plot", "two_items"),
])
def test_accepts_cli_output(verb, name):
    checker.check(verb, *cli_output(verb, name))


def test_accepts_generated_requests():
    rng = random.Random(0)
    texts = [
        ("harmless", inputs.deterministic_forward(rng, 5, 0)),
        ("harmful", inputs.deterministic_reverse(rng, 5, 0)),
        ("harmless", inputs.expectation_forward(rng, 5, 0, "full_simplex")),
        ("harmless", inputs.expectation_forward(rng, 5, 0, "subsimplex_with_null")),
        ("verify", inputs.menu_verify(rng, 3, 8, "harmless_complement", 0)),
        ("harmless", inputs.facility(rng, "near_left", ("no_underbid_distance",), 0)),
    ]
    for verb, text in texts:
        scenario = cli.parse_scenario(text)
        document = cli.run_verify(scenario) if verb == "verify" else cli.run_scenario(scenario)
        checker.check(verb, text, cli.serialize_result(document))


@pytest.mark.parametrize("verb,name,old,new", [
    ("harmless", "bundle_pair", "member=false", "member=true"),
    ("harmless", "ratio_menu", "member=true", "member=false"),
    ("harmful", "sealed_bid", "member=true", "member=false"),
])
def test_rejects_flipped_verdict(verb, name, old, new):
    scenario, output = cli_output(verb, name)
    with pytest.raises(checker.CheckError):
        checker.check(verb, scenario, replace_once(output, old, new))


@pytest.mark.parametrize("verb,name,old,new", [
    ("harmless", "bundle_pair", "relative_price=r:", "relative_price=r:1"),
    ("witness", "ratio_menu", "gained=r:", "gained=r:1"),
    ("harmless", "reserve_box", "price_item1=r:", "price_item1=r:9"),
    ("harmless", "two_facilities", "report_type=v:", "report_type=v:1"),
])
def test_rejects_corrupted_certificate(verb, name, old, new):
    scenario, output = cli_output(verb, name)
    with pytest.raises(checker.CheckError):
        checker.check(verb, scenario, replace_once(output, old, new))


def test_rejects_wrong_coverage_and_truthfulness():
    scenario, output = cli_output("harmless", "two_facilities")
    with pytest.raises(checker.CheckError):
        checker.check("harmless", scenario, replace_once(output, "covered true", "covered false"))
    scenario, output = cli_output("verify", "menu_check")
    verdict = "truthful true" if "summary truthful true" in output else "truthful false"
    flipped = {"truthful true": "truthful false", "truthful false": "truthful true"}[verdict]
    with pytest.raises(checker.CheckError):
        checker.check("verify", scenario, replace_once(output, verdict, flipped))


def test_rejects_truncated_svg():
    scenario, output = cli_output("plot", "bundle_pair")
    with pytest.raises(checker.CheckError):
        checker.check("plot", scenario, output[: len(output) // 2])
