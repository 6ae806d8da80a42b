"""Outputs keep their stored sha256: every (verb, bundled scenario) pair, and
the documents of the benchmark's generated in-process requests.

``perfbench/digests.py check`` runs the CLI on each pair in a fresh process
and compares with ``perfbench/digests.json``.  A change that alters output
on purpose runs ``python3 perfbench/digests.py update`` and commits the new
digests, and updates ``GENERATED_SHA256`` below.
"""

import subprocess
import sys
from pathlib import Path

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
# every document, in that order.
GENERATED_SHA256 = "da146bf4bfb48ed99964766aa21de8ac8448e6730213e28b0f1040e7be7d8257"
GENERATED_HASH = """
import hashlib, sys
sys.path[:0] = sys.argv[1:]
import run
from mechverify import cli
digest, count = hashlib.sha256(), 0
for seed in (1, 2, 3):
    for build in (run.dimension_scaling_requests, run.verification_checks_requests):
        for request in build(seed):
            scenario = cli.parse_scenario(request.text)
            verify = request.verb == "verify"
            document = (cli.run_verify if verify else cli.run_scenario)(scenario)
            text = cli.serialize_result(document) + cli.serialize_witnesses(document)
            digest.update(text.encode())
            count += 1
print(count, digest.hexdigest())
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
    assert result.stdout.split() == ["384", GENERATED_SHA256]
