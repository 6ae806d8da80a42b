"""Every (verb, bundled scenario) output keeps its stored sha256.

``perfbench/digests.py check`` runs the CLI on each pair in a fresh process
and compares with ``perfbench/digests.json``.  A change that alters output
on purpose runs ``python3 perfbench/digests.py update`` and commits the new
digests.
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
