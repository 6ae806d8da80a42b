"""The experiment scripts run end to end against the checkout's package."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("class_separation_sweep.py", ["--steps", "8"]),
        ("facility_coverage_sweep.py", ["--steps", "4"]),
        # Run in tmp_path, so the relative output directory lands there.
        ("render_example_regions.py", ["--scenarios", str(ROOT / "scenarios"), "--out", "regions"]),
    ],
)
def test_script_exits_cleanly(script, args, tmp_path, cli_env):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
