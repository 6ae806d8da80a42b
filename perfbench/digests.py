"""sha256 of the CLI's output for each of the 21 (verb, bundled scenario) pairs.

    python3 perfbench/digests.py check    # compare with perfbench/digests.json
    python3 perfbench/digests.py update   # rewrite perfbench/digests.json

``check`` writes the digests it computed to ``.perfbench-out/digests.json``
and exits 1 when any pair's output bytes differ from the stored ones.  It
serves refactors that must leave every output byte-identical; the timed
workloads do not use it, so a change that corrects an output on purpose
updates this file and still passes the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

from run import COLD_PAIRS, HERE, ROOT, SCENARIOS, SRC, WORK, child_env

STORED = HERE / "digests.json"


def current() -> dict[str, str]:
    env = child_env()
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "digest-pycache")
    digests = {}
    for verb, name in sorted(COLD_PAIRS):
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "mechverify", verb, "--scenario", str(SCENARIOS / f"{name}.scn")],
            env=env, cwd=ROOT, capture_output=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{verb} {name} exited {proc.returncode}: {proc.stderr.decode().strip()}")
        digests[f"{verb} {name}"] = hashlib.sha256(proc.stdout).hexdigest()
    return digests


def main(argv: list[str]) -> int:
    if argv not in (["check"], ["update"]):
        print(__doc__, file=sys.stderr)
        return 2
    if not (SRC / "mechverify" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/mechverify package", file=sys.stderr)
        return 2
    digests = current()
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if argv == ["update"]:
        STORED.write_text(text)
        print(f"wrote {len(digests)} digests to {STORED.relative_to(ROOT)}")
        return 0
    WORK.mkdir(exist_ok=True)
    (WORK / "digests.json").write_text(text)
    stored = json.loads(STORED.read_text())
    changed = sorted(k for k in stored.keys() | digests.keys() if stored.get(k) != digests.get(k))
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(digests) - len(changed)} of {len(digests)} outputs byte-identical")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
