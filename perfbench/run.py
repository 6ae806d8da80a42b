"""mechverify benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for their make-up):

* ``cli_cold``: fresh ``python -S -m mechverify VERB --scenario FILE``
  processes over the 21 (verb, bundled scenario) pairs that exit 0, one
  child at a time, reading bytecode from a cache the set-up fills;
* ``dimension_scaling``: generated forward scenarios of the deterministic
  and truthful-in-expectation classes at growing dimension m, in process;
* ``verification_checks``: generated reverse scenarios, ``verify`` menu
  checks and facility coverage scenarios, in process.

A run repeats whole rounds of the same requests until ``--seconds`` have
passed.  Every output is checked by ``checker.py``.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` untraced
and traced rounds alternate and it carries the per-layer metrics.  Run it
from anywhere inside a checkout that has ``src/mechverify`` and
``scenarios/``; it writes only under ``.perfbench-out/`` in that checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / ".perfbench-out"
PYCACHE = WORK / "pycache"

SETUP_REPEATS = 9
STARTUP_REPEATS = 7

# The 21 (verb, bundled scenario) pairs that exit 0.
FORWARD = ("bundle_pair", "bundles_k2", "menu_check", "ratio_menu", "reserve_box",
           "two_facilities", "two_items")
COLD_PAIRS = (
    [(verb, name) for name in FORWARD for verb in ("harmless", "witness")]
    + [("harmful", "sealed_bid"), ("witness", "sealed_bid"), ("verify", "menu_check")]
    + [("plot", name) for name in ("bundle_pair", "bundles_k2", "menu_check", "two_items")]
)


def log(message: str) -> None:
    print(message, file=sys.stderr)


class Tally:
    """Requests attempted and failed, request wall times, and check results."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.times_ns: list[int] = []
        self.correct = True
        self._checked: dict[int, str] = {}

    def check(self, slot: int, verb: str, scenario_text: str, output: str) -> None:
        """Check an output once; a later round passes by being identical to it."""
        digest = hashlib.sha256(output.encode()).hexdigest()
        if self._checked.get(slot) == digest:
            return
        try:
            checker.check(verb, scenario_text, output)
        except checker.CheckError as exc:
            self.correct = False
            log(f"check failed: {verb} on request {slot}: {exc}")
            return
        self._checked[slot] = digest


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# --------------------------------------------------------------------------
# Child processes


def child_env(write_bytecode: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONHASHSEED"] = "0"
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def fill_bytecode_cache() -> None:
    """Compile the package (and the standard modules it imports) into the cache."""
    shutil.rmtree(PYCACHE, ignore_errors=True)
    subprocess.run(
        [sys.executable, "-S", "-c", "import mechverify.__main__"],
        env=child_env(write_bytecode=True), cwd=ROOT, check=True,
    )
    cached = list(PYCACHE.rglob("mechverify/*.pyc"))
    if len(cached) < len(list((SRC / "mechverify").glob("*.py"))):
        raise RuntimeError(f"bytecode cache holds {len(cached)} package modules")


@dataclass
class Child:
    elapsed_ns: int
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_child(argv: list[str], env: dict) -> Child:
    """Run ``python -S ARGV`` to its exit; wait4 gives this child's own peak RSS."""
    with open(WORK / "child-stderr.txt", "w+") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, "-S", *argv], env=env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(elapsed, proc.returncode, out.decode(), err.read(), usage.ru_maxrss)


def startup_metrics() -> dict:
    """Bare interpreter start and fresh `import mechverify`, with the cache filled."""
    env = child_env()
    bare, loaded = [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(run_child(["-c", "pass"], env).elapsed_ns)
        loaded.append(run_child(["-c", "import mechverify"], env).elapsed_ns)
    interpreter = statistics.median(bare) / 1e6
    return {
        "startup.interpreter_ms": (interpreter, "ms"),
        "startup.import_ms": (statistics.median(loaded) / 1e6 - interpreter, "ms"),
    }


# --------------------------------------------------------------------------
# Workloads


class ColdWorkload:
    """One fresh CLI process per request, one child at a time."""

    def __init__(self, seed: int) -> None:
        self.pairs = list(COLD_PAIRS)
        random.Random(f"cli_cold:{seed}").shuffle(self.pairs)
        self.texts = {}
        self.env = child_env()
        self.peak_rss_kb = 0

    def setup(self) -> None:
        fill_bytecode_cache()
        self.texts = {name: (SCENARIOS / f"{name}.scn").read_text() for _, name in self.pairs}
        for verb in ("harmless", "harmful", "witness", "verify", "plot"):
            pair = next(p for p in self.pairs if p[0] == verb)
            self.request(pair)

    def request(self, pair, spans_file: Path | None = None) -> Child:
        verb, name = pair
        argv = [verb, "--scenario", str(SCENARIOS / f"{name}.scn")]
        if spans_file is None:
            argv = ["-m", "mechverify", *argv]
        else:
            argv = [str(HERE / "trace_child.py"), str(spans_file), *argv]
        child = run_child(argv, self.env)
        if child.returncode != 0:
            log(f"{verb} {name} exited {child.returncode}: {child.stderr.strip()}")
        return child

    def round(self, tally: Tally, tracer: tracing.Tracer | None = None) -> int:
        """Run every pair once; returns the output bytes of the round."""
        spans_file = WORK / "child-spans.json"
        output_bytes = 0
        for slot, pair in enumerate(self.pairs):
            tally.attempted += 1
            child = self.request(pair, spans_file if tracer is not None else None)
            if child.returncode != 0:
                tally.failed += 1
                continue
            tally.times_ns.append(child.elapsed_ns)
            self.peak_rss_kb = max(self.peak_rss_kb, child.maxrss_kb)
            output_bytes += len(child.stdout.encode())
            tally.check(slot, pair[0], self.texts[pair[1]], child.stdout)
            if tracer is not None:
                tracer.merge(json.loads(spans_file.read_text()), slot)
        return output_bytes

    def peak_rss_mb(self) -> float:
        """The largest request process; set-up children are not counted."""
        return self.peak_rss_kb / 1024


# Each round runs its requests in a seeded shuffle, so every size class is
# spread over the whole run and its timings sample the machine throughout.


def dimension_scaling_requests(seed: int) -> list[inputs.Request]:
    rng = random.Random(f"dimension_scaling:{seed}")
    requests = []
    # Seven deterministic m=12 requests hold the median: eight requests
    # are cheaper and eight dearer, with gaps on both sides.
    sizes = {
        "deterministic": ((3, 2), (6, 2), (12, 7), (24, 2), (48, 1)),
        "full_simplex": ((3, 1), (6, 1), (12, 2), (24, 1)),
        "subsimplex_with_null": ((3, 1), (6, 1), (12, 1), (24, 1)),
    }
    for part, counts in sizes.items():
        for m, count in counts:
            for i in range(count):
                if part == "deterministic":
                    text = inputs.deterministic_forward(rng, m, i)
                else:
                    text = inputs.expectation_forward(rng, m, i, part)
                requests.append(inputs.Request(part, "harmless", text))
    rng.shuffle(requests)
    return requests


def verification_checks_requests(seed: int) -> list[inputs.Request]:
    rng = random.Random(f"verification_checks:{seed}")
    requests = []
    for m, count in ((3, 2), (6, 2), (12, 4), (24, 1)):
        for i in range(count):
            requests.append(inputs.Request("reverse", "harmful", inputs.deterministic_reverse(rng, m, i)))
    # How far a verify check scans its grid depends on where the first
    # violation sits, so it varies from menu to menu; many small menus keep
    # the part's cost and the median request the same from seed to seed.
    for kind in inputs.VERIFICATION_KINDS:
        for i in range(12):
            requests.append(inputs.Request("verify", "verify", inputs.menu_verify(rng, 4, 8, kind, i)))
    for position in inputs.FACILITY_POSITIONS:
        for subset in inputs.FACILITY_SUBSETS:
            for i in range(3):
                text = inputs.facility(rng, position, subset, i)
                requests.append(inputs.Request("facility", "harmless", text))
    rng.shuffle(requests)
    return requests


class InProcessWorkload:
    """Scenario texts through parse_scenario -> run_scenario/run_verify -> serialize_result."""

    def __init__(self, seed: int, build) -> None:
        self.seed = seed
        self.build = build
        self.requests: list[inputs.Request] = []
        self.cli = None

    def setup(self) -> None:
        """Import the package from source, generate the inputs, and warm up
        each part with the shortest scenario of seed 0, so that set-up does
        the same work whatever the seed."""
        for name in [n for n in sys.modules if n == "mechverify" or n.startswith("mechverify.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("mechverify.cli")
        self.requests = self.build(self.seed)
        warm = self.build(0)
        for part in dict.fromkeys(r.part for r in warm):
            self.run(min((r for r in warm if r.part == part), key=lambda r: len(r.text)))

    def run(self, request: inputs.Request) -> str:
        cli = self.cli
        scenario = cli.parse_scenario(request.text)
        if request.verb == "verify":
            document = cli.run_verify(scenario)
        else:
            document = cli.run_scenario(scenario)
        return cli.serialize_result(document)

    def round(self, tally: Tally, tracer: tracing.Tracer | None = None) -> int:
        """Run every request once; returns the output bytes of the round."""
        if tracer is not None:
            tracer.install()
        try:
            output_bytes = 0
            for slot, request in enumerate(self.requests):
                tally.attempted += 1
                if tracer is not None:
                    tracer.request = slot
                start = time.perf_counter_ns()
                try:
                    output = self.run(request)
                except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                    tally.failed += 1
                    log(f"request {slot} ({request.part}) failed: {exc!r}")
                    continue
                tally.times_ns.append(time.perf_counter_ns() - start)
                output_bytes += len(output.encode())
                tally.check(slot, request.verb, request.text, output)
            return output_bytes
        finally:
            if tracer is not None:
                tracer.remove()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {
    "cli_cold": ColdWorkload,
    "dimension_scaling": lambda seed: InProcessWorkload(seed, dimension_scaling_requests),
    "verification_checks": lambda seed: InProcessWorkload(seed, verification_checks_requests),
}


# --------------------------------------------------------------------------
# Runs


def timed_setup(workload) -> float:
    """Median of several full set-ups, each from scratch."""
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


def measure(workload, seconds: float) -> dict:
    setup_s = timed_setup(workload)
    gc.collect()
    gc.freeze()
    tally = Tally()
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        workload.round(tally)
        rounds += 1
    times = tally.times_ns
    log(f"{rounds} rounds, {len(times)} requests, p90 {percentile(times, 0.9) / 1e6:.3f} ms")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
            "request_ms_p50": {"value": statistics.median(times) / 1e6, "unit": "ms"},
            "requests_per_s": {"value": len(times) / (sum(times) / 1e9), "unit": "1/s"},
        },
    }


def trace(workload, name: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics from the traced ones."""
    fill_bytecode_cache()
    startup = startup_metrics()
    workload.setup()
    tally = Tally()
    tracer = tracing.Tracer()
    plain_ns, traced_ns, output_bytes = [], [], 0

    def timed_round(active: tracing.Tracer | None) -> int:
        nonlocal output_bytes
        done = len(tally.times_ns)
        output_bytes = workload.round(tally, active)
        return sum(tally.times_ns[done:])

    start = time.perf_counter()
    while not traced_ns or time.perf_counter() - start < seconds:
        plain_ns.append(timed_round(None))
        traced_ns.append(timed_round(tracer))
    rounds = len(traced_ns)
    spans = tracer.spans
    metrics = dict(startup)
    metrics.update(tracing.layer_metrics(spans, tracer.counts, rounds))
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    overhead = statistics.median(traced_ns) / statistics.median(plain_ns) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    (WORK / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
        "rounds": rounds,
        "counts_per_round": {k: v / rounds for k, v in tracer.counts.items()},
        "calls_by_caller_per_round": {k: v / rounds for k, v in tracing.caller_counts(spans).items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": spans,
    }))
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mechverify" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        log(f"error: {ROOT} has no src/mechverify package or scenarios/ directory")
        return 2
    sys.path.insert(0, str(SRC))
    # In process, the package is compiled from source at every set-up: an
    # empty prefix hides any bytecode left next to the sources.
    sys.pycache_prefix = str(WORK / "no-bytecode")
    sys.dont_write_bytecode = True
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = trace(workload, args.workload, args.seed, args.seconds)
    else:
        result = measure(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
