#!/usr/bin/env python3
"""folsub benchmark: one workload, closed loop, in one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 30 --trace 0

The run times repeated passes of the workload for about ``--seconds`` seconds
(at least one pass, and no pass that would end past the deadline), checks
every report of every pass against ``perfbench/reference.json``, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run adds one pass with every layer wrapped in spans
and prints the per-layer metrics instead.  ``perfbench/METRICS.md`` says
what each metric measures and which workload it should move.
"""

import os

# Pin native thread pools before numpy is imported, here and in the set-up
# subprocesses that inherit this environment.
THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / workloads.WORKDIR
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

# Import folsub and build the workload's scenarios in a fresh interpreter;
# prints the seconds that took.
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import folsub
from folsub import scenarios
for name in sys.argv[2:]:
    scenarios.build(name)
print(time.perf_counter() - t0)
"""


def machine_facts() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds(names: list[str]) -> list[float]:
    """Set-up time of ``SETUP_SAMPLES`` fresh interpreters."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"), *names],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest nearest-rank percentile with >= 10 samples above it."""
    xs = sorted(samples)
    k = len(xs) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(xs), xs[k]


class Tally:
    """Reports attempted and failed over every pass of the run."""

    def __init__(self, expected: list[dict]):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, run, offset: int) -> None:
        try:
            reports = run()
        except Exception:
            traceback.print_exc()
            reports = []
        attempted, failures = reference.compare(reports, self.expected, exact=offset == 0)
        self.attempted += attempted
        self.failures.extend(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full", help="smoke: the self-tests' size")
    args = parser.parse_args(argv)

    try:
        mods = workloads.load_program(ROOT)
    except workloads.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine_facts()))
    names = workloads.scenario_names(mods, args.workload, args.size)
    setups = setup_seconds(names)

    scenarios = {name: mods["scenarios"].build(name) for name in names}
    tally = Tally(reference.load()[args.workload][args.size])

    def one_pass(index: int, scns: dict) -> float:
        offset = workloads.seed_offset(args.seed, index)
        t0 = time.perf_counter()
        tally.judge(lambda: workloads.run_pass(mods, args.workload, args.size, scns, offset, WORKDIR), offset)
        return time.perf_counter() - t0

    passes: list[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1] <= args.seconds:
        passes.append(one_pass(len(passes), scenarios))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = statistics.median(passes)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(mods)
        try:
            t0 = time.perf_counter()
            traced_scenarios = {name: mods["scenarios"].build(name) for name in names}
            traced_setup_s = time.perf_counter() - t0
            traced_run_s = one_pass(len(passes), traced_scenarios)
        finally:
            tracer.uninstall()
        print(f"traced set-up {traced_setup_s:.4f} s, traced pass {traced_run_s:.4f} s")
        for name, calls, self_s in tracer.summary():
            print(f"span {name:<24} calls {calls:>7} self {self_s:10.4f} s")
        layers = tracer.layer_metrics(traced_setup_s + traced_run_s)
        layers["trace.overhead_ratio"] = traced_run_s / run_s
        if layers["trace.self_share"] > 1.0:
            tally.failures.append(f"span self times sum to {layers['trace.self_share']:.3f} x the traced wall time")
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    else:
        layers = {}
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}

    tail = high_percentile(passes)
    print(
        f"run_s: median {run_s:.4f} s over {len(passes)} passes; "
        + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no percentile with 10 passes above it")
    )
    print(f"passes: {', '.join(f'{s:.4f}' for s in passes)} s")
    print(f"setup_s: {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"reports: {tally.attempted} attempted, {len(tally.failures)} failed")
    for line in tally.failures[:20]:
        print(f"  FAIL {line}")

    values = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "match_ratio": 1.0 - len(tally.failures) / tally.attempted,
        **layers,
    }
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
