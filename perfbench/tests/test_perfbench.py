"""Self-tests of the benchmark, at the smoke size.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd] + ["--size", "smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def program():
    mods = workloads.load_program(ROOT)
    return mods, {
        w: {n: mods["scenarios"].build(n) for n in workloads.scenario_names(mods, w, "smoke")}
        for w in workloads.WORKLOADS
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace:
        assert 0.0 < result["metrics"]["trace.self_share"]["value"] <= 1.0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_residuals_are_bit_identical(program, workload, tmp_path):
    mods, built = program
    offset = workloads.seed_offset(3, 0)
    plain = workloads.run_pass(mods, workload, "smoke", built[workload], offset, tmp_path)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        traced = workloads.run_pass(mods, workload, "smoke", built[workload], offset, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.names, "no span was recorded"
    assert [(r.key, r.verdict, r.residual.hex()) for r in plain] == [
        (r.key, r.verdict, r.residual.hex()) for r in traced
    ]
    # Uninstalling restores the program: a further pass records no span.
    before = len(tracer.names)
    workloads.run_pass(mods, workload, "smoke", built[workload], offset, tmp_path)
    assert len(tracer.names) == before


@pytest.mark.parametrize("seeded", [False, True])
def test_reference_residual_off_by_1e12_is_a_failure(program, seeded, tmp_path):
    mods, built = program
    reports = workloads.run_pass(mods, "catalog", "smoke", built["catalog"], 0, tmp_path)
    expected = reference.load()["catalog"]["smoke"]
    assert reference.compare(reports, expected, exact=True) == (len(expected), [])

    idx = next(i for i, r in enumerate(reports) if r.seeded == seeded)
    perturbed = [dict(e) for e in expected]
    target = next(e for e in perturbed if (e["scenario"], e["formula_id"]) == reports[idx].key)
    target["residual"] += 1e-12
    attempted, failures = reference.compare(reports, perturbed, exact=True)
    assert attempted == len(expected) and len(failures) == 1 and "residual" in failures[0]


def test_changed_verdict_missing_and_extra_reports_are_failures(program, tmp_path):
    mods, built = program
    reports = workloads.run_pass(mods, "refined", "smoke", built["refined"], 0, tmp_path)
    expected = reference.load()["refined"]["smoke"]
    changed = [dataclasses.replace(reports[0], verdict="fail")] + reports[1:]
    assert len(reference.compare(changed, expected, exact=True)[1]) == 1
    extra = reports[:-1] + [dataclasses.replace(reports[-1], formula_id="bogus")]
    attempted, failures = reference.compare(extra, expected, exact=True)
    assert attempted == len(expected) + 1 and len(failures) == 2


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "catalog", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
