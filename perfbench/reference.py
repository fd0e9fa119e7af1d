"""Recorded reference reports and the comparison every pass is judged by.

``reference.json`` holds ``formula_id``, verdict, residual and tolerance of
every report of each workload's first pass at seed 0, per size.  Recording
it again is a change to the benchmark, made with::

    python3 perfbench/reference.py

A report fails when it is missing or unexpected, when its verdict differs
from the reference, when its tolerance is looser than the reference's, when
a deterministic check's residual drifts more than ``DRIFT`` (absolute) from
the reference, or, for a seeded check on a pass other than the recorded
one, when a reference ``pass`` no longer has ``|residual| <= tolerance``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DRIFT = 1e-13


def load(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def compare(reports, expected: list[dict], exact: bool) -> tuple[int, list[str]]:
    """(reports attempted, one message per failed report) for one pass.

    ``exact`` marks the recorded pass, where seeded checks must reproduce
    their reference residual too.
    """
    ref = {(e["scenario"], e["formula_id"]): e for e in expected}
    got = {}
    failures = []
    for rep in reports:
        if rep.key in got:
            failures.append(f"{rep.key}: reported twice")
        got[rep.key] = rep
    for key in sorted(ref.keys() - got.keys()):
        failures.append(f"{key}: missing")
    for key in sorted(got.keys() - ref.keys()):
        failures.append(f"{key}: not in the reference")
    for key in sorted(ref.keys() & got.keys()):
        e, rep = ref[key], got[key]
        if rep.verdict != e["verdict"]:
            failures.append(f"{key}: verdict {rep.verdict}, reference {e['verdict']}")
        elif not rep.tolerance <= e["tolerance"]:
            failures.append(f"{key}: tolerance {rep.tolerance!r} looser than {e['tolerance']!r}")
        elif exact or not rep.seeded:
            if not abs(rep.residual - e["residual"]) <= DRIFT:
                failures.append(f"{key}: residual {rep.residual!r}, reference {e['residual']!r}")
        elif e["verdict"] == "pass" and not abs(rep.residual) <= rep.tolerance:
            failures.append(f"{key}: |residual| {rep.residual!r} above tolerance {rep.tolerance!r}")
    return len(ref.keys() | got.keys()), failures


def record(root: Path) -> dict:
    """Run each workload's pass 0 at seed 0 in both sizes and collect its reports."""
    mods = workloads.load_program(root)
    out = {}
    for workload in workloads.WORKLOADS:
        out[workload] = {}
        for size in workloads.SIZES:
            names = workloads.scenario_names(mods, workload, size)
            scenarios = {name: mods["scenarios"].build(name) for name in names}
            reports = workloads.run_pass(
                mods, workload, size, scenarios, workloads.seed_offset(0, 0), root / workloads.WORKDIR
            )
            out[workload][size] = [
                {
                    "scenario": r.scenario,
                    "formula_id": r.formula_id,
                    "verdict": r.verdict,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                }
                for r in reports
            ]
            print(f"{workload}/{size}: {len(reports)} reports", file=sys.stderr)
    return out


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(record(HERE.parent), indent=1, sort_keys=True) + "\n")
