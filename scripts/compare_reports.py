#!/usr/bin/env python3
"""Compare two ``run_catalog.py`` output directories, or two report files: are the numbers unchanged?

Usage::

    python3 scripts/compare_reports.py DIR_A DIR_B
    python3 scripts/compare_reports.py REPORT_A.json REPORT_B.json

Two files are compared as one report file under the name of the first.
Prints the worst absolute drift over every report's ``residual`` and
``terms`` values, how many of those values differ in their bits (by
``repr``, so a flipped sign of zero counts although it does not drift), and
every structural difference found.  Everything else in
the reports must be identical: the report files, each file's scenario,
summary and config (apart from ``output``), and each report's formula id,
verdict, tolerance, admissibility residual and grid metadata.  The report
timings (``wall_time_s``) are ignored.

Exit status: 0 when nothing differs and the worst drift is at most
``MAX_DRIFT``, 1 otherwise, 2 when the two paths are not both directories
or both files, or when a file cannot be read or a directory holds a
``.json`` file that is not a report object: a JSON object whose ``reports``
is a list of objects with every key compared here, a number as
``residual`` and an object of numbers as ``terms``, and whose ``config``,
when present, is an object.  Exit 2 prints one ``error:`` line, which names
the file when one is at fault.
"""

import json
import math
import sys
from pathlib import Path

# The rounding a speed-up may move a residual by (ROADMAP aim 1).
MAX_DRIFT = 1e-13
# The keys every report of a report file must carry.
REPORT_KEYS = {"formula_id", "residual", "verdict", "tolerance", "admissibility_max", "grid", "terms"}


def drift(a, b) -> float:
    """Absolute difference of two numbers; equal non-finite values do not drift."""
    if a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare_payloads(name: str, a: dict, b: dict, problems: list) -> tuple[float, str, int, int]:
    """Worst drift between two report files, where it is, and how many of how many values differ in their bits.

    Structural differences go to ``problems``.
    """
    worst, differ, total = (0.0, ""), 0, 0
    config_a = {k: v for k, v in a.get("config", {}).items() if k != "output"}
    config_b = {k: v for k, v in b.get("config", {}).items() if k != "output"}
    for key, left, right in (
        ("scenario", a.get("scenario"), b.get("scenario")),
        ("summary", a.get("summary"), b.get("summary")),
        ("config", config_a, config_b),
    ):
        if left != right:
            problems.append(f"{name}: {key} differs: {left!r} != {right!r}")
    ids_a = [r["formula_id"] for r in a["reports"]]
    ids_b = [r["formula_id"] for r in b["reports"]]
    if ids_a != ids_b:
        problems.append(f"{name}: formula lists differ: {ids_a} != {ids_b}")
        return (*worst, differ, total)
    for ra, rb in zip(a["reports"], b["reports"]):
        label = f"{name} {ra['formula_id']}"
        for key in ("verdict", "tolerance", "admissibility_max", "grid"):
            if ra[key] != rb[key]:
                problems.append(f"{label}: {key} differs: {ra[key]!r} != {rb[key]!r}")
        if set(ra["terms"]) != set(rb["terms"]):
            problems.append(f"{label}: term names differ: {sorted(ra['terms'])} != {sorted(rb['terms'])}")
            continue
        pairs = [("residual", ra["residual"], rb["residual"])]
        pairs += [(f"terms.{k}", ra["terms"][k], rb["terms"][k]) for k in sorted(ra["terms"])]
        for field, left, right in pairs:
            worst = max(worst, (drift(left, right), f"{label} {field}"), key=lambda pair: pair[0])
            differ += repr(left) != repr(right)
            total += 1
    return (*worst, differ, total)


def is_report(report) -> bool:
    """Whether ``report`` carries every key compared here, with a numeric residual and numeric terms."""
    if not isinstance(report, dict) or not REPORT_KEYS <= report.keys() or not isinstance(report["terms"], dict):
        return False
    return all(isinstance(v, (int, float)) for v in (report["residual"], *report["terms"].values()))


def load_report(path: Path) -> dict:
    """The report object in the file ``path``; one that is not a report object raises ``ValueError`` naming it."""
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    reports = payload.get("reports") if isinstance(payload, dict) else None
    if not isinstance(reports, list) or not all(map(is_report, reports)):
        raise ValueError(f"{path} is not a report object with a 'reports' list")
    if not isinstance(payload.get("config", {}), dict):
        raise ValueError(f"{path}: 'config' is not an object")
    return payload


def load_reports(directory: Path) -> dict:
    """The report files of ``directory`` by name (:func:`load_report`)."""
    return {path.name: load_report(path) for path in sorted(directory.glob("*.json"))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_reports.py DIR_A DIR_B, or REPORT_A.json REPORT_B.json", file=sys.stderr)
        return 2
    path_a, path_b = (Path(p) for p in args)
    if path_a.is_dir() != path_b.is_dir():
        print(f"error: {path_a} and {path_b} are not both directories or both files", file=sys.stderr)
        return 2
    try:
        if path_a.is_dir():
            files_a, files_b = load_reports(path_a), load_reports(path_b)
        else:
            files_a, files_b = {path_a.name: load_report(path_a)}, {path_a.name: load_report(path_b)}
    except (OSError, ValueError) as exc:
        print(f"error: cannot read reports: {exc}", file=sys.stderr)
        return 2
    if not files_a:
        print(f"error: no report files in {path_a}", file=sys.stderr)
        return 2

    problems: list[str] = []
    if set(files_a) != set(files_b):
        problems.append(f"report files differ: {sorted(files_a)} != {sorted(files_b)}")
    results = [compare_payloads(name, files_a[name], files_b[name], problems) for name in sorted(set(files_a) & set(files_b))]
    worst, where = max((row[:2] for row in results), key=lambda pair: pair[0], default=(0.0, ""))
    differ, total = sum(row[2] for row in results), sum(row[3] for row in results)
    print(f"worst drift {worst!r}" + (f" at {where}" if worst > 0.0 else "") + f"; {differ} of {total} values differ in their bits")
    for line in problems:
        print(line)
    if worst > MAX_DRIFT:
        print(f"drift exceeds {MAX_DRIFT}")
    return 1 if problems or worst > MAX_DRIFT else 0


if __name__ == "__main__":
    sys.exit(main())
