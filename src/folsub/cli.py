"""Batch runner: execute verification checks on a scenario and emit reports.

Configs and structured reports are plain JSON; the formula ids in the report
are the check names used across the package, so runs diff cleanly in CI.
Exit status separates three situations: 0 when no check failed (hypothesis
violations exit 0 with a warning count), 1 when a formula failed on a
scenario satisfying its hypotheses, and 2 when the run itself could not be
executed (bad config, grid, sample count or tolerance, construction error,
non-finite samples, unwritable output).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import scenarios as scn
from . import verify
from .errors import ConstructionError, EvaluationError, UnsupportedLeafError
from .manifolds import InvariantFrameManifold
from .verify import VerificationReport

KNOWN_CHECKS = (
    "reeb",
    "main",
    "leaf",
    "pointwise",
    "codazzi",
    "trace-identities",
    "closed-form-c",
    "closed-form-einstein",
    "umbilical",
    "divergence-selftest",
    "sigma2-image",
)

DEFAULT_CHECKS = ["divergence-selftest", "reeb", "main:0", "pointwise", "codazzi"]

PROFILE_KEYS = ("const", "cos1", "sin1")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One verification run: scenario, checks, grid and output options."""

    scenario: str | dict = "warped_torus_4"
    checks: list[str] = field(default_factory=lambda: list(DEFAULT_CHECKS))
    grid: list[int] | None = None
    tolerance: float | None = None
    output: str = "folsub_report.json"
    format: str = "structured"
    samples: int = 50

    def __post_init__(self):
        for name in self.checks:
            base = name.split(":", 1)[0]
            if base not in KNOWN_CHECKS:
                raise ConfigError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
            if base in ("main", "leaf") and ":" in name:
                try:
                    int(name.split(":", 1)[1])
                except ValueError:
                    raise ConfigError(f"check {name!r} needs an integer order") from None
        if self.format not in ("table", "structured"):
            raise ConfigError(f"unknown report format {self.format!r}")
        if self.grid is not None and not (
            isinstance(self.grid, (list, tuple)) and all(_positive(k, int) for k in self.grid)
        ):
            raise ConfigError(f"grid {self.grid!r} needs a positive integer node count per axis")
        if not _positive(self.samples, int):
            raise ConfigError(f"samples {self.samples!r} must be a positive integer")
        if self.tolerance is not None and not _positive(self.tolerance, (int, float)):
            raise ConfigError(f"tolerance {self.tolerance!r} must be a finite number > 0")


def _positive(value, kind) -> bool:
    """``value`` is a finite number of type ``kind`` (bools excluded) and > 0."""
    return isinstance(value, kind) and not isinstance(value, bool) and 0 < value < math.inf


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**raw)


def _profile(spec: dict, key: str, default: dict):
    coeffs = spec.get(key, default)
    if not isinstance(coeffs, dict) or not set(coeffs) <= set(PROFILE_KEYS):
        raise ConfigError(f"profile {key!r} must be an object with keys among {', '.join(PROFILE_KEYS)}")
    return scn.fourier_profile(**coeffs)


def _build_scenario(spec):
    if isinstance(spec, str):
        return scn.build(spec)
    if not isinstance(spec, dict):
        raise ConfigError("scenario must be a name or an inline builder object")
    kind = spec.get("builder")
    if kind == "warped_torus":
        return scn.build_warped_torus(
            m=int(spec.get("m", 4)),
            a=_profile(spec, "a", {"const": 2.0, "cos1": 1.0}),
            b=_profile(spec, "b", {"const": 2.0, "sin1": 1.0}),
            name=spec.get("name"),
        )
    if kind == "tilted_torus":
        return scn.build_tilted_torus(theta=scn.sine_profile(float(spec.get("theta_amplitude", 0.3))))
    if kind == "flat_torus":
        return scn.build_flat_torus(m=int(spec.get("m", 3)), n=int(spec.get("n", 1)))
    raise ConfigError(f"unknown inline builder {kind!r}")


def _run_check(scenario, name: str, config: RunConfig) -> list[VerificationReport]:
    base, _, arg = name.partition(":")
    grid = None if config.grid is None else tuple(config.grid)
    tol = config.tolerance
    k = config.samples
    if base == "reeb":
        return [verify.verify_reeb(scenario, grid, tol)]
    if base == "main":
        return [verify.verify_main(scenario, int(arg or 0), grid, tol)]
    if base == "leaf":
        return [verify.verify_leaf(scenario, int(arg or 0), tolerance=tol)]
    if base == "divergence-selftest":
        return [verify.verify_divergence_theorem(scenario, grid=grid, tolerance=tol)]
    if base == "codazzi":
        return [verify.check_codazzi(scenario, samples=k)]
    if base == "trace-identities":
        return verify.check_trace_identities(scenario, samples=min(k, 20))
    if base == "pointwise":
        out = [
            verify.check_divergence_split(scenario, samples=k),
            verify.check_leaf_divergence_of_normal(scenario, samples=k),
            verify.check_adapted_identity(scenario, samples=k),
        ]
        for r in range(scenario.n):
            out.append(verify.check_newton_div_agreement(scenario, r, samples=k))
            out.append(verify.check_newton_z_divergence(scenario, r, samples=k))
        return out
    if base == "closed-form-c":
        return [verify.verify_closed_form_c(scenario, grid=grid, tolerance=tol)]
    if base == "closed-form-einstein":
        C = float(arg) if arg else 1.0
        return [verify.verify_closed_form_einstein(scenario.n, C, scenario.volume)]
    if base == "umbilical":
        if scenario.n < 2:
            return [
                verify.make_report(
                    "umbilical-reduction", 0.0, verify.ALGEBRAIC_TOL, time.perf_counter(), scenario,
                    preconditions_ok=False,
                    reason="needs leaf dimension >= 2",
                )
            ]
        return [verify.verify_umbilical_reduction(samples=200)]
    if base == "sigma2-image":
        return [verify.sigma2_image_diagnostic(scenario, c=float(arg) if arg else 0.0, grid=grid)]
    raise ConfigError(f"unknown check {name!r}")


# -- report serialization -----------------------------------------------------


def report_to_dict(report: VerificationReport) -> dict:
    return dataclasses.asdict(report)


def report_from_dict(data: dict) -> VerificationReport:
    return VerificationReport(**data)


def _summary(reports: list[VerificationReport]) -> dict:
    return {
        "checks": len(reports),
        "pass": sum(r.verdict == "pass" for r in reports),
        "fail": sum(r.verdict == "fail" for r in reports),
        "warnings": sum(r.verdict in ("inadmissible", "precondition-violation") for r in reports),
        "info": sum(r.verdict == "info" for r in reports),
    }


def emit_structured(config: RunConfig, scenario_name: str, reports: list[VerificationReport]) -> str:
    payload = {
        "scenario": scenario_name,
        "config": dataclasses.asdict(config),
        "reports": [report_to_dict(r) for r in reports],
        "summary": _summary(reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def parse_structured(text: str) -> list[VerificationReport]:
    return [report_from_dict(d) for d in json.loads(text)["reports"]]


def emit_table(config: RunConfig, scenario_name: str, reports: list[VerificationReport]) -> str:
    head = f"{'check':<28}{'residual':>14}{'tolerance':>12}  {'verdict':<24}{'adm.max':>10}{'time[s]':>9}"
    lines = [f"scenario: {scenario_name}", head, "-" * len(head)]
    for r in reports:
        lines.append(
            f"{r.formula_id:<28}{r.residual:>14.3e}{r.tolerance:>12.1e}  "
            f"{r.verdict:<24}{r.admissibility_max:>10.2e}{r.wall_time_s:>9.2f}"
        )
    s = _summary(reports)
    lines.append("-" * len(head))
    lines.append(f"pass {s['pass']}  fail {s['fail']}  warnings {s['warnings']}  info {s['info']}")
    return "\n".join(lines) + "\n"


def run(config: RunConfig, verbose: bool = False, scenario=None) -> tuple[int, list[VerificationReport]]:
    """Execute every requested check; returns (exit status, reports).

    ``scenario`` is the already built ``config.scenario``, for callers that
    needed it to choose the checks; by default it is built here.
    """
    t0 = time.perf_counter()
    try:
        if scenario is None:
            scenario = _build_scenario(config.scenario)
        chart = not isinstance(scenario.manifold, InvariantFrameManifold)
        if chart and config.grid is not None and len(config.grid) != scenario.manifold.dim:
            raise ConfigError(f"grid {config.grid} needs {scenario.manifold.dim} node counts for {scenario.name}")
        for name in config.checks:
            base, _, arg = name.partition(":")
            if base in ("main", "leaf") and arg and not 0 <= int(arg) <= scenario.n - 1:
                raise ConfigError(f"check {name!r}: order outside 0..{scenario.n - 1}")
        reports = []
        for name in config.checks:
            try:
                reports.extend(_run_check(scenario, name, config))
            except UnsupportedLeafError as exc:
                raise ConfigError(f"check {name!r}: {exc}") from exc
    except (ConfigError, ConstructionError, EvaluationError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, []

    text = (
        emit_structured(config, scenario.name, reports)
        if config.format == "structured"
        else emit_table(config, scenario.name, reports)
    )
    out = Path(config.output)
    tmp = out.with_suffix(out.suffix + ".tmp")
    try:
        tmp.write_text(text)
        tmp.replace(out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2, []

    if verbose:
        print(emit_table(config, scenario.name, reports), end="")
        print(f"total wall time {time.perf_counter() - t0:.1f}s; report written to {out}")
    status = 1 if any(r.verdict == "fail" for r in reports) else 0
    return status, reports


def list_scenarios(structured: bool = False) -> str:
    """Stable sorted catalog listing with flags and expected values."""
    rows = []
    for name in scn.catalog_names():
        s = scn.build(name)
        expected = {
            key: (val.value if isinstance(val.value, float) else "closed-form")
            for key, val in sorted(s.expected.items())
        }
        rows.append(
            {
                "name": s.name,
                "backend": type(s.manifold).__name__,
                "dim": s.manifold.dim,
                "leaf_dim": s.n,
                "flags": dataclasses.asdict(s.flags),
                "volume": s.volume,
                "expected": expected,
            }
        )
    if structured:
        return json.dumps(rows, indent=2, sort_keys=True)
    lines = []
    for row in rows:
        flags = row["flags"]
        tags = [k for k in ("harmonic_perp", "admissible", "p_curvature_invariant", "umbilical") if flags[k]]
        if flags["satisfies_pcurv_c"]:
            tags.append(f"constant-curvature(c={flags['pcurv_c']})")
        if not flags["admissible"]:
            tags.append("INADMISSIBLE")
        lines.append(f"{row['name']:<26} m={row['dim']} n={row['leaf_dim']} vol={row['volume']:.6g}")
        lines.append(f"{'':<26} flags: {', '.join(tags)}")
        lines.append(f"{'':<26} expected: {', '.join(sorted(row['expected']))}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="folsub", description="verification-lab batch runner")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run checks from a config or flags")
    runp.add_argument("--config", help="path to a JSON run config")
    runp.add_argument("--scenario", help="scenario name override")
    runp.add_argument("--checks", help="comma-separated check list override")
    runp.add_argument("--grid", help="comma-separated per-axis node counts")
    runp.add_argument("--tolerance", type=float, help="tolerance override for integral checks")
    runp.add_argument("--output", help="report output path")
    runp.add_argument("--format", choices=("table", "structured"), help="report format")
    runp.add_argument("--samples", type=int, help="random sample count for pointwise checks")
    runp.add_argument("-v", "--verbose", action="store_true")

    lsp = sub.add_parser("list-scenarios", help="print the scenario catalog")
    lsp.add_argument("--format", choices=("table", "structured"), default="table")

    args = parser.parse_args(argv)
    if args.command == "list-scenarios":
        print(list_scenarios(structured=args.format == "structured"), end="")
        return 0

    try:
        config = load_config(args.config) if args.config else RunConfig()
        override = {}
        if args.scenario:
            override["scenario"] = args.scenario
        if args.checks:
            override["checks"] = args.checks.split(",")
        if args.grid:
            override["grid"] = [int(x) for x in args.grid.split(",")]
        if args.tolerance is not None:
            override["tolerance"] = args.tolerance
        if args.output:
            override["output"] = args.output
        if args.format:
            override["format"] = args.format
        if args.samples is not None:
            override["samples"] = args.samples
        if override:
            config = dataclasses.replace(config, **override)
    except ValueError as exc:  # a ConfigError, or a --grid count that is not an integer
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status, _ = run(config, verbose=args.verbose)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
