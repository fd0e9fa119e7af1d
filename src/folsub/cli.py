"""Batch runner: validate a run config, build its scenario and write the reports.

Check names and the code that runs them live in :mod:`folsub.verify`.
Configs and structured reports are plain JSON, so runs diff cleanly in CI.
Exit status separates three situations: 0 when no check failed (hypothesis
violations exit 0 with a warning count), 1 when a formula failed on a
scenario satisfying its hypotheses, and 2 when the run itself could not be
executed (bad config, grid, sample count or tolerance, construction error,
singular metric, non-finite sample or residual, unwritable output).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import scenarios as scn
from . import verify
from .errors import ConfigError, ConstructionError, EvaluationError, LinearSolveError, UnsupportedLeafError
from .manifolds import InvariantFrameManifold
from .quadrature import CHUNK
from .verify import VerificationReport

DEFAULT_CHECKS = ["divergence-selftest", "reeb", "main:0", "pointwise", "codazzi"]

PROFILE_KEYS = ("const", "cos1", "sin1")

# Arguments each inline builder accepts besides "builder".
BUILDER_KEYS = {
    "warped_torus": ("m", "a", "b", "name"),
    "tilted_torus": ("theta_amplitude",),
    "flat_torus": ("m", "n"),
}

# The flat torus's default grid has 4**m nodes, and every geometry array
# grows with m**4 per node, so larger inline flat tori are refused.
FLAT_TORUS_MAX_DIM = 6

# The pointwise checks evaluate all their samples in one batch, so a run may
# ask for at most one quadrature chunk of them.
MAX_SAMPLES = CHUNK

# 32 times the largest grid the convergence gates use (the doubled
# warped_torus_4 grid, 32768 nodes); the node array alone is built in full.
MAX_GRID_NODES = 2**20


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
        if not isinstance(self.checks, list) or not all(isinstance(name, str) for name in self.checks):
            raise ConfigError(f"checks {self.checks!r} must be a list of check names")
        for name in self.checks:
            verify.parse_check(name)
        if not isinstance(self.output, str) or not self.output:
            raise ConfigError(f"output {self.output!r} must be a file path")
        if self.format not in ("table", "structured"):
            raise ConfigError(f"unknown report format {self.format!r}")
        if self.grid is not None and not (
            isinstance(self.grid, (list, tuple)) and all(_positive(k, int) for k in self.grid)
        ):
            raise ConfigError(f"grid {self.grid!r} needs a positive integer node count per axis")
        if self.grid is not None and math.prod(self.grid) > MAX_GRID_NODES:
            raise ConfigError(f"grid {self.grid!r} has more than {MAX_GRID_NODES} nodes")
        if not _positive(self.samples, int) or self.samples > MAX_SAMPLES:
            raise ConfigError(f"samples {self.samples!r} must be a positive integer <= {MAX_SAMPLES}")
        if self.tolerance is not None and not _positive(self.tolerance, (int, float)):
            raise ConfigError(f"tolerance {self.tolerance!r} must be a finite number > 0")


def _number(value) -> bool:
    """``value`` is an int or float (bools excluded) that is a finite float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _positive(value, kind) -> bool:
    """``value`` is a finite number of type ``kind`` and > 0."""
    return isinstance(value, kind) and _number(value) and value > 0


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
    if not isinstance(coeffs, dict) or not set(coeffs) <= set(PROFILE_KEYS) or not all(map(_number, coeffs.values())):
        raise ConfigError(f"profile {key!r} must map keys among {', '.join(PROFILE_KEYS)} to finite numbers")
    return scn.fourier_profile(**coeffs)


def _int_arg(spec: dict, key: str, default: int, limit: int | None = None) -> int:
    value = spec.get(key, default)
    if not _positive(value, int) or (limit is not None and value > limit):
        bound = "" if limit is None else f" <= {limit}"
        raise ConfigError(f"builder argument {key!r} must be a positive integer{bound}, not {value!r}")
    return value


def _build_scenario(spec):
    if isinstance(spec, str):
        return scn.build(spec)
    if not isinstance(spec, dict):
        raise ConfigError("scenario must be a name or an inline builder object")
    kind = spec.get("builder")
    if not isinstance(kind, str) or kind not in BUILDER_KEYS:
        raise ConfigError(f"unknown inline builder {kind!r}; known: {', '.join(BUILDER_KEYS)}")
    unknown = set(spec) - {"builder", *BUILDER_KEYS[kind]}
    if unknown:
        raise ConfigError(f"unknown {kind} builder arguments: {sorted(unknown)}")
    if kind == "warped_torus":
        name = spec.get("name")
        if not isinstance(name, (str, type(None))):
            raise ConfigError(f"builder argument 'name' must be a string, not {name!r}")
        m, a = _int_arg(spec, "m", 4), _profile(spec, "a", {"const": 2.0, "cos1": 1.0})
        if m == 3 and "b" in spec:  # the 3-torus has no second leaf axis to warp
            raise ConfigError("builder argument 'b' applies to warped_torus with m = 4 only, not m = 3")
        kwargs = dict(m=m, a=a, b=_profile(spec, "b", {"const": 2.0, "sin1": 1.0}), name=name)
    elif kind == "tilted_torus":
        amplitude = spec.get("theta_amplitude", 0.3)
        if not _number(amplitude):
            raise ConfigError(f"builder argument 'theta_amplitude' must be a finite number, not {amplitude!r}")
        kwargs = dict(theta=scn.sine_profile(amplitude))
    else:
        kwargs = dict(m=_int_arg(spec, "m", 3, FLAT_TORUS_MAX_DIM), n=_int_arg(spec, "n", 1))
    try:
        return getattr(scn, f"build_{kind}")(**kwargs)
    except ValueError as exc:  # a builder's own range check, e.g. m or n out of range
        raise ConfigError(f"inline {kind} builder: {exc}") from exc


# -- report serialization -----------------------------------------------------


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
        "reports": [dataclasses.asdict(r) for r in reports],
        "summary": _summary(reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


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
    needed it to choose the checks; by default it is built here.  Floating-point
    warnings are silenced: a non-finite sample or residual raises :class:`EvaluationError`.
    """
    t0 = time.perf_counter()
    try:
        with np.errstate(all="ignore"):
            if scenario is None:
                scenario = _build_scenario(config.scenario)
            chart = not isinstance(scenario.manifold, InvariantFrameManifold)
            if chart and config.grid is not None and len(config.grid) != scenario.manifold.dim:
                raise ConfigError(f"grid {config.grid} needs {scenario.manifold.dim} node counts for {scenario.name}")
            reports = verify.run_checks(scenario, config.checks, config.grid, config.tolerance, config.samples)
    except (ConfigError, ConstructionError, EvaluationError, LinearSolveError, UnsupportedLeafError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, []

    emit = emit_structured if config.format == "structured" else emit_table
    text = emit(config, scenario.name, reports)
    out = Path(config.output)
    tmp = None
    try:
        tmp = out.with_suffix(out.suffix + ".tmp")
        tmp.write_text(text)
        tmp.replace(out)
    except (OSError, ValueError) as exc:  # ValueError: a path with no file name or a NUL byte
        if tmp is not None:
            with contextlib.suppress(OSError, ValueError):
                tmp.unlink(missing_ok=True)
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


def parsed(text: str, parse):
    """``parse(text)``, or ``text`` when it does not parse: :class:`RunConfig` refuses it with its own message."""
    try:
        return parse(text)
    except ValueError:
        return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="folsub", description="verification-lab batch runner")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run checks from a config or flags")
    runp.add_argument("--config", help="path to a JSON run config")
    runp.add_argument("--scenario", help="scenario name override")
    runp.add_argument("--checks", help="comma-separated check list override")
    runp.add_argument("--grid", help="comma-separated per-axis node counts")
    runp.add_argument("--tolerance", help="tolerance override for integral checks")
    runp.add_argument("--output", help="report output path")
    runp.add_argument("--format", choices=("table", "structured"), help="report format")
    runp.add_argument("--samples", help="random sample count for pointwise checks")
    runp.add_argument("-v", "--verbose", action="store_true")

    lsp = sub.add_parser("list-scenarios", help="print the scenario catalog")
    lsp.add_argument("--format", choices=("table", "structured"), default="table")

    args = parser.parse_args(argv)
    if args.command == "list-scenarios":
        print(list_scenarios(structured=args.format == "structured"), end="")
        return 0

    try:
        config = load_config(args.config) if args.config is not None else RunConfig()
        keys = ("scenario", "output", "format")
        override = {key: value for key in keys if (value := getattr(args, key)) is not None}
        if args.checks is not None:
            override["checks"] = args.checks.split(",")
        counts = lambda text: [int(x) for x in text.split(",")]
        for key, parse in (("grid", counts), ("tolerance", float), ("samples", int)):
            if (text := getattr(args, key)) is not None:
                override[key] = parsed(text, parse)
        if override:
            config = dataclasses.replace(config, **override)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status, _ = run(config, verbose=args.verbose)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
