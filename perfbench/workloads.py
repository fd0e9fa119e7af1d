"""The benchmark's workloads: what one pass runs, and the reports it returns.

Every workload is a closed loop in one process: each check starts only after
the previous one has returned.  The workload seed picks the random sample
points of the pointwise checks; quadrature grids are fixed by the scenarios.
A pass with seed offset 0 gives every seeded check the seed it defaults to in
the library, so that pass reproduces what a user running the battery sees,
and it is the pass the recorded reference was taken from.

The umbilical check keeps its library seed on every pass: its cost grows
steeply with the leaf dimensions it draws (2..8), so a fresh draw per seed
moved the catalog pass between 22 s and 34 s and would drown any change in
the noise.  It is compared against its reference residual on every pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import inspect
import io
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

# Checks whose inputs come from a seed.  Every other report is a deterministic
# grid (or exact-arithmetic) check and must reproduce its reference residual
# on every pass and every seed.
SEEDED_CHECKS = (
    "check_divergence_split",
    "check_leaf_divergence_of_normal",
    "check_adapted_identity",
    "check_newton_div_agreement",
    "check_newton_z_divergence",
    "check_codazzi",
    "check_trace_identities",
)
SEEDED_FORMULAS = frozenset(
    {
        "div-split",
        "leafdiv-normal",
        "adapted-identity",
        "newton-div",
        "newton-z-div",
        "codazzi",
        "trace-identities",
    }
)
SEED_STRIDE = 1000
PASSES_PER_SEED = 1000

# Scenario subsets and sample counts per size; "smoke" exists for the
# benchmark's own tests and keeps both backends (chart and invariant frame).
SIZES = {
    "full": {
        "catalog": None,
        "pointwise": None,
        "samples": 50,
        "refined_warped": "warped_torus_4",
        "tilted_checks": ("reeb", "main:0", "main:1", "leaf:0", "leaf:1"),
    },
    "smoke": {
        "catalog": ("flat_torus", "heisenberg"),
        "pointwise": ("flat_torus", "heisenberg"),
        "samples": 5,
        "refined_warped": "warped_torus_3",
        "tilted_checks": ("reeb", "leaf:0", "leaf:1"),
    },
}
WORKLOADS = ("catalog", "refined", "pointwise")
# Scratch space for report files, inside the checkout (listed in .gitignore).
WORKDIR = ".perfbench_work"


@dataclass(frozen=True)
class Report:
    scenario: str
    formula_id: str
    verdict: str
    residual: float
    tolerance: float

    @property
    def key(self) -> tuple[str, str]:
        return (self.scenario, self.formula_id)

    @property
    def seeded(self) -> bool:
        return self.formula_id.split(":", 1)[0] in SEEDED_FORMULAS


class MissingSource(RuntimeError):
    """The checkout holds no folsub sources to benchmark."""


def load_program(root: Path) -> dict:
    """Import folsub from ``root/src`` and the catalog script from ``root/scripts``."""
    src, script = root / "src", root / "scripts" / "run_catalog.py"
    if not (src / "folsub" / "__init__.py").is_file() or not script.is_file():
        raise MissingSource(f"no folsub sources under {root}")
    sys.path.insert(0, str(src))
    folsub = importlib.import_module("folsub")
    if Path(folsub.__file__).resolve().parent != (src / "folsub").resolve():
        raise MissingSource(f"folsub imported from {folsub.__file__}, not from {src}")
    mods = {
        name: importlib.import_module(f"folsub.{name}")
        for name in ("cli", "distribution", "foliation", "manifolds", "newton", "quadrature", "scenarios", "verify")
    }
    spec = importlib.util.spec_from_file_location("run_catalog", script)
    run_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_catalog)
    mods["run_catalog"] = run_catalog
    return mods


def scenario_names(mods: dict, workload: str, size: str) -> list[str]:
    """Every scenario the workload uses, in build order."""
    cfg = SIZES[size]
    if workload == "refined":
        return [cfg["refined_warped"], "tilted_torus_4"]
    return list(cfg[workload] or mods["scenarios"].catalog_names())


def seed_offset(seed: int, pass_index: int) -> int:
    return (seed % 2**32) * PASSES_PER_SEED + pass_index


def seeded(fn, offset: int):
    """``fn`` with its default sample seed moved by ``offset`` strides."""
    default = inspect.signature(fn).parameters["seed"].default
    return functools.partial(fn, seed=default + SEED_STRIDE * offset)


@contextlib.contextmanager
def seeded_verify(verify, offset: int):
    """Give the pointwise checks that the CLI looks up on ``verify`` the pass's seeds.

    The catalog script has no seed option, so the benchmark supplies its
    inputs where the CLI looks the checks up, and restores them afterwards.
    """
    saved = {name: getattr(verify, name) for name in SEEDED_CHECKS}
    try:
        for name, fn in saved.items():
            setattr(verify, name, seeded(fn, offset))
        yield
    finally:
        for name, fn in saved.items():
            setattr(verify, name, fn)


def _as_report(scenario: str, r) -> Report:
    return Report(scenario, r.formula_id, r.verdict, float(r.residual), float(r.tolerance))


def run_pass(mods: dict, workload: str, size: str, scenarios: dict, offset: int, workdir: Path) -> list[Report]:
    """One pass of ``workload``; raises if a check raised."""
    if workload == "catalog":
        return _catalog_pass(mods, size, offset, workdir)
    if workload == "refined":
        return _refined_pass(mods, size, scenarios)
    return _pointwise_pass(mods, size, scenarios, offset)


def _catalog_pass(mods: dict, size: str, offset: int, workdir: Path) -> list[Report]:
    cfg = SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as out:
        argv = ["run_catalog.py", "--outdir", out, "--samples", str(cfg["samples"])]
        if cfg["catalog"]:
            argv += ["--names", ",".join(cfg["catalog"])]
        saved_argv = sys.argv
        sys.argv = argv
        try:
            with seeded_verify(mods["verify"], offset), contextlib.redirect_stdout(io.StringIO()):
                mods["run_catalog"].main()
        finally:
            sys.argv = saved_argv
        reports = []
        for path in sorted(Path(out).glob("*.json")):
            payload = json.loads(path.read_text())
            for r in payload["reports"]:
                reports.append(
                    Report(payload["scenario"], r["formula_id"], r["verdict"], float(r["residual"]), float(r["tolerance"]))
                )
        return reports


def _refined_pass(mods: dict, size: str, scenarios: dict) -> list[Report]:
    verify, quadrature = mods["verify"], mods["quadrature"]
    cfg = SIZES[size]
    warped = scenarios[cfg["refined_warped"]]
    # The convergence-gate resolution: every axis of the default grid doubled.
    grid = quadrature.grid_for(warped.manifold, tuple(2 * k for k in warped.default_grid))
    out = [_as_report(warped.name, verify.verify_reeb(warped, grid))]
    for r in range(warped.n):
        out.append(_as_report(warped.name, verify.verify_main(warped, r, grid)))
    tilted = scenarios["tilted_torus_4"]
    for check in cfg["tilted_checks"]:
        base, _, arg = check.partition(":")
        if base == "reeb":
            rep = verify.verify_reeb(tilted)
        elif base == "main":
            rep = verify.verify_main(tilted, int(arg))
        else:
            rep = verify.verify_leaf(tilted, int(arg))
        out.append(_as_report(tilted.name, rep))
    return out


def _pointwise_pass(mods: dict, size: str, scenarios: dict, offset: int) -> list[Report]:
    """The CLI's ``pointwise``, ``codazzi`` and ``trace-identities`` batteries."""
    verify = mods["verify"]
    k = SIZES[size]["samples"]
    check = {name: seeded(getattr(verify, name), offset) for name in SEEDED_CHECKS}
    out = []
    for sc in scenarios.values():
        reps = [
            check["check_divergence_split"](sc, samples=k),
            check["check_leaf_divergence_of_normal"](sc, samples=k),
            check["check_adapted_identity"](sc, samples=k),
        ]
        for r in range(sc.n):
            reps.append(check["check_newton_div_agreement"](sc, r, samples=k))
            reps.append(check["check_newton_z_divergence"](sc, r, samples=k))
        reps.append(check["check_codazzi"](sc, samples=k))
        reps.extend(check["check_trace_identities"](sc, samples=min(k, 20)))
        out.extend(_as_report(sc.name, rep) for rep in reps)
    return out
