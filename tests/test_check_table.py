"""The catalog battery's check lists, the reports of checks asked for outside their hypotheses, and the grid pass's ignorance of check names.

``scripts/run_catalog.py`` runs, per scenario, every check that applies to
it: ``leaf:r`` only with a closed leaf, ``closed-form-c`` only with a
constant P-curvature, ``umbilical`` only for n >= 2, and ``main:r`` and
``leaf:r`` at every order r.  A check named outside its hypotheses still
gives a report, one that says so.

Each grid check's record says what a grid pass integrates for it, so the
pass (``verify._grid_pass``) and the function that plans it
(``verify.verify_grid_checks``) hold no check's name: adding a grid check
is adding a record.  The pass keys each record's samples by the formula id
of its report, so a record returns bare keys, rebuilds no formula id, and
cannot write another record's samples; a check whose integrand ignores its
argument (``sigma2-image:c``) is integrated once for every value of it.
"""

import ast
import dataclasses
import importlib.util
import inspect
import math
import sys
import textwrap
from pathlib import Path

import numpy as np

from folsub import cli, quadrature, scenarios, verify
from folsub.foliation import Geometry

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_catalog.py"

COMMON = ["divergence-selftest", "reeb", "pointwise", "codazzi", "trace-identities", "sigma2-image"]
BATTERY = {
    "flat_torus": [*COMMON, "main:0", "leaf:0", "closed-form-c", "closed-form-einstein"],
    "heisenberg": [*COMMON, "main:0", "leaf:0", "closed-form-c", "closed-form-einstein"],
    "round_s3": [*COMMON, "main:0", "leaf:0", "closed-form-c", "closed-form-einstein"],
    "tilted_torus_4": [*COMMON, "main:0", "main:1", "leaf:0", "leaf:1", "closed-form-einstein", "umbilical"],
    "warped_torus_3": [*COMMON, "main:0", "leaf:0", "closed-form-einstein"],
    "warped_torus_4": [*COMMON, "main:0", "main:1", "leaf:0", "leaf:1", "closed-form-einstein", "umbilical"],
    "warped_torus_4_umbilical": [*COMMON, "main:0", "main:1", "leaf:0", "leaf:1", "closed-form-einstein", "umbilical"],
}


def test_run_catalog_runs_each_scenario_its_battery(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_catalog", SCRIPT)
    run_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_catalog)
    seen = {}

    def run(config, verbose=False, scenario=None):
        seen[config.scenario] = config.checks
        return 0, []

    monkeypatch.setattr(cli, "run", run)
    monkeypatch.setattr(cli, "emit_table", lambda config, name, reports: "")
    monkeypatch.setattr(sys, "argv", ["run_catalog.py", "--outdir", str(tmp_path)])
    assert run_catalog.main() == 0
    assert seen == BATTERY
    assert list(seen) == scenarios.catalog_names()


def test_umbilical_on_a_one_dimensional_leaf_reports_its_precondition():
    reports = verify.run_checks(scenarios.build("flat_torus"), ["umbilical"])
    assert [(rep.formula_id, rep.verdict) for rep in reports] == [("umbilical-reduction", "precondition-violation")]
    assert reports[0].grid["reason"] == "needs leaf dimension >= 2"


def test_closed_form_c_without_a_declared_constant_reports_its_precondition():
    (rep,) = verify.run_checks(scenarios.build("warped_torus_4"), ["closed-form-c"])
    assert (rep.formula_id, rep.verdict) == ("closed-form-c", "precondition-violation")
    assert rep.grid["c"] == 0.0


def _check_names_in(source: str) -> list[str]:
    """The string literals of ``source`` that name a check of ``verify.CHECKS``, alone or before a colon, f-strings' parts included."""
    literals = (node.value for node in ast.walk(ast.parse(textwrap.dedent(source))) if isinstance(node, ast.Constant))
    return [text for text in literals if isinstance(text, str) and text.partition(":")[0] in verify.CHECKS]


def test_the_grid_pass_and_its_planner_name_no_check():
    for function in (verify._grid_pass, verify.verify_grid_checks):
        assert _check_names_in(inspect.getsource(function)) == [], function.__name__


def test_the_check_name_scan_finds_a_planted_name():
    source = inspect.getsource(verify._grid_pass)
    planted = source.replace("extrema = {}", 'extrema = {"sigma2_min": f"main:{0}", "scan": "sigma2-image"}', 1)
    assert planted != source
    assert sorted(_check_names_in(planted)) == ["main:", "sigma2-image"]


def _timeless(report) -> str:
    return repr(dataclasses.replace(report, wall_time_s=0.0))


def test_a_check_at_two_arguments_is_scanned_once_per_chunk(tilted, monkeypatch):
    # sigma2-image:c is one formula id at any c, and its integrand reads no c:
    # the pass calls it once per chunk with representatives, with no order.
    # In chunks of 16 nodes, the 48 representatives lie in 3 chunks.
    monkeypatch.setattr(quadrature, "CHUNK", 16)
    record, calls = verify.CHECKS["sigma2-image"], []

    def counted(geom, scenario, order):
        calls.append(order)
        return record.integrand(geom, scenario, order)

    monkeypatch.setitem(verify.CHECKS, "sigma2-image", dataclasses.replace(record, integrand=counted))
    names = ["sigma2-image:0", "sigma2-image:0.01"]
    both = verify.verify_grid_checks(tilted, names)
    plan = verify.grid_plan(tilted.fol, verify._grid(tilted))
    chunks = np.unique(plan.first // quadrature.CHUNK).size
    assert chunks == 3 and calls == [None] * chunks
    for name, report in zip(names, both):
        assert _timeless(report) == _timeless(verify.verify_grid_checks(tilted, [name])[0])
    assert len(calls) == 3 * chunks


def test_a_record_writing_another_records_keys_leaves_its_report_alone(flat, monkeypatch):
    # The probe writes closed-form-c's volume and sigma_1 under its own formula id.
    probe = verify.Check(
        tol=math.inf,
        integrand=lambda geom, scenario, order: {"volume": np.full(geom.batch, 2.0), "sigma_1": np.ones(geom.batch)},
        grid=lambda term, floor, scenario, arg: (term("volume"), {"sigma_1": term("sigma_1")}, {}),
    )
    monkeypatch.setitem(verify.CHECKS, "volume-probe", probe)
    alone = verify.verify_grid_checks(flat, ["closed-form-c"])[0]
    probed, shared = verify.verify_grid_checks(flat, ["volume-probe", "closed-form-c"])
    assert _timeless(shared) == _timeless(alone)
    assert probed.residual == 2.0 * alone.terms["total_sigma_0"] and probed.terms == {"sigma_1": probed.residual / 2.0}


def test_every_grid_record_returns_bare_keys(catalog):
    for s in catalog.values():
        geom = Geometry(s.fol, s.manifold.random_points(np.random.default_rng(5), 4), order=2)
        for name, check in verify.CHECKS.items():
            if check.integrand:
                keys = check.integrand(geom, s, 0 if check.ordered else None)
                assert keys and all(isinstance(key, str) for key in keys), (s.name, name)


def test_only_the_one_check_functions_build_a_formula_id():
    # An f-string that starts with a grid check's name and a colon builds that
    # check's formula id; only verify_main and verify_leaf, which name their
    # check to run it, may do so.
    module = ast.parse(inspect.getsource(verify))
    builders = set()
    for top in module.body:
        for node in ast.walk(top):
            if isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
                base, colon, _ = node.values[0].value.partition(":")
                if colon and base in verify.CHECKS and verify.CHECKS[base].grid:
                    builders.add(getattr(top, "name", None))
    assert builders == {"verify_main", "verify_leaf"}
