"""The catalog battery's check lists, the reports of checks asked for outside their hypotheses, and the grid pass's ignorance of check names.

``scripts/run_catalog.py`` runs, per scenario, every check that applies to
it: ``leaf:r`` only with a closed leaf, ``closed-form-c`` only with a
constant P-curvature, ``umbilical`` only for n >= 2, and ``main:r`` and
``leaf:r`` at every order r.  A check named outside its hypotheses still
gives a report, one that says so.

Each grid check's record says what a grid pass integrates for it, so the
pass (``verify._grid_pass``) and the function that plans it
(``verify.verify_grid_checks``) hold no check's name: adding a grid check
is adding a record.
"""

import ast
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

from folsub import cli, scenarios, verify

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
