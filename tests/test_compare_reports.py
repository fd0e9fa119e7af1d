import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from folsub import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare_reports():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def report_dirs(flat, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    config = cli.RunConfig(
        scenario="flat_torus", checks=["reeb", "main:0", "closed-form-c"], output=str(first / "flat_torus.json")
    )
    assert cli.run(config, scenario=flat)[0] == 0
    shutil.copytree(first, second)
    return first, second


def _edit(directory: Path, change) -> None:
    path = directory / "flat_torus.json"
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def test_identical_directories_pass(compare_reports, report_dirs, capsys):
    first, second = report_dirs
    _edit(second, lambda p: p["reports"][0].update(wall_time_s=99.0))
    _edit(second, lambda p: p["config"].update(output="elsewhere.json"))
    assert compare_reports.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.startswith("worst drift 0.0; 0 of ")


def test_drift_over_the_rule_fails(compare_reports, report_dirs, capsys):
    first, second = report_dirs

    def nudge(payload):
        terms = payload["reports"][1]["terms"]
        terms["sigma_term"] += 2e-13

    _edit(second, nudge)
    assert compare_reports.main([str(first), str(second)]) == 1
    assert "main:0 terms.sigma_term" in capsys.readouterr().out


def test_changed_verdict_fails(compare_reports, report_dirs, capsys):
    first, second = report_dirs
    _edit(second, lambda p: p["reports"][0].update(verdict="fail"))
    assert compare_reports.main([str(first), str(second)]) == 1
    assert "verdict differs" in capsys.readouterr().out


def test_flipped_sign_of_zero_is_counted_but_does_not_drift(compare_reports, report_dirs, capsys):
    first, second = report_dirs
    reeb = json.loads((first / "flat_torus.json").read_text())["reports"][0]
    assert reeb["formula_id"] == "reeb" and repr(reeb["residual"]) == "0.0"
    _edit(second, lambda p: p["reports"][0].update(residual=-0.0))
    assert compare_reports.main([str(first), str(second)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("worst drift 0.0; 1 of ") and "values differ in their bits" in out


# Each turns a report file's payload into a .json file that is not a report object.
NOT_REPORTS = {
    "object-without-reports": lambda p: {"scenario": p["scenario"]},
    "json-list": lambda p: [1, 2],
    "report-without-keys": lambda p: {"reports": [{"formula_id": "reeb"}]},
    "residual-not-a-number": lambda p: {**p, "reports": [{**p["reports"][0], "residual": "0.0"}]},
}


@pytest.mark.parametrize("damage", NOT_REPORTS.values(), ids=NOT_REPORTS)
def test_a_json_file_that_is_not_a_report_object_exits_2(compare_reports, report_dirs, damage, capsys):
    first, second = report_dirs
    path = second / "flat_torus.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    assert compare_reports.main([str(first), str(second)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
