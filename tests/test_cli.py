import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from folsub import cli, scenarios, verify


def test_config_rejects_unknown_check():
    with pytest.raises(cli.ConfigError, match="unknown check"):
        cli.RunConfig(checks=["reeb", "frobnicate"])


def test_config_rejects_bad_order_and_format():
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(checks=["main:x"])
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(format="yaml")


def test_config_file_roundtrip(tmp_path):
    cfg = {
        "scenario": "flat_torus",
        "checks": ["reeb", "main:0"],
        "grid": [4, 4, 4],
        "output": str(tmp_path / "r.json"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    config = cli.load_config(path)
    assert config.scenario == "flat_torus"
    assert config.grid == [4, 4, 4]

    path.write_text(json.dumps({**cfg, "bogus_field": 1}))
    with pytest.raises(cli.ConfigError, match="unknown config fields"):
        cli.load_config(path)

    path.write_text("{not json")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)


def test_run_flat_all_checks(tmp_path):
    config = cli.RunConfig(
        scenario="flat_torus",
        checks=[
            "divergence-selftest",
            "reeb",
            "main:0",
            "leaf:0",
            "pointwise",
            "codazzi",
            "trace-identities",
            "closed-form-c",
            "closed-form-einstein",
            "umbilical",
            "sigma2-image",
        ],
        output=str(tmp_path / "flat.json"),
        samples=20,
    )
    status, reports = cli.run(config)
    assert status == 0
    assert not any(r.verdict == "fail" for r in reports)
    integral = [r for r in reports if r.formula_id in ("reeb", "main:0", "leaf:0")]
    assert all(abs(r.residual) < 1e-9 for r in integral)


def test_run_warped_integral_suite(tmp_path):
    out = tmp_path / "warped.json"
    config = cli.RunConfig(
        scenario="warped_torus_4",
        checks=["reeb", "main:0", "main:1", "leaf:0"],
        output=str(out),
        samples=10,
    )
    status, reports = cli.run(config)
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0
    for rep in payload["reports"]:
        assert abs(rep["residual"]) <= 1e-7
        assert rep["verdict"] == "pass"


def test_run_round_s3_inadmissible_exits_zero(tmp_path):
    out = tmp_path / "s3.json"
    config = cli.RunConfig(scenario="round_s3", checks=["main:0"], output=str(out))
    status, reports = cli.run(config)
    assert status == 0
    assert reports[0].verdict == "inadmissible"
    assert abs(reports[0].residual - (-4 * np.pi**2)) <= 1e-6
    payload = json.loads(out.read_text())
    assert payload["summary"]["warnings"] == 1


def test_run_order_out_of_range_is_config_error(tmp_path):
    config = cli.RunConfig(scenario="warped_torus_3", checks=["main:1"], output=str(tmp_path / "x.json"))
    status, reports = cli.run(config)
    assert status == 2 and reports == []


def test_run_unknown_scenario_is_error(tmp_path):
    config = cli.RunConfig(scenario="missing", checks=["reeb"], output=str(tmp_path / "x.json"))
    status, _ = cli.run(config)
    assert status == 2


def test_inline_builder(tmp_path):
    config = cli.RunConfig(
        scenario={"builder": "warped_torus", "m": 3, "a": {"const": 2.0, "cos1": 1.0}},
        checks=["reeb"],
        grid=[4, 4, 24],
        output=str(tmp_path / "inline.json"),
    )
    status, reports = cli.run(config)
    assert status == 0
    assert reports[0].verdict == "pass"


def test_structured_report_roundtrip(tmp_path):
    out = tmp_path / "rt.json"
    config = cli.RunConfig(scenario="heisenberg", checks=["main:0", "sigma2-image"], output=str(out))
    status, reports = cli.run(config)
    assert status == 0
    parsed = cli.parse_structured(out.read_text())
    assert parsed == reports


def test_reports_bit_reproducible_modulo_walltime(tmp_path):
    config = cli.RunConfig(
        scenario="warped_torus_3",
        checks=["reeb", "main:0", "pointwise"],
        output=str(tmp_path / "a.json"),
        samples=10,
    )
    _, first = cli.run(config)
    _, second = cli.run(config)
    strip = lambda rep: {**cli.report_to_dict(rep), "wall_time_s": None}
    assert [strip(r) for r in first] == [strip(r) for r in second]


def test_table_format(tmp_path):
    out = tmp_path / "t.txt"
    config = cli.RunConfig(scenario="flat_torus", checks=["reeb"], output=str(out), format="table")
    status, _ = cli.run(config)
    assert status == 0
    text = out.read_text()
    assert "reeb" in text and "pass" in text


def test_main_entry_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    text = capsys.readouterr().out
    for name in ("flat_torus", "warped_torus_4", "round_s3"):
        assert name in text
    assert "INADMISSIBLE" in text

    assert cli.main(["list-scenarios", "--format", "structured"]) == 0
    rows = json.loads(capsys.readouterr().out)
    byname = {r["name"]: r for r in rows}
    assert byname["warped_torus_4"]["flags"]["harmonic_perp"] is True
    assert byname["round_s3"]["flags"]["admissible"] is False


def test_main_entry_run_with_overrides(tmp_path):
    out = tmp_path / "cli.json"
    status = cli.main(
        [
            "run",
            "--scenario",
            "flat_torus",
            "--checks",
            "reeb,main:0",
            "--grid",
            "4,4,4",
            "--output",
            str(out),
        ]
    )
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["pass"] == 2


def test_main_entry_bad_check_exits_2(tmp_path):
    assert cli.main(["run", "--scenario", "flat_torus", "--checks", "nope"]) == 2


def test_run_catalog_builds_each_scenario_once(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_catalog.py"
    spec = importlib.util.spec_from_file_location("run_catalog", script)
    run_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_catalog)

    built = []
    real_build = scenarios.build

    def counting_build(name):
        built.append(name)
        return real_build(name)

    monkeypatch.setattr(scenarios, "build", counting_build)
    monkeypatch.setattr(sys, "argv", ["run_catalog.py", "--names", "flat_torus", "--outdir", str(tmp_path)])
    assert run_catalog.main() == 0
    assert built == ["flat_torus"]
    assert json.loads((tmp_path / "flat_torus.json").read_text())["scenario"] == "flat_torus"


def _write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "args",
    [
        ["--scenario", "warped_torus_4", "--grid", "4,4"],
        ["--scenario", "warped_torus_4", "--grid", "4,4,4,0"],
        ["--scenario", "flat_torus", "--grid", "4,x,4"],
        ["--scenario", "flat_torus", "--samples", "-3"],
        ["--scenario", "flat_torus", "--samples", "0"],
        ["--scenario", "flat_torus", "--tolerance", "-1", "--checks", "reeb"],
        ["--scenario", "flat_torus", "--tolerance", "nan", "--checks", "reeb"],
        ["--config", lambda tmp: _write_config(tmp, [])],
        ["--config", lambda tmp: _write_config(tmp, {"scenario": {"builder": "warped_torus", "a": {"bogus": 1}}})],
        ["--scenario", "flat_torus", "--checks", "reeb", "--grid", "4,4,4", "--output", lambda tmp: str(tmp / "no" / "r.json")],
    ],
    ids=[
        "grid-too-short",
        "grid-zero-count",
        "grid-not-integer",
        "samples-negative",
        "samples-zero",
        "tolerance-negative",
        "tolerance-nan",
        "config-not-object",
        "profile-unknown-key",
        "output-unwritable",
    ],
)
def test_main_entry_rejects_bad_input_with_exit_2(args, tmp_path, capsys):
    argv = ["run", "--output", str(tmp_path / "r.json")]
    argv += [a(tmp_path) if callable(a) else a for a in args]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_run_nonfinite_sample_exits_2(tmp_path, monkeypatch, capsys):
    real_terms = verify._main_terms

    def poisoned(geom, r):
        return {**real_terms(geom, r), "sigma": np.full(geom.batch, np.nan)}

    monkeypatch.setattr(verify, "_main_terms", poisoned)
    argv = ["run", "--scenario", "flat_torus", "--checks", "main:0", "--grid", "4,4,4", "--tolerance", "1e-7"]
    assert cli.main(argv + ["--output", str(tmp_path / "r.json")]) == 2
    assert "non-finite sigma sample" in capsys.readouterr().err
