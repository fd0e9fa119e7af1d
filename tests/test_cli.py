import dataclasses
import importlib.util
import io
import json
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from folsub import cli, scenarios, verify
from folsub.verify import VerificationReport


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
    parsed = [VerificationReport(**data) for data in json.loads(out.read_text())["reports"]]
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
    strip = lambda rep: {**dataclasses.asdict(rep), "wall_time_s": None}
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


def test_leaf_checks_follow_the_run_grid(tmp_path):
    out = tmp_path / "leaf.json"
    args = ["run", "--scenario", "warped_torus_4", "--checks", "leaf:0,reeb", "--grid", "4,8,8,16", "--output", str(out)]
    assert cli.main(args) == 0
    leaf, reeb = json.loads(out.read_text())["reports"]
    assert (leaf["formula_id"], leaf["grid"]["axes"]) == ("leaf:0", [8, 8])  # the leaf's axes 1 and 2
    assert reeb["grid"]["axes"] == [4, 8, 8, 16]


def test_main_entry_bad_check_exits_2(tmp_path):
    assert cli.main(["run", "--scenario", "flat_torus", "--checks", "nope"]) == 2


@pytest.mark.parametrize("flag", ["--scenario", "--checks", "--output", "--grid", "--config"])
def test_an_empty_flag_value_is_refused_as_in_a_config(flag, tmp_path, monkeypatch, capsys):
    # An empty value is given, not missing: it meets the check a config value meets
    # (an empty --config names no readable file).
    monkeypatch.chdir(tmp_path)  # where an empty --output would have put the default report
    argv = ["run", "--scenario", "flat_torus", "--checks", "reeb", "--output", str(tmp_path / "r.json"), flag, ""]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


UNKNOWN_SCENARIO = f"error: unknown scenario 'nope'; known: {', '.join(scenarios.catalog_names())}\n"


def test_an_unknown_scenario_prints_the_catalog_names_on_one_line(tmp_path, monkeypatch, capsys):
    assert cli.main(["run", "--scenario", "nope", "--output", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr() == ("", UNKNOWN_SCENARIO)
    run_catalog, _ = _run_catalog_counting_builds(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run_catalog.py", "--names", "nope", "--outdir", str(tmp_path / "out")])
    assert run_catalog.main() == 2
    assert capsys.readouterr() == ("", UNKNOWN_SCENARIO)


@pytest.mark.parametrize("grid", ["a,b", "4,,4", "4.0,4,4,4"])
def test_a_grid_count_that_is_not_an_integer_names_the_grid(grid, tmp_path, capsys):
    argv = ["run", "--scenario", "flat_torus", "--grid", grid, "--output", str(tmp_path / "r.json")]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: grid {grid!r} needs a positive integer node count per axis\n")


def test_an_internal_key_error_is_not_taken_for_bad_input(tmp_path, monkeypatch):
    # Exit 2 means the run could not execute on its input; a KeyError from the
    # checks is a defect, and surfaces as one.
    def broken(*args, **kwargs):
        raise KeyError("sigma_9")

    monkeypatch.setattr(verify, "run_checks", broken)
    config = cli.RunConfig(scenario="flat_torus", checks=["reeb"], output=str(tmp_path / "x.json"))
    with pytest.raises(KeyError, match="sigma_9"):
        cli.run(config)


def _run_catalog_counting_builds(monkeypatch):
    """``scripts/run_catalog.py`` as a module, and the list of scenario names it builds from here on."""
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
    return run_catalog, built


def test_run_catalog_builds_each_scenario_once(tmp_path, monkeypatch):
    run_catalog, built = _run_catalog_counting_builds(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run_catalog.py", "--names", "flat_torus", "--outdir", str(tmp_path)])
    assert run_catalog.main() == 0
    assert built == ["flat_torus"]
    assert json.loads((tmp_path / "flat_torus.json").read_text())["scenario"] == "flat_torus"


# Each maps the test's tmp_path to run_catalog.py arguments that no run can take.
BAD_CATALOG_ARGS = {
    "unknown-name": lambda tmp: ["--names", "flat_torus,nope", "--outdir", str(tmp / "out")],
    "zero-samples": lambda tmp: ["--names", "flat_torus", "--samples", "0", "--outdir", str(tmp / "out")],
    "too-many-samples": lambda tmp: ["--samples", str(cli.MAX_SAMPLES + 1), "--outdir", str(tmp / "out")],
    "samples-not-an-integer": lambda tmp: ["--names", "flat_torus", "--samples", "x", "--outdir", str(tmp / "out")],
    "outdir-is-a-file": lambda tmp: ["--names", "flat_torus", "--outdir", str(tmp / "file")],
    "outdir-under-a-file": lambda tmp: ["--names", "flat_torus", "--outdir", str(tmp / "file" / "out")],
}


@pytest.mark.parametrize("bad", BAD_CATALOG_ARGS.values(), ids=BAD_CATALOG_ARGS)
def test_run_catalog_refuses_bad_arguments_before_building_anything(bad, tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    run_catalog, built = _run_catalog_counting_builds(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run_catalog.py", *bad(tmp_path)])
    assert run_catalog.main() == 2
    out, err = capsys.readouterr()
    assert built == [] and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
        ["--config", lambda tmp: _write_config(tmp, {"scenario": "warped_torus_4", "grid": [], "checks": ["reeb"]})],
        ["--scenario", "flat_torus", "--samples", "-3"],
        ["--scenario", "flat_torus", "--samples", "0"],
        ["--scenario", "flat_torus", "--tolerance", "-1", "--checks", "reeb"],
        ["--scenario", "flat_torus", "--tolerance", "nan", "--checks", "reeb"],
        ["--scenario", "flat_torus", "--tolerance", "", "--checks", "reeb"],
        ["--scenario", "flat_torus", "--tolerance", "x", "--checks", "reeb"],
        ["--scenario", "flat_torus", "--samples", "x"],
        ["--scenario", "flat_torus", "--samples", "1.5"],
        ["--config", lambda tmp: _write_config(tmp, [])],
        ["--config", lambda tmp: _write_config(tmp, {"scenario": {"builder": "warped_torus", "a": {"bogus": 1}}})],
        ["--scenario", "flat_torus", "--checks", "reeb", "--grid", "4,4,4", "--output", lambda tmp: str(tmp / "no" / "r.json")],
        ["--config", lambda tmp: _write_config(tmp, {"scenario": {"builder": "flat_torus", "n": 5}})],
        ["--config", lambda tmp: _write_config(tmp, {"scenario": {"builder": "warped_torus", "m": 7}})],
        ["--config", lambda tmp: _write_config(tmp, {"checks": [1]})],
        ["--config", lambda tmp: _write_config(tmp, {"scenario": {"builder": "flat_torus", "bogus": 1}})],
        ["--config", lambda tmp: _write_config(tmp, {"checks": ""})],
        ["--scenario", "flat_torus", "--samples", "4097"],
        ["--scenario", "flat_torus", "--samples", "1000000000000000"],
        ["--scenario", "warped_torus_4", "--grid", "1024,1024,1024,1024"],
        ["--scenario", "warped_torus_4", "--checks", "closed-form-einstein:1e308"],
        ["--config", lambda tmp: _write_config(
            tmp, {"scenario": {"builder": "flat_torus", "m": 6, "n": 4}, "checks": ["closed-form-einstein:1e200"]}
        )],
        ["--scenario", "flat_torus", "--checks", "reeb:junk"],
        ["--scenario", "flat_torus", "--checks", "codazzi:abc"],
        ["--scenario", "flat_torus", "--checks", "pointwise:1"],
        ["--scenario", "flat_torus", "--checks", "closed-form-c:5"],
        ["--scenario", "flat_torus", "--checks", "main:1" + "0" * 400],
        ["--config", lambda tmp: _write_config(
            tmp, {"scenario": {"builder": "warped_torus", "a": {"const": 1e-300}}, "checks": ["reeb"]}
        )],
        ["--config", lambda tmp: _write_config(
            tmp, {"scenario": {"builder": "warped_torus", "a": {"const": 1e200}}, "checks": ["reeb"]}
        )],
        ["--config", lambda tmp: _write_config(
            tmp, {"scenario": {"builder": "tilted_torus", "theta_amplitude": 1e160}, "checks": ["codazzi"]}
        )],
        ["--config", lambda tmp: _write_config(
            tmp, {"scenario": {"builder": "warped_torus", "m": 3, "b": {"const": -5}}, "checks": ["reeb", "main:0"]}
        )],
        ["--config", lambda tmp: _write_config(
            tmp, {"scenario": {"builder": "tilted_torus", "theta_amplitude": 1e160}, "checks": ["sigma2-image"]}
        )],
    ],
    ids=[
        "grid-too-short",
        "grid-zero-count",
        "grid-not-integer",
        "grid-empty",
        "samples-negative",
        "samples-zero",
        "tolerance-negative",
        "tolerance-nan",
        "tolerance-empty",
        "tolerance-not-a-number",
        "samples-not-a-number",
        "samples-not-an-integer",
        "config-not-object",
        "profile-unknown-key",
        "output-unwritable",
        "builder-n-out-of-range",
        "builder-m-out-of-range",
        "checks-entry-not-string",
        "builder-unknown-key",
        "checks-empty-string",
        "samples-over-one-chunk",
        "samples-huge",
        "grid-over-node-limit",
        "closed-form-both-sides-overflow",
        "closed-form-power-overflows",
        "argument-on-reeb",
        "argument-on-codazzi",
        "argument-on-pointwise",
        "argument-on-closed-form-c",
        "order-too-large-for-a-float",
        "metric-underflows-to-singular",
        "metric-overflows-to-singular",
        "codazzi-residual-not-finite",
        "warp-b-given-for-m-3",
        "sigma2-image-samples-not-finite",
    ],
)
def test_main_entry_rejects_bad_input_with_exit_2(args, tmp_path, capsys):
    argv = ["run", "--output", str(tmp_path / "r.json")]
    argv += [a(tmp_path) if callable(a) else a for a in args]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "r.json").exists()


def test_an_invariant_frame_scenario_ignores_any_grid(tmp_path):
    # Its rule is one weighted node; the reports equal those without a grid, an empty one included.
    reports = []
    for grid in (None, [], [4, 4, 4]):
        payload = {"scenario": "heisenberg", "checks": ["reeb", "leaf:0"], "tolerance": 1e-7}
        config = _write_config(tmp_path, payload if grid is None else {**payload, "grid": grid})
        assert cli.main(["run", "--config", config, "--output", str(tmp_path / "r.json")]) == 0
        reports.append([{k: v for k, v in rep.items() if k != "wall_time_s"} for rep in json.loads((tmp_path / "r.json").read_text())["reports"]])
    assert reports[1] == reports[0] and reports[2] == reports[0]


OVERFLOWING_TILT = {"builder": "tilted_torus", "theta_amplitude": 1e160}


@pytest.mark.parametrize(
    "scenario, check",
    [(OVERFLOWING_TILT, check) for check in ("codazzi", "pointwise", "main:1", "leaf:0", "sigma2-image")]
    + [("warped_torus_4", "closed-form-einstein:1e308")],
)
def test_overflow_prints_one_error_line_and_no_warning(scenario, check, tmp_path, capsys):
    config = _write_config(tmp_path, {"scenario": scenario, "checks": [check]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "--config", config, "--output", str(tmp_path / "r.json")]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_warped_torus_with_equal_profile_specs_is_umbilical(tmp_path):
    # two profile objects built from one spec: umbilicity is measured, not declared
    profile = {"const": 3, "cos1": 0.5}
    spec = {"builder": "warped_torus", "a": profile, "b": dict(profile)}
    assert cli._build_scenario(spec).flags.umbilical
    config = _write_config(tmp_path, {"scenario": spec, "checks": ["reeb", "main:1"]})
    assert cli.main(["run", "--config", config, "--output", str(tmp_path / "r.json")]) == 0


def test_failed_report_write_leaves_no_temporary_file(tmp_path, capsys):
    out = tmp_path / "sub"
    out.mkdir()
    assert cli.main(["run", "--scenario", "flat_torus", "--checks", "reeb", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write report")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_run_nonfinite_sample_exits_2(tmp_path, monkeypatch, capsys):
    real_terms = verify._main_terms

    def poisoned(geom, r):
        return {**real_terms(geom, r), "sigma": np.full(geom.batch, np.nan)}

    monkeypatch.setattr(verify, "_main_terms", poisoned)
    argv = ["run", "--scenario", "flat_torus", "--checks", "main:0", "--grid", "4,4,4", "--tolerance", "1e-7"]
    assert cli.main(argv + ["--output", str(tmp_path / "r.json")]) == 2
    assert "non-finite sigma sample" in capsys.readouterr().err


# Junk of every JSON type; numbers stay small so that a junk value that
# happens to be valid (a grid count, a sample count, m or n) stays cheap.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
CHECK_NAMES = [
    *verify.CHECKS, *(f"{name}:{check.arg[1]}" for name, check in verify.CHECKS.items() if check.ordered),
    "main:1", "closed-form-einstein:2", "sigma2-image:x", "reeb:junk", "closed-form-einstein:1e308",
]
FUZZED_CONFIG = st.fixed_dictionaries(
    {
        "scenario": st.sampled_from(["flat_torus", "heisenberg"])
        | st.fixed_dictionaries(
            {"builder": st.just("flat_torus")}, optional={"m": st.integers(3, 4) | JUNK, "n": st.integers(1, 2) | JUNK}
        )
        | JUNK,
        "checks": st.lists(st.sampled_from(CHECK_NAMES), max_size=3) | JUNK,
        "grid": st.none() | st.lists(st.integers(1, 4), min_size=3, max_size=3) | JUNK,
        "tolerance": st.none() | st.floats(1e-12, 1.0) | JUNK,
        # report paths are placeholders resolved inside a temporary directory,
        # so that no junk string becomes a file in the working directory
        "output": st.sampled_from(["<tmp>", "<missing-dir>", ""]) | JUNK.filter(lambda v: not isinstance(v, str)),
        "format": st.sampled_from(["table", "structured"]) | JUNK,
        "samples": st.integers(1, 8) | JUNK,
    }
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(FUZZED_CONFIG)
def test_main_exit_contract_holds_for_fuzzed_configs(config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        placeholders = {"<tmp>": str(tmp / "r.json"), "<missing-dir>": str(tmp / "no" / "r.json")}
        if isinstance(config["output"], str):
            config["output"] = placeholders.get(config["output"], config["output"])
        path = tmp / "cfg.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            status = cli.main(["run", "--config", str(path)])
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# A first-harmonic warp const + cos1 cos z + sin1 sin z with const >= 1.5 and
# |cos1|, |sin1| <= 1 stays above 1.5 - sqrt(2) > 0.
WARP = st.fixed_dictionaries(
    {"const": st.floats(1.5, 3.0), "cos1": st.floats(-1.0, 1.0), "sin1": st.floats(-1.0, 1.0)}
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([3, 4]), WARP, WARP)
def test_no_inline_warped_torus_fails_reeb_or_main(m, a, b):
    # every warped torus is harmonic and admissible, so the integral formulas hold on each
    checks = ["reeb", *(f"main:{r}" for r in range(m - 2))]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.json"
        scenario = {"builder": "warped_torus", "m": m, "a": a, **({"b": b} if m == 4 else {})}  # b warps m = 4 only
        config = {"scenario": scenario, "checks": checks, "output": str(out)}
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(path)]) == 0
        reports = json.loads(out.read_text())["reports"]
    assert [(rep["formula_id"], rep["verdict"]) for rep in reports] == [(check, "pass") for check in checks]


@pytest.mark.parametrize(
    "scenario_name, checks, calibrations, jet_axes",
    [
        ("warped_torus_4", ["divergence-selftest", "reeb", "main:0", "main:1"], 1, [3]),
        ("flat_torus", ["reeb", "main:0", "closed-form-c"], 1, []),
        ("warped_torus_4", ["main:0", "sigma2-image"], 1, [3]),
        ("warped_torus_4", ["sigma2-image"], 0, [3]),
    ],
    ids=["warped_torus_4-checks0", "flat_torus-checks1", "warped_torus_4-main-sigma2-image", "warped_torus_4-sigma2-image"],
)
def test_run_shares_one_calibration_and_one_geometry_per_chunk(
    scenario_name, checks, calibrations, jet_axes, tmp_path, monkeypatch
):
    # One integrate_terms pass per run carries the calibration's self-test
    # fields (when a report needs the floor), and each distinct node of the
    # grid is one Geometry point, built in the chunk of its first node and
    # none in a chunk without a new one: the warped torus's closures read z
    # alone (jet_axes), the flat torus's nothing.
    from folsub import foliation, quadrature

    scenario = scenarios.build(scenario_name)
    monkeypatch.setattr(quadrature, "CHUNK", 512)  # several chunks on the warped grid
    passes, geometry_points = [], []
    real_integrate, real_init = verify._integrate_terms, foliation.Geometry.__init__

    def recording_integrate(scenario_, grid, term_fn, density=None):
        keys = set()
        passes.append(keys)

        def recorded(pts):
            out = term_fn(pts)
            keys.update(out)
            return out

        return real_integrate(scenario_, grid, recorded, density)

    def counting_init(self, fol, points, *args, **kwargs):
        geometry_points.append(len(points))
        real_init(self, fol, points, *args, **kwargs)

    monkeypatch.setattr(verify, "_integrate_terms", recording_integrate)
    monkeypatch.setattr(foliation.Geometry, "__init__", counting_init)
    config = cli.RunConfig(scenario=scenario_name, checks=checks, output=str(tmp_path / "r.json"))
    status, reports = cli.run(config, scenario=scenario)
    assert status == 0 and [r.formula_id for r in reports] == checks
    grid = quadrature.grid_for(scenario.manifold, scenario.default_grid)
    chunks = [grid.nodes[start : start + 512] for start in range(0, grid.count, 512)]
    assert len(passes) == 1
    selftest = {key for key in passes[0] if key[:1] == ("divergence-selftest",)}
    assert len(selftest) == calibrations * verify.SELFTEST_FIELDS
    seen, new_per_chunk = set(), []
    for chunk in chunks:
        new = {tuple(node[jet_axes]) for node in chunk} - seen
        seen |= new
        new_per_chunk.append(len(new))
    assert geometry_points == [count for count in new_per_chunk if count]
    monkeypatch.setattr(verify, "_integrate_terms", real_integrate)
    if calibrations:
        tol, floor = verify.calibrate_tolerance(scenario, grid)
        for rep in reports:
            if rep.formula_id == "divergence-selftest":
                assert rep.residual == floor
            elif rep.formula_id != "sigma2-image":
                assert (rep.tolerance, rep.grid["selftest_floor"]) == (tol, floor)


def test_run_calls_every_seeded_check_the_benchmark_replaces(warped3, tmp_path, monkeypatch):
    # The benchmark seeds each pass by replacing these functions on the verify
    # module; a run that reached them any other way would run at the default seeds.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses resolve annotations there
    spec.loader.exec_module(workloads)

    called = []

    def recorder(name, real):
        def record(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)

        return record

    for name in workloads.SEEDED_CHECKS:
        monkeypatch.setattr(verify, name, recorder(name, getattr(verify, name)))
    checks = ["pointwise", "codazzi", "trace-identities"]
    config = cli.RunConfig(scenario="warped_torus_3", checks=checks, output=str(tmp_path / "r.json"), samples=5)
    status, _ = cli.run(config, scenario=warped3)
    assert status == 0
    assert sorted(set(called)) == sorted(workloads.SEEDED_CHECKS)


def test_run_wall_times_add_up_to_at_most_the_run(warped4, tmp_path):
    checks = ["divergence-selftest", "reeb", "pointwise", "main:0", "main:1", "closed-form-c", "sigma2-image"]
    config = cli.RunConfig(scenario="warped_torus_4", checks=checks, output=str(tmp_path / "r.json"), samples=5)
    t0 = time.perf_counter()
    _, reports = cli.run(config, scenario=warped4)
    elapsed = time.perf_counter() - t0
    assert sum(r.wall_time_s for r in reports) <= elapsed
