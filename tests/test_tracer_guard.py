"""The benchmark's tracer and workloads must find every name they use in the folsub modules.

``perfbench/tracing.py`` patches functions and methods by name and rewrites
the arguments of some of them (``verify._integrate_terms``, ``integrate``)
by position, and ``perfbench/workloads.py`` calls the checks by name and
moves the ``seed`` default of the sampled ones; a rename or a changed call
shape in ``src/`` would otherwise surface only in benchmark runs, as
``run_failed``.
"""

import importlib
import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path

from folsub import quadrature, scenarios, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
MODULES = ("cli", "distribution", "foliation", "manifolds", "newton", "quadrature", "scenarios", "verify")


def _load(path):
    """The module at ``path``, registered while it runs (its dataclasses look it up)."""
    name = f"folsub_guard_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _load_tracing():
    return _load(TRACING)


def test_workloads_find_the_checks_they_call_and_seed():
    workloads = _load(PERFBENCH / "workloads.py")
    assert workloads.SEEDED_CHECKS
    for name in workloads.SEEDED_CHECKS:
        seed = inspect.signature(getattr(verify, name)).parameters["seed"].default
        assert type(seed) is int, name
    for owner, name in (
        (verify, "verify_reeb"),
        (verify, "verify_main"),
        (verify, "verify_leaf"),
        (quadrature, "grid_for"),
        (scenarios, "build"),
        (scenarios, "catalog_names"),
    ):
        assert callable(getattr(owner, name)), name


def _attributes(owner) -> dict:
    """Identity of every attribute the owner holds."""
    names = vars(owner) if isinstance(owner, type) else dir(owner)
    return {k: id(vars(owner)[k] if isinstance(owner, type) else getattr(owner, k)) for k in names}


def test_tracer_installs_on_every_boundary_and_uninstalls_cleanly():
    mods = {name: importlib.import_module(f"folsub.{name}") for name in MODULES}
    owners = list(mods.values()) + [
        mods["manifolds"].ChartManifold,
        mods["manifolds"].InvariantFrameManifold,
        mods["foliation"].Geometry,
    ]
    before = [_attributes(owner) for owner in owners]
    tracer = _load_tracing().Tracer()
    tracer.install(mods)
    try:
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for (owner, attr, original) in patched:
        current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} not restored"
    assert [_attributes(owner) for owner in owners] == before


def test_traced_reeb_and_leaf_checks_report_what_untraced_ones_do(flat, warped3):
    def reports():
        out = []
        for s in (flat, warped3):
            out += [verify.verify_reeb(s), verify.verify_leaf(s, 0)]
        return [repr(replace(rep, wall_time_s=0.0)) for rep in out]

    mods = {name: importlib.import_module(f"folsub.{name}") for name in MODULES}
    untraced = reports()
    tracer = _load_tracing().Tracer()
    tracer.install(mods)
    try:
        traced = reports()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.names.count("quadrature.reduce") == 4  # one grid pass per check
    assert "quadrature.integrand" in tracer.names


def test_traced_grouped_passes_on_the_doubled_grid_report_what_untraced_ones_do(warped4):
    # Both passes calibrate, so each hands the reduction per-node self-test
    # samples beside grouped ones; a fresh grid per call measures the floor each time.
    axes = tuple(2 * k for k in warped4.default_grid)

    def reports():
        out = [verify.verify_reeb(warped4, axes), verify.verify_main(warped4, 1, axes)]
        return [repr(replace(rep, wall_time_s=0.0)) for rep in out]

    mods = {name: importlib.import_module(f"folsub.{name}") for name in MODULES}
    untraced = reports()
    tracer = _load_tracing().Tracer()
    tracer.install(mods)
    try:
        traced = reports()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.names.count("quadrature.reduce") == 2  # one grid pass per check
    assert tracer.counts["quadrature.nodes"] == 2 * 32768
