"""The benchmark's tracer must find every boundary it wraps in the folsub modules.

``perfbench/tracing.py`` patches functions and methods by name and rewrites
the arguments of some of them (``verify._integrate_terms``, ``integrate``)
by position; a rename or a changed call shape in ``src/`` would otherwise
surface only in traced benchmark runs.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

from folsub import verify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = ("cli", "distribution", "foliation", "manifolds", "newton", "quadrature", "scenarios", "verify")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("folsub_tracing_guard", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
