"""The benchmark's tracer must find every boundary it wraps in the folsub modules.

``perfbench/tracing.py`` patches functions and methods by name; a rename in
``src/`` would otherwise surface only in traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

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
