"""``jets.opt_einsum`` replays numpy's contraction list bit for bit, and it is the only planned contraction.

The replay test records every (spec, operand shapes) that one catalog battery
of each catalog scenario contracts, as the keys of the plan cache, and holds
the replay on each to ``np.einsum(..., optimize=True)`` by bytes, with
numpy's step kernels and again without them (the fallback).  The source scan
fails on any ``optimize=`` argument in ``src/`` outside ``jets.opt_einsum``,
so a new contraction cannot bring back numpy's per-call path search.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from folsub import jets, verify

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "folsub"
# At most this many plans after one catalog battery of every catalog scenario.
PLAN_BOUND = 200


@pytest.fixture(scope="module")
def battery_plans(catalog):
    """The (spec, shapes) keys that one catalog battery of each catalog scenario plans, in first-use order."""
    saved = dict(jets._PLANS)
    jets._PLANS.clear()
    try:
        for scenario in catalog.values():
            verify.run_checks(scenario, verify.battery(scenario))
        return list(jets._PLANS)
    finally:
        jets._PLANS.clear()
        jets._PLANS.update(saved)


def _operands(shapes, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for shape in shapes]


@pytest.mark.parametrize("kernels", ["numpy", "fallback"])
def test_the_replay_equals_np_einsum_by_bytes_on_every_planned_contraction(battery_plans, kernels, monkeypatch):
    if kernels == "fallback":
        monkeypatch.setattr(jets, "bmm_einsum", None)
        monkeypatch.setattr(jets, "c_einsum", None)
    elif jets.bmm_einsum is None:
        pytest.skip("this numpy has no einsum step kernels to replay with")
    assert battery_plans and len(battery_plans) <= PLAN_BOUND
    for k, (spec, *shapes) in enumerate(battery_plans):
        ops = _operands(shapes, k)
        got, want = jets.opt_einsum(spec, *ops), np.einsum(spec, *ops, optimize=True)
        assert got.shape == want.shape and got.dtype == want.dtype, spec
        assert got.tobytes() == want.tobytes(), (spec, shapes)


def test_the_plan_cache_grows_only_with_new_shapes(monkeypatch):
    monkeypatch.setattr(jets, "_PLANS", {})
    spec = "...ax,...ixy,...jyk->...ijak"
    for seed in range(3):
        jets.opt_einsum(spec, *_operands([(6, 4, 4), (6, 4, 4, 4), (6, 4, 4, 4)], seed))
    assert len(jets._PLANS) == (1 if jets.bmm_einsum is not None else 0)
    jets.opt_einsum(spec, *_operands([(9, 4, 4), (9, 4, 4, 4), (9, 4, 4, 4)], 0))
    assert len(jets._PLANS) == (2 if jets.bmm_einsum is not None else 0)


def planned_contractions_outside_opt_einsum(source: str, module: str) -> list[str]:
    """``module:line`` of every call in ``source`` that passes ``optimize=``, except inside ``jets.opt_einsum``."""
    tree = ast.parse(source)
    allowed = set()
    if module == "jets":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "opt_einsum":
                allowed = {id(n) for n in ast.walk(node)}
    return [
        f"{module}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in allowed
        and any(kw.arg == "optimize" for kw in node.keywords)
    ]


def test_no_contraction_in_src_searches_its_path_outside_opt_einsum():
    found = [
        hit
        for path in sorted(PACKAGE.glob("*.py"))
        for hit in planned_contractions_outside_opt_einsum(path.read_text(), path.stem)
    ]
    assert not found, f"optimize= outside jets.opt_einsum: {found}"


def test_the_scan_finds_a_planned_contraction():
    source = "import numpy as np\n\ndef f(a, b):\n    return np.einsum('ij,jk->ik', a, b, optimize=True)\n"
    assert planned_contractions_outside_opt_einsum(source, "manifolds") == ["manifolds:4"]
    assert planned_contractions_outside_opt_einsum(source.replace("def f", "def opt_einsum"), "jets") == []
