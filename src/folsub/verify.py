"""Integral-formula and pointwise-identity verification with residual reports.

Every check produces a :class:`VerificationReport` carrying the residual,
the tolerance it was judged against, a verdict, the scenario's measured
admissibility residual, per-term integrals, grid metadata and wall time.
All of them are built by :func:`make_report`, which owns the one verdict rule:

1. a missing hypothesis (harmonicity, a declared curvature constant, a leaf
   dimension) reports "precondition-violation";
2. a formula whose derivation uses the adapted-frame pointwise identity, on a
   scenario whose admissibility residual exceeds ``ADMISSIBLE_TOL``, reports
   "inadmissible" with the residual still recorded, because a hypothesis
   violation is not a defect;
3. a diagnostic judged against an infinite tolerance reports "info";
4. otherwise the report passes when ``|residual| <= tolerance`` and every
   exact identity the check carries holds, and fails when not.

A non-finite integral sample, sigma_2 scan sample or residual raises
:class:`EvaluationError` instead of turning into a verdict.

Integral tolerances are calibrated per scenario and grid: the divergence
theorem applied to seeded random smooth fields measures the truncation floor
of the differentiation-plus-quadrature stack, and the tolerance is
max(1e-7, 10x that floor).  The fields' components are random trigonometric
polynomials (:func:`random_trig_scalar`); :func:`trig_scalars` evaluates
each sine factor once per distinct coordinate value of its axis, to first
order: the divergence theorem and the divergence split read no more.

The check layer lives here: ``CHECKS`` names every check with the type and
default of its argument, :func:`parse_check` is the one parser of a check
name, and :func:`run_checks` runs a list of them.  The grid checks
(``GRID_CHECKS``) of one (scenario, grid) come from one
:func:`verify_grid_checks` pass: one ``integrate_terms`` reduction whose
integrand carries the calibration's self-test fields (only when a report
needs the floor), every requested integrand and the sigma_2 scan.  Each
chunk of that pass, and each chunk of a ``leaf:r`` integral over a closed
leaf, builds one ``Geometry`` on its distinct nodes
(:func:`foliation.distinct_nodes`) and gives every node its group's samples,
so the reductions see the same per-node samples as an evaluation on every
node.  A grid carries the plan of its passes (:func:`grid_plan`): the node
groups, the volume density and the calibration floor, computed once per
(foliation, grid object), so the checks of one grid share them across
calls.  The ``leaf:r`` checks of a run share one integral over the leaf
grid (:func:`verify_leaf_checks`), which takes the run grid's counts on the
leaf's axes.  The sampled checks draw seeded random points and build one
``Geometry`` on them (``_sampled``), at order 1 for the first-order
identities (``div-split``, ``leafdiv-normal``).  Time that reports share is
charged to the first of them, so a run's wall times add up to at most its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from . import jets, newton, quadrature
from .errors import ConfigError, EvaluationError
from .foliation import FoliationStructure, Geometry, distinct_nodes
from .manifolds import Connection, InvariantFrameManifold, divergence_jets
from .quadrature import QuadratureGrid, grid_for, integrate_terms, leaf_density, leaf_grid
from .quadrature import integrate, require_finite  # integrate: wrapped by perfbench/tracing.py
from .scenarios import ADMISSIBLE_TOL

INTEGRAL_FLOOR = 1e-7
DIFFERENTIAL_TOL = 1e-8
FIRST_ORDER_TOL = 1e-9
ALGEBRAIC_TOL = 1e-11
TRIG_MODES = 2  # modes of each random test scalar
SELFTEST_SEED, SELFTEST_FIELDS = 1123, 3  # the calibration's random fields

# Every check a run can name, with the type and default of the argument it
# takes after a colon, or None when it takes none: "main:r" and "leaf:r" an
# order r in 0..n-1, "closed-form-einstein:C" the Einstein constant and
# "sigma2-image:c" the constant compared against the sigma_2 range.
CHECKS = {
    "reeb": None, "main": (int, 0), "leaf": (int, 0), "pointwise": None, "codazzi": None,
    "trace-identities": None, "closed-form-c": None, "closed-form-einstein": (float, 1.0),
    "umbilical": None, "divergence-selftest": None, "sigma2-image": (float, 0.0),
}
# The checks that one grid pass builds (verify_grid_checks).
GRID_CHECKS = ("divergence-selftest", "reeb", "main", "closed-form-c", "sigma2-image")


@dataclass
class VerificationReport:
    formula_id: str
    residual: float
    tolerance: float
    verdict: str
    admissibility_max: float
    grid: dict = field(default_factory=dict)
    terms: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def make_report(
    formula_id: str,
    residual: float,
    tolerance: float,
    t0: float,
    scenario=None,
    grid: QuadratureGrid | None = None,
    *,
    terms: dict | None = None,
    preconditions_ok: bool = True,
    requires_admissible: bool = False,
    exact: bool = True,
    **meta,
) -> VerificationReport:
    """Build a report: verdict, admissibility, grid metadata and wall time.

    ``t0`` is the ``perf_counter`` reading at the start of the check.  The
    grid metadata holds the scenario name, the node layout of ``grid`` when
    one was integrated over, and ``meta``.  Without a scenario the check is
    scenario-independent and its admissibility residual is 0.  A non-finite
    residual raises :class:`EvaluationError`: no verdict can be read from it.
    """
    if not math.isfinite(residual):
        raise EvaluationError(f"{formula_id} residual is not finite: {residual}")
    admissibility_max = 0.0 if scenario is None else scenario.residuals["admissibility_max"]
    if not preconditions_ok:
        verdict = "precondition-violation"
    elif requires_admissible and admissibility_max > ADMISSIBLE_TOL:
        verdict = "inadmissible"
    elif math.isinf(tolerance):
        verdict = "info"
    else:
        verdict = "pass" if abs(residual) <= tolerance and exact else "fail"
    info = {} if scenario is None else {"scenario": scenario.name}
    if grid is not None:
        info.update(axes=list(grid.axes), points=grid.count)
    info.update(meta)
    return VerificationReport(
        formula_id=formula_id,
        residual=residual,
        tolerance=tolerance,
        verdict=verdict,
        admissibility_max=admissibility_max,
        grid=info,
        terms=terms or {},
        wall_time_s=time.perf_counter() - t0,
    )


def parse_check(name: str, n: int | None = None) -> tuple[str, int | float | None]:
    """``(check, argument)`` of a check name, "check" or "check:argument".

    The argument is the table's default when the name gives none, and None
    for a check that takes none.  Raises :class:`ConfigError` for an unknown
    check, an argument on a check that takes none, an argument that is not a
    finite number of its type and, given the leaf dimension ``n``, an order
    outside 0..n-1.
    """
    base, sep, text = name.partition(":")
    if base not in CHECKS:
        raise ConfigError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    kind, arg = CHECKS[base] or (None, None)
    if sep and kind is None:
        raise ConfigError(f"check {base!r} takes no argument, not {text!r}")
    if sep:
        try:
            arg = kind(text)
        except ValueError:
            arg = None
        if arg is None or kind is float and not math.isfinite(arg):
            raise ConfigError(f"check {name!r} needs {'an integer order' if kind is int else 'a finite number'}")
    if kind is int and n is not None:
        _check_order(arg, n, f"check {name!r}")
    return base, arg


def _check_order(r: int, n: int, what: str) -> None:
    if not 0 <= r <= n - 1:
        raise ConfigError(f"{what}: order {r} outside 0..{n - 1}")


def _grid(scenario, grid=None) -> QuadratureGrid:
    """``grid`` as a quadrature grid: kept as is, built from per-axis counts, or the default."""
    if isinstance(grid, QuadratureGrid):
        return grid
    return grid_for(scenario.manifold, grid or scenario.default_grid)


# -- random smooth test fields ---------------------------------------------------


def random_trig_scalar(manifold, rng: np.random.Generator):
    """Draw a random trigonometric polynomial of ``TRIG_MODES`` modes, periodic on the chart.

    It is returned as data for :func:`trig_scalars`: a tuple of modes
    ``(amplitude, factors)`` with one factor ``(axis, k * 2 pi / L, phase)``,
    standing for sin(x_axis * k * 2 pi / L + phase), per axis whose wave
    number k (drawn from -2..2) is nonzero, in axis order.  On an
    invariant-frame manifold the scalar is a random constant, a float.
    """
    if isinstance(manifold, InvariantFrameManifold):
        return float(rng.uniform(-1.0, 1.0))
    m = manifold.dim
    freqs = [2.0 * np.pi / L for L in manifold.periods]
    modes = []
    for _ in range(TRIG_MODES):
        amp, ks, phases = float(rng.uniform(-1.0, 1.0)), rng.integers(-2, 3, m), rng.uniform(0.0, 2.0 * np.pi, m)
        modes.append((amp, tuple((i, ks[i] * freqs[i], phases[i]) for i in range(m) if ks[i] != 0)))
    return tuple(modes)


def trig_scalars(scalars, coords) -> list:
    """The random trig scalars ``scalars`` (:func:`random_trig_scalar`) at the seeds ``coords``.

    ``coords`` are coordinate seeds (:func:`jets.variables`) on any batch;
    only their values are read.  Each axis's distinct coordinate values are
    found once per call; every sine factor, with its derivative along its
    own axis, is evaluated on those values only and gathered back to the
    points.  A mode's product carries only the gradient columns its factors
    touch, and the modes are summed in order, so every entry has the bits
    that scalar ``jets.sin`` lifts and ``Jet`` products give it at order 1,
    except that an untouched gradient entry is always +0.0.  A scalar
    without a non-constant mode comes back as a float, any other as an
    order-1 ``Jet``, whose products drop to order 1.
    """
    m, shape = len(coords), coords[0].value.shape
    tables = {}

    def factor(axis, rate, phase, scale=1.0):
        """``scale`` times sin(x rate + phase) and its derivative along ``axis``, at every point."""
        if axis not in tables:
            u, inv = np.unique(coords[axis].value, return_inverse=True)
            tables[axis] = (u, inv.reshape(shape))
        u, inv = tables[axis]
        arg = u * rate + phase
        return (np.sin(arg) * scale)[inv], (np.cos(arg) * rate * scale)[inv]

    out = []
    for scalar in scalars:
        if isinstance(scalar, float):
            out.append(scalar)
            continue
        value, grad = 0.0, {}
        for amp, factors in scalar:
            if not factors:
                value = value + amp
                continue
            (i, rate, phase), rest = factors[0], factors[1:]
            v, d = factor(i, rate, phase, amp)
            g = {i: d}
            for i, rate, phase in rest:
                sv, sd = factor(i, rate, phase)
                g = {j: sv * gj for j, gj in g.items()} | {i: v * sd}
                v = v * sv
            value = value + v
            for j, col in g.items():
                grad[j] = grad[j] + col if j in grad else col
        if not grad:
            out.append(value)
            continue
        dv = np.zeros(shape + (m,))
        for j, col in grad.items():
            dv[..., j] = col
        out.append(jets.Jet(value, dv))
    return out


def random_distribution_field(fol, rng: np.random.Generator):
    """Random field inside D with constant normal component.

    Leaf part has random smooth coefficients; the normal part is a constant
    multiple of N, the class of fields the divergence split is stated for.
    """
    man = fol.manifold
    us = [random_trig_scalar(man, rng) for _ in range(fol.n)]
    cN = float(rng.uniform(-1.0, 1.0))

    def fld(coords):
        e = fol.leaf_frame(coords)
        Nc = fol.normal(coords)
        out = [cN * Nc[k] for k in range(man.dim)]
        for uv, ev in zip(trig_scalars(us, coords), e):
            out = [out[k] + uv * ev[k] for k in range(man.dim)]
        return out

    return fld


# -- calibration -------------------------------------------------------------------


def divergence_selftest_residual(scenario, grid: QuadratureGrid, Xs=None) -> float:
    """Worst |integral of Div X| over the fields ``Xs``, by default seeded random smooth ones.

    The fields run through the grid pass's one integrand (:func:`_grid_pass`),
    one key each: they share the seeds and the density of every chunk, and
    take the connection from its geometry on the distinct nodes.  The
    default fields' residual is the calibration floor, read from the grid's
    plan when a pass already measured it (:func:`_calibrated_pass`); the
    floor of ``Xs`` is measured every time and never stored.
    """
    if Xs is None:
        return _calibrated_pass(scenario, grid)[2]
    return _selftest_floor(_grid_pass(scenario, grid, (), fields=lambda coords: [X(coords) for X in Xs])[0])


def calibrate_tolerance(scenario, grid: QuadratureGrid) -> tuple[float, float]:
    floor = divergence_selftest_residual(scenario, grid)
    return _tolerance(floor), floor


def _tolerance(floor: float) -> float:
    return max(INTEGRAL_FLOOR, 10.0 * floor)


def _selftest_fields(manifold):
    """The calibration's ``SELFTEST_FIELDS`` seeded random ambient fields, as one function of the seeds.

    Their components are random trig scalars, all evaluated by one
    :func:`trig_scalars` call per block of points.
    """
    rng = np.random.default_rng(SELFTEST_SEED)
    m = manifold.dim
    scalars = [random_trig_scalar(manifold, rng) for _ in range(SELFTEST_FIELDS * m)]

    def fields(coords):
        comps = trig_scalars(scalars, coords)
        return [comps[i : i + m] for i in range(0, len(comps), m)]

    return fields


def _selftest_floor(integrals: dict) -> float:
    """Worst |integral of Div X| among the self-test keys of a grid pass."""
    return max((abs(v) for key, v in integrals.items() if key[:1] == ("divergence-selftest",)), default=0.0)


def verify_divergence_theorem(scenario, X_field=None, grid=None, tolerance=None) -> VerificationReport:
    """Self-test: the divergence of a smooth field integrates to zero.

    Without ``X_field`` the fields are the calibration's seeded random ones
    (:func:`verify_grid_checks`).
    """
    if X_field is None:
        return verify_grid_checks(scenario, ["divergence-selftest"], grid, tolerance)[0]
    t0 = time.perf_counter()
    grid = _grid(scenario, grid)
    residual = divergence_selftest_residual(scenario, grid, [X_field])
    tol = tolerance if tolerance is not None else FIRST_ORDER_TOL
    return make_report("divergence-selftest", residual, tol, t0, scenario, grid)


# -- integral formulas ----------------------------------------------------------------


def _main_terms(geom, r: int) -> dict:
    """Pointwise terms of the main integral formula, plus diagnostics."""
    out = {"sigma": (r + 2) * geom.sigma.value[..., r + 2]}
    # The formula's R^P terms, and the same traces with the Riemann tensor
    # substituted.  The curvature tensors come before T_r, so the Newton
    # transformations are not held across the curvature evaluation, the peak
    # of memory use.
    operators = (("", geom.RP), ("_riemannian", geom.R))
    Tr, zl = geom.T[r].value, geom.Z_leaf.value
    for suffix, tensor in operators:
        out["normal_curvature" + suffix] = np.einsum(
            "...ik,...ki->...", Tr, geom._operator_matrix(tensor, geom.N.value)
        )
        out["z_curvature" + suffix] = geom.newton_curvature_trace(r, zl, tensor)
    TZ = np.einsum("...ij,...j->...i", Tr, zl)
    TZamb = np.einsum("...i,...im->...m", TZ, geom.e.value)
    out["trz_hperp"] = np.einsum("...m,...mk,...k->...", TZamb, geom.g.value, geom.Hperp.value)
    out["z_norm_sq"] = np.einsum("...i,...i->...", zl, zl)
    return out


def _integrate_terms(scenario, grid: QuadratureGrid, term_fn, density=None) -> dict:
    """:func:`quadrature.integrate_terms` over the scenario's manifold.

    Kept under this name and signature because ``perfbench/tracing.py``
    wraps it to time the reduction.
    """
    return integrate_terms(scenario.manifold, term_fn, grid, density)


def verify_reeb(scenario, grid=None, tolerance=None) -> VerificationReport:
    """Total mean curvature vanishes when the orthogonal distribution is harmonic."""
    return verify_grid_checks(scenario, ["reeb"], grid, tolerance)[0]


def verify_main(scenario, r: int, grid=None, tolerance=None) -> VerificationReport:
    """Closed-manifold integral formula at order r, with per-term integrals."""
    return verify_grid_checks(scenario, [f"main:{r}"], grid, tolerance)[0]


def verify_leaf(scenario, r: int, leaf=None, grid_axes=None, tolerance=None) -> VerificationReport:
    """Compact-leaf integral formula at order r over a declared closed leaf (:func:`verify_leaf_checks`)."""
    return verify_leaf_checks(scenario, [r], leaf, grid_axes, tolerance)[0]


def verify_leaf_checks(scenario, orders, leaf=None, grid_axes=None, tolerance=None) -> list[VerificationReport]:
    """Reports of the compact-leaf formula at each order in ``orders``, from one integral over the leaf grid.

    Each chunk of the leaf grid builds one ``Geometry(order=2)`` on its
    distinct nodes (:func:`foliation.distinct_nodes`) and emits one key
    ``("leaf:r", "integrand")`` per distinct order.  One report comes back
    per entry of ``orders``, in that order; the pass's time is charged to
    the first, as in :func:`verify_grid_checks`.
    """
    t0 = time.perf_counter()
    for r in orders:
        _check_order(r, scenario.n, scenario.name)
    lf = leaf if leaf is not None and not isinstance(leaf, str) else scenario.leaf(leaf)
    man = scenario.manifold
    lgrid = leaf_grid(man, lf, grid_axes or tuple(scenario.default_grid[ax] for ax in lf.axes))
    tol = tolerance if tolerance is not None else INTEGRAL_FLOOR

    def terms(pts):
        first, group = distinct_nodes(scenario.fol, pts, order=2)
        geom = Geometry(scenario.fol, pts[first], order=2)
        return {(f"leaf:{r}", "integrand"): geom.leaf_formula_integrand(r)[group] for r in sorted(set(orders))}

    integrals = _integrate_terms(scenario, lgrid, terms, lambda pts: leaf_density(man, lf, pts))
    reports = []
    for r in orders:
        reports.append(make_report(
            f"leaf:{r}", integrals[(f"leaf:{r}", "integrand")], tol, t0, scenario, lgrid,
            preconditions_ok=scenario.flags.harmonic_perp,
            requires_admissible=True,
            leaf=lf.name,
        ))
        t0 = time.perf_counter()
    return reports


def verify_closed_form_c(scenario, c: float | None = None, grid=None, tolerance=None) -> VerificationReport:
    """Constant-curvature reduction: recursion and closed form for sigma_r totals."""
    return verify_grid_checks(scenario, ["closed-form-c"], grid, tolerance, c)[0]


# -- one pass over a grid for every integral formula ------------------------------------


@dataclass(eq=False)
class GridPlan:
    """What every grid pass of ``fol`` over one grid reads and no check changes.

    Per chunk of ``chunk`` nodes (:func:`quadrature.chunks`): ``groups``
    holds ``(first, group)`` from :func:`foliation.distinct_nodes` at order
    1 and ``density`` the volume density.  ``floor`` is the calibration
    floor once a pass has measured it.  It costs 16 B per node, an intp
    group and a float64 density.
    """

    fol: FoliationStructure
    chunk: int
    groups: list
    density: list
    floor: float | None = None


def grid_plan(fol: FoliationStructure, grid: QuadratureGrid) -> GridPlan:
    """The plan ``grid`` holds for ``fol``, built over its chunks when it holds none for the current ``CHUNK``.

    The plan lives in ``grid.plans`` and dies with the grid; a plan built at
    another ``quadrature.CHUNK`` is replaced.  Its values are pure functions
    of the foliation and the grid's read-only nodes, so every pass that
    reads them sees what it would compute itself.
    """
    for plan in grid.plans:
        if plan.fol is fol and plan.chunk == quadrature.CHUNK:
            return plan
    groups, density = [], []
    for pts, _ in quadrature.chunks(grid):
        groups.append(distinct_nodes(fol, pts, order=1))
        density.append(fol.manifold.volume_density(pts))
    plan = GridPlan(fol, quadrature.CHUNK, groups, density)
    grid.plans[:] = [p for p in grid.plans if p.fol is not fol] + [plan]
    return plan


def verify_grid_checks(scenario, checks, grid=None, tolerance=None, c: float | None = None) -> list[VerificationReport]:
    """Reports of the grid checks ``checks`` on one (scenario, grid), from one pass.

    ``checks`` lists names among ``GRID_CHECKS`` ("main:r", or "main" for
    r = 0; "sigma2-image:c"), in any order; one report comes back per
    entry, in that order.  One :func:`_grid_pass` emits only the requested
    integrands: the calibration's self-test fields, only when a report needs
    the floor (the ``divergence-selftest`` residual is that floor, and
    ``sigma2-image``, a diagnostic, needs none); sigma_1 for ``reeb``;
    sigma_0..sigma_n and the volume for ``closed-form-c``; the main-formula
    terms for each requested r; the extrema of sigma_2 and Ric^P(N, N) for
    ``sigma2-image``.  The floor and the tolerance max(1e-7, 10x floor) are
    those of :func:`calibrate_tolerance`.  ``c`` overrides the scenario's
    curvature constant for ``closed-form-c``.

    The node groups, the density and, once measured, the floor come from
    the grid's plan (:func:`grid_plan`), so a later call on the same grid
    object computes none of them again.

    The time the reports share, the grid pass, is charged once, to the first
    report; each later report's ``wall_time_s`` covers only its own assembly.
    So the wall times of a run never add up to more than the run took.
    """
    t0 = time.perf_counter()
    parsed = [parse_check(name, scenario.n) for name in checks]
    for base, _ in parsed:
        if base not in GRID_CHECKS:
            raise ConfigError(f"{base!r} is not a grid check; known: {', '.join(GRID_CHECKS)}")
    bases = {base for base, _ in parsed}
    orders = sorted({arg for base, arg in parsed if base == "main"})
    grid = _grid(scenario, grid)

    calibrate = "divergence-selftest" in bases or (tolerance is None and bases - {"divergence-selftest", "sigma2-image"})
    integrals, extrema, floor = _calibrated_pass(scenario, grid, bases, orders, calibrate)
    tol = tolerance if tolerance is not None or floor is None else _tolerance(floor)
    selftest_floor = floor if tolerance is None else None
    reports = []
    for base, arg in parsed:
        if base == "divergence-selftest":
            selftest_tol = FIRST_ORDER_TOL if tolerance is None else tolerance
            rep = make_report("divergence-selftest", floor, selftest_tol, t0, scenario, grid)
        elif base == "reeb":
            rep = make_report(
                "reeb", integrals["sigma_1"], tol, t0, scenario, grid,
                terms={"sigma1_integral": integrals["sigma_1"]},
                preconditions_ok=scenario.flags.harmonic_perp,
                selftest_floor=selftest_floor,
            )
        elif base == "main":
            rep = _main_report(scenario, grid, arg, integrals, tol, t0, selftest_floor)
        elif base == "closed-form-c":
            rep = _closed_form_c_report(scenario, grid, integrals, c, tol, t0, selftest_floor)
        else:
            rep = _sigma2_image_report(scenario, grid, extrema, arg, t0)
        reports.append(rep)
        t0 = time.perf_counter()
    return reports


def _calibrated_pass(scenario, grid: QuadratureGrid, bases=(), orders=(), calibrate=True) -> tuple[dict, dict, float | None]:
    """:func:`_grid_pass` of ``bases`` and ``orders``, and the calibration floor when ``calibrate``, else None.

    The floor is the one the grid's plan holds; when it holds none, this
    pass carries the self-test fields and the plan keeps the floor they give.
    """
    plan = grid_plan(scenario.fol, grid)
    fields = _selftest_fields(scenario.manifold) if calibrate and plan.floor is None else None
    integrals, extrema = _grid_pass(scenario, grid, bases, orders, fields)
    if fields is not None:
        plan.floor = _selftest_floor(integrals)
    return integrals, extrema, plan.floor if calibrate else None


def _grid_pass(scenario, grid: QuadratureGrid, bases, orders=(), fields=None) -> tuple[dict, dict]:
    """The integrals of one ``integrate_terms`` pass over ``grid``, and the sigma_2 scan's extrema.

    ``bases`` names the grid checks whose integrands the pass emits (see
    :func:`verify_grid_checks`), ``orders`` the main-formula orders, and
    ``fields``, when given, maps a chunk's order-1 seeds to the self-test's
    ambient fields, whose divergences are keyed
    ``("divergence-selftest", "div_i")``.  Per chunk, one value-only
    ``Geometry(order=1)`` is built on the distinct nodes (the groups of
    :func:`foliation.distinct_nodes`, read with the density from the
    grid's plan, :func:`grid_plan`) and every sample it gives is scattered
    back to its nodes, so the reduction sees the per-node samples in grid
    order.  A pass with nothing to emit makes none.  The self-test fields
    are evaluated at every node's seeds, each trig factor once per distinct
    coordinate value of its axis (:func:`trig_scalars`), with the connection
    scattered from that geometry.  The sigma_2 and Ric^P(N, N) extrema are exact under any
    chunking; a non-finite sample of either raises
    :class:`EvaluationError` naming its first node in grid order.
    """
    fol, man = scenario.fol, scenario.manifold
    sigmas = set()
    if "reeb" in bases:
        sigmas.add(1)
    if "closed-form-c" in bases:
        sigmas.update(range(scenario.n + 1))
    scan = "sigma2-image" in bases
    extrema = {"sigma2_min": np.inf, "sigma2_max": -np.inf, "ricci_p_NN_min": np.inf}
    if fields is None and not (sigmas or orders or scan):
        return {}, extrema
    plan = grid_plan(fol, grid)
    groups, density = iter(plan.groups), iter(plan.density)

    def terms(pts):
        first, group = next(groups)
        geom = Geometry(fol, pts[first], order=1)
        out = {}
        if fields is not None:
            G = geom.gamma.gamma  # without a batch axis on the invariant backend
            gamma = Connection(np.broadcast_to(G, geom.batch + G.shape[-3:])[group])
            coords = man.seed(pts, order=1)
            for i, X in enumerate(fields(coords)):
                out[("divergence-selftest", f"div_{i}")] = divergence_jets(man, coords, gamma, X).value
        out.update({f"sigma_{k}": geom.sigma.value[..., k][group] for k in sorted(sigmas)})
        if "closed-form-c" in bases:
            out["volume"] = np.ones(pts.shape[0])
        for r in orders:
            out.update({(f"main:{r}", key): vals[group] for key, vals in _main_terms(geom, r).items()})
        if scan:
            s2, ric = geom.sigma.value[..., 2][group], geom.ricci_p(geom.N.value)[group]
            require_finite(("sigma2-image", "sigma_2"), s2, pts)
            require_finite(("sigma2-image", "ricci_p_NN"), ric, pts)
            extrema["sigma2_min"] = min(extrema["sigma2_min"], float(np.min(s2)))
            extrema["sigma2_max"] = max(extrema["sigma2_max"], float(np.max(s2)))
            extrema["ricci_p_NN_min"] = min(extrema["ricci_p_NN_min"], float(np.min(ric)))
        return out

    return _integrate_terms(scenario, grid, terms, lambda pts: next(density)), extrema


def _main_report(scenario, grid, r: int, integrals: dict, tol: float, t0: float, selftest_floor) -> VerificationReport:
    term = lambda key: integrals[(f"main:{r}", key)]
    residual = term("sigma") - term("normal_curvature") - term("z_curvature")
    riemannian = term("sigma") - term("normal_curvature_riemannian") - term("z_curvature_riemannian")
    terms = {
        "sigma_term": term("sigma"),
        "normal_curvature_term": term("normal_curvature"),
        "z_curvature_term": term("z_curvature"),
        "riemannian_substituted_residual": riemannian,
        "trz_hperp_coupling": term("trz_hperp"),
        "z_norm_sq_integral": term("z_norm_sq"),
    }
    return make_report(
        f"main:{r}", residual, tol, t0, scenario, grid,
        terms=terms,
        preconditions_ok=scenario.flags.harmonic_perp,
        requires_admissible=True,
        selftest_floor=selftest_floor,
    )


def _closed_form_c_report(scenario, grid, integrals: dict, c, tol: float, t0: float, selftest_floor) -> VerificationReport:
    c = scenario.flags.pcurv_c if c is None else c
    precondition_ok = bool(scenario.flags.satisfies_pcurv_c and c is not None and scenario.flags.harmonic_perp)
    if c is None:
        c = 0.0

    n = scenario.n
    S = np.array([integrals[f"sigma_{r}"] for r in range(n + 1)])
    Sget = lambda k: S[k] if k <= n else 0.0
    recursion = [abs((r + 2) * Sget(r + 2) - c * (n - r) * S[r]) for r in range(n)]
    closed = lambda r: newton.total_curvature_closed_constant(n, r, c, integrals["volume"])
    residual = _closed_form_residual(S, closed, recursion)
    return make_report(
        "closed-form-c", residual, tol, t0, scenario, grid,
        terms={f"total_sigma_{r}": float(S[r]) for r in range(n + 1)},
        preconditions_ok=precondition_ok,
        requires_admissible=True,
        selftest_floor=selftest_floor,
        c=c,
    )


def _sigma2_image_report(scenario, grid, extrema: dict, c: float, t0: float) -> VerificationReport:
    terms = {
        **extrema,
        "interval_witnessed": float(extrema["sigma2_min"] <= 0.0 < c < extrema["sigma2_max"]),
        "ricci_bound_holds": float(extrema["ricci_p_NN_min"] >= 2.0 * c),
    }
    return make_report("sigma2-image", 0.0, np.inf, t0, scenario, grid, terms=terms, c=c)


def _closed_form_residual(S, closed, recursion=()) -> float:
    """Largest of the ``recursion`` deviations, |S_r| over odd r and, for even n, |S_r - closed(r)| over even r.

    A total or closed form that overflows raises :class:`EvaluationError`
    instead of becoming a NaN that ``max`` would pass over.
    """
    n = len(S) - 1
    try:
        devs = [*recursion, *(abs(S[r]) for r in range(1, n + 1, 2))]
        if n % 2 == 0:
            devs += [abs(S[r] - closed(r)) for r in range(0, n + 1, 2)]
    except OverflowError as exc:
        raise EvaluationError(f"closed form overflows: {exc}") from exc
    if not all(map(math.isfinite, devs)):
        raise EvaluationError("a total curvature or its closed form is not finite")
    return max(devs, default=0.0)


def verify_closed_form_einstein(n: int, C: float, vol: float, tolerance: float = ALGEBRAIC_TOL) -> VerificationReport:
    """Umbilical Einstein-type reduction: recurrence vs closed form, exact coefficients."""
    t0 = time.perf_counter()
    S = newton.total_curvature_recursion_einstein(n, C, vol)
    residual = _closed_form_residual(S, lambda r: newton.total_curvature_closed_einstein(n, r, C, vol))

    coeff_exact = all(
        newton.umbilical_coefficient_sum(n, r) == newton.umbilical_coefficient(n, r)
        for r in range(n + 1)
    )
    rng = np.random.default_rng(99)
    for _ in range(16):
        H = float(rng.uniform(-1.0, 1.0))
        A = H * np.eye(n)
        sig = newton.sigma_values(A)
        for r, Tr in enumerate(newton.newton_transforms(A, sig)):
            want = ((n - r) / n) * float(sig[r]) * np.eye(n)
            residual = max(residual, float(np.max(np.abs(Tr - want))))
    return make_report(
        "closed-form-einstein", residual, tolerance, t0,
        terms={"coefficients_exact": float(coeff_exact)},
        exact=coeff_exact,
        n=n, C=C, vol=vol,
    )


def umbilical_reduction_residual(n: int, r: int, H: float, ric_nn: float, ric_zn: float) -> float:
    """Pointwise agreement of the general and umbilical-display integrands."""
    if n < 2 or not 0 <= r <= n - 1:
        raise ValueError("need n >= 2 and 0 <= r <= n-1")
    lhs = newton.umbilical_main_integrand(n, r, H, ric_nn, ric_zn)
    rhs = newton.umbilical_reduced_integrand(n, r, H, ric_nn, ric_zn)
    return abs(lhs - rhs / newton.umbilical_common_factor(n, r))


def verify_umbilical_reduction(samples: int = 1000, seed: int = 4242, tolerance: float = ALGEBRAIC_TOL) -> VerificationReport:
    """Randomized umbilical-substitution check plus the exact binomial identity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    residual = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(0, n))
        H, ric_nn, ric_zn = rng.uniform(-1.0, 1.0, 3)
        residual = max(residual, umbilical_reduction_residual(n, r, float(H), float(ric_nn), float(ric_zn)))
    binomial_ok = all(
        newton.binomial_reduction_sum(n, r) == Fraction(comb(n - 2, r - 1))
        for n in range(2, 13)
        for r in range(1, n)
    )
    return make_report(
        "umbilical-reduction", residual, tolerance, t0,
        terms={"binomial_identity_exact": float(binomial_ok)},
        exact=binomial_ok,
        samples=samples,
    )


def sigma2_image_diagnostic(scenario, c: float = 0.0, grid=None) -> VerificationReport:
    """Range of sigma_2 over the grid; diagnostic only, never a gate (:func:`verify_grid_checks`)."""
    return verify_grid_checks(scenario, [f"sigma2-image:{float(c)!r}"], grid)[0]


# -- pointwise identity batteries -------------------------------------------------------


def _sampled(scenario, samples: int, seed: int, *checks, order: int = 2, requires_admissible: bool = False) -> list:
    """Reports of pointwise checks at ``samples`` points drawn with ``seed``, from one geometry.

    Each check is ``(formula_id, tolerance, residuals)``; its residual is the largest absolute
    value in the list ``residuals(geom)``, by ``np.max``, which keeps a NaN for
    :func:`make_report` to reject.  Each report's wall time is that of its own part.
    """
    t0 = time.perf_counter()
    geom = Geometry(scenario.fol, scenario.manifold.random_points(np.random.default_rng(seed), samples), order=order)
    reports = []
    for formula_id, tolerance, residuals in checks:
        residual = float(np.max([np.max(np.abs(v)) for v in residuals(geom)], initial=0.0))
        reports.append(make_report(
            formula_id, residual, tolerance, t0, scenario, requires_admissible=requires_admissible, samples=samples
        ))
        t0 = time.perf_counter()
    return reports


def check_divergence_split(scenario, samples: int = 50, seed: int = 31) -> VerificationReport:
    """Divergence split for four random D-fields with constant normal component."""
    rng = np.random.default_rng(seed + 1)
    fields = [random_distribution_field(scenario.fol, rng) for _ in range(4)]
    check = ("div-split", FIRST_ORDER_TOL, lambda geom: [geom.divx_residual(X) for X in fields])
    return _sampled(scenario, samples, seed, check, order=1)[0]


def check_leaf_divergence_of_normal(scenario, samples: int = 50, seed: int = 37) -> VerificationReport:
    """Leafwise divergence of N equals minus the total mean curvature."""
    check = ("leafdiv-normal", FIRST_ORDER_TOL, lambda geom: [geom.div_F(geom.N) + geom.sigma.value[..., 1]])
    return _sampled(scenario, samples, seed, check, order=1)[0]


def check_newton_div_agreement(scenario, r: int, samples: int = 50, seed: int = 41) -> VerificationReport:
    """Direct jet differentiation of T_r vs the inductive curvature-trace formula."""
    _check_order(r, scenario.n, scenario.name)
    check = (f"newton-div:{r}", DIFFERENTIAL_TOL, lambda g: [g.div_F_newton_direct(r) - g.div_F_newton_formula(r)])
    return _sampled(scenario, samples, seed, check)[0]


def check_adapted_identity(scenario, samples: int = 50, seed: int = 43) -> VerificationReport:
    """Pointwise normal-derivative identity; exact only where admissible."""
    check = ("adapted-identity", DIFFERENTIAL_TOL, lambda geom: [geom.adapted_identity_residual()])
    return _sampled(scenario, samples, seed, check, requires_admissible=True)[0]


def check_newton_z_divergence(scenario, r: int, samples: int = 50, seed: int = 47) -> VerificationReport:
    """Leafwise divergence identity for T_r Z; exact only where admissible."""
    _check_order(r, scenario.n, scenario.name)
    check = (f"newton-z-div:{r}", DIFFERENTIAL_TOL, lambda geom: [geom.newton_z_divergence_residual(r)])
    return _sampled(scenario, samples, seed, check, requires_admissible=True)[0]


def check_codazzi(scenario, samples: int = 50, seed: int = 53) -> VerificationReport:
    """Codazzi-type residual over all leaf-frame pairs at random points."""
    pairs = [(i, j) for i in range(scenario.n) for j in range(i + 1, scenario.n)]
    residuals = lambda g: [g.codazzi_residual(g.e[..., i, :], g.e[..., j, :]) for i, j in pairs]
    return _sampled(scenario, samples, seed, ("codazzi", DIFFERENTIAL_TOL, residuals))[0]


def check_trace_identities(scenario, samples: int = 20, seed: int = 59) -> list[VerificationReport]:
    """Algebraic and field-form Newton trace identities at random points, each with its own wall time."""
    rs = range(scenario.n)
    algebraic = ("trace-identities:algebraic", ALGEBRAIC_TOL, lambda g: [g.trace_identities_algebraic(r) for r in rs])
    field_form = ("trace-identities:field", DIFFERENTIAL_TOL, lambda g: [g.trace_identities_field(r) for r in rs])
    return _sampled(scenario, samples, seed, algebraic, field_form)


# -- one runner for every check ----------------------------------------------------------


def run_checks(scenario, checks, grid=None, tolerance=None, samples: int = 50) -> list[VerificationReport]:
    """The reports of the checks named in ``checks``, in that order (``pointwise`` gives 3 + 2n).

    Every name is parsed before anything runs.  The grid checks come from one
    :func:`verify_grid_checks` call, made where the first of them comes, and
    the ``leaf:r`` checks likewise from one :func:`verify_leaf_checks` call.
    A ``grid`` (a quadrature grid or per-axis counts) also sets the ``leaf:r``
    grid: its counts on the leaf's axes.  The sampled checks are looked up by
    module name at each call, so a caller that replaces them on this module
    (as the benchmark's seeding does) reaches them.
    """
    parsed = [parse_check(name, scenario.n) for name in checks]
    grid_names = [name for name, (base, _) in zip(checks, parsed) if base in GRID_CHECKS]
    leaf_orders = [arg for base, arg in parsed if base == "leaf"]
    grid_reports, leaf_reports, reports = None, None, []
    for base, arg in parsed:
        if base in GRID_CHECKS:
            grid_reports = grid_reports or iter(verify_grid_checks(scenario, grid_names, grid, tolerance))
            reports.append(next(grid_reports))
        elif base == "leaf":
            leaf_counts = _leaf_counts(scenario, grid)
            leaf_reports = leaf_reports or iter(verify_leaf_checks(scenario, leaf_orders, None, leaf_counts, tolerance))
            reports.append(next(leaf_reports))
        elif base == "pointwise":
            plain = (check_divergence_split, check_leaf_divergence_of_normal, check_adapted_identity)
            per_order = (check_newton_div_agreement, check_newton_z_divergence)
            reports += [check(scenario, samples) for check in plain]
            reports += [check(scenario, r, samples) for r in range(scenario.n) for check in per_order]
        elif base == "codazzi":
            reports.append(check_codazzi(scenario, samples))
        elif base == "trace-identities":
            reports += check_trace_identities(scenario, min(samples, 20))
        elif base == "closed-form-einstein":
            reports.append(verify_closed_form_einstein(scenario.n, arg, scenario.volume))
        elif scenario.n >= 2:  # umbilical
            reports.append(verify_umbilical_reduction(samples=200))
        else:
            reports.append(make_report(
                "umbilical-reduction", 0.0, ALGEBRAIC_TOL, time.perf_counter(), scenario,
                preconditions_ok=False, reason="needs leaf dimension >= 2",
            ))
    return reports


def _leaf_counts(scenario, grid) -> tuple | None:
    """The counts of ``grid`` (a quadrature grid or a count list) on the first leaf's axes; None without either.

    Counts that are not one positive count per axis raise ``ValueError``, as in :func:`quadrature.grid_for`.
    """
    axes = scenario.leaf().axes  # none on an invariant-frame leaf, one node whatever the counts
    if grid is None or not axes:
        return None
    counts = grid.axes if isinstance(grid, QuadratureGrid) else quadrature._counts(grid, scenario.manifold.dim)
    return tuple(counts[ax] for ax in axes)
