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
each sine factor once per distinct coordinate value of its axis, with the
first derivatives its caller reads: every one for the divergence split, and
for the self-test only ∂_k X^k, all that a traced divergence reads
(:func:`manifolds.traced_divergence`).

The check layer lives here: ``CHECKS`` names every check with the type and
default of its argument, :func:`parse_check` is the one parser of a check
name, and :func:`run_checks` runs a list of them.  Every integral formula
goes through one grid pass (:func:`_grid_pass`), one ``integrate_terms``
reduction, and one entry point, :func:`verify_grid_checks`: the grid checks
(``GRID_CHECKS``) of one (scenario, run grid) share one pass over M, whose
integrand carries the calibration's self-test fields (only when a report
needs the floor), every requested integrand and the sigma_2 scan, and one
pass over the scenario's closed leaf for the ``leaf:r`` checks, on the run
grid's counts on the leaf's axes.  A pass builds
``Geometry`` once per distinct node of the whole grid, nodes being
distinct on the coordinates the closures read, and on the weight where
the grid's weights differ (:func:`foliation.distinct_nodes`), in the
chunk where the node first appears, and hands the reduction each
representative's samples once, weighted by the volume density of that
geometry's metric on the axes integrated over, with the count of nodes
they stand for; the reduction's sums have the bits of an evaluation on
every node.  Only the self-test's
divergences are evaluated per node, from each field's values and the
diagonal of its derivative.  A grid carries the plan of its passes
(:func:`grid_plan`): one node grouping per foliation, and the
calibration floor, computed once per grid object, so the checks of one
grid share them across calls.  The sampled checks draw seeded random
points and build one ``Geometry`` on them (``_sampled``), at order 1 for
the first-order identities (``div-split``, ``leafdiv-normal``).  Time that reports share is
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
from .manifolds import InvariantFrameManifold, traced_divergence
from .quadrature import QuadratureGrid, grid_for, integrate_terms, leaf_grid
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
GRID_CHECKS = ("divergence-selftest", "reeb", "main", "leaf", "closed-form-c", "sigma2-image")


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
    """``grid`` as a quadrature grid: kept as is, built from per-axis counts, or the default when None."""
    if isinstance(grid, QuadratureGrid):
        return grid
    return grid_for(scenario.manifold, scenario.default_grid if grid is None else grid)


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


def trig_scalars(scalars, xs, columns) -> list:
    """The random trig scalars ``scalars`` (:func:`random_trig_scalar`) and the gradient columns ``columns`` of each.

    ``xs[i]`` holds the points' coordinate values on axis i, for points on
    any batch, and ``columns[c]`` the axes whose derivative the caller reads
    of scalar c.  Each axis's distinct coordinate values are found once per
    call; every sine factor is evaluated on those values only and gathered
    back to the points, and so is its derivative, only when its axis is
    among those read.  Scalar c comes back as ``(value, grad)``: ``grad``
    maps each axis of ``columns[c]`` that a mode's factor touches to that
    column, and ``value`` is a float when no mode is non-constant, an array
    otherwise.  Each column is the product a mode's factors give it, and the
    modes are summed in order, so every entry has the bits that scalar
    ``jets.sin`` lifts and ``Jet`` products give it at order 1; a column no
    mode touches is identically zero.
    """
    tables = {}

    def table(axis):
        """The distinct values of ``axis``, ascending, and each point's index among them.

        The distinct values are taken from one sort: ``np.unique`` without an
        inverse would hash them instead, and import ``numpy.ma`` to do it.
        """
        if axis not in tables:
            x = np.sort(xs[axis], axis=None)
            u = x[np.concatenate(([True], x[1:] != x[:-1]))]
            tables[axis] = u, np.searchsorted(u, xs[axis])
        return tables[axis]

    out = []
    for scalar, read in zip(scalars, columns, strict=True):
        if isinstance(scalar, float):
            out.append((scalar, {}))
            continue
        value, grad = 0.0, {}
        for amp, factors in scalar:
            if not factors:
                value = value + amp
                continue
            v, g = None, {}
            for i, rate, phase in factors:
                u, inv = table(i)
                arg = u * rate + phase
                scale = amp if v is None else 1.0  # the first factor carries the amplitude
                sv = (np.sin(arg) * scale)[inv]
                g = {j: sv * gj for j, gj in g.items()}
                if i in read:
                    sd = (np.cos(arg) * rate * scale)[inv]
                    g[i] = sd if v is None else v * sd
                v = sv if v is None else v * sv
            value = value + v
            for j, col in g.items():
                grad[j] = grad[j] + col if j in grad else col
        out.append((value, grad))
    return out


def random_distribution_field(fol, rng: np.random.Generator):
    """Random field inside D with constant normal component.

    Leaf part has random smooth coefficients; the normal part is a constant
    multiple of N, the class of fields the divergence split is stated for.
    """
    man = fol.manifold
    us = [random_trig_scalar(man, rng) for _ in range(fol.n)]
    cN = float(rng.uniform(-1.0, 1.0))
    every_column = [tuple(range(man.dim))] * fol.n

    def fld(coords):
        e = fol.leaf_frame(coords)
        Nc = fol.normal(coords)
        out = [cN * Nc[k] for k in range(man.dim)]
        for (uv, grad), ev in zip(trig_scalars(us, [c.value for c in coords], every_column), e):
            if grad:
                uv = jets.Jet(uv, jets.stack_last([grad.get(j, 0.0) for j in range(man.dim)]))
            out = [out[k] + uv * ev[k] for k in range(man.dim)]
        return out

    return fld


# -- calibration -------------------------------------------------------------------


def calibrate_tolerance(scenario, grid: QuadratureGrid) -> tuple[float, float]:
    """The integral tolerance max(1e-7, 10x floor) on ``grid``, and the floor.

    The floor is the worst |integral of Div X| over the seeded random smooth
    fields, the ``divergence-selftest`` residual of
    :func:`verify_grid_checks`, read from the grid's plan when a pass
    already measured it.
    """
    floor = verify_grid_checks(scenario, ["divergence-selftest"], grid)[0].residual
    return _tolerance(floor), floor


def _tolerance(floor: float) -> float:
    return max(INTEGRAL_FLOOR, 10.0 * floor)


def _selftest_fields(manifold):
    """The calibration's ``SELFTEST_FIELDS`` seeded random ambient fields, as the grid pass reads them.

    It returns a function of a block of points (K, m) giving, per field X,
    the arrays X^k and ∂_k X^k (K, m): the value and the diagonal of ∂X,
    all a traced divergence reads (:func:`manifolds.traced_divergence`).
    The components are random trig scalars, all evaluated by one
    :func:`trig_scalars` call per block, which derives component k of each
    field along axis k only.
    """
    rng = np.random.default_rng(SELFTEST_SEED)
    m = manifold.dim
    scalars = [random_trig_scalar(manifold, rng) for _ in range(SELFTEST_FIELDS * m)]
    own_axis = [(c % m,) for c in range(len(scalars))]

    def fields(points):
        value = np.zeros((SELFTEST_FIELDS,) + points.shape[:-1] + (m,))
        diag = np.zeros_like(value)
        for c, (v, grad) in enumerate(trig_scalars(scalars, np.moveaxis(points, -1, 0), own_axis)):
            f, k = divmod(c, m)
            value[f, ..., k] = v
            if grad:
                diag[f, ..., k] = grad[k]
        return list(zip(value, diag))

    return fields


def _selftest_floor(integrals: dict) -> float:
    """Worst |integral of Div X| among the self-test keys of a grid pass."""
    return max((abs(v) for key, v in integrals.items() if key[:1] == ("divergence-selftest",)), default=0.0)


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
    return integrate_terms(term_fn, grid, density)


def verify_reeb(scenario, grid=None) -> VerificationReport:
    """Total mean curvature vanishes when the orthogonal distribution is harmonic."""
    return verify_grid_checks(scenario, ["reeb"], grid)[0]


def verify_main(scenario, r: int, grid=None) -> VerificationReport:
    """Closed-manifold integral formula at order r, with per-term integrals."""
    return verify_grid_checks(scenario, [f"main:{r}"], grid)[0]


def verify_leaf(scenario, r: int) -> VerificationReport:
    """Compact-leaf integral formula at order r over the scenario's closed leaf, on its default grid."""
    return verify_grid_checks(scenario, [f"leaf:{r}"])[0]


# -- one pass over a grid for every integral formula ------------------------------------


@dataclass(eq=False)
class GridPlan:
    """What every grid pass of ``fol`` over one grid reads and no check changes.

    ``first`` and ``group`` are :func:`foliation.distinct_nodes` over the
    whole grid: the nodes grouped by their coordinates on the axes the
    closures read, and by their weights where the grid's weights differ, the
    ascending index of each group's first node, and each node's group, 8 B
    per node.  ``count`` is each group's node count, so a group's sample is
    summed as the copies of its nodes (:class:`quadrature.Grouped`).  None
    of them depends on ``quadrature.CHUNK`` or on the order a pass builds
    ``Geometry`` at.  ``floor`` is the calibration floor once a pass over M
    has measured it.
    """

    fol: FoliationStructure
    first: np.ndarray
    group: np.ndarray
    count: np.ndarray
    floor: float | None = None


def grid_plan(fol: FoliationStructure, grid: QuadratureGrid) -> GridPlan:
    """The plan ``grid`` holds for ``fol``, grouping the grid's nodes when it holds none.

    The plan lives in ``grid.plans`` and dies with the grid.  Its groups are
    pure functions of the foliation and the grid's read-only nodes and
    weights, so every pass that reads them, under any chunk size, sees what
    it would compute itself.
    """
    for plan in grid.plans:
        if plan.fol is fol:
            return plan
    first, group = distinct_nodes(fol, grid.nodes, grid.weights)
    plan = GridPlan(fol, first, group, np.bincount(group, minlength=first.size))
    grid.plans.append(plan)
    return plan


def verify_grid_checks(scenario, checks, grid=None, tolerance=None) -> list[VerificationReport]:
    """Reports of the grid checks ``checks`` on one (scenario, run grid), from one pass over M and one over the leaf.

    ``checks`` lists names among ``GRID_CHECKS`` ("main:r" and "leaf:r", or
    "main" and "leaf" for r = 0; "sigma2-image:c"), in any order; one report
    comes back per entry, in that order.  ``grid`` is a quadrature grid over
    M or its per-axis counts, by default the scenario's.  One
    :func:`_grid_pass` over M emits only the requested integrands: the
    calibration's self-test fields, only when a report needs the floor (the
    ``divergence-selftest`` residual is that floor, and ``sigma2-image``, a
    diagnostic, needs none); sigma_1 for ``reeb``; sigma_0..sigma_n and the
    volume for ``closed-form-c``, against the scenario's declared curvature
    constant; the main-formula terms for each requested r; the extrema of
    sigma_2 and Ric^P(N, N) for ``sigma2-image``.  The floor is the worst
    |integral of Div X| over the calibration's seeded random fields, and the
    integral tolerance is max(1e-7, 10x floor), as
    :func:`calibrate_tolerance` returns them.  ``tolerance``, when given,
    replaces every tolerance of the call.

    The ``leaf:r`` checks share one pass over the scenario's closed leaf, on
    the run grid's counts on the leaf's axes (:func:`_leaf_grid`), and are
    judged against ``INTEGRAL_FLOOR``.  A call of leaf checks alone builds
    no grid over M and runs no self-test.

    The node groups and, once measured, the floor come from the grid's plan
    (:func:`grid_plan`), so a later call on the same grid object computes
    neither again; the pass that measures the floor stores it there.

    The time the reports share, the grid passes, is charged once, to the
    first report; each later report's ``wall_time_s`` covers only its own
    assembly.  So the wall times of a run never add up to more than the run took.
    """
    t0 = time.perf_counter()
    parsed = [parse_check(name, scenario.n) for name in checks]
    for base, _ in parsed:
        if base not in GRID_CHECKS:
            raise ConfigError(f"{base!r} is not a grid check; known: {', '.join(GRID_CHECKS)}")
    bases = {base for base, _ in parsed}
    orders = lambda check: sorted({arg for base, arg in parsed if base == check})
    integrals, extrema, floor = {}, {}, None
    if bases - {"leaf"}:
        grid = _grid(scenario, grid)
        calibrate = "divergence-selftest" in bases or (tolerance is None and bases & {"reeb", "main", "closed-form-c"})
        plan = grid_plan(scenario.fol, grid)
        fields = _selftest_fields(scenario.manifold) if calibrate and plan.floor is None else None
        integrals, extrema = _grid_pass(scenario, grid, bases, orders("main"), fields)
        if fields is not None:
            plan.floor = _selftest_floor(integrals)
        floor = plan.floor if calibrate else None
    if "leaf" in bases:
        leaf = scenario.leaf()
        lgrid = _leaf_grid(scenario, leaf, grid)
        integrals.update(_grid_pass(scenario, lgrid, (), orders("leaf"), leaf=leaf)[0])
    tol = tolerance if tolerance is not None or floor is None else _tolerance(floor)
    selftest_floor = floor if tolerance is None else None
    leaf_tol = INTEGRAL_FLOOR if tolerance is None else tolerance
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
        elif base == "leaf":
            rep = make_report(
                f"leaf:{arg}", integrals[(f"leaf:{arg}", "integrand")], leaf_tol, t0, scenario, lgrid,
                preconditions_ok=scenario.flags.harmonic_perp,
                requires_admissible=True,
                leaf=leaf.name,
            )
        elif base == "closed-form-c":
            rep = _closed_form_c_report(scenario, grid, integrals, tol, t0, selftest_floor)
        else:
            rep = _sigma2_image_report(scenario, grid, extrema, arg, t0)
        reports.append(rep)
        t0 = time.perf_counter()
    return reports


def _leaf_grid(scenario, leaf, grid) -> QuadratureGrid:
    """The grid over ``leaf`` that a run grid sets: the counts of ``grid`` (a quadrature grid, per-axis counts, or None for the default) on the leaf's axes.

    Counts that are not one positive count per axis of M raise
    ``ValueError``, as in :func:`quadrature.grid_for`; an invariant-frame
    leaf, which has no axes, is one node whatever the counts.
    """
    if not leaf.axes:
        return leaf_grid(scenario.manifold, leaf)
    counts = grid.axes if isinstance(grid, QuadratureGrid) else scenario.default_grid if grid is None else grid
    counts = quadrature._counts(counts, scenario.manifold.dim)
    return leaf_grid(scenario.manifold, leaf, tuple(counts[ax] for ax in leaf.axes))


def _grid_pass(scenario, grid: QuadratureGrid, bases, orders=(), fields=None, leaf=None) -> tuple[dict, dict]:
    """The integrals of one ``integrate_terms`` pass over ``grid``, and the sigma_2 scan's extrema.

    ``bases`` names the grid checks whose integrands the pass emits (see
    :func:`verify_grid_checks`) and ``orders`` the formula orders: of the
    main formula on a grid over M, or, given a closed ``leaf`` and a grid
    over it (:func:`quadrature.leaf_grid`), of the compact-leaf formula,
    keyed ``("leaf:r", "integrand")``.  ``fields``, when given, maps a
    chunk's points to the self-test's ambient fields, each as its arrays
    X^k and ∂_k X^k (:func:`_selftest_fields`), whose divergences are keyed
    ``("divergence-selftest", "div_i")``.

    The grid's plan (:func:`grid_plan`) groups its distinct nodes over the
    whole grid.  Each chunk builds one ``Geometry`` on the representatives
    (first nodes) that are new to it, at order 2 over a leaf, whose
    integrand differentiates the shape operator, and order 1 (values only)
    over M, and none when it has no new one.  Each sample is weighted by the
    volume density of that geometry's metric, sqrt(det g) over the axes
    integrated over (all of them, or the leaf's; 1 on the invariant
    backend's orthonormal frame), and reaches the reduction once, in the
    chunk of its representative, as one :class:`quadrature.Grouped` sample
    with its group's node count: the reduction sums it as the copies every
    node of the group would give, bit for bit.  Only the self-test's
    divergences vary per node: its fields are evaluated at every node,
    each trig factor once per distinct coordinate value of its axis and
    each component derived along its own axis only (:func:`trig_scalars`),
    and every node reads its density and the traced connection slice
    Γ^k_{kj} from its representative, from this chunk's
    geometry or from the rows an earlier chunk held because a later one
    reads them (:class:`_Held`).  A pass without the self-test holds and
    gathers nothing per node, and a pass with nothing to emit makes none.
    The sigma_2 and Ric^P(N, N) extrema are read from the representatives'
    unweighted samples, the values of every node; a non-finite sample of
    either raises :class:`EvaluationError` naming its first node in grid
    order.
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
    order = 1 if leaf is None else 2
    axes = list(range(man.dim) if leaf is None else leaf.axes)
    plan = grid_plan(fol, grid)
    held = None if fields is None else _Held(plan, quadrature.CHUNK)
    diagonal = np.arange(man.dim)
    start = 0

    def representatives(pts):
        """The representatives' per-node arrays (density, Γ^k_{kj}) and weighted samples; the scan's extrema."""
        geom = Geometry(fol, pts, order=order)
        density = np.sqrt(np.linalg.det(geom.g.value[..., axes, :][..., axes]))
        node = {"density": density}
        if fields is not None:
            G = geom.gamma.gamma[..., diagonal, diagonal, :]  # without a batch axis on the invariant backend
            node["gamma_kk"] = np.broadcast_to(G, geom.batch + G.shape[-2:])
        if scan:
            s2, ric = geom.sigma.value[..., 2], geom.ricci_p(geom.N.value)
            require_finite(("sigma2-image", "sigma_2"), s2, pts)
            require_finite(("sigma2-image", "ricci_p_NN"), ric, pts)
            extrema["sigma2_min"] = min(extrema["sigma2_min"], float(np.min(s2)))
            extrema["sigma2_max"] = max(extrema["sigma2_max"], float(np.max(s2)))
            extrema["ricci_p_NN_min"] = min(extrema["ricci_p_NN_min"], float(np.min(ric)))
        samples = {f"sigma_{k}": geom.sigma.value[..., k] * density for k in sorted(sigmas)}
        if "closed-form-c" in bases:
            samples["volume"] = density
        for r in orders:
            if leaf is not None:
                samples[(f"leaf:{r}", "integrand")] = geom.leaf_formula_integrand(r) * density
            else:
                samples.update({(f"main:{r}", key): vals * density for key, vals in _main_terms(geom, r).items()})
        return node, samples

    def terms(pts):
        nonlocal start
        stop = start + pts.shape[0]
        lo, hi = np.searchsorted(plan.first, (start, stop))
        node, samples = representatives(pts[plan.first[lo:hi] - start]) if hi > lo else ({}, {})
        out = {}
        if fields is not None:
            node = held.scatter(node, plan.group[start:stop], lo, hi)
            for i, (value, diag) in enumerate(fields(pts)):
                out[("divergence-selftest", f"div_{i}")] = traced_divergence(node["gamma_kk"], value, diag) * node["density"]
        start = stop
        out.update({key: quadrature.Grouped(vals, plan.count[lo:hi], plan.first[lo:hi]) for key, vals in samples.items()})
        return out

    return _integrate_terms(scenario, grid, terms), extrema


class _Held:
    """The per-node arrays of the representatives that a grid pass reads in a later chunk than their own.

    A pass in chunks of ``size`` nodes computes each representative's arrays
    in the chunk of its first node.  Of those, this keeps only the rows of
    the representatives that a later chunk also reads, in arrays allocated
    once per pass, so it holds nothing on a grid without repeated nodes and
    copies nothing per chunk but the new rows.  Only the self-test reads
    arrays per node: its density and Γ^k_{kj}.
    """

    def __init__(self, plan: GridPlan, size: int):
        later = np.zeros(plan.first.size, dtype=bool)
        for start in range(0, plan.group.size, size):
            ids = plan.group[start : start + size]
            later[ids[ids < np.searchsorted(plan.first, start)]] = True
        self.ids = np.flatnonzero(later)
        self.rows = {}

    def scatter(self, new: dict, ids: np.ndarray, lo: int, hi: int) -> dict:
        """Each node's row of every array, for a chunk whose groups are ``ids``.

        ``new`` holds the arrays of the representatives new to the chunk,
        ids ``lo`` to ``hi`` in order; every older id is read from the held rows.
        """
        a, b = np.searchsorted(self.ids, (lo, hi))
        for key, vals in new.items():
            if b > a:
                self.rows.setdefault(key, np.empty((self.ids.size,) + vals.shape[1:]))[a:b] = vals[self.ids[a:b] - lo]
        old = ids < lo
        if not old.any():
            return {key: vals[ids - lo] for key, vals in new.items()}
        slots = np.searchsorted(self.ids, ids[old])
        out = {}
        for key, rows in self.rows.items():
            out[key] = np.empty((ids.size,) + rows.shape[1:])
            out[key][old] = rows[slots]
            if key in new:
                out[key][~old] = new[key][ids[~old] - lo]
        return out


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


def _closed_form_c_report(scenario, grid, integrals: dict, tol: float, t0: float, selftest_floor) -> VerificationReport:
    c = scenario.flags.pcurv_c
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


def verify_closed_form_einstein(n: int, C: float, vol: float) -> VerificationReport:
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
        "closed-form-einstein", residual, ALGEBRAIC_TOL, t0,
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


def verify_umbilical_reduction(samples: int = 1000, seed: int = 4242) -> VerificationReport:
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
        "umbilical-reduction", residual, ALGEBRAIC_TOL, t0,
        terms={"binomial_identity_exact": float(binomial_ok)},
        exact=binomial_ok,
        samples=samples,
    )


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

    Every name is parsed before anything runs.  The grid checks, ``leaf:r``
    among them, come from one :func:`verify_grid_checks` call on ``grid``
    (a quadrature grid or per-axis counts), made where the first of them
    comes.  The sampled checks are looked up by module name at each call,
    so a caller that replaces them on this module (as the benchmark's
    seeding does) reaches them.
    """
    parsed = [parse_check(name, scenario.n) for name in checks]
    grid_names = [name for name, (base, _) in zip(checks, parsed) if base in GRID_CHECKS]
    grid_reports, reports = None, []
    for base, arg in parsed:
        if base in GRID_CHECKS:
            grid_reports = grid_reports or iter(verify_grid_checks(scenario, grid_names, grid, tolerance))
            reports.append(next(grid_reports))
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
