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

``CHECKS`` is the one table of checks, one :class:`Check` per check in the
catalog battery's order: the argument a name takes after a colon, when the
battery runs it (:func:`battery`), the hypotheses of its formula, its
tolerance, and how its reports are made.  :func:`parse_check` is the one
parser of a check name and :func:`run_checks` runs a list of them.

A grid check's record declares its integrand, the per-node samples a grid
pass integrates for it under bare keys, and maps its own integrals and the
calibration floor to its residual, terms and metadata;
:func:`verify_grid_checks` makes every grid report from it with one
:func:`make_report` call.  The grid checks of one (scenario, run grid) share
one pass over M (:func:`_grid_pass`, one ``integrate_terms`` reduction),
whose integrand carries the calibration's self-test fields (only when a
report needs the floor) and the samples of every requested formula id, and
one pass over the scenario's closed leaf for the records that integrate over
it, on the run grid's counts on the leaf's axes.  The pass names no check:
it calls each record's integrand once per formula id (``main:1``, ``reeb``,
``sigma2-image`` at any c), keys what it gives by that id, weights it,
hands it on, and folds the extrema it asks for.  A pass builds ``Geometry``
once per distinct node of the whole grid, nodes being distinct on the
coordinates the closures read, and on the weight where the grid's weights
differ (:func:`foliation.distinct_nodes`), in the chunk where the node
first appears, and hands the reduction each
representative's samples once, weighted by the volume density of that
geometry's metric on the axes integrated over, with the count of nodes they
stand for; the reduction's sums have the bits of an evaluation on every
node.  Only the self-test's divergences are evaluated per node, from each
field's values and the diagonal of its derivative.  A grid carries the plan
of its passes (:func:`grid_plan`): one node grouping per foliation, and the
calibration floor, computed once per grid object, so the checks of one grid
share them across calls.  The sampled checks draw seeded random points and
build one ``Geometry`` on them (``_sampled``), at order 1 for the
first-order identities (``div-split``, ``leafdiv-normal``).  Time that
reports share is charged to the first of them, so a run's wall times add up
to at most its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

import numpy as np

from . import jets, newton, quadrature
from .errors import ConfigError, EvaluationError, UnsupportedLeafError
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
SELFTEST_KEY = "divergence-selftest"  # the check its divergences are keyed under in a grid pass


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
    kind, arg = CHECKS[base].arg or (None, None)
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
    """``grid`` as a quadrature grid: kept as is, built from per-axis counts, or the default when None.

    A quadrature grid whose nodes are not points of the scenario's manifold
    raises :class:`ConfigError` naming both dimensions.
    """
    if not isinstance(grid, QuadratureGrid):
        return grid_for(scenario.manifold, scenario.default_grid if grid is None else grid)
    dim, m = grid.nodes.shape[-1], scenario.manifold.dim
    if dim != m:
        raise ConfigError(f"a grid of {dim}-dimensional nodes is not over {scenario.name}, of dimension {m}")
    return grid


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
    """The integral tolerance max(1e-7, 10x floor) on ``grid`` that the calibrated checks are judged against, and the floor.

    The floor is the worst |integral of Div X| over the seeded random smooth
    fields, the ``divergence-selftest`` residual of
    :func:`verify_grid_checks`, read from the grid's plan when a pass
    already measured it.
    """
    floor = verify_grid_checks(scenario, ["divergence-selftest"], grid)[0].residual
    return _tolerance(CHECKS["main"], floor), floor


def _tolerance(check, floor: float) -> float:
    """The tolerance of ``check``, raised to 10x the calibration ``floor`` when the check is calibrated."""
    return max(check.tol, 10.0 * floor) if check.calibrated else check.tol


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
    it would compute itself.  No lock guards ``grid.plans``, so plans are
    not shared across threads: nothing in the program runs threads, and
    two threads that reach a fresh grid together each group its nodes and
    measure its floor, to the same values.
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

    ``checks`` lists names of grid checks, in any order; one report comes
    back per entry, in that order.  ``grid`` is a quadrature grid over M or
    its per-axis counts, by default the scenario's.  Each name's formula id,
    the name its report carries (``main:1``, ``reeb``, ``sigma2-image``
    whatever its c), is computed once here: the passes evaluate each
    distinct id's integrand (``Check.integrand``) once, at the order of an
    ordered check and None otherwise, and each report reads only its own
    id's integrals and the floor.  The pass over M evaluates the
    calibration's self-test fields only when a report reads the floor: a
    record without an integrand, or a calibrated one without a given
    ``tolerance``.  The records ``on_leaf`` share one pass over the
    scenario's closed leaf, on the run grid's counts on the leaf's axes
    (:func:`_leaf_grid`), and raise :class:`UnsupportedLeafError` on a
    scenario without one; a call of leaf checks alone builds no grid over
    M.  ``tolerance``, when given, replaces every finite tolerance of the
    call.

    The node groups and, once measured, the floor come from the grid's plan
    (:func:`grid_plan`).  The time the reports share, the grid passes, is
    charged once, to the first report.
    """
    t0 = time.perf_counter()
    parsed = [parse_check(name, scenario.n) for name in checks]
    for base, _ in parsed:
        if CHECKS[base].grid is None:
            known = ", ".join(name for name, check in CHECKS.items() if check.grid)
            raise ConfigError(f"{base!r} is not a grid check; known: {known}")
    ids = [f"{base}:{arg}" if CHECKS[base].ordered else base for base, arg in parsed]
    wanted = {fid: (fid, CHECKS[base], arg if CHECKS[base].ordered else None) for fid, (base, arg) in zip(ids, parsed)}
    over_m, on_leaf = ([w for w in wanted.values() if w[1].on_leaf is leaf] for leaf in (False, True))
    got, floor = {}, None
    if over_m:
        grid = _grid(scenario, grid)
        calibrate = any(check.integrand is None or tolerance is None and check.calibrated for _, check, _ in over_m)
        plan = grid_plan(scenario.fol, grid)
        fields = _selftest_fields(scenario.manifold) if calibrate and plan.floor is None else None
        got = _grid_pass(scenario, grid, over_m, fields)
        if fields is not None:  # the floor: the worst |integral of Div X| of the self-test's fields
            plan.floor = max((abs(v) for (fid, _), v in got.items() if fid == SELFTEST_KEY), default=0.0)
        floor = plan.floor if calibrate else None
    if on_leaf:
        if scenario.leaf is None:
            raise UnsupportedLeafError(f"scenario {scenario.name} declares no closed leaves")
        lgrid = _leaf_grid(scenario, scenario.leaf, grid)
        got.update(_grid_pass(scenario, lgrid, on_leaf, leaf=scenario.leaf))
    reports = []
    for fid, (base, arg) in zip(ids, parsed):
        check = CHECKS[base]
        residual, terms, meta = check.grid(lambda key: got[fid, key], floor, scenario, arg)
        if check.calibrated:
            meta = {"selftest_floor": floor if tolerance is None else None, **meta}
        reports.append(make_report(
            fid, residual,
            tolerance if tolerance is not None and math.isfinite(check.tol) else _tolerance(check, floor),
            t0, scenario, lgrid if check.on_leaf else grid, terms=terms,
            preconditions_ok=all(getattr(scenario.flags, flag) for flag in check.flags),
            requires_admissible=check.admissible, **meta,
        ))
        t0 = time.perf_counter()
    return reports


def _leaf_grid(scenario, leaf, grid) -> QuadratureGrid:
    """The grid over ``leaf`` that a run grid sets: the counts of ``grid`` (a quadrature grid, per-axis counts, or None for the default) on the leaf's axes.

    Counts that are not one positive count per axis of M raise
    ``ValueError``, as in :func:`quadrature.grid_for`, and a quadrature grid
    over a manifold of another dimension :class:`ConfigError` (:func:`_grid`);
    an invariant-frame leaf, which has no axes, is one node whatever the counts.
    """
    if not leaf.axes:
        return leaf_grid(scenario.manifold, leaf)
    counts = _grid(scenario, grid).axes if isinstance(grid, QuadratureGrid) else grid
    counts = quadrature._counts(scenario.default_grid if counts is None else counts, scenario.manifold.dim)
    return leaf_grid(scenario.manifold, leaf, tuple(counts[ax] for ax in leaf.axes))


_FOLDS = {"_min": min, "_max": max}  # how a grid pass folds an extremum across its chunks, by its key's end


def _grid_pass(scenario, grid: QuadratureGrid, wanted, fields=None, leaf=None) -> dict:
    """The integrals of one ``integrate_terms`` pass over ``grid``, and the extrema its records ask for.

    ``wanted`` lists ``(formula id, record, order)`` triples, one per
    distinct formula id (see :func:`verify_grid_checks`); the pass calls the
    integrand of each record (``Check.integrand``) once per chunk on its
    geometry, with that order, over M or, given a closed ``leaf`` and a grid
    over it (:func:`quadrature.leaf_grid`), over the leaf.  Each key k the
    integrand returns comes back as ``(formula id, k)``, so no two records
    share a key.  Every sample is integrated under its key, except an
    extremum, k ending ``_min`` or ``_max``: a value of the representatives'
    unweighted samples, so of every node, that the pass folds across its
    chunks with ``min`` or ``max``.  ``fields``, when given, maps a chunk's
    points to the self-test's ambient fields, each as its arrays X^k and
    ∂_k X^k (:func:`_selftest_fields`), whose divergences are keyed
    ``(SELFTEST_KEY, "div_i")``.

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
    gathers nothing per node, and a pass with nothing to evaluate makes none.
    """
    fol, man = scenario.fol, scenario.manifold
    integrands = [(fid, check.integrand, arg) for fid, check, arg in wanted if check.integrand]
    extrema = {}
    if fields is None and not integrands:
        return extrema
    order = 1 if leaf is None else 2
    axes = list(range(man.dim) if leaf is None else leaf.axes)
    plan = grid_plan(fol, grid)
    held = None if fields is None else _Held(plan, quadrature.CHUNK)
    diagonal = np.arange(man.dim)
    start = 0

    def representatives(pts):
        """The representatives' per-node arrays (density, Γ^k_{kj}) and weighted samples; their extrema folded."""
        geom = Geometry(fol, pts, order=order)
        density = np.sqrt(np.linalg.det(geom.g.value[..., axes, :][..., axes]))
        node = {"density": density}
        if fields is not None:
            G = geom.gamma.gamma[..., diagonal, diagonal, :]  # without a batch axis on the invariant backend
            node["gamma_kk"] = np.broadcast_to(G, geom.batch + G.shape[-2:])
        samples = {}
        for fid, integrand, arg in integrands:
            for key, vals in integrand(geom, scenario, arg).items():
                if key[-4:] in _FOLDS:
                    extrema[fid, key] = _FOLDS[key[-4:]](extrema.get((fid, key), vals), vals)
                else:
                    samples[fid, key] = vals * density
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
                out[(SELFTEST_KEY, f"div_{i}")] = traced_divergence(node["gamma_kk"], value, diag) * node["density"]
        start = stop
        out.update({key: quadrature.Grouped(vals, plan.count[lo:hi], plan.first[lo:hi]) for key, vals in samples.items()})
        return out

    return {**_integrate_terms(scenario, grid, terms), **extrema}


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


def _main_report(term, floor, scenario, r: int) -> tuple:
    """``main:r`` from its term integrals: the residual, the signed sum ``CHECKS["main"].residual``, its terms and diagnostics.

    The sum starts from its first term, so a -0.0 keeps its bits.  The
    Riemannian-substituted residual is the same sum with the Riemann tensor
    in place of R^P in the curvature terms, all but the first.
    """
    (first, sign), *curvature = CHECKS["main"].residual

    def signed(suffix: str) -> float:
        total = sign * term(first)
        for key, s in curvature:
            total = total + s * term(key + suffix)
        return total

    terms = {f"{key}_term": term(key) for key, _ in CHECKS["main"].residual}
    terms.update(
        riemannian_substituted_residual=signed("_riemannian"),
        trz_hperp_coupling=term("trz_hperp"),
        z_norm_sq_integral=term("z_norm_sq"),
    )
    return signed(""), terms, {}


def _closed_form_c_report(term, floor, scenario, arg) -> tuple:
    """``closed-form-c`` from its sigma_0..sigma_n and volume integrals, against the declared constant c (0 when none is)."""
    n, c = scenario.n, scenario.flags.pcurv_c
    c = 0.0 if c is None else c
    S = np.array([term(f"sigma_{r}") for r in range(n + 1)])
    Sget = lambda k: S[k] if k <= n else 0.0
    recursion = [abs((r + 2) * Sget(r + 2) - c * (n - r) * S[r]) for r in range(n)]
    closed = lambda r: newton.total_curvature_closed_constant(n, r, c, term("volume"))
    return _closed_form_residual(S, closed, recursion), {f"total_sigma_{r}": float(S[r]) for r in range(n + 1)}, {"c": c}


def _sigma2_image_scan(geom, scenario, order) -> dict:
    """The ``sigma2-image`` scan on ``geom``'s points: the extrema of sigma_2 and Ric^P(N, N), which a grid pass folds.

    A non-finite sample of either raises :class:`EvaluationError` naming
    its first point, the first node in grid order on a grid pass.
    """
    s2, ric = geom.sigma.value[..., 2], geom.ricci_p(geom.N.value)
    require_finite(("sigma2-image", "sigma_2"), s2, geom.points)
    require_finite(("sigma2-image", "ricci_p_NN"), ric, geom.points)
    return {"sigma2_min": float(np.min(s2)), "sigma2_max": float(np.max(s2)), "ricci_p_NN_min": float(np.min(ric))}


def _sigma2_image_report(term, floor, scenario, c: float) -> tuple:
    """``sigma2-image:c`` from the sigma_2 and Ric^P(N, N) extrema of its scan: a diagnostic, with residual 0."""
    terms = {key: term(key) for key in ("sigma2_min", "sigma2_max", "ricci_p_NN_min")}
    terms["interval_witnessed"] = float(terms["sigma2_min"] <= 0.0 < c < terms["sigma2_max"])
    terms["ricci_bound_holds"] = float(terms["ricci_p_NN_min"] >= 2.0 * c)
    return 0.0, terms, {"c": c}


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
    H = np.random.default_rng(99).uniform(-1.0, 1.0, 16)
    A = H[:, None, None] * np.eye(n)
    sig = newton.sigma_values(A)
    for r, Tr in enumerate(newton.newton_transforms(A, sig)):
        want = ((n - r) / n) * sig[:, r, None, None] * np.eye(n)
        residual = max(residual, float(np.max(np.abs(Tr - want))))
    return make_report(
        "closed-form-einstein", residual, CHECKS["closed-form-einstein"].tol, t0,
        terms={"coefficients_exact": float(coeff_exact)},
        exact=coeff_exact,
        n=n, C=C, vol=vol,
    )


def umbilical_reduction_residual(n: int, r, H, ric_nn, ric_zn) -> np.ndarray:
    """Pointwise agreement of the general and umbilical-display integrands, per sample of one leaf dimension n.

    ``r``, ``H``, ``ric_nn`` and ``ric_zn`` broadcast together.
    """
    r = np.asarray(r)
    if n < 2 or np.any((r < 0) | (r > n - 1)):
        raise ValueError("need n >= 2 and 0 <= r <= n-1")
    lhs = newton.umbilical_main_integrand(n, r, H, ric_nn, ric_zn)
    rhs = newton.umbilical_reduced_integrand(n, r, H, ric_nn, ric_zn)
    factor = np.array([newton.umbilical_common_factor(n, k) for k in range(n)])[r]
    return np.abs(lhs - rhs / factor)


def verify_umbilical_reduction(samples: int = 1000, seed: int = 4242) -> VerificationReport:
    """Randomized umbilical-substitution check plus the exact binomial identity.

    The samples are drawn one at a time and evaluated in one batch per leaf dimension.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    by_n: dict[int, list] = {}
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(0, n))
        by_n.setdefault(n, []).append((r, *rng.uniform(-1.0, 1.0, 3)))
    residual = 0.0
    for n, draws in by_n.items():
        r, H, ric_nn, ric_zn = np.array(draws).T
        residual = max(residual, float(np.max(umbilical_reduction_residual(n, r.astype(int), H, ric_nn, ric_zn))))
    binomial_ok = all(
        newton.binomial_reduction_sum(n, r) == Fraction(comb(n - 2, r - 1))
        for n in range(2, 13)
        for r in range(1, n)
    )
    return make_report(
        CHECKS["umbilical"].formula_id, residual, CHECKS["umbilical"].tol, t0,
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
    return _sampled(scenario, samples, seed, ("codazzi", CHECKS["codazzi"].tol, residuals))[0]


def check_trace_identities(scenario, samples: int = 20, seed: int = 59) -> list[VerificationReport]:
    """Algebraic and field-form Newton trace identities at random points, each with its own wall time."""
    rs = range(scenario.n)
    algebraic = ("trace-identities:algebraic", ALGEBRAIC_TOL, lambda g: [g.trace_identities_algebraic(r) for r in rs])
    field_form = ("trace-identities:field", DIFFERENTIAL_TOL, lambda g: [g.trace_identities_field(r) for r in rs])
    return _sampled(scenario, samples, seed, algebraic, field_form)


# -- the table of checks, and one runner for every check ------------------------------------


@dataclass(frozen=True)
class Check:
    """One record of ``CHECKS``: everything a run and the catalog battery know of a check.

    - ``arg``: the type and default of the argument a name takes after a
      colon, or None when it takes none.  An int is an order r in 0..n-1,
      and the check is ``ordered``.
    - ``when``: when the catalog battery runs the check, besides leaf
      dimension n >= ``min_n``: a test of the scenario, or None for always.
    - The hypotheses: ``flags``, the scenario flags a grid check's formula
      needs, and ``min_n``, the leaf dimension a check run by a function
      needs; below it the check is not run.  Without either it reports
      "precondition-violation".  ``admissible``: the derivation uses the
      adapted-frame identity, so an inadmissible scenario reports
      "inadmissible".
    - ``tol``: the tolerance class, the constant its reports are judged
      against, raised to 10x the grid's calibration floor when
      ``calibrated``; None when each of its identities carries its own.
    - ``integrand``: what a grid pass integrates for a grid check, a map of
      the pass's ``Geometry``, the scenario and the order (an ordered
      check's argument, None for any other: an integrand reads no other
      argument) to per-node samples by bare string key, unweighted, or to an
      extremum of the geometry's points under a key ending ``_min`` or
      ``_max``, which the pass folds instead.  The pass keys them by the
      check's formula id (:func:`_grid_pass`).  A grid check without an
      integrand reads only the calibration floor.  ``on_leaf``: the pass is
      over the scenario's closed leaf, at ``Geometry`` order 2 and on the
      leaf's axes, not over M.
    - ``grid``: a grid check's report, as a map of ``term`` (its own
      integrals and extrema by key), the calibration floor (None when no
      report of the call reads it), the scenario and the argument to
      (residual, terms, metadata).  ``residual`` names the term integrals a
      residual sums, with their signs.
    - ``run``: any other check's reports, a call of (scenario, argument,
      samples) that looks the check functions up on this module each time.
      ``formula_id`` names its reports when not the check's name.
    """

    arg: tuple | None = None
    when: Callable | None = None
    flags: tuple = ()
    min_n: int = 0
    admissible: bool = False
    tol: float | None = None
    calibrated: bool = False
    integrand: Callable | None = None
    on_leaf: bool = False
    grid: Callable | None = None
    residual: tuple = ()
    run: Callable | None = None
    formula_id: str | None = None

    @property
    def ordered(self) -> bool:
        return self.arg is not None and self.arg[0] is int


CHECKS = {
    "divergence-selftest": Check(tol=FIRST_ORDER_TOL, grid=lambda term, floor, s, arg: (floor, {}, {})),
    "reeb": Check(
        flags=("harmonic_perp",), tol=INTEGRAL_FLOOR, calibrated=True,
        integrand=lambda geom, s, arg: {"sigma_1": geom.sigma.value[..., 1]},
        grid=lambda term, floor, s, arg: (term("sigma_1"), {"sigma1_integral": term("sigma_1")}, {}),
    ),
    "pointwise": Check(run=lambda s, arg, k: [
        *(check(s, k) for check in (check_divergence_split, check_leaf_divergence_of_normal, check_adapted_identity)),
        *(check(s, r, k) for r in range(s.n) for check in (check_newton_div_agreement, check_newton_z_divergence)),
    ]),
    "codazzi": Check(tol=DIFFERENTIAL_TOL, run=lambda s, arg, k: [check_codazzi(s, k)]),
    "trace-identities": Check(run=lambda s, arg, k: check_trace_identities(s, min(k, 20))),
    "sigma2-image": Check(arg=(float, 0.0), tol=math.inf, integrand=_sigma2_image_scan, grid=_sigma2_image_report),
    "main": Check(
        arg=(int, 0), flags=("harmonic_perp",), admissible=True, tol=INTEGRAL_FLOOR, calibrated=True,
        # _main_terms is looked up at each call, so a patch of the module's name reaches the pass
        integrand=lambda geom, s, r: _main_terms(geom, r),
        grid=_main_report, residual=(("sigma", 1), ("normal_curvature", -1), ("z_curvature", -1)),
    ),
    "leaf": Check(
        arg=(int, 0), when=lambda s: s.leaf is not None, flags=("harmonic_perp",), admissible=True,
        on_leaf=True, integrand=lambda geom, s, r: {"integrand": geom.leaf_formula_integrand(r)},
        tol=INTEGRAL_FLOOR, grid=lambda term, floor, s, r: (term("integrand"), {}, {"leaf": s.leaf.name}),
    ),
    "closed-form-c": Check(
        when=lambda s: s.flags.satisfies_pcurv_c, flags=("satisfies_pcurv_c", "harmonic_perp"), admissible=True,
        tol=INTEGRAL_FLOOR, calibrated=True, grid=_closed_form_c_report,
        integrand=lambda geom, s, arg: {
            **{f"sigma_{k}": geom.sigma.value[..., k] for k in range(s.n + 1)}, "volume": np.ones(geom.batch),
        },
    ),
    "closed-form-einstein": Check(
        arg=(float, 1.0), tol=ALGEBRAIC_TOL, run=lambda s, C, k: [verify_closed_form_einstein(s.n, C, s.volume)],
    ),
    "umbilical": Check(
        min_n=2, tol=ALGEBRAIC_TOL, run=lambda s, arg, k: [verify_umbilical_reduction(samples=200)],
        formula_id="umbilical-reduction",
    ),
}


def battery(scenario) -> list[str]:
    """The names of the catalog battery's checks on ``scenario``, in the table's order.

    It holds every check whose ``when`` holds on a scenario of leaf
    dimension at least its ``min_n``: an ordered check at every order r in
    0..n-1, any other with its default argument.
    """
    names = []
    for name, check in CHECKS.items():
        if scenario.n >= check.min_n and (check.when is None or check.when(scenario)):
            names += [f"{name}:{r}" for r in range(scenario.n)] if check.ordered else [name]
    return names


def run_checks(scenario, checks, grid=None, tolerance=None, samples: int = 50) -> list[VerificationReport]:
    """The reports of the checks named in ``checks``, in that order (``pointwise`` gives 3 + 2n).

    Every name is parsed before anything runs.  The grid checks, ``leaf:r``
    among them, come from one :func:`verify_grid_checks` call on ``grid``
    (a quadrature grid or per-axis counts), made where the first of them
    comes.  Every other check runs its record's ``run``, or, on a scenario
    whose leaf dimension is below its ``min_n``, reports
    "precondition-violation" with residual 0 and the reason.
    """
    parsed = [parse_check(name, scenario.n) for name in checks]
    grid_names = [name for name, (base, _) in zip(checks, parsed) if CHECKS[base].grid]
    grid_reports, reports = None, []
    for base, arg in parsed:
        check = CHECKS[base]
        if check.grid:
            grid_reports = grid_reports or iter(verify_grid_checks(scenario, grid_names, grid, tolerance))
            reports.append(next(grid_reports))
        elif scenario.n < check.min_n:
            reports.append(make_report(
                check.formula_id or base, 0.0, check.tol, time.perf_counter(), scenario,
                preconditions_ok=False, reason=f"needs leaf dimension >= {check.min_n}",
            ))
        else:
            reports += check.run(scenario, arg, samples)
    return reports
