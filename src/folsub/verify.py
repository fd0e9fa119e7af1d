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

Every integral goes through :func:`quadrature.integrate_terms`, so a
non-finite sample raises :class:`EvaluationError` instead of turning into a
"fail" verdict.

Integral tolerances are calibrated per scenario and grid: the divergence
theorem applied to seeded random smooth fields measures the truncation floor
of the differentiation-plus-quadrature stack, and the tolerance is
max(1e-7, 10x that floor).

The grid checks of one (scenario, grid), ``divergence-selftest``, ``reeb``,
``main:r``, ``closed-form-c`` and ``sigma2-image``, are built by one
function, :func:`verify_grid_checks`: it calibrates once, only when a report
needs the floor, and integrates every requested integrand and scans the
sigma_2 range in one pass with one value-only ``Geometry(order=1)`` per
chunk.  The CLI calls it once per run; ``verify_reeb``, ``verify_main``,
``verify_closed_form_c``, ``verify_divergence_theorem`` and
``sigma2_image_diagnostic`` call it for their own check.  The time the
reports of one call share is charged once, to the first of them, so the
wall times of a run add up to no more than the run took.  The checks that
differentiate A, Z or sigma_r (``leaf:r``, the pointwise battery, Codazzi
and the trace identities) build ``Geometry(order=2)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from . import jets
from . import newton
from .errors import EvaluationError
from .foliation import Geometry
from .manifolds import InvariantFrameManifold, divergence, divergence_jets
from .quadrature import QuadratureGrid, grid_for, integrate, integrate_terms, leaf_density, leaf_grid, refined
from .scenarios import ADMISSIBLE_TOL

INTEGRAL_FLOOR = 1e-7
DIFFERENTIAL_TOL = 1e-8
FIRST_ORDER_TOL = 1e-9
ALGEBRAIC_TOL = 1e-11


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
    scenario-independent and its admissibility residual is 0.
    """
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


def _grid(scenario, grid=None) -> QuadratureGrid:
    """``grid`` as a quadrature grid: kept as is, built from per-axis counts, or the default."""
    if isinstance(grid, QuadratureGrid):
        return grid
    if isinstance(scenario.manifold, InvariantFrameManifold):
        return grid_for(scenario.manifold)
    return grid_for(scenario.manifold, grid or scenario.default_grid)


# -- random smooth test fields ---------------------------------------------------


def random_trig_scalar(manifold, rng: np.random.Generator, modes: int = 2):
    """Random trigonometric polynomial, periodic on the chart; constant otherwise."""
    if isinstance(manifold, InvariantFrameManifold):
        val = float(rng.uniform(-1.0, 1.0))
        return lambda coords: val
    m = manifold.dim
    freqs = [2.0 * np.pi / L for L in manifold.periods]
    terms = []
    for _ in range(modes):
        amp = float(rng.uniform(-1.0, 1.0))
        ks = rng.integers(-2, 3, m)
        phases = rng.uniform(0.0, 2.0 * np.pi, m)
        terms.append((amp, ks, phases))

    def fn(coords):
        acc = 0.0
        for amp, ks, phases in terms:
            prod = amp
            for i in range(m):
                if ks[i] != 0:
                    prod = prod * jets.sin(coords[i] * (ks[i] * freqs[i]) + phases[i])
            acc = acc + prod
        return acc

    return fn


def random_ambient_field(manifold, rng: np.random.Generator):
    comps = [random_trig_scalar(manifold, rng) for _ in range(manifold.dim)]
    return lambda coords: [c(coords) for c in comps]


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
        for u, ev in zip(us, e):
            uv = u(coords)
            out = [out[k] + uv * ev[k] for k in range(man.dim)]
        return out

    return fld


def random_leaf_field(fol, rng: np.random.Generator):
    man = fol.manifold
    us = [random_trig_scalar(man, rng) for _ in range(fol.n)]

    def fld(coords):
        e = fol.leaf_frame(coords)
        out = [0.0] * man.dim
        for u, ev in zip(us, e):
            uv = u(coords)
            out = [out[k] + uv * ev[k] for k in range(man.dim)]
        return out

    return fld


# -- calibration -------------------------------------------------------------------


def divergence_selftest_residual(scenario, grid: QuadratureGrid, seed: int = 1123, fields: int = 3) -> float:
    """Worst |integral of Div X| over seeded random smooth fields.

    The fields are integrated together, one key each, so they share the
    seeds, the connection and the density of every chunk.
    """
    rng = np.random.default_rng(seed)
    man = scenario.manifold
    Xs = [random_ambient_field(man, rng) for _ in range(fields)]

    def terms(pts):
        coords = man.seed(pts, order=1)
        gamma = man.gamma_jets(coords)
        return {f"div_{i}": divergence_jets(man, coords, gamma, X(coords)).value for i, X in enumerate(Xs)}

    return max((abs(val) for val in _integrate_terms(scenario, grid, terms).values()), default=0.0)


def calibrate_tolerance(scenario, grid: QuadratureGrid) -> tuple[float, float]:
    floor = divergence_selftest_residual(scenario, grid)
    return max(INTEGRAL_FLOOR, 10.0 * floor), floor


def verify_divergence_theorem(scenario, X_field=None, grid=None, tolerance=None) -> VerificationReport:
    """Self-test: the divergence of a smooth field integrates to zero.

    Without ``X_field`` the fields are the calibration's seeded random ones
    (:func:`verify_grid_checks`).
    """
    if X_field is None:
        return verify_grid_checks(scenario, ["divergence-selftest"], grid, tolerance)[0]
    t0 = time.perf_counter()
    grid = _grid(scenario, grid)
    residual = abs(integrate(scenario.manifold, lambda pts: divergence(scenario.manifold, X_field, pts), grid))
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
    out["trz_z"] = np.einsum("...i,...i->...", TZ, zl)
    out["z_norm_sq"] = np.einsum("...i,...i->...", zl, zl)
    return out


def _check_r(scenario, r: int):
    if not 0 <= r <= scenario.n - 1:
        raise ValueError(f"order r={r} outside 0..{scenario.n - 1} for scenario {scenario.name}")


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
    """Compact-leaf integral formula at order r over a declared closed leaf."""
    t0 = time.perf_counter()
    _check_r(scenario, r)
    lf = leaf if leaf is not None and not isinstance(leaf, str) else scenario.leaf(leaf)
    man = scenario.manifold
    if isinstance(man, InvariantFrameManifold):
        lgrid = leaf_grid(man, lf)
    else:
        axes = grid_axes or tuple(scenario.default_grid[ax] for ax in lf.axes)
        lgrid = leaf_grid(man, lf, axes)
    tol = tolerance if tolerance is not None else INTEGRAL_FLOOR

    fld = lambda pts: Geometry(scenario.fol, pts, order=2).leaf_formula_integrand(r)
    residual = integrate(man, fld, lgrid, density=lambda pts: leaf_density(man, lf, pts))
    return make_report(
        f"leaf:{r}", residual, tol, t0, scenario, lgrid,
        preconditions_ok=scenario.flags.harmonic_perp,
        requires_admissible=True,
        leaf=lf.name,
    )


def verify_closed_form_c(scenario, c: float | None = None, grid=None, tolerance=None) -> VerificationReport:
    """Constant-curvature reduction: recursion and closed form for sigma_r totals."""
    return verify_grid_checks(scenario, ["closed-form-c"], grid, tolerance, c)[0]


# -- one pass over a grid for every integral formula ------------------------------------

GRID_CHECKS = ("divergence-selftest", "reeb", "main", "closed-form-c", "sigma2-image")


def verify_grid_checks(scenario, checks, grid=None, tolerance=None, c: float | None = None) -> list[VerificationReport]:
    """Reports of the grid checks ``checks`` on one (scenario, grid), from one pass.

    ``checks`` lists names among ``GRID_CHECKS`` ("main:r", or "main" for
    r = 0; "sigma2-image:c"), in any order; one report comes back per
    entry, in that order.  The grid is calibrated once, and only when a
    report needs the floor: the ``divergence-selftest`` residual is that
    floor, and ``sigma2-image``, a diagnostic, needs none.  Then one
    ``integrate_terms`` pass, with one ``Geometry(order=1)`` per chunk,
    emits only the requested integrands: sigma_1 for ``reeb``; sigma_0..
    sigma_n and the volume for ``closed-form-c``; the main-formula terms
    for each requested r.  The same chunks give the extrema of sigma_2 and
    Ric^P(N, N) for ``sigma2-image``, exact under any chunking.  ``c``
    overrides the scenario's curvature constant for ``closed-form-c`` and
    the constant 0.0 of a ``sigma2-image`` entry that names none.

    The time the reports share, calibration and the grid pass, is charged
    once, to the first report; each later report's ``wall_time_s`` covers
    only its own assembly.  So the wall times of a run never add up to more
    than the run took.
    """
    t0 = time.perf_counter()
    parsed = [name.partition(":")[::2] for name in checks]
    for base, _ in parsed:
        if base not in GRID_CHECKS:
            raise ValueError(f"{base!r} is not a grid check; known: {', '.join(GRID_CHECKS)}")
    bases = {base for base, _ in parsed}
    orders = sorted({int(arg or 0) for base, arg in parsed if base == "main"})
    for r in orders:
        _check_r(scenario, r)
    grid = _grid(scenario, grid)

    tol, floor = tolerance, None
    if "divergence-selftest" in bases or (tolerance is None and bases - {"divergence-selftest", "sigma2-image"}):
        tol, floor = calibrate_tolerance(scenario, grid)
        if tolerance is not None:
            tol = tolerance
    selftest_floor = floor if tolerance is None else None
    sigmas = set()
    if "reeb" in bases:
        sigmas.add(1)
    if "closed-form-c" in bases:
        sigmas.update(range(scenario.n + 1))
    scan = "sigma2-image" in bases
    extrema = {"sigma2_min": np.inf, "sigma2_max": -np.inf, "ricci_p_NN_min": np.inf}

    def terms(pts):
        geom = Geometry(scenario.fol, pts, order=1)
        out = {f"sigma_{k}": geom.sigma.value[..., k] for k in sorted(sigmas)}
        if "closed-form-c" in bases:
            out["volume"] = np.ones(pts.shape[0])
        for r in orders:
            out.update({(f"main:{r}", key): vals for key, vals in _main_terms(geom, r).items()})
        if scan:
            s2, ric = geom.sigma.value[..., 2], geom.ricci_p(geom.N.value)
            extrema["sigma2_min"] = min(extrema["sigma2_min"], float(np.min(s2)))
            extrema["sigma2_max"] = max(extrema["sigma2_max"], float(np.max(s2)))
            extrema["ricci_p_NN_min"] = min(extrema["ricci_p_NN_min"], float(np.min(ric)))
        return out

    integrals = _integrate_terms(scenario, grid, terms) if sigmas or orders or scan else {}
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
            rep = _main_report(scenario, grid, int(arg or 0), integrals, tol, t0, selftest_floor)
        elif base == "closed-form-c":
            rep = _closed_form_c_report(scenario, grid, integrals, c, tol, t0, selftest_floor)
        else:
            rep = _sigma2_image_report(scenario, grid, extrema, float(arg) if arg else 0.0 if c is None else c, t0)
        reports.append(rep)
        t0 = time.perf_counter()
    return reports


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
    with np.errstate(over="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):
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
    return verify_grid_checks(scenario, ["sigma2-image"], grid, c=c)[0]


# -- pointwise identity batteries -------------------------------------------------------


def _sample_points(scenario, samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scenario.manifold.random_points(rng, samples)


def check_divergence_split(scenario, samples: int = 50, seed: int = 31, tolerance: float = FIRST_ORDER_TOL) -> VerificationReport:
    """Divergence split for random D-fields with constant normal component."""
    from .foliation import divx_residual

    t0 = time.perf_counter()
    pts = _sample_points(scenario, samples, seed)
    rng = np.random.default_rng(seed + 1)
    residual = 0.0
    for _ in range(4):
        X = random_distribution_field(scenario.fol, rng)
        residual = max(residual, divx_residual(scenario.fol, X, pts))
    return make_report("div-split", residual, tolerance, t0, scenario, samples=samples)


def check_leaf_divergence_of_normal(scenario, samples: int = 50, seed: int = 37, tolerance: float = FIRST_ORDER_TOL) -> VerificationReport:
    """Leafwise divergence of N equals minus the total mean curvature."""
    t0 = time.perf_counter()
    pts = _sample_points(scenario, samples, seed)
    geom = Geometry(scenario.fol, pts, order=1)
    residual = float(np.max(np.abs(geom.div_F(geom.N) + geom.sigma.value[..., 1])))
    return make_report("leafdiv-normal", residual, tolerance, t0, scenario, samples=samples)


def check_newton_div_agreement(scenario, r: int, samples: int = 50, seed: int = 41, tolerance: float = DIFFERENTIAL_TOL) -> VerificationReport:
    """Direct jet differentiation of T_r vs the inductive curvature-trace formula."""
    t0 = time.perf_counter()
    _check_r(scenario, r)
    pts = _sample_points(scenario, samples, seed)
    geom = Geometry(scenario.fol, pts, order=2)
    residual = float(np.max(np.abs(geom.div_F_newton_direct(r) - geom.div_F_newton_formula(r))))
    return make_report(f"newton-div:{r}", residual, tolerance, t0, scenario, samples=samples)


def check_adapted_identity(scenario, samples: int = 50, seed: int = 43, tolerance: float = DIFFERENTIAL_TOL) -> VerificationReport:
    """Pointwise normal-derivative identity; exact only where admissible."""
    t0 = time.perf_counter()
    pts = _sample_points(scenario, samples, seed)
    residual = Geometry(scenario.fol, pts, order=2).adapted_identity_residual()
    return make_report("adapted-identity", residual, tolerance, t0, scenario, requires_admissible=True, samples=samples)


def check_newton_z_divergence(scenario, r: int, samples: int = 50, seed: int = 47, tolerance: float = DIFFERENTIAL_TOL) -> VerificationReport:
    """Leafwise divergence identity for T_r Z; exact only where admissible."""
    t0 = time.perf_counter()
    _check_r(scenario, r)
    pts = _sample_points(scenario, samples, seed)
    geom = Geometry(scenario.fol, pts, order=2)
    residual = float(np.max(np.abs(geom.newton_z_divergence_residual(r))))
    return make_report(f"newton-z-div:{r}", residual, tolerance, t0, scenario, requires_admissible=True, samples=samples)


def check_codazzi(scenario, samples: int = 50, seed: int = 53, tolerance: float = DIFFERENTIAL_TOL) -> VerificationReport:
    """Codazzi-type residual over all leaf-frame pairs at random points, from one geometry."""
    t0 = time.perf_counter()
    geom = Geometry(scenario.fol, _sample_points(scenario, samples, seed), order=2)
    residual = 0.0
    for i in range(scenario.n):
        for j in range(i + 1, scenario.n):
            residual = max(residual, geom.codazzi_residual(geom.e[..., i, :], geom.e[..., j, :]))
    return make_report("codazzi", residual, tolerance, t0, scenario, samples=samples)


def check_trace_identities(scenario, samples: int = 20, seed: int = 59) -> list[VerificationReport]:
    """Algebraic and field-form Newton trace identities at random points, from one geometry.

    Each report carries the wall time of its own half of the work.
    """
    t0 = time.perf_counter()
    geom = Geometry(scenario.fol, _sample_points(scenario, samples, seed), order=2)
    alg = max(float(np.max(geom.trace_identities_algebraic(r))) for r in range(scenario.n))
    algebraic = make_report("trace-identities:algebraic", alg, ALGEBRAIC_TOL, t0, scenario, samples=samples)
    t1 = time.perf_counter()
    fld = max(geom.trace_identities_field(r) for r in range(scenario.n))
    return [algebraic, make_report("trace-identities:field", fld, DIFFERENTIAL_TOL, t1, scenario, samples=samples)]


def convergence_gap(scenario, check, grid=None) -> tuple[float, float]:
    """Residuals of a check on a grid and on its doubled refinement."""
    grid = _grid(scenario, grid)
    fine = refined(scenario.manifold, grid)
    coarse_report = check(grid)
    fine_report = check(fine)
    return coarse_report.residual, fine_report.residual
