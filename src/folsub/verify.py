"""Integral-formula and pointwise-identity verification with residual reports.

Every check produces a :class:`VerificationReport` carrying the residual,
the tolerance it was judged against, a verdict, the scenario's measured
admissibility residual, per-term integrals, grid metadata and wall time.

Verdict policy: a report passes only if the residual meets tolerance AND the
scenario satisfies the hypotheses the formula's derivation needs.  Formulas
whose derivation uses the adapted-frame pointwise identity are gated on the
admissibility residual; scenarios violating it report "inadmissible" (with
the residual still recorded) rather than "fail", because a hypothesis
violation is not a defect.  Missing harmonicity reports
"precondition-violation".  Diagnostics that are not pass/fail gates report
"info".

Integral tolerances are calibrated per scenario and grid: the divergence
theorem applied to seeded random smooth fields measures the truncation floor
of the differentiation-plus-quadrature stack, and the tolerance is
max(1e-7, 10x that floor).
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
from .foliation import Geometry
from .manifolds import InvariantFrameManifold, divergence
from .quadrature import QuadratureGrid, grid_for, integrate, leaf_density, leaf_grid, refined

INTEGRAL_FLOOR = 1e-7
ADMISSIBLE_TOL = 1e-8
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

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


def _verdict(residual, tolerance, admissibility_max, requires_admissible, harmonic_ok=True):
    if not harmonic_ok:
        return "precondition-violation"
    if requires_admissible and admissibility_max > ADMISSIBLE_TOL:
        return "inadmissible"
    return "pass" if abs(residual) <= tolerance else "fail"


def _grid(scenario, axes=None) -> QuadratureGrid:
    if isinstance(scenario.manifold, InvariantFrameManifold):
        return grid_for(scenario.manifold)
    return grid_for(scenario.manifold, axes or scenario.default_grid)


def _grid_meta(scenario, grid: QuadratureGrid, **extra) -> dict:
    meta = {"scenario": scenario.name, "axes": list(grid.axes), "points": grid.count}
    meta.update(extra)
    return meta


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
    """Worst |integral of Div X| over seeded random smooth fields."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(fields):
        X = random_ambient_field(scenario.manifold, rng)
        val = integrate(scenario.manifold, lambda pts: divergence(scenario.manifold, X, pts), grid)
        worst = max(worst, abs(val))
    return worst


def calibrate_tolerance(scenario, grid: QuadratureGrid) -> tuple[float, float]:
    floor = divergence_selftest_residual(scenario, grid)
    return max(INTEGRAL_FLOOR, 10.0 * floor), floor


def verify_divergence_theorem(scenario, X_field=None, grid=None, tolerance=None) -> VerificationReport:
    """Self-test: the divergence of a smooth field integrates to zero."""
    t0 = time.perf_counter()
    grid = grid if isinstance(grid, QuadratureGrid) else _grid(scenario, grid)
    if X_field is None:
        residual = divergence_selftest_residual(scenario, grid)
    else:
        residual = abs(
            integrate(scenario.manifold, lambda pts: divergence(scenario.manifold, X_field, pts), grid)
        )
    tol = tolerance if tolerance is not None else FIRST_ORDER_TOL
    return VerificationReport(
        formula_id="divergence-selftest",
        residual=residual,
        tolerance=tol,
        verdict="pass" if residual <= tol else "fail",
        admissibility_max=scenario.residuals["admissibility_max"],
        grid=_grid_meta(scenario, grid),
        wall_time_s=time.perf_counter() - t0,
    )


# -- integral formulas ----------------------------------------------------------------


def _main_terms(geom, r: int) -> dict:
    """Pointwise terms of the main integral formula, plus diagnostics."""
    out = {}
    out["sigma"] = (r + 2) * geom.sigma_arr(r + 2)
    MN = geom.rp_matrix(geom.Narr)
    Tr = geom.newton_arr(r)
    out["normal_curvature"] = np.einsum("...ik,...ki->...", Tr, MN)
    tz = np.zeros(geom.batch)
    Aj = geom.Z_leaf_arr
    for j in range(1, r + 1):
        Xarr = np.einsum("...i,...im->...m", Aj, geom.E)
        M = geom.rp_matrix(Xarr)
        tz = tz + (-1.0) ** (j - 1) * np.einsum("...ik,...ki->...", geom.newton_arr(r - j), M)
        Aj = np.einsum("...ik,...k->...i", geom.A_arr, Aj)
    out["z_curvature"] = tz

    MN_R = geom.riemann_matrix(geom.Narr)
    out["normal_curvature_riemannian"] = np.einsum("...ik,...ki->...", Tr, MN_R)
    tzr = np.zeros(geom.batch)
    Aj = geom.Z_leaf_arr
    for j in range(1, r + 1):
        Xarr = np.einsum("...i,...im->...m", Aj, geom.E)
        M = geom.riemann_matrix(Xarr)
        tzr = tzr + (-1.0) ** (j - 1) * np.einsum("...ik,...ki->...", geom.newton_arr(r - j), M)
        Aj = np.einsum("...ik,...k->...i", geom.A_arr, Aj)
    out["z_curvature_riemannian"] = tzr

    TZ = np.einsum("...ij,...j->...i", Tr, geom.Z_leaf_arr)
    TZamb = np.einsum("...i,...im->...m", TZ, geom.E)
    out["trz_hperp"] = np.einsum("...m,...mk,...k->...", TZamb, geom.g_arr, geom.Hperp_arr)
    out["trz_z"] = np.einsum("...i,...i->...", TZ, geom.Z_leaf_arr)
    out["z_norm_sq"] = np.einsum("...i,...i->...", geom.Z_leaf_arr, geom.Z_leaf_arr)
    return out


def _check_r(scenario, r: int):
    if not 0 <= r <= scenario.n - 1:
        raise ValueError(f"order r={r} outside 0..{scenario.n - 1} for scenario {scenario.name}")


def _integrate_terms(scenario, grid: QuadratureGrid, term_fn, density=None) -> dict:
    """Integrate a dict of pointwise term arrays in one geometry pass per chunk.

    Samples accumulate in grid order per key and reduce with fsum, so the
    result is deterministic and independent of the chunk size.
    """
    from .quadrature import CHUNK

    man = scenario.manifold
    samples: dict[str, list[float]] = {}
    for start in range(0, grid.count, CHUNK):
        pts = grid.nodes[start : start + CHUNK]
        w = grid.weights[start : start + CHUNK]
        dens = man.volume_density(pts) if density is None else density(pts)
        terms = term_fn(pts)
        for key, vals in terms.items():
            block = (np.asarray(vals, dtype=float) + np.zeros(pts.shape[0])) * dens * w
            samples.setdefault(key, []).extend(block.tolist())
    return {key: math.fsum(vals) for key, vals in samples.items()}


def verify_reeb(scenario, grid=None, tolerance=None) -> VerificationReport:
    """Total mean curvature vanishes when the orthogonal distribution is harmonic."""
    t0 = time.perf_counter()
    grid = grid if isinstance(grid, QuadratureGrid) else _grid(scenario, grid)
    tol, floor = (tolerance, None) if tolerance is not None else calibrate_tolerance(scenario, grid)

    def fld(pts):
        return Geometry(scenario.fol, pts, order=1).sigma_arr(1)

    residual = integrate(scenario.manifold, fld, grid)
    verdict = _verdict(residual, tol, 0.0, False, harmonic_ok=scenario.flags.harmonic_perp)
    return VerificationReport(
        formula_id="reeb",
        residual=residual,
        tolerance=tol,
        verdict=verdict,
        admissibility_max=scenario.residuals["admissibility_max"],
        grid=_grid_meta(scenario, grid, selftest_floor=floor),
        terms={"sigma1_integral": residual},
        wall_time_s=time.perf_counter() - t0,
    )


def verify_main(scenario, r: int, grid=None, tolerance=None) -> VerificationReport:
    """Closed-manifold integral formula at order r, with per-term integrals."""
    t0 = time.perf_counter()
    _check_r(scenario, r)
    grid = grid if isinstance(grid, QuadratureGrid) else _grid(scenario, grid)
    tol, floor = (tolerance, None) if tolerance is not None else calibrate_tolerance(scenario, grid)

    integrals = _integrate_terms(
        scenario, grid, lambda pts: _main_terms(Geometry(scenario.fol, pts, order=2), r)
    )
    residual = integrals["sigma"] - integrals["normal_curvature"] - integrals["z_curvature"]
    riemannian = (
        integrals["sigma"]
        - integrals["normal_curvature_riemannian"]
        - integrals["z_curvature_riemannian"]
    )
    verdict = _verdict(
        residual, tol, scenario.residuals["admissibility_max"], True, scenario.flags.harmonic_perp
    )
    terms = {
        "sigma_term": integrals["sigma"],
        "normal_curvature_term": integrals["normal_curvature"],
        "z_curvature_term": integrals["z_curvature"],
        "riemannian_substituted_residual": riemannian,
        "trz_hperp_coupling": integrals["trz_hperp"],
        "z_norm_sq_integral": integrals["z_norm_sq"],
    }
    return VerificationReport(
        formula_id=f"main:{r}",
        residual=residual,
        tolerance=tol,
        verdict=verdict,
        admissibility_max=scenario.residuals["admissibility_max"],
        grid=_grid_meta(scenario, grid, selftest_floor=floor),
        terms=terms,
        wall_time_s=time.perf_counter() - t0,
    )


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

    def fld(pts):
        geom = Geometry(scenario.fol, pts, order=2)
        terms = _main_terms(geom, r)
        n_sigma = geom.direction_derivative(geom.sigma_jet(r + 1), geom.Narr)
        return (
            terms["sigma"]
            + n_sigma
            - geom.sigma_arr(1) * geom.sigma_arr(r + 1)
            - terms["normal_curvature"]
            - terms["trz_z"]
            - terms["z_curvature"]
        )

    residual = integrate(man, fld, lgrid, density=lambda pts: leaf_density(man, lf, pts))
    verdict = _verdict(
        residual, tol, scenario.residuals["admissibility_max"], True, scenario.flags.harmonic_perp
    )
    return VerificationReport(
        formula_id=f"leaf:{r}",
        residual=residual,
        tolerance=tol,
        verdict=verdict,
        admissibility_max=scenario.residuals["admissibility_max"],
        grid=_grid_meta(scenario, lgrid, leaf=lf.name),
        wall_time_s=time.perf_counter() - t0,
    )


def total_mean_curvatures(scenario, grid=None) -> np.ndarray:
    """Integrals of sigma_r over the manifold for r = 0..n."""
    grid = grid if isinstance(grid, QuadratureGrid) else _grid(scenario, grid)

    def terms(pts):
        geom = Geometry(scenario.fol, pts, order=1)
        return {str(r): geom.sigma_arr(r) for r in range(scenario.n + 1)}

    integrals = _integrate_terms(scenario, grid, terms)
    return np.array([integrals[str(r)] for r in range(scenario.n + 1)])


def verify_closed_form_c(scenario, c: float | None = None, grid=None, tolerance=None) -> VerificationReport:
    """Constant-curvature reduction: recursion and closed form for sigma_r totals."""
    t0 = time.perf_counter()
    grid = grid if isinstance(grid, QuadratureGrid) else _grid(scenario, grid)
    tol, floor = (tolerance, None) if tolerance is not None else calibrate_tolerance(scenario, grid)
    c = scenario.flags.pcurv_c if c is None else c
    precondition_ok = bool(scenario.flags.satisfies_pcurv_c and c is not None and scenario.flags.harmonic_perp)
    if c is None:
        c = 0.0

    n = scenario.n
    S = total_mean_curvatures(scenario, grid)
    vol = integrate(scenario.manifold, lambda pts: np.ones(pts.shape[0]), grid)
    Sget = lambda k: S[k] if k <= n else 0.0
    residual = 0.0
    for r in range(0, n):
        residual = max(residual, abs((r + 2) * Sget(r + 2) - c * (n - r) * S[r]))
    for r in range(1, n + 1, 2):
        residual = max(residual, abs(S[r]))
    if n % 2 == 0:
        for r in range(0, n + 1, 2):
            residual = max(residual, abs(S[r] - newton.total_curvature_closed_constant(n, r, c, vol)))
    verdict = _verdict(
        residual, tol, scenario.residuals["admissibility_max"], True, harmonic_ok=precondition_ok
    )
    return VerificationReport(
        formula_id="closed-form-c",
        residual=residual,
        tolerance=tol,
        verdict=verdict,
        admissibility_max=scenario.residuals["admissibility_max"],
        grid=_grid_meta(scenario, grid, selftest_floor=floor, c=c),
        terms={f"total_sigma_{r}": float(S[r]) for r in range(n + 1)},
        wall_time_s=time.perf_counter() - t0,
    )


def verify_closed_form_einstein(n: int, C: float, vol: float, tolerance: float = ALGEBRAIC_TOL) -> VerificationReport:
    """Umbilical Einstein-type reduction: recurrence vs closed form, exact coefficients."""
    t0 = time.perf_counter()
    residual = 0.0
    S = newton.total_curvature_recursion_einstein(n, C, vol)
    for r in range(1, n + 1, 2):
        residual = max(residual, abs(S[r]))
    if n % 2 == 0:
        for r in range(0, n + 1, 2):
            residual = max(residual, abs(S[r] - newton.total_curvature_closed_einstein(n, r, C, vol)))

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
    verdict = "pass" if residual <= tolerance and coeff_exact else "fail"
    return VerificationReport(
        formula_id="closed-form-einstein",
        residual=residual,
        tolerance=tolerance,
        verdict=verdict,
        admissibility_max=0.0,
        grid={"n": n, "C": C, "vol": vol},
        terms={"coefficients_exact": float(coeff_exact)},
        wall_time_s=time.perf_counter() - t0,
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
    verdict = "pass" if residual <= tolerance and binomial_ok else "fail"
    return VerificationReport(
        formula_id="umbilical-reduction",
        residual=residual,
        tolerance=tolerance,
        verdict=verdict,
        admissibility_max=0.0,
        grid={"samples": samples},
        terms={"binomial_identity_exact": float(binomial_ok)},
        wall_time_s=time.perf_counter() - t0,
    )


def sigma2_image_diagnostic(scenario, c: float = 0.0, grid=None) -> VerificationReport:
    """Range of sigma_2 over the grid; diagnostic only, never a gate."""
    t0 = time.perf_counter()
    grid = grid if isinstance(grid, QuadratureGrid) else _grid(scenario, grid)
    geom = Geometry(scenario.fol, grid.nodes, order=2)
    s2 = geom.sigma_arr(2)
    ric = geom.ricci_p(geom.Narr)
    terms = {
        "sigma2_min": float(np.min(s2)),
        "sigma2_max": float(np.max(s2)),
        "ricci_p_NN_min": float(np.min(ric)),
        "interval_witnessed": float(np.min(s2) <= 0.0 < c < np.max(s2)),
        "ricci_bound_holds": float(np.min(ric) >= 2.0 * c),
    }
    return VerificationReport(
        formula_id="sigma2-image",
        residual=0.0,
        tolerance=np.inf,
        verdict="info",
        admissibility_max=scenario.residuals["admissibility_max"],
        grid=_grid_meta(scenario, grid, c=c),
        terms=terms,
        wall_time_s=time.perf_counter() - t0,
    )


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
    return VerificationReport(
        formula_id="div-split",
        residual=residual,
        tolerance=tolerance,
        verdict="pass" if residual <= tolerance else "fail",
        admissibility_max=scenario.residuals["admissibility_max"],
        grid={"scenario": scenario.name, "samples": samples},
        wall_time_s=time.perf_counter() - t0,
    )


def check_leaf_divergence_of_normal(scenario, samples: int = 50, seed: int = 37, tolerance: float = FIRST_ORDER_TOL) -> VerificationReport:
    """Leafwise divergence of N equals minus the total mean curvature."""
    t0 = time.perf_counter()
    pts = _sample_points(scenario, samples, seed)
    geom = Geometry(scenario.fol, pts, order=1)
    residual = float(np.max(np.abs(geom.div_F(geom.N) + geom.sigma_arr(1))))
    return VerificationReport(
        formula_id="leafdiv-normal",
        residual=residual,
        tolerance=tolerance,
        verdict="pass" if residual <= tolerance else "fail",
        admissibility_max=scenario.residuals["admissibility_max"],
        grid={"scenario": scenario.name, "samples": samples},
        wall_time_s=time.perf_counter() - t0,
    )


def check_newton_div_agreement(scenario, r: int, samples: int = 50, seed: int = 41, tolerance: float = DIFFERENTIAL_TOL) -> VerificationReport:
    """Direct jet differentiation of T_r vs the inductive curvature-trace formula."""
    t0 = time.perf_counter()
    _check_r(scenario, r)
    pts = _sample_points(scenario, samples, seed)
    geom = Geometry(scenario.fol, pts, order=2)
    residual = float(np.max(np.abs(geom.div_F_newton_direct(r) - geom.div_F_newton_formula(r))))
    return VerificationReport(
        formula_id=f"newton-div:{r}",
        residual=residual,
        tolerance=tolerance,
        verdict="pass" if residual <= tolerance else "fail",
        admissibility_max=scenario.residuals["admissibility_max"],
        grid={"scenario": scenario.name, "samples": samples},
        wall_time_s=time.perf_counter() - t0,
    )


def check_adapted_identity(scenario, samples: int = 50, seed: int = 43, tolerance: float = DIFFERENTIAL_TOL) -> VerificationReport:
    """Pointwise normal-derivative identity; exact only where admissible."""
    t0 = time.perf_counter()
    pts = _sample_points(scenario, samples, seed)
    residual = Geometry(scenario.fol, pts, order=2).adapted_identity_residual()
    verdict = _verdict(residual, tolerance, scenario.residuals["admissibility_max"], True)
    return VerificationReport(
        formula_id="adapted-identity",
        residual=residual,
        tolerance=tolerance,
        verdict=verdict,
        admissibility_max=scenario.residuals["admissibility_max"],
        grid={"scenario": scenario.name, "samples": samples},
        wall_time_s=time.perf_counter() - t0,
    )


def check_newton_z_divergence(scenario, r: int, samples: int = 50, seed: int = 47, tolerance: float = DIFFERENTIAL_TOL) -> VerificationReport:
    """Leafwise divergence identity for T_r Z; exact only where admissible."""
    t0 = time.perf_counter()
    _check_r(scenario, r)
    pts = _sample_points(scenario, samples, seed)
    geom = Geometry(scenario.fol, pts, order=2)
    residual = float(np.max(np.abs(geom.newton_z_divergence_residual(r))))
    verdict = _verdict(residual, tolerance, scenario.residuals["admissibility_max"], True)
    return VerificationReport(
        formula_id=f"newton-z-div:{r}",
        residual=residual,
        tolerance=tolerance,
        verdict=verdict,
        admissibility_max=scenario.residuals["admissibility_max"],
        grid={"scenario": scenario.name, "samples": samples},
        wall_time_s=time.perf_counter() - t0,
    )


def check_codazzi(scenario, samples: int = 50, seed: int = 53, tolerance: float = DIFFERENTIAL_TOL) -> VerificationReport:
    """Codazzi-type residual over all leaf-frame pairs at random points."""
    from .foliation import codazzi_residual, leaf_field

    t0 = time.perf_counter()
    pts = _sample_points(scenario, samples, seed)
    residual = 0.0
    for i in range(scenario.n):
        for j in range(i + 1, scenario.n):
            residual = max(
                residual,
                codazzi_residual(scenario.fol, leaf_field(scenario.fol, i), leaf_field(scenario.fol, j), pts),
            )
    return VerificationReport(
        formula_id="codazzi",
        residual=residual,
        tolerance=tolerance,
        verdict="pass" if residual <= tolerance else "fail",
        admissibility_max=scenario.residuals["admissibility_max"],
        grid={"scenario": scenario.name, "samples": samples},
        wall_time_s=time.perf_counter() - t0,
    )


def check_trace_identities(scenario, samples: int = 20, seed: int = 59) -> list[VerificationReport]:
    """Algebraic and field-form Newton trace identities at random points.

    Each report carries the wall time of its own half of the work.
    """
    from .foliation import trace_identities_algebraic, trace_identities_field

    pts = _sample_points(scenario, samples, seed)
    t0 = time.perf_counter()
    alg = max(float(np.max(trace_identities_algebraic(scenario.fol, r, pts))) for r in range(scenario.n))
    t1 = time.perf_counter()
    fld = max(float(trace_identities_field(scenario.fol, r, pts)) for r in range(scenario.n))
    t2 = time.perf_counter()
    mk = lambda fid, resid, tol, dt: VerificationReport(
        formula_id=fid,
        residual=resid,
        tolerance=tol,
        verdict="pass" if resid <= tol else "fail",
        admissibility_max=scenario.residuals["admissibility_max"],
        grid={"scenario": scenario.name, "samples": samples},
        wall_time_s=dt,
    )
    return [
        mk("trace-identities:algebraic", alg, ALGEBRAIC_TOL, t1 - t0),
        mk("trace-identities:field", fld, DIFFERENTIAL_TOL, t2 - t1),
    ]


def convergence_gap(scenario, check, grid=None) -> tuple[float, float]:
    """Residuals of a check on a grid and on its doubled refinement."""
    grid = grid if isinstance(grid, QuadratureGrid) else _grid(scenario, grid)
    fine = refined(scenario.manifold, grid)
    coarse_report = check(grid)
    fine_report = check(fine)
    return coarse_report.residual, fine_report.residual
