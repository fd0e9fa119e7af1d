"""Catalog of closed foliated sub-Riemannian example manifolds.

Every scenario bundles a backend manifold, a distribution with orthonormal
frames, a foliation structure, analytically derived expected values with
provenance notes, a catalog of closed leaves, and property flags.  Flags are
claims: each one is re-measured numerically at construction over a sampling
grid, and a contradiction raises :class:`ConstructionError` rather than
shipping a mislabeled example.

Each family is built from one skeleton: ``_foliation`` assembles
D = span(leaf frame, N), ``_warped_manifold`` and ``_warped_volume`` give the
warped and tilted tori their one metric and volume, ``_invariant_scenario``
builds the homogeneous examples, and ``_finalize`` measures the flags.  None
of them asks which backend a manifold is; :mod:`folsub.quadrature` decides.

The chart warps ship as closed-form profiles with explicit first and second
derivatives, so the expected-value fixtures are independent of the jet
machinery they are later compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jets
from .distribution import HARMONIC_TOL, DistributionSpec, frame_gram_residual
from .errors import ConfigError, ConstructionError
from .foliation import FoliationStructure, Geometry, distinct_nodes
from .foliation import integrability_residual  # unused here; perfbench/tracing.py patches this name
from .manifolds import ChartManifold, InvariantFrameManifold
from .quadrature import grid_for, total_volume

ADMISSIBLE_TOL = 1e-8
CURV_INVARIANT_TOL = 1e-9
UMBILICAL_TOL = 1e-10
FRAME_TOL = 1e-12
INTEGRABILITY_TOL = 1e-9
EXTRA_RANDOM_POINTS = 32  # random points added to the capped default grid when measuring the flags


@dataclass(frozen=True)
class Periodic1D:
    """Smooth 2*pi-periodic profile with closed-form first two derivatives."""

    fn: Callable
    d1: Callable
    d2: Callable

    def __call__(self, z):
        return jets.lift(z, self.fn, self.d1, self.d2)


TWO_PLUS_COS = Periodic1D(lambda z: 2.0 + np.cos(z), lambda z: -np.sin(z), lambda z: -np.cos(z))
TWO_PLUS_SIN = Periodic1D(lambda z: 2.0 + np.sin(z), lambda z: np.cos(z), lambda z: -np.sin(z))


def sine_profile(amplitude: float) -> Periodic1D:
    a = float(amplitude)
    return Periodic1D(lambda z: a * np.sin(z), lambda z: a * np.cos(z), lambda z: -a * np.sin(z))


def fourier_profile(const: float = 0.0, cos1: float = 0.0, sin1: float = 0.0) -> Periodic1D:
    """First-harmonic profile const + cos1 cos z + sin1 sin z."""
    return Periodic1D(
        lambda z: const + cos1 * np.cos(z) + sin1 * np.sin(z),
        lambda z: -cos1 * np.sin(z) + sin1 * np.cos(z),
        lambda z: -cos1 * np.cos(z) - sin1 * np.sin(z),
    )


@dataclass(frozen=True)
class LeafSpec:
    """A closed leaf: fixed transverse coordinates and leaf axes, or a volume."""

    name: str
    fixed: dict = field(default_factory=dict)
    axes: tuple = ()
    volume: float | None = None


@dataclass(frozen=True)
class ScenarioFlags:
    harmonic_perp: bool
    admissible: bool
    p_curvature_invariant: bool
    satisfies_pcurv_c: bool
    pcurv_c: float | None
    umbilical: bool


@dataclass(frozen=True)
class ExpectedValue:
    """A closed-form fixture (float or points -> array) plus its provenance."""

    value: object
    note: str


@dataclass(frozen=True)
class Scenario:
    name: str
    manifold: object
    dist: DistributionSpec
    fol: FoliationStructure
    flags: ScenarioFlags
    residuals: dict
    expected: dict
    leaves: tuple
    default_grid: tuple
    volume: float

    @property
    def n(self) -> int:
        return self.fol.n

    def leaf(self) -> LeafSpec:
        """The closed leaf the ``leaf:r`` checks integrate over; a scenario declares at most one."""
        from .errors import UnsupportedLeafError

        if not self.leaves:
            raise UnsupportedLeafError(f"scenario {self.name} declares no closed leaves")
        return self.leaves[0]


# -- numerical flag measurement ------------------------------------------------


def _sample_points(manifold, default_grid) -> np.ndarray:
    capped = tuple(min(k, 16) for k in default_grid)
    pts = grid_for(manifold, capped).nodes
    rng = np.random.default_rng(20270)
    return np.concatenate([pts, manifold.random_points(rng, EXTRA_RANDOM_POINTS)], axis=0)


def _curvature_invariance_residual(geom) -> float:
    """Max off-leaf norm of R^P(e_i, e_j)e_k over leaf-frame triples."""
    E = geom.e.value
    T = np.einsum("...lkab,...Kk,...Ia,...Jb->...KIJl", geom.RP, E, E, E)
    coeff = np.einsum("...ql,...KIJl->...KIJq", geom.E_low, T)
    tang = np.einsum("...KIJq,...ql->...KIJl", coeff, E)
    off = T - tang
    norms = np.einsum("...KIJl,...lm,...KIJm->...KIJ", off, geom.g.value, off)
    return float(np.sqrt(max(np.max(norms), 0.0)))


def _pcurv_constant_residual(geom, c: float) -> float:
    """Max deviation of R^P on D-frame triples from the constant-curvature form."""
    F = np.concatenate([geom.e.value, geom.N.value[..., None, :]], axis=-2)
    T = np.einsum("...lkab,...Kk,...Ia,...Jb->...IJKl", geom.RP, F, F, F)
    d = F.shape[-2]
    eye = np.eye(d)
    want = c * (
        np.einsum("JK,...Il->...IJKl", eye, F) - np.einsum("IK,...Jl->...IJKl", eye, F)
    )
    diff = T - want
    norms = np.einsum("...IJKl,...lm,...IJKm->...IJK", diff, geom.g.value, diff)
    return float(np.sqrt(max(np.max(norms), 0.0)))


def _umbilical_residual(geom) -> float:
    H = geom.sigma.value[..., 1] / geom.n
    dev = geom.A.value - H[..., None, None] * np.eye(geom.n)
    return float(np.max(np.abs(dev)))


def measure_scenario(fol: FoliationStructure, points, pcurv_c: float | None) -> dict:
    """Numerically measured residuals behind every scenario flag.

    Each residual is a maximum over ``points``, so one ``Geometry(order=1)``
    on their distinct nodes gives it: a repeated node repeats its values.
    The nodes are grouped over all of ``points`` by the grid passes'
    grouping (:func:`foliation.distinct_nodes`).
    """
    points = np.asarray(points, dtype=float)
    geom = Geometry(fol, points[distinct_nodes(fol, points)[0]], order=1)
    H, g = geom.Hperp.value, geom.g.value
    hperp = np.sqrt(np.maximum(np.einsum("...i,...ij,...j->...", H, g, H), 0.0))
    frames = np.concatenate([geom.e.value, geom.N.value[..., None, :], geom.xis.value], axis=-2)
    out = {
        "frame_orthonormality": frame_gram_residual(g, frames),
        "integrability": geom.integrability_residual(),
        "mean_curvature_perp_max": float(np.max(hperp)),
        "admissibility_max": geom.admissibility_residual(),
        "p_curvature_invariance": _curvature_invariance_residual(geom),
        "umbilical_deviation": _umbilical_residual(geom),
        "shape_asymmetry": geom.A_asym,
    }
    if pcurv_c is not None:
        out["pcurv_constant"] = _pcurv_constant_residual(geom, pcurv_c)
    return out


def _finalize(
    name: str,
    fol: FoliationStructure,
    declared: dict,
    expected: dict,
    leaves: tuple,
    default_grid: tuple,
) -> Scenario:
    manifold = fol.manifold
    points = _sample_points(manifold, default_grid)
    pcurv_c = declared.get("pcurv_c")
    res = measure_scenario(fol, points, pcurv_c)

    if res["frame_orthonormality"] > FRAME_TOL:
        raise ConstructionError(f"{name}: frames not orthonormal ({res['frame_orthonormality']:.2e})")
    if res["integrability"] > INTEGRABILITY_TOL:
        raise ConstructionError(f"{name}: leaf bundle not integrable ({res['integrability']:.2e})")

    measured = ScenarioFlags(
        harmonic_perp=res["mean_curvature_perp_max"] <= HARMONIC_TOL,
        admissible=res["admissibility_max"] <= ADMISSIBLE_TOL,
        p_curvature_invariant=res["p_curvature_invariance"] <= CURV_INVARIANT_TOL,
        satisfies_pcurv_c=pcurv_c is not None and res.get("pcurv_constant", np.inf) <= CURV_INVARIANT_TOL,
        pcurv_c=pcurv_c,
        umbilical=res["umbilical_deviation"] <= UMBILICAL_TOL,
    )
    for key in ("harmonic_perp", "admissible", "p_curvature_invariant", "satisfies_pcurv_c", "umbilical"):
        want = declared.get(key)
        if want is not None and want != getattr(measured, key):
            raise ConstructionError(
                f"{name}: declared {key}={want} contradicts measurement {getattr(measured, key)}"
            )

    return Scenario(
        name=name,
        manifold=manifold,
        dist=fol.dist,
        fol=fol,
        flags=measured,
        residuals=res,
        expected=expected,
        leaves=leaves,
        default_grid=default_grid,
        volume=total_volume(manifold, grid_for(manifold, default_grid)),
    )


# -- shared construction ---------------------------------------------------------


def _unit(m: int, i: int) -> list:
    """The constant unit vector along axis i of an m-dimensional frame."""
    return [1.0 if k == i else 0.0 for k in range(m)]


def _foliation(man, n: int, leaf_frame, normal, perp, witness: str) -> FoliationStructure:
    """Foliation by the leaves of ``leaf_frame``, inside D = span(leaf frame, normal); ``perp`` spans D's complement."""
    dist = DistributionSpec(man, n + 1, lambda coords: leaf_frame(coords) + [normal(coords)], perp)
    return FoliationStructure(dist, leaf_frame, normal, witness)


def _check_positive(profile: Periodic1D, label: str):
    z = np.linspace(0.0, 2.0 * np.pi, 512)
    if np.min(profile.fn(z)) <= 0.0:
        raise ConstructionError(f"warp profile {label} is not strictly positive")


def _warped_manifold(warps: tuple, name: str) -> ChartManifold:
    """The 2*pi-periodic torus with metric dx^2 + sum_i w_i(z)^2 dy_i^2 + dz^2, z the last coordinate."""
    for w, label in zip(warps, "ab"):
        _check_positive(w, label)
    m = len(warps) + 2

    def metric(coords):
        diag = [1.0] + [v * v for v in (w(coords[m - 1]) for w in warps)] + [1.0]
        return [[diag[i] if k == i else 0.0 for k in range(m)] for i in range(m)]

    return ChartManifold(dim=m, periods=(2.0 * np.pi,) * m, metric=metric, name=name)


def _loop_integral(fn, k: int = 4096) -> float:
    z = np.arange(k) * (2.0 * np.pi / k)
    return float(np.sum(fn(z)) * (2.0 * np.pi / k))


def _warped_volume(warps: tuple) -> float:
    """Volume of the warped metric: (2 pi)^(m-1) times the loop integral of the warp product."""
    return (2.0 * np.pi) ** (len(warps) + 1) * _loop_integral(lambda z: math.prod(w.fn(z) for w in warps))


# -- chart builders --------------------------------------------------------------


def build_flat_torus(m: int = 3, n: int = 1) -> Scenario:
    """Flat unit m-torus, leaves spanned by the first n coordinates; everything vanishes."""
    if not 1 <= n < m - 1:
        raise ValueError("need 1 <= n < m - 1 so the orthogonal complement is nonempty")
    man = ChartManifold(dim=m, periods=(1.0,) * m, metric=lambda coords: jets.mat_identity(m), name="flat_torus")
    fol = _foliation(
        man,
        n,
        lambda coords: [_unit(m, i) for i in range(n)],
        lambda coords: _unit(m, n),
        lambda coords: [_unit(m, i) for i in range(n + 1, m)],
        "leaves are coordinate subtori",
    )
    expected = {
        "shape_operator": ExpectedValue(lambda pts: np.zeros(np.shape(pts)[:-1] + (n, n)), "flat metric"),
        "curvature_Z": ExpectedValue(lambda pts: np.zeros(np.shape(pts)), "flat metric"),
        "ricci_p_NN": ExpectedValue(0.0, "flat metric"),
        "admissibility_residual": ExpectedValue(0.0, "flat metric"),
        "mean_curvature_perp_norm": ExpectedValue(0.0, "flat metric"),
        "volume": ExpectedValue(1.0, "product of periods"),
    }
    leaves = (LeafSpec("coordinate-leaf", fixed={i: 0.0 for i in range(n, m)}, axes=tuple(range(n))),)
    declared = dict(
        harmonic_perp=True,
        admissible=True,
        p_curvature_invariant=True,
        satisfies_pcurv_c=True,
        pcurv_c=0.0,
        umbilical=True,
    )
    return _finalize("flat_torus", fol, declared, expected, leaves, default_grid=(4,) * m)


def build_warped_torus(
    m: int = 4,
    a: Periodic1D = TWO_PLUS_COS,
    b: Periodic1D = TWO_PLUS_SIN,
    name: str | None = None,
) -> Scenario:
    """Warped torus with z-dependent leaf scales; the primary admissible testbed.

    m = 4: metric dx^2 + a(z)^2 dy1^2 + b(z)^2 dy2^2 + dz^2, leaves the
    (y1, y2)-tori.  m = 3 drops the y2 factor.  The orthogonal complement is
    the flat x-circle, so it is harmonic, and the normal z-lines are geodesic.
    """
    if m not in (3, 4):
        raise ValueError("warped torus is implemented for m in {3, 4}")
    name = name or f"warped_torus_{m}"
    warps = (a, b)[: m - 2]
    n, zi = m - 2, m - 1
    man = _warped_manifold(warps, name)
    leaf_frame = lambda coords: [
        [1.0 / w(coords[zi]) if k == i + 1 else 0.0 for k in range(m)] for i, w in enumerate(warps)
    ]
    fol = _foliation(
        man,
        n,
        leaf_frame,
        lambda coords: _unit(m, zi),
        lambda coords: [_unit(m, 0)],
        "leaves are coordinate subtori at fixed (x, z)",
    )

    def expected_A(pts):
        z = np.asarray(pts)[..., zi]
        d = np.stack([-w.d1(z) / w.fn(z) for w in warps], axis=-1)
        return d[..., :, None] * np.eye(n)

    def expected_ric(pts):
        z = np.asarray(pts)[..., zi]
        out = -a.d2(z) / a.fn(z)
        for w in warps[1:]:
            out = out - w.d2(z) / w.fn(z)
        return out

    expected = {
        "shape_operator": ExpectedValue(expected_A, "hand-derived warped-product connection"),
        "ricci_p_NN": ExpectedValue(expected_ric, "hand-derived warped-product curvature"),
        "curvature_Z": ExpectedValue(lambda pts: np.zeros(np.shape(pts)), "z-lines are geodesics"),
        "admissibility_residual": ExpectedValue(0.0, "x-circle is flat and orthogonal"),
        "mean_curvature_perp_norm": ExpectedValue(0.0, "x-circle is flat"),
        "volume": ExpectedValue(_warped_volume(warps), "reduced 1-d integral"),
    }
    leaves = (LeafSpec(("y-circle", "y-torus")[n - 1], fixed={0: 0.0, zi: 0.0}, axes=tuple(range(1, zi))),)
    # A 1x1 shape operator is trivially umbilical, and so is one with equal warps;
    # otherwise umbilicity is left to the measurement.
    umbilical = True if a is b or n == 1 else None
    declared = dict(harmonic_perp=True, admissible=True, umbilical=umbilical)
    return _finalize(name, fol, declared, expected, leaves, default_grid=(4,) * zi + (32,))


def build_tilted_torus(
    theta: Periodic1D | None = None,
    a: Periodic1D = TWO_PLUS_COS,
    b: Periodic1D = TWO_PLUS_SIN,
) -> Scenario:
    """Warped 4-torus with the unit normal rotated inside the distribution.

    The rotation profile theta(z) tilts N toward the y2-direction, which
    turns on the leaf curvature vector Z while keeping the leaf bundle
    integrable (the rotated frame still commutes with the y1-circle).  Leaves
    through z with sin(theta(z)) = 0 remain closed coordinate tori.
    """
    theta = theta or sine_profile(0.3)
    n = 2
    man = _warped_manifold((a, b), "tilted_torus_4")

    def leaf_frame(coords):
        z = coords[3]
        c, s = jets.cos(theta(z)), jets.sin(theta(z))
        return [
            [0.0, 1.0 / a(z), 0.0, 0.0],
            [0.0, 0.0, c / b(z), -1.0 * s],
        ]

    def normal(coords):
        z = coords[3]
        c, s = jets.cos(theta(z)), jets.sin(theta(z))
        return [0.0, 0.0, s / b(z), c]

    fol = _foliation(
        man, n, leaf_frame, normal, lambda coords: [_unit(4, 0)], "rotated frame still commutes with the y1-circle"
    )

    def expected_Z(pts):
        z = np.asarray(pts)[..., 3]
        th, dth = theta.fn(z), theta.d1(z)
        c, s = np.cos(th), np.sin(th)
        coeff = s * b.d1(z) / b.fn(z) + c * dth
        e2 = np.stack([np.zeros_like(z), np.zeros_like(z), c / b.fn(z), -s], axis=-1)
        return coeff[..., None] * e2

    def expected_A(pts):
        z = np.asarray(pts)[..., 3]
        th, dth = theta.fn(z), theta.d1(z)
        c, s = np.cos(th), np.sin(th)
        d = np.stack([-c * a.d1(z) / a.fn(z), -(c * b.d1(z) / b.fn(z) - s * dth)], axis=-1)
        return d[..., :, None] * np.eye(n)

    expected = {
        "curvature_Z": ExpectedValue(expected_Z, "hand frame-rotation computation"),
        "shape_operator": ExpectedValue(expected_A, "hand frame-rotation computation"),
        "admissibility_residual": ExpectedValue(0.0, "x-direction parallel for the metric"),
        "mean_curvature_perp_norm": ExpectedValue(0.0, "x-circle untouched by the tilt"),
        "volume": ExpectedValue(_warped_volume((a, b)), "metric equals the warped torus metric"),
    }
    leaves = ()
    if abs(float(theta.fn(0.0))) <= 1e-12:
        leaves = (LeafSpec("y-torus", fixed={0: 0.0, 3: 0.0}, axes=(1, 2)),)
    declared = dict(harmonic_perp=True, admissible=True)
    return _finalize("tilted_torus_4", fol, declared, expected, leaves, default_grid=(4, 4, 4, 48))


# -- invariant-frame builders ------------------------------------------------------


def _invariant_scenario(name, c, vol, normal_axis, witness, expected, leaf, pcurv_c) -> Scenario:
    """Invariant-frame 3-manifold with structure constants ``c`` and leaves along e_0.

    N is e_normal_axis, and the third frame vector spans D's complement.  Each
    such scenario is declared harmonic, inadmissible, umbilical and of
    constant projected curvature ``pcurv_c``; the measurement re-checks each.
    """
    man = InvariantFrameManifold(dim=3, structure_constants=c, volume=vol, name=name)
    fol = _foliation(
        man,
        1,
        lambda coords: [_unit(3, 0)],
        lambda coords: _unit(3, normal_axis),
        lambda coords: [_unit(3, 3 - normal_axis)],
        witness,
    )
    declared = dict(harmonic_perp=True, admissible=False, satisfies_pcurv_c=True, pcurv_c=pcurv_c, umbilical=True)
    return _finalize(name, fol, declared, expected, (leaf,), default_grid=(1,))


def build_heisenberg() -> Scenario:
    """Heisenberg nilmanifold frame [X, Y] = T; D = span(X, T), complement Y.

    The distribution is genuinely non-integrable.  Every tensor in the
    verification chain vanishes, while the ambient Riemannian curvature does
    not: the projected and ambient curvature operators differ by 1/4 in the
    normal direction.
    """
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0
    c[2, 1, 0] = -1.0
    expected = {
        "shape_operator": ExpectedValue(lambda pts: np.zeros(np.shape(pts)[:-1] + (1, 1)), "Koszul on [X,Y]=T"),
        "curvature_Z": ExpectedValue(lambda pts: np.zeros(np.shape(pts)), "T-lines are geodesics"),
        "ricci_p_NN": ExpectedValue(0.0, "projected curvature vanishes on D"),
        "riemann_ricci_NN": ExpectedValue(0.25, "bi-invariant-style Koszul computation"),
        "admissibility_residual": ExpectedValue(0.5, "P nabla_Y T = X/2"),
        "mean_curvature_perp_norm": ExpectedValue(0.0, "nabla_Y Y = 0"),
        "volume": ExpectedValue(1.0, "declared lattice quotient volume"),
        "main_residual_r0": ExpectedValue(0.0, "all integrand terms vanish"),
    }
    return _invariant_scenario(
        "heisenberg", c, 1.0, 2, "X spans a closed one-parameter subgroup", expected,
        LeafSpec("x-circle", volume=1.0), pcurv_c=0.0,
    )


def build_round_s3() -> Scenario:
    """Unit round 3-sphere frame [e1, e2] = 2 e3 (cyclic); inadmissibility probe.

    Leaves are the great circles of e1, N = e2 and the complement e3.  The
    complement fails the parallel-normal condition with residual exactly 1,
    and the r = 0 integral formula picks up -2 times the total volume.
    """
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[k, i, j] = 2.0
        c[k, j, i] = -2.0
    vol = 2.0 * np.pi**2
    expected = {
        "shape_operator": ExpectedValue(lambda pts: np.zeros(np.shape(pts)[:-1] + (1, 1)), "invariant-frame Koszul"),
        "curvature_Z": ExpectedValue(lambda pts: np.zeros(np.shape(pts)), "e2-lines are geodesics"),
        "ricci_p_NN": ExpectedValue(2.0, "invariant-frame projected curvature"),
        "riemann_ricci_NN": ExpectedValue(1.0, "unit-sphere sectional curvature"),
        "admissibility_residual": ExpectedValue(1.0, "P nabla_{e3} e2 = -e1"),
        "mean_curvature_perp_norm": ExpectedValue(0.0, "nabla_{e3} e3 = 0"),
        "volume": ExpectedValue(vol, "unit round 3-sphere volume"),
        "main_residual_r0": ExpectedValue(-4.0 * np.pi**2, "-2 times the total volume"),
    }
    return _invariant_scenario(
        "round_s3", c, vol, 1, "e1 spans a closed one-parameter subgroup", expected,
        LeafSpec("great-circle", volume=2.0 * np.pi), pcurv_c=2.0,
    )


# -- catalog -------------------------------------------------------------------


BUILDERS = {
    "flat_torus": build_flat_torus,
    "warped_torus_3": lambda: build_warped_torus(3),
    "warped_torus_4": lambda: build_warped_torus(4),
    "warped_torus_4_umbilical": lambda: build_warped_torus(
        4, a=TWO_PLUS_COS, b=TWO_PLUS_COS, name="warped_torus_4_umbilical"
    ),
    "tilted_torus_4": build_tilted_torus,
    "heisenberg": build_heisenberg,
    "round_s3": build_round_s3,
}


def build(name: str) -> Scenario:
    """The catalog scenario ``name``; raises :class:`ConfigError` naming the known ones otherwise."""
    if name not in BUILDERS:
        raise ConfigError(f"unknown scenario {name!r}; known: {', '.join(catalog_names())}")
    return BUILDERS[name]()


def catalog_names() -> list[str]:
    return sorted(BUILDERS)
