"""Verification lab for codimension-one foliations inside a distribution.

Builds closed example manifolds, the projected-connection tensor calculus on
them (shape operator, Newton transformations, projected curvature), and
certifies pointwise identities and integral formulas numerically through
residual reports.
"""

from .distribution import (
    DistributionSpec,
    MeanCurvaturePerp,
    Projector,
    admissibility_residual,
    curvature_P,
    mean_curvature_perp,
    nabla_P,
    orthoprojector,
)
from .errors import (
    ConstructionError,
    DomainError,
    EvaluationError,
    FrameError,
    LinearSolveError,
    UnsupportedLeafError,
)
from .foliation import (
    AdaptedFrame,
    FoliationStructure,
    Geometry,
    adapted_frame,
    codazzi_residual,
    curvature_vector_Z,
    divF_newton,
    leafwise_divergence,
    nablaF_N_A,
    ricci_p,
    second_fundamental_form,
    shape_operator,
    trace_identities,
)
from .jets import Jet
from .manifolds import (
    ChartManifold,
    InvariantFrameManifold,
    Point,
    TangentVector,
    christoffel,
    covariant_derivative,
    divergence,
    metric_at,
    riemann,
    riemann_tensor,
)
from .newton import (
    SymmetricFunctions,
    newton_transform,
    sigma,
    sigma_values,
    symmetric_functions,
    tau,
    trace_identity_residuals,
)
from .quadrature import QuadratureGrid, grid_for, integrate, leaf_grid
from .scenarios import (
    Periodic1D,
    Scenario,
    ScenarioFlags,
    build,
    build_flat_torus,
    build_heisenberg,
    build_round_s3,
    build_tilted_torus,
    build_warped_torus,
    catalog_names,
)
from .verify import (
    VerificationReport,
    calibrate_tolerance,
    sigma2_image_diagnostic,
    verify_closed_form_c,
    verify_closed_form_einstein,
    verify_divergence_theorem,
    verify_leaf,
    verify_main,
    verify_reeb,
    verify_umbilical_reduction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
