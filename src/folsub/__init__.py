"""Verification lab for codimension-one foliations inside a distribution.

Builds closed example manifolds, the projected-connection tensor calculus on
them (shape operator, Newton transformations, projected curvature), and
certifies pointwise identities and integral formulas numerically through
residual reports.  ``__all__`` is the public surface, one line each in
README's "Python API" section.
"""

from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    EvaluationError,
    LinearSolveError,
    UnsupportedLeafError,
)
from .foliation import FoliationStructure, Geometry
from .jets import Jet
from .manifolds import ChartManifold, InvariantFrameManifold
from .newton import newton_transforms, sigma_values, trace_identity_residuals
from .quadrature import QuadratureGrid, grid_for, integrate, leaf_grid, refined
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
    parse_check,
    run_checks,
    verify_closed_form_einstein,
    verify_grid_checks,
    verify_leaf,
    verify_main,
    verify_reeb,
    verify_umbilical_reduction,
)

__all__ = [
    # scenarios
    "build",
    "catalog_names",
    "build_flat_torus",
    "build_warped_torus",
    "build_tilted_torus",
    "build_heisenberg",
    "build_round_s3",
    "Scenario",
    "ScenarioFlags",
    "Periodic1D",
    # structures and their calculus
    "ChartManifold",
    "InvariantFrameManifold",
    "FoliationStructure",
    "Geometry",
    "Jet",
    "sigma_values",
    "newton_transforms",
    "trace_identity_residuals",
    # quadrature
    "QuadratureGrid",
    "grid_for",
    "leaf_grid",
    "refined",
    "integrate",
    # checks and reports
    "parse_check",
    "run_checks",
    "verify_grid_checks",
    "verify_reeb",
    "verify_main",
    "verify_leaf",
    "verify_closed_form_einstein",
    "verify_umbilical_reduction",
    "calibrate_tolerance",
    "VerificationReport",
    # errors
    "ConfigError",
    "ConstructionError",
    "DomainError",
    "EvaluationError",
    "LinearSolveError",
    "UnsupportedLeafError",
]
__version__ = "0.1.0"
