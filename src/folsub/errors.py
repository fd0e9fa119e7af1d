"""Exception types shared across the package."""


class EvaluationError(RuntimeError):
    """A field evaluator produced a non-finite or otherwise unusable value."""


class LinearSolveError(RuntimeError):
    """A small dense solve hit a (near-)singular pivot, e.g. a degenerate metric."""


class DomainError(ValueError):
    """An argument vector lies outside the subbundle an operation requires."""


class ConstructionError(RuntimeError):
    """A scenario could not be built: a declared property failed re-verification."""


class ConfigError(ValueError):
    """A run was asked for something it cannot do: a bad check name, config field or argument."""


class UnsupportedLeafError(ValueError):
    """The requested leaf is not in the scenario's catalog of closed leaves."""
