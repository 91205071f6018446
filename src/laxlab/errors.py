"""Exception types shared across the laxlab modules."""

__all__ = ["LaxlabError", "InvalidGridError", "DivergedValueError", "DivergedOperatorError", "ConfigError"]


class LaxlabError(Exception):
    """Base class for all laxlab-specific errors."""


class InvalidGridError(LaxlabError, ValueError):
    """Grid is too small, mismatched, or a stencil does not fit on it."""


class DivergedValueError(LaxlabError, ArithmeticError):
    """A value that must be finite is NaN or infinite."""


class DivergedOperatorError(LaxlabError, ArithmeticError):
    """Iterated stencil coefficients exceeded the overflow threshold."""


class ConfigError(LaxlabError, ValueError):
    """Experiment configuration is malformed or contains unknown keys."""
