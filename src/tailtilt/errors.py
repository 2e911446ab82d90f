"""Exception hierarchy shared across the package.

Every error raised by tailtilt derives from :class:`TailTiltError`, so
callers can catch one base class. Errors that signal bad inputs also derive
from ``ValueError`` and errors that signal runtime failures derive from
``RuntimeError``, keeping ``except ValueError`` style code working.
"""

__all__ = [
    "TailTiltError",
    "ParameterError",
    "DomainError",
    "ShapeError",
    "FactorizationError",
    "StructureError",
    "DegeneratePilotError",
    "SolverError",
    "ConfigError",
]


class TailTiltError(Exception):
    """Base class for all tailtilt errors."""


class ParameterError(TailTiltError, ValueError):
    """A distribution or copula parameter is outside its admissible range."""


class DomainError(TailTiltError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(TailTiltError, ValueError):
    """Array dimensions do not match the model dimension."""


class FactorizationError(TailTiltError, ValueError):
    """A covariance matrix is not usably positive definite."""


class StructureError(TailTiltError, ValueError):
    """A vine edge list is not a regular vine labelled in a joining order."""


class DegeneratePilotError(TailTiltError, RuntimeError):
    """A pilot sample contains no (or too few) event hits to work with."""


class SolverError(TailTiltError, RuntimeError):
    """An optimizer failed to converge within its iteration budget."""


class ConfigError(TailTiltError, ValueError):
    """A CLI or file configuration is invalid."""
