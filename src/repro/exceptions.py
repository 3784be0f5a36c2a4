"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DataValidationError(ReproError, ValueError):
    """Raised when failure data fails structural validation.

    Examples: unsorted failure times, negative counts, an observation
    horizon earlier than the last failure.
    """


class ConvergenceError(ReproError, RuntimeError):
    """Raised when an iterative algorithm fails to converge.

    Carries the number of iterations performed, the last residual, and
    (for solvers that track it) the tail of the residual trajectory, so
    callers can report the failure, feed it into a telemetry trace, or
    retry with looser settings.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None,
                 residual_history: tuple[float, ...] | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.residual_history = (
            tuple(residual_history) if residual_history is not None else None
        )


class TruncationError(ReproError, RuntimeError):
    """Raised when the adaptive truncation bound ``nmax`` cannot satisfy
    the requested tail tolerance within its configured ceiling."""


class PriorSpecificationError(ReproError, ValueError):
    """Raised when prior hyper-parameters are inconsistent or invalid."""


class ModelSpecificationError(ReproError, ValueError):
    """Raised when an NHPP model is constructed with invalid parameters."""


class EstimationError(ReproError, RuntimeError):
    """Raised when an estimator cannot produce a usable result
    (e.g. a degenerate likelihood or a singular information matrix)."""


class TelemetryError(ReproError, ValueError):
    """Raised when a telemetry trace violates the event schema
    (unknown kind, missing field, malformed name, non-scalar attr)."""
