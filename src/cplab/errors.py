"""Exception hierarchy shared across the package."""


class CplabError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CplabError):
    """A scalar or vector input violates its documented precondition."""


class EmptyLatticeError(CplabError):
    """The cutoff box contains no nonzero momentum mode."""


class IntegrabilityError(CplabError):
    """A norm integral diverges for the supplied radial profile."""


class NotPositiveSemidefiniteError(CplabError):
    """A quadratic form has an eigenvalue below the roundoff floor.

    Signals that the positivity hypotheses on the couplings are violated,
    as opposed to mere rounding noise (which is clamped silently).
    """


class AccuracyError(CplabError):
    """Quadrature could not meet its tolerance within the node budget, or
    roundoff stalled its refinement.

    Attributes
    ----------
    best_estimate : float
        The value obtained when the quadrature stopped.
    achieved_tol : float
        Relative error estimate actually reached.
    """

    def __init__(self, message, best_estimate, achieved_tol):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_tol = achieved_tol


class SeriesDivergenceError(CplabError):
    """The geometric-series precondition on the coupling strength fails."""


class TailBoundUnavailableError(CplabError):
    """The binding-series tail bound requires a stronger smallness condition."""


class ClassificationError(CplabError):
    """An index word fits none of the supported bound classes."""


class FitDomainError(CplabError):
    """Power-law fitting needs same-sign values inside the window."""


class ConfigError(CplabError):
    """A run configuration document failed validation."""
