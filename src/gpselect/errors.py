"""Exception types shared across the package."""


class GpSelectError(Exception):
    """Base class for all package errors."""


class ValidationError(GpSelectError, ValueError):
    """Bad user input: files, config values, malformed CSV cells."""


class DimensionMismatchError(GpSelectError, ValueError):
    """Vector or matrix shapes do not line up."""


class InvalidStateError(GpSelectError, ValueError):
    """A state the model cannot hold: indicators and parameters disagree
    (inactive slot not at its point mass), or a chain's start lies outside
    the prior's support."""


class NumericalSingularityError(GpSelectError, RuntimeError):
    """Correlation matrix could not be factorized even after diagonal jitter.

    Carries the jitter levels that were attempted so callers can report them.
    """

    def __init__(self, message, jitters=()):
        super().__init__(message)
        self.jitters = tuple(jitters)


class OptimizationFailureError(GpSelectError, RuntimeError):
    """Likelihood optimization never produced a finite objective.

    ``trace`` holds (point, value) pairs from the failed search.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = list(trace)


class EmptyEnsembleError(GpSelectError, ValueError):
    """Denoising removed every draw from the model-averaging ensemble."""
