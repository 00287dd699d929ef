"""Exception hierarchy.

Every error raised by this package derives from :class:`PreqscoreError`.
Validation-style errors additionally derive from ``ValueError`` so callers
that only know the standard library still catch something sensible.
"""


class PreqscoreError(Exception):
    """Base class for all errors raised by preqscore."""


class ImproperPredictive(PreqscoreError):
    """A log score was requested for a non-normalizable predictive density."""


class InsufficientHistory(ImproperPredictive):
    """The predictive is improper because too few observations have been seen.

    Subclass of :class:`ImproperPredictive`: the predictive becomes proper
    once enough data has arrived, but until then a log score is undefined.
    """


class NonPositiveVariance(PreqscoreError, ValueError):
    """A variance parameter was zero or negative."""


class NonSPDCovariance(PreqscoreError, ValueError):
    """A covariance matrix is not symmetric positive definite."""


class DimensionMismatch(PreqscoreError, ValueError):
    """Vector/matrix dimensions do not agree."""


class HyvarinenInapplicable(PreqscoreError):
    """The gradient-based score is undefined because the log density is not C2."""


class InvalidDistribution(PreqscoreError, ValueError):
    """A probability vector has negative entries or does not sum to one."""


class NotPositiveDefinite(PreqscoreError):
    """A leading principal covariance block is not positive definite.

    ``dimension`` is the size of the first failing leading block.
    """

    def __init__(self, dimension: int, message: str | None = None):
        self.dimension = dimension
        super().__init__(message or f"leading {dimension}x{dimension} covariance block is not positive definite")


class NonStationary(PreqscoreError, ValueError):
    """Autoregressive coefficients have a root on or inside the unit circle."""


class EmptyTrace(PreqscoreError, ValueError):
    """A selection was requested on a trace with no observations."""


class NonPositiveScale(PreqscoreError, ValueError):
    """A score scale factor must be strictly positive."""


class IndexOutOfRange(PreqscoreError, ValueError):
    """An observation index lies outside the valid range."""


class NonMonotoneTransform(PreqscoreError, ValueError):
    """A state-space transform is not strictly increasing on the data range."""


class NonFiniteValue(PreqscoreError, ValueError):
    """An observation, the score of one, or a model parameter is NaN or infinite.

    ``index`` is the 1-based position of the offending observation, None for
    a model parameter.
    """

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


__all__ = [name for name, obj in list(globals().items()) if isinstance(obj, type) and issubclass(obj, PreqscoreError)]
