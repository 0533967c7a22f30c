"""Exception hierarchy for chaincast."""


class ChaincastError(Exception):
    """Base class for all chaincast errors."""


class NonMonotoneDispersion(ChaincastError):
    """Dispersion function changes direction on the sampled grid."""


class InversionFailure(ChaincastError):
    """Root finding for an inverse dispersion did not bracket."""


class DivergentMoment(ChaincastError):
    """A requested moment cannot be certified finite at tolerance."""


class ZeroMass(ChaincastError):
    """Zeroth moment below tolerance; normalization impossible."""


class IllConditioned(ChaincastError):
    """Recurrence coefficients failed to stabilize under refinement."""


class IndexOutOfRange(ChaincastError, IndexError):
    """Polynomial or coefficient order beyond what was computed."""


class PoleTooClose(ChaincastError):
    """Stieltjes transform requested too close to the support."""


class EndpointEvaluation(ChaincastError):
    """Evaluation at or beyond a support endpoint where the quantity diverges."""


class GappedMeasure(ChaincastError):
    """Operation requires a gapless measure."""


class BracketFailure(ChaincastError):
    """A zero of a monotone function was not located in its interval."""


class NotInSzegoClass(ChaincastError):
    """Asymptotic limits requested for a non-Szego spectral density."""


class UnsupportedMapping(ChaincastError):
    """Residual spectral densities exist only for q in {0, 1}."""


class UnsupportedMeasure(ChaincastError):
    """Measure shape (unbounded reducer, ...) outside an operation's domain."""


class DomainError(ChaincastError):
    """Argument outside the mathematical domain of the operation."""


class ConfigError(ChaincastError):
    """Invalid job configuration."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
