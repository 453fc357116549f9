"""Exception types shared across the package."""


class KatoflowError(ValueError):
    """Base class for all library errors."""


class InvalidPointError(KatoflowError):
    """A point does not belong to the state space (e.g. off the sphere)."""


class TimeDomainError(KatoflowError):
    """A time parameter is outside its admissible range (t <= 0)."""


class TooSmallTimeError(KatoflowError):
    """Sphere spectral kernel requested at a time where the series is unusable."""


class UnsupportedStrategyError(KatoflowError):
    """Coupling strategy not available on this state space."""


class PrecisionError(KatoflowError):
    """Not enough samples/runs to produce a meaningful statistic."""


class NonKatoError(KatoflowError):
    """Potential lacks the Kato-type certificate required by the operation."""


class DivergentBoundError(KatoflowError):
    """A constant that must be finite diverges for the given parameters."""


class ConfigError(KatoflowError):
    """Invalid experiment configuration."""
