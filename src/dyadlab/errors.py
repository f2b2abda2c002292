"""Exception types shared across the laboratory."""


class DyadlabError(Exception):
    """Base class for all library errors."""


class InvalidConfigurationError(DyadlabError):
    """A window, grid, weight, or experiment configuration is unusable."""


class InvalidParameterError(DyadlabError):
    """A numeric parameter is outside its admissible range."""


class DegenerateWeightError(DyadlabError):
    """A weight vanishes (or its cell average does) where positivity is required."""


class DivergedIntegralError(DyadlabError):
    """A weight integral is non-finite on a named interval."""

    def __init__(self, message: str, interval=None):
        super().__init__(message)
        self.interval = interval


class InvalidMatrixError(DyadlabError):
    """An operator matrix contains non-finite entries."""

