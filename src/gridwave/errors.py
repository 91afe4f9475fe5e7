"""Exception and warning types shared across the package."""


class GridwaveError(Exception):
    """Base class for all package errors."""


class LayoutError(GridwaveError):
    """A register span is malformed, overlapping, or out of range."""


class PostSelectionError(GridwaveError):
    """A forced measurement outcome has (numerically) zero probability."""


class DegenerateStateError(GridwaveError):
    """A state construction produced an all-zero amplitude vector."""


class ConfigError(GridwaveError):
    """A scenario configuration failed validation.

    ``field`` names the offending entry when known.
    """

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class CeilingExceededError(ConfigError):
    """A scenario asks for more qubits than the emulation ceiling allows."""


class ResolutionWarning(UserWarning):
    """A state varies too quickly for the current grid spacing."""
