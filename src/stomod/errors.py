"""Exception types shared across the package."""


class StomodError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(StomodError):
    """Invalid run configuration (bad file, bad key, bad grid)."""


class BelowThresholdError(StomodError, ValueError):
    """Supercriticality xi <= 1: no sustained auto-oscillation."""


class UnsaturatedRegimeError(StomodError, ValueError):
    """Applied field does not exceed the saturation magnetization."""


class NumericalError(StomodError):
    """A numerical routine failed to produce a trustworthy result."""


class SingularSystemError(NumericalError):
    """The harmonic-balance linear system is singular."""


class StepSizeError(StomodError, ValueError):
    """Integration step or window violates the resolution or size limits."""


class GridCoverageError(StomodError, ValueError):
    """A time trace does not cover an integer number of modulation periods."""


class SeedBandError(StomodError, ValueError):
    """Bandwidth-search seed frequency is not in the flat response band."""
