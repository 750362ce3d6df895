"""Exception types shared across the package."""


class LevyfitError(Exception):
    """Base class for all package errors."""


class ConfigError(LevyfitError):
    """Invalid configuration file, key, or value."""


class IngestError(LevyfitError):
    """Malformed, empty or unreadable input file."""


class StabilityError(LevyfitError):
    """Rates that the time step's positivity/stability bounds refuse."""


class LineSearchError(LevyfitError):
    """Backtracking line search exhausted its shrink budget."""


class SolverError(LevyfitError):
    """Unexpected numerical failure (singular system, non-finite values)."""
