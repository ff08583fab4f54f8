"""Exception types the CLI maps to distinct process exit codes."""


class VrboostError(Exception):
    """Base class for errors raised by this package."""


class UsageError(VrboostError, ValueError):
    """An option value the program cannot use (CLI exit code 2)."""


class DataError(VrboostError):
    """Dataset, schema, or row-level problem (CLI exit code 3)."""


class TrainingError(VrboostError):
    """Training could not produce a usable model (CLI exit code 4)."""
