"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it: ConfigError 2,
DataError (and subclasses) 3, NumericalError 4, any other TrajbehavError 1.
"""


class TrajbehavError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class DimensionError(TrajbehavError):
    """Tensor shapes incompatible with an operation."""


class ConfigError(TrajbehavError):
    """Invalid configuration, unusable parameter combination, or misuse."""

    exit_code = 2


class DataError(TrajbehavError):
    """Invalid data content (out-of-range labels, non-finite values, ...)."""

    exit_code = 3


class IngestError(DataError):
    """Malformed input file; message lists the offending rows."""


class CheckpointError(DataError):
    """Unreadable, corrupt, or incompatible persisted artifact."""


class NumericalError(TrajbehavError):
    """Non-finite values encountered where finiteness is guaranteed."""

    exit_code = 4
