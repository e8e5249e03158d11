"""Exception taxonomy shared by every module."""


class FsadError(Exception):
    """Base class for all engine errors."""

    category = "error"


class ShapeError(FsadError, ValueError):
    """Operand dimensions disagree."""

    category = "shape"


class ConfigError(FsadError, ValueError):
    """Invalid or unknown configuration."""

    category = "config"


class DomainError(FsadError, ValueError):
    """Argument outside its permitted domain."""

    category = "domain"


class ContractError(FsadError, ValueError):
    """A caller broke an operation's contract."""

    category = "contract"


class CapacityError(FsadError, ValueError):
    """Not enough samples to satisfy a request."""

    category = "capacity"


class FormatError(FsadError, ValueError):
    """Malformed binary file; message carries the byte offset."""

    category = "format"

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CompatError(FsadError, ValueError):
    """Checkpoint and configuration disagree; message names the field."""

    category = "compat"


class MetricError(FsadError, ValueError):
    """Metric undefined for the given inputs."""

    category = "metric"


class NumericError(FsadError, ValueError):
    """A value went non-finite: a diverging training or a corrupt tensor."""

    category = "numeric"
