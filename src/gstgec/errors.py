"""Exception hierarchy shared across the toolkit."""


class GstError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GstError, ValueError):
    """A setting is out of range: the user's mistake, not a data fault."""


class ParseError(GstError):
    """A corpus file is malformed or holds no data."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}"
        if prefix:
            message = f"{prefix}: {message}"
        super().__init__(message)


class CheckpointError(GstError):
    """Base class for checkpoint read failures."""


class BadMagicError(CheckpointError):
    """File does not start with the expected magic bytes."""


class TruncatedCheckpointError(CheckpointError):
    """File ends before all declared weight arrays are present."""


class CheckpointFormatError(CheckpointError):
    """Config document is invalid or inconsistent with the stored weights."""


class NonFiniteGradientError(GstError):
    """An optimizer step was rejected because a gradient was NaN or infinite."""
