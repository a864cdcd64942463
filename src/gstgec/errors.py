"""Exception hierarchy shared across the toolkit."""


class GstError(Exception):
    """A data or runtime fault (exit 1): a malformed or empty corpus file,
    a checkpoint that cannot be read, an output that cannot be written.
    The message says what went wrong and where.  ConfigError and
    NonFiniteGradientError derive from it."""


class ConfigError(GstError, ValueError):
    """A setting is out of range: the user's mistake, not a data fault."""


class NonFiniteGradientError(GstError):
    """An optimizer step was rejected because a gradient was NaN or infinite."""
