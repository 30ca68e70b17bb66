"""Exception types shared across the package."""


class DataError(ValueError):
    """Malformed, inconsistent, or unreadable input data."""


class ConfigError(ValueError):
    """Invalid or unknown configuration keys, values, or CLI arguments."""


class ModelFormatError(ValueError):
    """A persisted model file could not be parsed or validated."""


class NumericalError(RuntimeError):
    """A numerical routine failed; the message begins with the failing module's name."""

    def __init__(self, module: str, message: str):
        super().__init__(f"{module}: {message}")
