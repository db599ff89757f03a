"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or mutually inconsistent configuration."""


class DataError(ValueError):
    """Malformed, truncated, or inconsistent data file or dataset."""


class TrainingDiverged(FloatingPointError):
    """Training produced a non-finite loss or non-finite network outputs."""
