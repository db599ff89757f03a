"""Exception types shared across the package, and the specs' finite check."""

import dataclasses
import math


class ConfigError(ValueError):
    """Invalid or mutually inconsistent configuration."""


class DataError(ValueError):
    """Malformed, truncated, or inconsistent data file or dataset."""


class TrainingDiverged(FloatingPointError):
    """Training produced a non-finite loss or non-finite network outputs."""


def check_finite_fields(spec, allow_inf: str | None = None) -> None:
    """Raise ConfigError naming the first float field of a spec dataclass that
    is NaN or infinite; the field named allow_inf may be +inf."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if f.type == "float" and isinstance(value, float) and not math.isfinite(value):
            if not (f.name == allow_inf and value == math.inf):
                raise ConfigError(f"{f.name} must be finite, got {value}")
