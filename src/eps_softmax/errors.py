"""Exception types shared across the package, and the one rule for spec fields.

Every spec checks its fields against ``FIELD_RULES`` when it is built, for
library, config-file and flag callers alike. A value a spec cannot use raises
``ConfigError`` there; no spec warns and goes on. A float field holds the
float its value equals, never an integer, and -0.0 (equal to 0.0) is refused.
"""

import dataclasses
import math
import sys


class ConfigError(ValueError):
    """Invalid or mutually inconsistent configuration."""


class DataError(ValueError):
    """Malformed, truncated, or inconsistent data file or dataset."""


class TrainingDiverged(FloatingPointError):
    """Training produced a non-finite loss or non-finite network outputs."""


def is_int64(value) -> bool:
    """The rule of every integer field and flag: an int (not a bool) that int64 holds."""
    return type(value) is int and -(2**63) <= value < 2**63


#: field annotation -> (test of a value, what it accepts). An integer is a valid
#: float; a boolean is neither; numpy integers are not integers.
FIELD_RULES = {
    "int": (is_int64, "an integer in [-2**63, 2**63)"),
    "float": (
        # abs() <= max is False for NaN, the infinities and integers too large for a double
        lambda v: isinstance(v, (int, float)) and type(v) is not bool
        and abs(v) <= sys.float_info.max,
        "a finite number",
    ),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "tuple[int, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(is_int64, v)),
        "a list of integers in [-2**63, 2**63)",
    ),
}


def check_fields(spec, names=None) -> None:
    """Raise ConfigError naming the first field of a spec dataclass whose value
    breaks its annotation's rule (of ``names`` only); make float fields floats."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if names is None or f.name in names:
            fits, expected = FIELD_RULES[f.type]
            if not fits(value):
                raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
            if f.type == "float":
                if value == 0 and math.copysign(1.0, value) < 0:
                    raise ConfigError(f"{f.name} must not be -0.0")
                object.__setattr__(spec, f.name, float(value))  # specs are frozen
