"""Exception types shared across the package, and the one rule for a value.

``check_value`` judges each spec field (when built, for every caller) and each
library number (m, a class count, a check's size): ``ConfigError`` if it breaks
its rule. A float is a finite real but no bool, numpy scalars included, stored
as its Python float, never -0.0; an int is an int, never a bool or numpy integer.
"""

import dataclasses
import math
import numbers
import sys

_MAX = sys.float_info.max  # the largest finite double


class ConfigError(ValueError):
    """Invalid or mutually inconsistent configuration."""


class DataError(ValueError):
    """Malformed, truncated, or inconsistent data file or dataset."""


class TrainingDiverged(FloatingPointError):
    """Training produced a non-finite loss or non-finite network outputs."""


def is_int64(value) -> bool:
    """The rule of every integer field and flag: an int (not a bool) that int64 holds."""
    return type(value) is int and -(2**63) <= value < 2**63


#: field annotation -> (test of a value, what it accepts).
FIELD_RULES = {
    "int": (is_int64, "an integer in [-2**63, 2**63)"),
    "float": (
        # NaN and the infinities fail. A rational compares exactly (its float() may raise),
        # any other real as its float (a numpy float would cast _MAX to its type: overflow)
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
        and -_MAX <= (v if isinstance(v, numbers.Rational) else float(v)) <= _MAX,
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


def check_value(name: str, value, rule: str, at_least=None):
    """value (a float under "float"), or ConfigError: it breaks its rule, is -0.0 or < at_least."""
    fits, expected = FIELD_RULES[rule]
    if not fits(value):
        floor = "" if at_least is None else f"at least {at_least} and "
        raise ConfigError(f"{name} must be {floor}{expected}, got {value!r}")
    if rule == "float" and (value := float(value)) == 0 and math.copysign(1.0, value) < 0:
        raise ConfigError(f"{name} must not be -0.0")
    if at_least is not None and value < at_least:
        raise ConfigError(f"{name} must be at least {at_least}, got {value}")
    return value


def check_fields(spec, names=None) -> None:
    """Set each field of a frozen spec (of ``names`` only) to check_value of it by its type."""
    for f in dataclasses.fields(spec):
        if names is None or f.name in names:
            object.__setattr__(spec, f.name, check_value(f.name, getattr(spec, f.name), f.type))
