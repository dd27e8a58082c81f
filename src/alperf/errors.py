"""The shared exception type and the value checks of every spec field.

Each spec dataclass passes its numeric fields through ``integer`` or
``number`` on construction and holds what they return, so a value is checked
once, in the same words, whether the spec was parsed from JSON or built in
Python. The data types that hold float arrays take them through ``floats``.
"""

from numbers import Integral, Real

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented contract (bad config, bad argument)."""


def integer(value, field: str) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return int(value)


def number(value, field: str) -> float:
    """``value`` as a float: a Python or numpy int or float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{field} must be a number, got {value!r}")
    return float(value)


def floats(value, field: str) -> np.ndarray:
    """``value`` as a new float64 array, so freezing it never freezes the
    caller's array."""
    try:
        return np.array(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{field} must be an array of numbers ({exc})") from None
