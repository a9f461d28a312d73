"""Shared value types: tagged sums, option values, tiny function helpers.

Every value flowing through an optic in this library is an ordinary,
comparable Python object; these wrappers give sums and options stable
equality so exhaustive checks can compare results directly.
"""

from dataclasses import dataclass
from typing import Any

UNIT = ()


@dataclass(frozen=True)
class Left:
    value: Any


@dataclass(frozen=True)
class Right:
    value: Any


def either(on_left, on_right, e):
    """Case analysis on a Left/Right value."""
    if isinstance(e, Left):
        return on_left(e.value)
    if isinstance(e, Right):
        return on_right(e.value)
    raise TypeError(f"expected Left or Right, got {e!r}")


@dataclass(frozen=True)
class Just:
    value: Any


@dataclass(frozen=True)
class Nothing:
    pass


def identity(x):
    return x
