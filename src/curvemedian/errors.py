"""Exception types shared across the package, the two checks that turn a
caller's value into a number or array or refuse it, and the physical memory
that sizes are refused against.  The command line maps the types onto
distinct exit codes, so library code raises the most specific type that
applies.
"""

import numbers
import os

import numpy as np

__all__ = ["DataFormatError", "NumericError", "UsageError"]


class UsageError(ValueError):
    """A caller violated an operation's contract (bad argument or state)."""


class DataFormatError(ValueError):
    """An input file could not be parsed into the expected shape."""


class NumericError(ArithmeticError):
    """A numerical routine failed to reach its required accuracy."""


def _number(value, requirement: str, ok=lambda v: True, integer: bool = False):
    """`value` as an int (`integer`) or a float, if an integer or a real (never a bool; a real
    only inside the float64 range) that `ok` accepts converted; else `UsageError` naming it."""
    exact, kind = (int, numbers.Integral) if integer else (float, numbers.Real)
    # an exact int or float skips the ABC check, which costs more than all the rest
    if type(value) is exact or not isinstance(value, bool) and isinstance(value, kind):
        try:  # float() overflows for a real beyond float64, such as 10**400
            if ok(number := exact(value)):
                return number
        except OverflowError:
            pass
    raise UsageError(f"{requirement}, got {value!r}")


def _float_array(values, error, message: str, ok=lambda a: True) -> np.ndarray:
    """`values` as a float64 array (itself if it is one) that `ok` accepts; else, as for a
    value numpy cannot convert (ragged, not numbers, beyond float64), `error(message)`."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or not ok(arr):
        raise error(message)
    return arr


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return np.inf
