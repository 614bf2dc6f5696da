"""Exception types shared across the package.

The command line maps these onto distinct exit codes, so library code
raises the most specific type that applies.
"""

__all__ = ["DataFormatError", "NumericError", "UsageError"]


class UsageError(ValueError):
    """A caller violated an operation's contract (bad argument or state)."""


class DataFormatError(ValueError):
    """An input file could not be parsed into the expected shape."""


class NumericError(ArithmeticError):
    """A numerical routine failed to reach its required accuracy."""
