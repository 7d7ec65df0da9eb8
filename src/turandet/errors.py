"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "TuranError",
    "ParamError",
    "TableRangeError",
    "NonpositiveRatio",
    "InvalidLambda",
    "StructuralMismatch",
]


class TuranError(Exception):
    """Base class for all package-specific errors."""


class ParamError(TuranError, ValueError):
    """Invalid parameter or malformed input data."""


class TableRangeError(TuranError, LookupError):
    """A coefficient beyond the end of a finite table was requested."""

    def __init__(self, n: int, size: int):
        super().__init__(f"coefficient index {n} outside table of length {size}")
        self.n = n
        self.size = size


class NonpositiveRatio(TuranError):
    """The value-at-1 ratio g_n dropped to zero or below, so normalization fails."""

    def __init__(self, n: int, value=None):
        msg = f"g_{n} is not positive"
        if value is not None:
            from .arith import number_text  # arith imports this module
            msg += f" (value {number_text(value)})"
        super().__init__(msg)
        self.n = n
        self.value = value


class InvalidLambda(TuranError):
    """A step ratio lambda_n is undefined or outside (0, 1) where it is required."""

    def __init__(self, n: int, value=None):
        from .arith import number_text  # arith imports this module
        msg = (f"lambda_{n} is undefined" if value is None
               else f"lambda_{n} = {number_text(value)} outside (0, 1)")
        super().__init__(msg)
        self.n = n
        self.value = value


class StructuralMismatch(TuranError):
    """A family's coefficients do not follow the claimed shifted-constant shape."""

    def __init__(self, n: int, which: str, expected, actual):
        from .arith import number_text  # arith imports this module
        super().__init__(f"{which}_{n} does not match the declared shape: "
                         f"expected {number_text(expected)}, got {number_text(actual)}")
        self.n = n
        self.which = which
        self.expected = expected
        self.actual = actual
