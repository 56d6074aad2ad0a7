"""Exception types shared across the package, and its integer input check."""

import operator


def integer(value, what: str) -> int:
    """``value`` as an int, numpy integers included; a bool or a non-integer raises TypeError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


class FemBasisError(Exception):
    """Base class for all errors raised by this package."""


class CapacityExceeded(FemBasisError, ValueError):
    """A fixed capacity was exceeded (multi-index digits, tree depth)."""


class PrefixNotFound(FemBasisError, LookupError):
    """A queried path is neither an entry nor a strict prefix of one."""


class ParseError(FemBasisError, ValueError):
    """Malformed tree expression.  Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidStrategy(FemBasisError, ValueError):
    """Strategy not allowed on this node kind."""


class UnsupportedOrder(FemBasisError, ValueError):
    """Polynomial order outside the supported set {1, 2}."""


class PathOutOfRange(FemBasisError, IndexError):
    """Tree path does not address a node of the tree."""


class IndexOutOfRange(FemBasisError, IndexError):
    """Element, node or local index outside its valid range."""


class OutsideDomain(FemBasisError, ValueError):
    """Point does not lie in the unit square (beyond tolerance)."""


class UnboundView(FemBasisError, RuntimeError):
    """Local view queried for element data before bind()."""


class ShapeMismatch(FemBasisError, ValueError):
    """Multi-index does not address a scalar slot of a nested container."""


class AlreadyFrozen(FemBasisError, RuntimeError):
    """Mutating operation on a frozen sparse system."""


class NotFrozen(FemBasisError, RuntimeError):
    """Operation requires freeze() to have been called first."""

