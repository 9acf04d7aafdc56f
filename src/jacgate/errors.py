"""Exception types shared across the package."""


class JacgateError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(JacgateError):
    """Operands live in different ambient dimensions."""


class ZeroPolynomialError(JacgateError):
    """An operation that is undefined for the zero polynomial was attempted.

    ``component`` carries the offending component index when the zero
    polynomial appeared inside a map or system.
    """

    def __init__(self, message: str, component: int | None = None):
        super().__init__(message)
        self.component = component


class DegenerateDirectionError(JacgateError):
    """A function does not depend on one of its variables at all.

    Raised where the weighted-degree bookkeeping needs every coordinate
    direction to be active; ``index`` is the dead variable.
    """

    def __init__(self, index: int, message: str | None = None):
        super().__init__(message or f"input does not depend on variable {index}")
        self.index = index


class ParseError(JacgateError):
    """Syntax or structural error in textual input, with position info."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})" if line else message)
        self.message = message
        self.line = line
        self.column = column


class PreconditionError(JacgateError):
    """A documented numeric precondition was violated by the caller."""


class InternalInconsistencyError(JacgateError):
    """Two results that are mathematically forced to agree did not.

    Raised only for a refutation, such as the map criterion failing with a
    nontrivial zero at weights where a theorem guarantees it holds; an
    inconclusive certificate is a result, not this error.
    """
