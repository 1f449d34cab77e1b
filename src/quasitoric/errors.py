"""Exception hierarchy.

Every library error derives from QuasitoricError. InternalInconsistencyError
signals an implementation defect and should never be reachable from valid
data; every other class reports bad input.
"""

from __future__ import annotations


def _int_text(x: int) -> str:
    """Decimal text of x, or "<N-digit integer>" past Python's int/str digit
    limit, so that building an error message never raises."""
    try:
        return str(x)
    except ValueError:
        x = abs(x)
        # 0.30103 > log10(2), so this never undershoots the digit count
        digits = x.bit_length() * 30103 // 100000 + 1
        while 10 ** (digits - 1) > x:
            digits -= 1
        return f"<{digits}-digit integer>"


class QuasitoricError(Exception):
    """Base class for all library errors."""


class ValidationError(QuasitoricError):
    """Structurally invalid polytope or characteristic data."""


class DuplicateVertexError(ValidationError):
    def __init__(self, vertex):
        self.vertex = tuple(vertex)
        super().__init__(f"duplicate vertex {self.vertex}")


class WrongVertexSizeError(ValidationError):
    def __init__(self, vertex, expected):
        self.vertex = tuple(vertex)
        self.expected = expected
        super().__init__(
            f"vertex {self.vertex} has {len(set(self.vertex))} distinct facets, expected {expected}"
        )


class UnusedFacetError(ValidationError):
    """Facets that appear in no vertex: ``facets`` holds the first ten at
    most, in order, and ``more`` counts the rest, so the message stays short
    however many facets a polytope leaves unused."""

    def __init__(self, facets, more=0):
        self.facets = tuple(facets)
        self.more = more
        rest = f" and {_int_text(more)} more" if more else ""
        super().__init__(f"facets {self.facets}{rest} appear in no vertex")


class RidgeViolationError(ValidationError):
    def __init__(self, vertex, facet, partners):
        self.vertex = tuple(vertex)
        self.facet = facet
        self.partners = partners
        super().__init__(
            f"vertex {self.vertex}, facet {facet}: {partners} ridge partner(s), expected exactly 1"
        )


class DisconnectedError(ValidationError):
    def __init__(self, reached, total):
        super().__init__(f"vertex adjacency graph disconnected ({reached} of {total} reachable)")


class NonOrientableError(ValidationError):
    def __init__(self, vertex):
        self.vertex = tuple(vertex)
        super().__init__(f"dual pseudomanifold is not orientable (contradiction at {self.vertex})")


class ShapeMismatchError(ValidationError):
    def __init__(self, expected, got):
        super().__init__(f"characteristic matrix must be {expected}, got {got}")


class SingularVertexError(ValidationError):
    def __init__(self, offenders):
        # offenders: list of (vertex tuple, determinant)
        self.offenders = tuple((tuple(v), d) for v, d in offenders)
        detail = ", ".join(f"{v}: det={_int_text(d)}" for v, d in self.offenders)
        super().__init__(f"|det| != 1 at vertices: {detail}")


class NotUnimodularError(QuasitoricError):
    def __init__(self, det):
        self.det = det
        super().__init__(f"basis change matrix has det {_int_text(det)}, need |det| = 1")


class TooLargeError(QuasitoricError):
    """Input refused for its size: a brute-force search space or an f-vector
    enumeration too big, a constructed pair over the construction budget
    (``polytope.CONSTRUCTION_MAX_ENTRIES``), or an integer longer than
    Python's int/str digit limit allows to serialize."""


class InternalInconsistencyError(QuasitoricError):
    """A result failed its own verification; indicates a defect, not bad input."""


class NotDimension2Error(QuasitoricError):
    def __init__(self, dim):
        super().__init__(f"operation defined only for dim 2, got dim {dim}")


class ParseError(QuasitoricError):
    """Syntax error in the .qtm text format; carries a 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnknownDirectiveError(ParseError):
    pass


class ArityError(ParseError):
    pass


class MissingLambdaError(ParseError):
    pass


class DuplicateDirectiveError(ParseError):
    pass
