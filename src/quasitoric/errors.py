"""Exception hierarchy, and the base of the library's value records.

Every library error derives from QuasitoricError. InternalInconsistencyError
signals an implementation defect and should never be reachable from valid
data; every other class reports bad input.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable value record.

    A subclass names its fields in ``__slots__``, in ``__init__``'s order,
    and sets each once in ``__init__`` through ``object.__setattr__``;
    assignment and deletion raise AttributeError afterwards. A slot whose
    name starts with ``_`` is no field: ``repr`` shows the rest, as
    ``Name(field=value, ...)``. Equality and hashing go over the fields the
    class keyword ``compare`` names, all of them when it is omitted, and a
    record equals only records of its own class.
    """

    __slots__ = ()

    def __init_subclass__(cls, compare=None):
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._key = attrgetter(*(compare or cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle: every slot and what a __dict__ slot holds, restored
    # past __setattr__ (the default state sets slots through it, and pickle
    # protocols 0 and 1 refuse a slotted class without __getstate__)
    def __getstate__(self):
        state = {s: getattr(self, s) for s in self.__slots__ if s != "__dict__"}
        state.update(getattr(self, "__dict__", ()))
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


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
