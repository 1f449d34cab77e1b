"""Plain-text .qtm format for characteristic pairs.

Grammar, one directive per line, ``#`` starts a comment, blank lines ignored::

    dim <n>
    facets <m>
    vertex <j1> ... <jn>              # repeated, 0-based facet indices
    lambda                            # followed by exactly n rows of m integers
    <m integers>                      # (n times)
    omniorientation <s0> <s1> ... <sm>   # optional; eps0 then m facet signs

Integers, an optional + or - and ASCII digits, are parsed exactly up to
Python's limit on int/str conversion (``sys.get_int_max_str_digits()``,
4300 digits by default); longer integers raise ParseError on reading and
TooLargeError on writing. Each token is read with one table lookup: the
table holds the canonical text ``str(i)`` of every i in [-256, 1024), and
any other token (another spelling such as ``+1``, ``007`` or ``-0``, a
larger value, a bad token) goes through ``parse_int``, so the value and the
error are the same on both paths. Parsing refuses a ``dim`` or ``facets``
below 1 on its own line, as the count would size the vertex and lambda
lines after it, and raises nothing but ParseError subclasses. It
canonicalizes (each vertex ascending, vertex list sorted lexicographically)
and runs, without raising, the checks that ``validate_polytope`` makes
before its ridges (more facets than ``dim``, at least one vertex, n
distinct facets a vertex, every index in [0, facets), no vertex twice); a
parsed lambda block already has the n x m shape ``validate_char`` checks.
When all of them pass the document is marked, and ``to_pair`` then skips
those checks and the conversion of every entry; on any other document it
runs them, so an invalid document fails as it would through the two
validators. ``serialize`` writes a document in the order it holds, so
serialize(parse(x)) is idempotent and documents round-trip byte-for-byte.
``SIGN_TEXT`` spells each sign, and ``omniorientation_line`` alone writes
the directive, for the CLI too.
"""

from __future__ import annotations

import sys
from operator import eq, itemgetter

from .charpair import (
    CharacteristicPair,
    Omniorientation,
    _check_facet_signs,
    _validate_rows,
    validate_char,
)
from .errors import (
    ArityError,
    DuplicateDirectiveError,
    MissingLambdaError,
    ParseError,
    Record,
    TooLargeError,
    UnknownDirectiveError,
)
from .polytope import _validate_canonical, validate_polytope


class PairDocument(Record):
    """Parsed, canonicalized, not-yet-validated pair data. Built by hand,
    it keeps the vertex order it is given, and ``serialize`` writes that.

    ``to_pair`` validates. ``_checked`` is set by ``parse`` alone, when the
    document passed every check ``validate_polytope`` makes before its
    ridges; ``to_pair`` then runs only the rest of the two validators. A
    document built by hand, through the constructor, is never marked and
    takes the full path. The mark is no field of the document's value:
    equality, hashing and ``repr`` ignore it.
    """

    __slots__ = ("dim", "num_facets", "vertices", "matrix", "omniorientation", "_checked")

    def __init__(
        self,
        dim: int,
        num_facets: int,
        vertices: tuple[tuple[int, ...], ...],
        matrix: tuple[tuple[int, ...], ...],
        omniorientation: Omniorientation | None = None,
    ):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "num_facets", num_facets)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "omniorientation", omniorientation)
        object.__setattr__(self, "_checked", False)

    def to_pair(self) -> CharacteristicPair:
        if self._checked:
            poly = _validate_canonical(self.dim, self.num_facets, self.vertices)
            return _validate_rows(poly, self.matrix)
        poly = validate_polytope(self.dim, self.num_facets, self.vertices)
        return validate_char(poly, self.matrix)

    @classmethod
    def from_pair(
        cls, pair: CharacteristicPair, omni: Omniorientation | None = None
    ) -> "PairDocument":
        """ValueError when omni does not carry one facet sign per facet."""
        if omni is not None:
            _check_facet_signs(pair, omni)
        return cls(
            dim=pair.polytope.dim,
            num_facets=pair.polytope.num_facets,
            vertices=pair.polytope.vertices,
            matrix=pair.matrix,
            omniorientation=omni,
        )


def parse_int(token: str) -> int:
    """Exact value of a decimal integer: an optional + or - and ASCII digits.

    ValueError names Python's int/str digit limit for a decimal token too long
    to convert, without echoing it, and says "not an integer" otherwise, also
    for the underscores and non-ASCII digits that ``int`` reads.
    """
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    try:
        return int(token)
    except ValueError:  # only the digit limit rejects a decimal string
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"integer has {len(digits)} digits, over the int/str limit of {limit}"
        ) from None


class _Decimals(dict):
    """``str(i) -> i`` over the range that the facet indices and lambda
    entries of all but the largest pairs fall in; a miss is read by
    ``parse_int`` and not stored, so the table never grows."""

    def __missing__(self, token: str) -> int:
        return parse_int(token)


# read by parse through one lookup per token; nothing writes to it after import
_DECIMALS = _Decimals((str(i), i) for i in range(-256, 1024))

# a sign's text, as serialize and ``qtm decide`` write it; parse reads it back
# through _SIGNS, since "+1" is not str(1) and would miss the table
SIGN_TEXT = {1: "+1", -1: "-1"}
_SIGNS = {text: s for s, text in SIGN_TEXT.items()}


def parse(text: str) -> PairDocument:
    """Parse a .qtm document, raising line-numbered ParseError subclasses;
    the document is marked when validation's checks before the ridges pass
    (see the module docstring)."""
    dim = None
    facets = None
    vertices: list[tuple[int, ...]] = []
    matrix: list[tuple[int, ...]] | None = None
    rows_needed = 0
    omni = None
    read = _DECIMALS.__getitem__
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if "#" in raw:  # most lines have no comment: split them as they are
                raw = raw[: raw.index("#")]
            tokens = raw.split()
            if not tokens:
                continue
            if rows_needed:
                if len(tokens) != facets:
                    raise ArityError(
                        lineno, f"lambda row needs {facets} integers, got {len(tokens)}"
                    )
                matrix.append(tuple(map(read, tokens)))
                rows_needed -= 1
                continue
            directive, args = tokens[0], tokens[1:]
            if directive == "dim":
                if dim is not None:
                    raise DuplicateDirectiveError(lineno, "dim given twice")
                if len(args) != 1:
                    raise ArityError(lineno, "dim takes one integer")
                dim = read(args[0])
                if dim < 1:
                    raise ParseError(lineno, f"dim must be >= 1, got {dim}")
            elif directive == "facets":
                if facets is not None:
                    raise DuplicateDirectiveError(lineno, "facets given twice")
                if len(args) != 1:
                    raise ArityError(lineno, "facets takes one integer")
                facets = read(args[0])
                if facets < 1:
                    raise ParseError(lineno, f"facets must be >= 1, got {facets}")
            elif directive == "vertex":
                if dim is None:
                    raise ParseError(lineno, "vertex before dim")
                if len(args) != dim:
                    raise ArityError(lineno, f"vertex takes {dim} indices, got {len(args)}")
                vertices.append(tuple(sorted(map(read, args))))
            elif directive == "lambda":
                if matrix is not None:
                    raise DuplicateDirectiveError(lineno, "lambda given twice")
                if dim is None or facets is None:
                    raise ParseError(lineno, "lambda before dim/facets")
                if args:
                    raise ArityError(lineno, "lambda takes no arguments")
                matrix = []
                rows_needed = dim
            elif directive == "omniorientation":
                if omni is not None:
                    raise DuplicateDirectiveError(lineno, "omniorientation given twice")
                if facets is None:
                    raise ParseError(lineno, "omniorientation before facets")
                if len(args) != facets + 1:
                    raise ArityError(
                        lineno, f"omniorientation takes {facets + 1} signs, got {len(args)}"
                    )
                signs = []
                for token in args:  # token by token: the first bad one is named
                    sign = _SIGNS.get(token) or read(token)
                    if sign not in (1, -1):
                        raise ParseError(lineno, f"sign must be +1 or -1, got {token!r}")
                    signs.append(sign)
                omni = Omniorientation(signs[0], tuple(signs[1:]))
            else:
                raise UnknownDirectiveError(lineno, f"unknown directive {directive!r}")
    except ValueError as exc:  # from parse_int, through the table, on a bad token
        raise ParseError(lineno, str(exc)) from None
    end = text.count("\n") + 1
    if dim is None or facets is None:
        raise ParseError(end, "missing dim or facets directive")
    if matrix is None or rows_needed:
        raise MissingLambdaError(end, "lambda block missing or truncated")
    vertices.sort()
    verts = tuple(vertices)
    doc = PairDocument(
        dim=dim,
        num_facets=facets,
        vertices=verts,
        matrix=tuple(matrix),
        omniorientation=omni,
    )
    # Each vertex is ascending and the list sorted, so verts[0][0] is the
    # smallest index and a repeated vertex sits next to its twin.
    if (
        facets > dim
        and verts
        and verts[0][0] >= 0
        and max(map(itemgetter(-1), verts)) < facets
        and min(map(len, map(set, verts))) == dim
        and not any(map(eq, verts, verts[1:]))
    ):
        object.__setattr__(doc, "_checked", True)
    return doc


def omniorientation_line(omni: Omniorientation) -> str:
    """The ``omniorientation`` directive: eps0, then one sign per facet."""
    signs = (omni.global_sign, *omni.facet_signs)
    return "omniorientation " + " ".join(map(SIGN_TEXT.__getitem__, signs))


def serialize(doc: PairDocument) -> str:
    """Text of doc, vertices in the order it holds: canonical for a document
    from parse or from_pair, so parse(serialize(doc)) == doc. Nothing is
    sorted; parse reads a hand-built document's text as its canonical form."""
    what = "integer"
    try:
        lines = [f"dim {doc.dim}", f"facets {doc.num_facets}"]
        lines += ["vertex " + " ".join(map(str, v)) for v in doc.vertices]
        lines.append("lambda")
        what = "lambda entry"
        lines += [" ".join(map(str, row)) for row in doc.matrix]
    except ValueError:  # str() refuses integers over the digit limit
        limit = sys.get_int_max_str_digits()
        raise TooLargeError(f"{what} over the int/str limit of {limit} digits") from None
    if doc.omniorientation is not None:
        lines.append(omniorientation_line(doc.omniorientation))
    return "\n".join(lines) + "\n"
