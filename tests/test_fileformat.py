"""Text format: parsing, canonicalization, round trips, diagnostics."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitoric import (
    Omniorientation,
    PairDocument,
    charpair,
    cpn,
    fileformat,
    hirzebruch,
    parse,
    polytope,
    product,
    serialize,
    validate_char,
    validate_polytope,
)
from quasitoric.fileformat import _DECIMALS, parse_int
from quasitoric.errors import (
    ArityError,
    DuplicateDirectiveError,
    MissingLambdaError,
    ParseError,
    ShapeMismatchError,
    TooLargeError,
    UnknownDirectiveError,
    ValidationError,
)
from support import random_valid_pair, replace

CP2_TEXT = """\
dim 2
facets 3
vertex 0 1
vertex 0 2
vertex 1 2
lambda
1 0 -1
0 1 -1
"""


def test_parse_cp2():
    doc = parse(CP2_TEXT)
    assert doc.dim == 2
    assert doc.num_facets == 3
    assert doc.vertices == ((0, 1), (0, 2), (1, 2))
    assert doc.matrix == ((1, 0, -1), (0, 1, -1))
    pair = doc.to_pair()
    assert pair == cpn(2)


def test_serialize_round_trip_idempotent():
    doc = parse(CP2_TEXT)
    text = serialize(doc)
    assert text == CP2_TEXT
    assert serialize(parse(text)) == text


def test_serialize_writes_a_hand_built_document_as_it_stands():
    """serialize sorts nothing: unsorted vertices are written in the order the
    document holds them, and parse reads the text as the canonical document."""
    canonical = parse(CP2_TEXT)
    doc = PairDocument(2, 3, ((1, 2), (1, 0), (0, 2)), canonical.matrix)
    text = serialize(doc)
    assert text.splitlines()[2:5] == ["vertex 1 2", "vertex 1 0", "vertex 0 2"]
    assert parse(text) == canonical


def test_vertex_line_canonicalized():
    text = CP2_TEXT.replace("vertex 0 1", "vertex 1 0")
    doc = parse(text)
    assert doc.vertices == ((0, 1), (0, 2), (1, 2))
    assert serialize(doc) == CP2_TEXT


def test_comments_and_blank_lines():
    text = "# header\n\ndim 2 # inline\nfacets 3\nvertex 0 1\nvertex 0 2\nvertex 1 2\nlambda\n1 0 -1\n0 1 -1\n"
    assert parse(text).to_pair() == cpn(2)


def test_omniorientation_parsing_and_round_trip():
    text = CP2_TEXT + "omniorientation +1 -1 +1 1\n"
    doc = parse(text)
    assert doc.omniorientation == Omniorientation(1, (-1, 1, 1))
    out = serialize(doc)
    assert out.endswith("omniorientation +1 -1 +1 +1\n")
    assert parse(out) == doc


def test_huge_integers_exact():
    big = 10**60 + 7
    text = f"dim 1\nfacets 2\nvertex 0\nvertex 1\nlambda\n{big} -{big}\n"
    doc = parse(text)
    assert doc.matrix == ((big, -big),)
    assert parse(serialize(doc)) == doc


def test_parse_names_the_digit_limit():
    text = f"dim 1\nfacets 2\nvertex 0\nvertex 1\nlambda\n-{'7' * 5000} 1\n"
    with pytest.raises(ParseError, match="5000 digits, over the int/str limit of 4300") as exc:
        parse(text)
    assert exc.value.line == 6


@pytest.mark.parametrize("lineno, place", [(4, 0), (4, 1), (4, 2), (9, 0), (9, 2), (9, 3)])
def test_bad_token_in_a_row_names_its_line(lineno, place):
    """A bad token at the first, a middle or the last place of a vertex line
    (line 4) or a lambda row (line 9) gives the per-token message."""
    limit = sys.get_int_max_str_digits()
    lines = serialize(PairDocument.from_pair(cpn(3))).splitlines()
    assert lines[3].startswith("vertex ") and lines[6] == "lambda"

    def parse_error(replace):
        tokens = lines[lineno - 1].split()
        for k, token in replace.items():
            tokens[k] = token
        text = "\n".join(lines[: lineno - 1] + [" ".join(tokens)] + lines[lineno:]) + "\n"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert type(exc.value) is ParseError
        assert exc.value.line == lineno
        return str(exc.value)

    k = place + (lineno == 4)  # skip the "vertex" keyword
    assert parse_error({k: "x"}) == f"line {lineno}: not an integer: 'x'"
    assert parse_error({k: "1.5"}) == f"line {lineno}: not an integer: '1.5'"
    assert parse_error({k: "9" * 5000}) == (
        f"line {lineno}: integer has 5000 digits, over the int/str limit of {limit}"
    )
    # two bad tokens: the first one is named
    assert parse_error({-2: "1.5", -1: "x"}) == f"line {lineno}: not an integer: '1.5'"


@pytest.mark.parametrize("token", ["1_0", "+1_0", "\u0661", "-\uff11", "1\u0660"])
def test_integers_are_ascii_decimals(token):
    """int() reads underscores and every Unicode decimal digit; an integer in a
    document is an optional sign and ASCII digits, wherever it is read."""
    with pytest.raises(ValueError, match="not an integer"):
        parse_int(token)
    assert (parse_int("+007"), parse_int("-0")) == (7, 0)
    lines = (CP2_TEXT + "omniorientation +1 +1 +1 +1\n").splitlines()
    for lineno, k in ((1, 1), (2, 1), (3, 2), (7, 0), (8, 2), (9, 1)):
        tokens = lines[lineno - 1].split()
        tokens[k] = token
        text = "\n".join(lines[: lineno - 1] + [" ".join(tokens)] + lines[lineno:]) + "\n"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"line {lineno}: not an integer: {token!r}"
    # only the tokens count: a non-ASCII comment leaves a row as it is
    assert parse(CP2_TEXT.replace("1 0 -1", "1 0 -1  # \u03bb row")) == parse(CP2_TEXT)


def test_serialize_refuses_integers_over_the_digit_limit():
    """A lambda entry over the int/str limit raises TooLargeError, and so
    does a vertex entry, a dim or a facet count, naming the limit but no
    lambda entry."""
    doc = PairDocument.from_pair(hirzebruch(10**5000))
    with pytest.raises(TooLargeError) as exc:
        serialize(doc)
    assert str(exc.value) == "lambda entry over the int/str limit of 4300 digits"
    huge = 10**5000
    for doc in (
        PairDocument(1, 2, ((0,), (huge,)), ((1, 1),)),
        PairDocument(huge, 2, ((0,), (1,)), ((1, 1),)),
        PairDocument(1, huge, ((0,), (1,)), ((1, 1),)),
    ):
        with pytest.raises(TooLargeError) as exc:
            serialize(doc)
        assert str(exc.value) == "integer over the int/str limit of 4300 digits"


def test_unknown_directive():
    with pytest.raises(UnknownDirectiveError) as exc:
        parse("dim 2\nfacets 3\nfrobnicate 1\n")
    assert exc.value.line == 3


def test_arity_errors():
    with pytest.raises(ArityError):
        parse("dim 2 7\n")
    with pytest.raises(ArityError) as exc:
        parse("dim 2\nfacets 3\nvertex 0 1 2\n")
    assert exc.value.line == 3
    with pytest.raises(ArityError):
        parse(CP2_TEXT + "omniorientation +1 +1\n")
    with pytest.raises(ArityError):
        parse("dim 2\nfacets 3\nvertex 0 1\nlambda\n1 0\n0 1 -1\n")
    with pytest.raises(ArityError, match="line 2: facets takes one integer"):
        parse("dim 2\nfacets 3 4\n")
    with pytest.raises(ArityError, match="line 3: lambda takes no arguments"):
        parse("dim 2\nfacets 3\nlambda 1\n")


def test_missing_lambda():
    with pytest.raises(MissingLambdaError):
        parse("dim 2\nfacets 3\nvertex 0 1\nvertex 0 2\nvertex 1 2\n")
    with pytest.raises(MissingLambdaError):
        parse("dim 2\nfacets 3\nvertex 0 1\nlambda\n1 0 -1\n")


def test_duplicate_directives():
    with pytest.raises(DuplicateDirectiveError):
        parse("dim 2\ndim 2\n")
    with pytest.raises(DuplicateDirectiveError):
        parse(CP2_TEXT + "lambda\n1 0 -1\n0 1 -1\n")
    with pytest.raises(DuplicateDirectiveError):
        parse(CP2_TEXT + "omniorientation +1 +1 +1 +1\nomniorientation +1 +1 +1 +1\n")


def test_order_and_value_errors():
    with pytest.raises(ParseError):
        parse("vertex 0 1\n")
    with pytest.raises(ParseError):
        parse("dim 2\nfacets 3\nlambda\nx y z\n")
    with pytest.raises(ParseError):
        parse(CP2_TEXT + "omniorientation +1 +1 +1 +2\n")
    with pytest.raises(ParseError):
        parse("dim 2\n")
    with pytest.raises(ParseError, match="line 2: omniorientation before facets"):
        parse("dim 2\nomniorientation +1\n")
    # a count below 1 is named on its own line, before it sizes anything
    with pytest.raises(ParseError, match=r"^line 1: dim must be >= 1, got -1$"):
        parse("dim -1\nfacets 3\nlambda\n")
    with pytest.raises(ParseError, match=r"^line 2: dim must be >= 1, got 0$"):
        parse("# empty\ndim 0\nfacets 3\nlambda\n")
    with pytest.raises(ParseError, match=r"^line 2: facets must be >= 1, got -1$"):
        parse("dim 2\nfacets -1\nlambda\n1 0\n0 1\n")
    with pytest.raises(ParseError, match=r"^line 1: facets must be >= 1, got 0$"):
        parse("facets 0\ndim 2\n")


def test_errors_at_the_end_and_in_a_sign_count_name_their_line():
    """A directive missing at the end is named on the line after the last
    newline; an omniorientation of the wrong length names the count it
    needs, eps0 and one sign per facet."""
    cases = [
        ("dim 2\n", "line 2: missing dim or facets directive"),
        ("facets 3\n# no dim", "line 2: missing dim or facets directive"),
        ("dim 2\nfacets 3\nvertex 0 1\nlambda\n1 0 -1\n", "line 6: lambda block missing or truncated"),
        (CP2_TEXT + "omniorientation +1 +1\n", "line 9: omniorientation takes 4 signs, got 2"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message


def test_from_pair_round_trip():
    pair = cpn(2)
    doc = PairDocument.from_pair(pair, Omniorientation.all_positive(3))
    assert parse(serialize(doc)) == doc
    assert doc.to_pair() == pair


@pytest.mark.parametrize(
    "token, expected",
    [
        ("+1", 1),
        ("-1", -1),
        ("1", 1),
        ("+01", 1),
        ("-001", -1),
        ("01", 1),
        ("+2", "line 10: sign must be +1 or -1, got '+2'"),
        ("0", "line 10: sign must be +1 or -1, got '0'"),
        ("-0", "line 10: sign must be +1 or -1, got '-0'"),
        ("+", "line 10: not an integer: '+'"),
        ("+1.0", "line 10: not an integer: '+1.0'"),
        ("1_0", "line 10: not an integer: '1_0'"),
        ("x", "line 10: not an integer: 'x'"),
    ],
)
def test_omniorientation_sign_spellings(token, expected):
    """A sign reads as its value, whether spelled +1/-1 as serialize writes
    it or any other way; a token that is not +-1 keeps its ParseError."""
    text = CP2_TEXT + "# signs\n" + f"omniorientation +1 -1 {token} +1\n"
    if isinstance(expected, int):
        assert parse(text).omniorientation == Omniorientation(1, (-1, expected, 1))
    else:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert type(exc.value) is ParseError
        assert (exc.value.line, str(exc.value)) == (10, expected)


def test_serialized_signs_are_read_without_parse_int(monkeypatch):
    """Every token that serialize writes for cpn(2) with mixed signs is read
    by lookup: parse_int, the slow path, is never called."""
    calls = []
    monkeypatch.setattr(fileformat, "parse_int", lambda token: calls.append(token))
    doc = PairDocument.from_pair(cpn(2), Omniorientation(-1, (1, -1, 1)))
    assert parse(serialize(doc)) == doc
    assert calls == []


def _integer_tokens():
    """Values inside and outside parse's table, plainly written, with a sign
    and leading zeros, over the digit limit, and tokens that are no integer."""
    limit = sys.get_int_max_str_digits()
    values = st.integers(-300, 1100) | st.integers(-(10**30), 10**30)
    sign = st.sampled_from(["", "+", "-"])
    spelled = st.tuples(sign, st.integers(0, 3), values).map(
        lambda t: t[0] + "0" * t[1] + str(abs(t[2]))
    )
    over = st.tuples(sign, st.integers(limit + 1, limit + 3)).map(lambda t: t[0] + "9" * t[1])
    odd = st.sampled_from(["-0", "+0", "-00", "+", "-", "--1", "+-1", "x", "1.5", "1_0", "\u0661"])
    return values.map(str) | spelled | over | odd


@settings(deadline=None)
@given(token=_integer_tokens(), place=st.sampled_from(["row", "vertex", "sign"]))
def test_parse_reads_every_integer_token_as_parse_int_does(token, place):
    """Through the table or past it, a token in a lambda row, a vertex line
    or an omniorientation line gives parse_int's value, or its message as a
    ParseError on the token's line."""
    size = len(_DECIMALS)
    assert all(type(v) is int and key == str(v) for key, v in _DECIMALS.items())
    lines = ["dim 1", "facets 2", "vertex 0", "vertex 1", "lambda", "1 -1"]
    lineno = {"row": 6, "vertex": 4, "sign": 7}[place]
    if place == "row":
        lines[5] = f"1 {token}"
    elif place == "vertex":
        lines[3] = f"vertex {token}"
    else:
        lines.append(f"omniorientation +1 {token} -1")
    text = "\n".join(lines) + "\n"
    try:
        value = parse_int(token)
    except ValueError as exc:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert type(err.value) is ParseError
        assert (err.value.line, str(err.value)) == (lineno, f"line {lineno}: {exc}")
    else:
        if place == "row":
            assert parse(text).matrix == ((1, value),)
        elif place == "vertex":
            assert parse(text).vertices == tuple(sorted([(0,), (value,)]))
        elif value in (1, -1):
            assert parse(text).omniorientation == Omniorientation(1, (value, -1))
        else:
            with pytest.raises(ParseError, match="line 7: sign must be"):
                parse(text)
    assert len(_DECIMALS) == size  # a miss is not stored


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_random_pair_documents_round_trip(seed, data):
    pair = random_valid_pair(random.Random(seed))
    m = pair.polytope.num_facets
    signs = st.sampled_from([1, -1])
    facet_signs = st.lists(signs, min_size=m, max_size=m).map(tuple)
    omni = data.draw(st.none() | st.builds(Omniorientation, signs, facet_signs))
    doc = PairDocument.from_pair(pair, omni)
    text = serialize(doc)
    assert parse(text) == doc
    assert serialize(parse(text)) == text
    assert parse(text).to_pair() == pair


def _outcome(build):
    """What build() gives: the error's type and message, or the pair with
    the fields its equality leaves out."""
    try:
        pair = build()
    except Exception as exc:
        return type(exc), str(exc)
    poly = pair.polytope
    return pair, poly.orientation, poly.bfs_tree, poly.masks, pair.base_signs


def _assert_to_pair_is_the_full_path(doc):
    full = _outcome(
        lambda: validate_char(validate_polytope(doc.dim, doc.num_facets, doc.vertices), doc.matrix)
    )
    assert _outcome(doc.to_pair) == full


def _mutate_document(text, kind, pick):
    """text with one fault of the given kind; pick(k) chooses in range(k).
    The faults parse lets through are validation's: repeated facets, an
    index of -1 or m, a vertex line twice, facets <= dim, unused facets,
    a vertex dropped or changed (bad ridges) and a changed lambda entry."""
    lines = text.splitlines()
    n, m = int(lines[0].split()[1]), int(lines[1].split()[1])
    rows = [i for i, line in enumerate(lines) if line.startswith("vertex ")]
    top = lines.index("lambda")
    vi = rows[pick(len(rows))]
    tokens = lines[vi].split()
    if kind == "repeat":  # one facet of a vertex written over another
        p = 1 + pick(n)
        tokens[p] = tokens[1 + (p % n)]
    elif kind == "outside":
        tokens[1 + pick(n)] = str((-1, m)[pick(2)])
    elif kind == "twice":
        lines.insert(rows[pick(len(rows))], lines[vi])
    elif kind in ("few", "unused"):  # lambda rows cut or padded to match
        k = 1 + pick(n) if kind == "few" else m + 1 + pick(3)
        lines[1] = f"facets {k}"
        for r in range(top + 1, top + 1 + n):
            entries = lines[r].split()
            lines[r] = " ".join((entries + ["0"] * k)[:k])
    elif kind == "drop":
        del lines[vi]
    elif kind == "move":  # one facet of a vertex changed to any facet
        tokens[1 + pick(n)] = str(pick(m))
    elif kind == "lambda":
        r = top + 1 + pick(n)
        entries = lines[r].split()
        entries[pick(m)] = str(pick(5) - 2)
        lines[r] = " ".join(entries)
    if kind in ("repeat", "outside", "move"):
        lines[vi] = " ".join(tokens)
    return "\n".join(lines) + "\n"


# kind -> whether parse marks the document: the faults that validation finds
# before its ridges leave it unmarked
_FAULTS = {
    "repeat": False, "outside": False, "twice": False, "few": False,
    "unused": True, "drop": True, "lambda": True,
}


def _pairs(rng):
    return [random_valid_pair(rng) for _ in range(6)] + [
        cpn(1), cpn(4), product(cpn(2), cpn(2)), product(cpn(1), hirzebruch(2))
    ]


@pytest.mark.parametrize("kind", sorted(_FAULTS) + ["move"])
def test_parsed_documents_fail_or_pass_as_the_full_path_does(kind):
    """A document with one fault: to_pair raises what validate_polytope and
    validate_char raise on its data, with the same message, or gives the
    same pair, tree, orientation, masks and base signs. Parse marks it
    exactly when the fault is one validation finds after its vertex checks,
    and a faultless document always."""
    rng = random.Random(f"fault:{kind}")
    for pair in _pairs(rng):
        text = serialize(PairDocument.from_pair(pair))
        assert parse(text)._checked
        _assert_to_pair_is_the_full_path(parse(text))
        if kind == "repeat" and pair.polytope.dim == 1:
            continue
        for _ in range(4):
            doc = parse(_mutate_document(text, kind, rng.randrange))
            if kind in _FAULTS:
                assert doc._checked is _FAULTS[kind]
            _assert_to_pair_is_the_full_path(doc)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_mutated_documents_fail_or_pass_as_the_full_path_does(seed, data):
    pair = random_valid_pair(random.Random(seed))
    text = serialize(PairDocument.from_pair(pair))
    kinds = sorted(_FAULTS) + ["move"]
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "repeat" and pair.polytope.dim == 1:
            continue
        text = _mutate_document(text, kind, lambda k: data.draw(st.integers(0, k - 1)))
    _assert_to_pair_is_the_full_path(parse(text))


@pytest.mark.parametrize(
    "old, new",
    [
        ("vertex 0 1", "vertex 0 0"),
        ("vertex 0 2", "vertex 0 3"),
        ("vertex 0 1", "vertex -1 1"),
        ("vertex 0 1", "vertex 0 1\nvertex 0 1"),
        ("facets 3\nvertex 0 1\nvertex 0 2\nvertex 1 2\nlambda\n1 0 -1\n0 1 -1",
         "facets 2\nvertex 0 1\nlambda\n1 0\n0 1"),
    ],
)
def test_a_document_failing_a_vertex_check_is_not_marked(old, new):
    """A repeated facet, an index equal to facets, a negative index, a
    vertex line twice and facets equal to dim (with every index in range):
    parse returns the document unmarked, and to_pair raises what the two
    validators raise."""
    doc = parse(CP2_TEXT.replace(old, new, 1))
    assert not doc._checked
    with pytest.raises(ValidationError):
        doc.to_pair()
    _assert_to_pair_is_the_full_path(doc)


def test_short_or_ragged_lambda_takes_the_full_path():
    """parse refuses a short or ragged lambda block, so such a matrix comes
    only by hand or through support.replace: unmarked, it raises
    validate_char's ShapeMismatchError."""
    doc = parse(serialize(PairDocument.from_pair(cpn(3))))
    rows = doc.matrix
    for matrix, got in (
        (rows[:2], "2x4"),
        (rows + rows[:1], "4x4"),
        ((rows[0], rows[1][:3], rows[2]), "row 1 of length 3"),
        ((), "0x0"),
    ):
        for bad in (
            replace(doc, matrix=matrix),
            PairDocument(doc.dim, doc.num_facets, doc.vertices, matrix),
        ):
            assert not bad._checked
            _assert_to_pair_is_the_full_path(bad)
            with pytest.raises(ShapeMismatchError) as exc:
                bad.to_pair()
            assert str(exc.value) == f"characteristic matrix must be 3x4, got {got}"


def test_a_marked_document_skips_the_checks_parse_ran(monkeypatch):
    """On a parsed document to_pair converts no vertex entry and no lambda
    entry again; a hand-built one, one from from_pair and one through
    support.replace run both conversions. The mark changes neither
    equality, hashing nor repr."""

    def refuse(*args):
        raise AssertionError("converted again")

    for pair in _pairs(random.Random(41)):
        doc = parse(serialize(PairDocument.from_pair(pair)))
        expected = _outcome(doc.to_pair)
        unmarked = [
            replace(doc),
            PairDocument(doc.dim, doc.num_facets, doc.vertices, doc.matrix),
            PairDocument.from_pair(pair),
        ]
        for other in unmarked:
            assert not other._checked
            assert (other, hash(other), repr(other)) == (doc, hash(doc), repr(doc))
        assert "_checked" not in repr(doc)
        for module in (polytope, charpair):
            with monkeypatch.context() as patch:
                patch.setattr(module, "index", refuse)
                assert _outcome(doc.to_pair) == expected
                for other in unmarked:
                    with pytest.raises(AssertionError, match="converted again"):
                        other.to_pair()
        with monkeypatch.context() as patch:
            patch.setattr(fileformat, "validate_polytope", refuse)
            patch.setattr(fileformat, "validate_char", refuse)
            assert _outcome(doc.to_pair) == expected
