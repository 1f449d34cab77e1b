"""The value records: frozen, compared and hashed by their fields, with the
repr, construction and copying a frozen dataclass gave them."""

import copy
import pickle
from fractions import Fraction

import pytest

from quasitoric import (
    BruteForceResult,
    CharacteristicPair,
    Gf2System,
    IntersectionForm,
    InvariantReport,
    Omniorientation,
    PairDocument,
    PositivityResult,
    SimplePolytope,
    brute_force_decide,
    build_system,
    compute_invariants,
    cpn,
    decide_positive,
    f_vector,
    hirzebruch,
    intersection_form,
    parse,
)
from quasitoric.errors import Record
from support import replace

CP1_TEXT = "dim 1\nfacets 2\nvertex 0\nvertex 1\nlambda\n1 -1\nomniorientation 1 -1 1\n"


def _instances():
    """(record, its repr as the frozen dataclasses printed it)."""
    pair = cpn(1)
    h = hirzebruch(1)
    poly_repr = (
        "SimplePolytope(dim=1, num_facets=2, vertices=((0,), (1,)), orientation=(1, -1),"
        " bfs_tree=((1, 0, 0, 0),), masks=(1, 2))"
    )
    return [
        (pair.polytope, poly_repr),
        (pair, f"CharacteristicPair(polytope={poly_repr}, matrix=((1, -1),), base_signs=(1, 1))"),
        (Omniorientation(-1, (1, -1)), "Omniorientation(global_sign=-1, facet_signs=(1, -1))"),
        (
            parse(CP1_TEXT),
            "PairDocument(dim=1, num_facets=2, vertices=((0,), (1,)), matrix=((1, -1),),"
            " omniorientation=Omniorientation(global_sign=1, facet_signs=(-1, 1)))",
        ),
        (
            intersection_form(h, Omniorientation.all_positive(4)),
            "IntersectionForm(basis=(2, 3), matrix=((0, 1), (1, 1)))",
        ),
        (
            compute_invariants(h, Omniorientation.all_positive(4)),
            "InvariantReport(euler=4, chern_top=4, signature=0, todd=Fraction(1, 1),"
            " almost_complex_4d=True)",
        ),
        (build_system(pair), "Gf2System(num_unknowns=3, rows=(3, 5), rhs=(0, 0))"),
        (
            decide_positive(pair),
            "PositivityResult(satisfiable=True, certificate=Omniorientation(global_sign=1,"
            " facet_signs=(1, 1)), kernel_dim=1, witness=None)",
        ),
        (
            brute_force_decide(pair),
            "BruteForceResult(satisfiable=True, count=2, certificate=Omniorientation("
            "global_sign=1, facet_signs=(1, 1)))",
        ),
    ]


# the fields each record compares, when not all of them
COMPARED = {SimplePolytope: ("dim", "num_facets", "vertices")}

# a value each field takes that differs from the instance's, valid for the
# constructor
OTHER = {
    "dim": 2, "num_facets": 3, "vertices": ((1,), (0,)), "orientation": (-1, 1),
    "bfs_tree": (), "masks": (2, 1), "polytope": cpn(2).polytope, "matrix": ((2, -1),),
    "base_signs": (-1, 1), "global_sign": 1, "facet_signs": (-1, -1),
    "omniorientation": None, "basis": (1, 3), "euler": 5, "chern_top": 3, "signature": 1,
    "todd": Fraction(1, 2), "almost_complex_4d": False, "num_unknowns": 4, "rows": (1, 1),
    "rhs": (1, 0), "satisfiable": False, "certificate": None, "kernel_dim": 2,
    "witness": (0,), "count": 3,
}


def test_nine_records_cover_every_record_class():
    assert {type(r) for r, _ in _instances()} == {
        SimplePolytope, CharacteristicPair, Omniorientation, PairDocument, IntersectionForm,
        InvariantReport, Gf2System, PositivityResult, BruteForceResult,
    } == set(Record.__subclasses__())


def test_repr_is_the_dataclass_repr():
    for record, text in _instances():
        assert repr(record) == text


def test_equality_and_hash_go_over_the_compared_fields_only():
    for record, _ in _instances():
        cls = type(record)
        compared = COMPARED.get(cls, record._fields)
        assert hash(record) == hash(tuple(getattr(record, f) for f in compared))
        assert record == replace(record) and hash(record) == hash(replace(record))
        for field in record._fields:
            other = replace(record, **{field: OTHER[field]})
            if field in compared:
                assert record != other, (cls, field)
            else:
                assert (record, hash(record)) == (other, hash(other)), (cls, field)
        # never equal to another class, even one with the same values
        assert record.__eq__(tuple(getattr(record, f) for f in compared)) is NotImplemented
        assert record != object()
    omni, form = Omniorientation(1, (1, 1)), IntersectionForm(1, (1, 1))
    assert omni._key(omni) == form._key(form)
    assert omni != form and omni.__eq__(form) is NotImplemented


def test_assignment_and_deletion_raise():
    for record, text in _instances():
        for name in (*record._fields, "_checked", "elsewhere"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text
    doc = parse(CP1_TEXT)
    with pytest.raises(AttributeError):
        doc._checked = False
    assert doc._checked


def test_positional_and_keyword_construction_with_the_same_defaults():
    for record, _ in _instances():
        values = [getattr(record, f) for f in record._fields]
        cls = type(record)
        assert cls(*values) == cls(**dict(zip(record._fields, values))) == record
    omni = Omniorientation(1, (1, 1))
    assert PairDocument(1, 2, ((0,), (1,)), ((1, -1),)).omniorientation is None
    assert InvariantReport(2, 2) == InvariantReport(2, 2, None, None, None)
    assert PositivityResult(True) == PositivityResult(True, None, None, None)
    assert PositivityResult(False, witness=(0, 1)).witness == (0, 1)
    with pytest.raises(TypeError):
        BruteForceResult(True, 2)  # no default for the certificate
    with pytest.raises(TypeError):
        PairDocument(1, 2, ((0,), (1,)), ((1, -1),), omni, True)  # the mark is no parameter
    with pytest.raises(TypeError):
        PairDocument(1, 2, ((0,), (1,)), ((1, -1),), _checked=True)


def test_copy_deepcopy_and_pickle_give_equal_records():
    for record, text in _instances():
        for clone in (
            copy.copy(record),
            copy.deepcopy(record),
            *(pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        ):
            assert type(clone) is type(record)
            assert (clone, hash(clone), repr(clone)) == (record, hash(record), text)
            assert all(getattr(clone, f) == getattr(record, f) for f in record._fields)
            with pytest.raises(AttributeError):
                setattr(clone, record._fields[0], None)


def test_a_copied_document_keeps_its_mark_and_a_polytope_its_f_vector():
    doc = parse(CP1_TEXT)
    hand = PairDocument(doc.dim, doc.num_facets, doc.vertices, doc.matrix, doc.omniorientation)
    for d, marked in ((doc, True), (hand, False), (replace(doc), False)):
        for clone in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert clone._checked is marked
    poly = cpn(3).polytope
    expected = f_vector(poly)
    assert "_f_vector" in poly.__dict__
    for clone in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert clone.__dict__ == {"_f_vector": expected}
        assert f_vector(clone) == expected


def test_omniorientation_refuses_as_before():
    """Each sign through operator.index first, the global sign's then the
    facet signs', and only then their values, the global sign first."""
    with pytest.raises(TypeError):
        Omniorientation(0.0, (2,))
    with pytest.raises(TypeError):
        Omniorientation(0, (1, 2.0))
    with pytest.raises(ValueError, match="^global sign must be"):
        Omniorientation(0, (2,))
    with pytest.raises(ValueError, match="^facet signs must be"):
        Omniorientation(-1, (1, 0))
    omni = Omniorientation(True, iter([True, -1]))
    assert repr(omni) == "Omniorientation(global_sign=1, facet_signs=(1, -1))"


def test_gf2_system_refuses_a_bit_outside_the_unknowns_in_any_row():
    """The least row and the greatest row are both checked, not only a
    single row that is both."""
    for rows in ((1, -1), (-1, 1), (1, 2), (2, 1)):
        with pytest.raises(ValueError, match="outside the 1 unknowns"):
            Gf2System(1, rows, (0,) * len(rows))
    assert Gf2System(1, (1, 0), (0, 1)).rows == (1, 0)
