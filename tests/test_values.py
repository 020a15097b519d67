"""The value types as callers see them: construction, repr, immutability,
equality and hashing by value, and the constructors' refusals.  They are
named tuples, so they also iterate and equal the plain tuple of their
fields; ``Rationals`` has no fields and is no tuple."""

import pytest

from tscomplex import (
    BoundaryMatrix,
    CmReport,
    CmWitness,
    CoverReport,
    Graph,
    HomologySummary,
    PrimeComponent,
    PrimeField,
    Rationals,
    SimplicialComplex,
    TotalLabeling,
    boundary_matrix,
)


def examples():
    """(value, the same value built by keyword, its repr)."""
    witness = CmWitness((1,), 0, 2)
    return [
        (PrimeField(32003), PrimeField(p=32003), "PrimeField(p=32003)"),
        (Graph(2, [(2, 1)]), Graph(m=2, edges=[(1, 2)]), "Graph(m=2, edges=((1, 2),))"),
        (TotalLabeling((1, 2), [3]), TotalLabeling(vertex_labels=[1, 2], edge_labels=(3,)),
         "TotalLabeling(vertex_labels=(1, 2), edge_labels=(3,))"),
        (witness, CmWitness(face=(1,), r=0, betti=2), "CmWitness(face=(1,), r=0, betti=2)"),
        (CmReport(False, PrimeField(2), witness, True),
         CmReport(verdict=False, field=PrimeField(2), witness=witness, purity_ok=True),
         "CmReport(verdict=False, field=PrimeField(p=2), "
         "witness=CmWitness(face=(1,), r=0, betti=2), purity_ok=True)"),
        (CoverReport(((1,), (2,)), (1, 1), True),
         CoverReport(covers=((1,), (2,)), cardinalities=(1, 1), unmixed=True),
         "CoverReport(covers=((1,), (2,)), cardinalities=(1, 1), unmixed=True)"),
        (PrimeComponent((1, 2)), PrimeComponent(variables=(1, 2)),
         "PrimeComponent(variables=(1, 2))"),
        (HomologySummary(Rationals(), (3,), (0,), (3,), (3,), (2,)),
         HomologySummary(field=Rationals(), alpha=(3,), rank_im=(0,), rank_ker=(3,),
                         betti=(3,), reduced_betti=(2,)),
         "HomologySummary(field=Rationals(), alpha=(3,), rank_im=(0,), rank_ker=(3,), "
         "betti=(3,), reduced_betti=(2,))"),
    ]


@pytest.mark.parametrize("value, by_keyword, text", examples())
def test_positional_and_keyword_construction_agree(value, by_keyword, text):
    assert value == by_keyword
    assert hash(value) == hash(by_keyword)
    assert repr(value) == repr(by_keyword) == text


@pytest.mark.parametrize("value, by_keyword, text", examples())
def test_fields_cannot_be_assigned(value, by_keyword, text):
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert value == by_keyword


@pytest.mark.parametrize("value, by_keyword, text", examples())
def test_values_are_named_tuples_of_their_fields(value, by_keyword, text):
    fields = tuple(getattr(value, name) for name in type(value)._fields)
    assert tuple(value) == fields and value == fields
    assert value._replace() == value and type(value._replace()) is type(value)


def test_boundary_matrix_is_a_value_but_not_hashable():
    bm = boundary_matrix(SimplicialComplex.from_facets([(1, 2)]), 1)
    assert repr(bm) == ("BoundaryMatrix(r=1, rows=((1,), (2,)), cols=((1, 2),), "
                        "entries=({0: -1}, {0: 1}))")
    assert bm == BoundaryMatrix(r=1, rows=bm.rows, cols=bm.cols, entries=({0: -1}, {0: 1}))
    with pytest.raises(AttributeError):
        bm.r = 2
    with pytest.raises(TypeError):
        hash(bm)


def test_equality_and_hashing_are_by_value():
    assert PrimeField(7) != PrimeField(11)
    assert Graph(3, [(1, 2)]) != Graph(3, [(2, 3)])
    assert CmWitness((), 1, 1) != CmWitness((), 1, 2)
    assert len({PrimeField(2), PrimeField(2), Rationals(), Rationals(), PrimeField(3)}) == 3
    assert {Graph(2, [(1, 2)]): "edge"}[Graph(2, [(2, 1)])] == "edge"


def test_rationals_is_a_truthy_field_with_no_fields():
    q = Rationals()
    assert bool(q) is True
    assert q == Rationals() and hash(q) == hash(Rationals())
    assert q != PrimeField(2) and PrimeField(2) != q and q != ()
    assert repr(q) == "Rationals()" and str(q) == "q"
    with pytest.raises(AttributeError):
        q.p = 2


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(0), "vertex count must be positive, got 0"),
    (lambda: Graph(1.0), "m must be an integer, got 1.0"),
    (lambda: Graph(100_001), "a graph may have at most 100000 vertices, got 100001"),
    (lambda: Graph(2, [(1,)]), "edge (1,) is not a pair of vertices"),
    (lambda: Graph(2, [(1, 2.0)]), "an edge end must be an integer, got 2.0"),
    (lambda: Graph(2, [(1, 1)]), "loop at vertex 1 is not allowed"),
    (lambda: Graph(2, [(1, 3)]), "edge (1, 3) out of range 1..2"),
    (lambda: Graph(2, [(1, 2), (2, 1)]), "duplicate edge (1, 2)"),
    (lambda: TotalLabeling((1.0,), ()), "a label must be an integer, got 1.0"),
    (lambda: TotalLabeling((1, 3), (4,)), "labels must be a bijection onto 1..3, got (1, 3, 4)"),
    (lambda: PrimeField(4), "4 is not prime"),
    (lambda: PrimeField(2.0), "a prime must be an integer, got 2.0"),
    (lambda: PrimeField(True), "a prime must be an integer, got True"),
    (lambda: PrimeField(2 ** 64 + 13),
     "18446744073709551629 is too large: primes must be below 2^64"),
    # _make and _replace go through the same checks
    (lambda: Graph(3, [(1, 2)])._replace(edges=((2, 2),)), "loop at vertex 2 is not allowed"),
    (lambda: Graph._make([0, ()]), "vertex count must be positive, got 0"),
    (lambda: TotalLabeling((1, 2), (3,))._replace(edge_labels=(4,)),
     "labels must be a bijection onto 1..3, got (1, 2, 4)"),
    (lambda: PrimeField(7)._replace(p=4.0), "a prime must be an integer, got 4.0"),
])
def test_refusal_messages(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message

