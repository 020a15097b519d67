"""Minimal covers and minimal non-faces against the brute-force scans on
hypothesis-drawn complexes."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from tscomplex import (  # noqa: E402
    SimplicialComplex,
    minimal_vertex_covers,
    stanley_reisner_generators,
)
from oracles import brute_force_minimal_covers, brute_force_minimal_nonfaces  # noqa: E402

generators = st.lists(st.sets(st.integers(1, 12), min_size=1, max_size=5),
                      min_size=1, max_size=16)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(generators)
def test_covers_match_brute_force(gens):
    cx = SimplicialComplex.from_facets(gens)
    assert list(minimal_vertex_covers(cx).covers) == brute_force_minimal_covers(cx)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.lists(st.sets(st.integers(1, 12), min_size=1, max_size=7),
                           min_size=1, max_size=16))
def test_stanley_reisner_generators_match_brute_force(gens):
    cx = SimplicialComplex.from_facets(gens)
    assert stanley_reisner_generators(cx) == brute_force_minimal_nonfaces(cx)
