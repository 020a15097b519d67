"""Minimal covers against the brute-force scan on hypothesis-drawn complexes."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from tscomplex import SimplicialComplex, minimal_vertex_covers  # noqa: E402
from oracles import brute_force_minimal_covers  # noqa: E402

generators = st.lists(st.sets(st.integers(1, 12), min_size=1, max_size=5),
                      min_size=1, max_size=16)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(generators)
def test_covers_match_brute_force(gens):
    cx = SimplicialComplex.from_facets(gens)
    assert list(minimal_vertex_covers(cx).covers) == brute_force_minimal_covers(cx)
