"""General simplicial complexes: faces, f-vector, purity, connectivity, links.

Faces are sorted tuples of integer vertex labels.  A complex is stored by its
facets (the inclusion-maximal faces) in canonical order: ascending vertex
lists compared lexicographically.  The complex whose only face is the empty
face (the link of a facet), ``SimplicialComplex([()])``, is representable
and has dimension -1.

A complex is built on one of two paths.  The public ones (the constructor,
:meth:`SimplicialComplex.from_facets` and JSON input) validate every
generator and drop the dominated ones.  The private trusted path only sorts;
it serves callers whose generators are provably an antichain of sorted
tuples: ``build_tsc`` (total indices are distinct triples plus singletons of
isolated vertices, and no triple contains an isolated vertex's label) and
:meth:`SimplicialComplex.link` (see there).

Both the antichain test and ``link`` read one index: for each vertex, the
set of positions of the generators containing it.  The generators through a
non-empty face are the intersection of its vertices' sets, and each ``&``
walks the smaller of its two sets; ∅ lies in every generator.  A generator
is dominated exactly when another position contains it too, which one of
the largest size never is, so neither compares generators pairwise.  The
index holds one entry per vertex of each generator, so its memory is linear
in the total size of the generator list.

Complexes are immutable.  Faces are listed one dimension at a time, on
demand, and each dimension's list is cached per instance, as is the index:
the vertices are the faces of dimension 0 and the largest facets those of
the top dimension, so neither takes a subset, and only the dimensions in
between are enumerated from the facets.  A query that reads only some
dimensions lists only those.

The validating path refuses a facet with more than :data:`MAX_FACET_SIZE`
vertices before any face is listed, since a facet on k vertices has 2^k - 1
non-empty faces.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import reduce
from itertools import combinations, filterfalse
from operator import and_

Face = tuple[int, ...]

#: The most vertices a facet given to the validating constructor may have.
#: A facet on k vertices has 2^k - 1 non-empty faces, and a 16-vertex one
#: lists its 65,535 in ~0.1 s; every TSC facet has at most 3 vertices.  The
#: vertex count is not capped.
MAX_FACET_SIZE = 16


def _as_face(vertices) -> Face:
    vs = [json_int(v, "a vertex") for v in vertices]
    face = tuple(sorted(set(vs)))
    if len(face) != len(vs):
        raise ValueError(f"face {tuple(vs)} has repeated vertices")
    return face


def _positions(faces) -> dict[int, set[int]]:
    """For each vertex, the set of positions in ``faces`` of the faces that
    contain it."""
    index = defaultdict(set)
    for j, face in enumerate(faces):
        for v in face:
            index[v].add(j)
    return index


_NONE: frozenset[int] = frozenset()


def _through(index: dict[int, set[int]], face: Face) -> set[int] | frozenset[int]:
    """The positions of the faces through the non-empty ``face``: empty if a
    vertex is in none."""
    return reduce(and_, [index.get(v, _NONE) for v in face])


def _antichain(faces: set[Face]) -> tuple[Face, ...]:
    """Keep only the inclusion-maximal members, in canonical order.

    The members are distinct, so one of the largest size is kept, and any
    other iff it is the only member through it; ∅ lies in every member.
    """
    ordered = sorted(faces)
    top = max(map(len, ordered))
    index = _positions(ordered)
    return tuple(face for face in ordered
                 if len(face) == top or (face and len(_through(index, face)) == 1))


def _component_count(vertices, faces) -> int:
    """The number of components of the graph on ``vertices`` in which each
    face joins its vertices (every vertex of a face must be one of them).

    A union-find with path halving: the root of each face's first vertex
    is found, and the root of each further vertex is pointed at it."""
    parent = {v: v for v in vertices}
    components = len(parent)
    for face in faces:
        root = None
        for v in face:
            while parent[v] != v:  # path halving: point v at its grandparent, then step there
                parent[v] = v = parent[parent[v]]
            if root is None:
                root = v
            elif v != root:
                parent[v] = root
                components -= 1
    return components


class SimplicialComplex:
    """An abstract simplicial complex given by its facet antichain."""

    __slots__ = ("_facets", "_vertices", "_dim", "_faces_by_dim", "_index")

    def __init__(self, facets):
        """Validating constructor: ``facets`` may be any generating family of
        (possibly empty) faces; each is checked for repeated vertices and
        the dominated ones are dropped by the position test of ``_antichain``.
        Use :meth:`from_facets` to also refuse the empty face.
        """
        gens = {_as_face(f) for f in facets}
        if not gens:
            raise ValueError("a simplicial complex needs at least one generating face")
        largest = max(map(len, gens))
        if largest > MAX_FACET_SIZE:
            raise ValueError(f"a facet has {largest} vertices; at most {MAX_FACET_SIZE} "
                             "are accepted, since a facet on k vertices has 2^k faces")
        self._set_facets(_antichain(gens))

    @classmethod
    def _trusted(cls, facets) -> "SimplicialComplex":
        """Trusted constructor: ``facets`` must already be an antichain of
        sorted tuples; they are only put in canonical order."""
        cx = cls.__new__(cls)
        cx._set_facets(tuple(sorted(facets)))
        return cx

    def _set_facets(self, facets: tuple[Face, ...]) -> None:
        self._facets = facets
        self._vertices = tuple(sorted(set().union(*facets)))
        self._dim = max(map(len, facets)) - 1
        self._faces_by_dim = {}
        self._index = None

    @classmethod
    def from_facets(cls, sets) -> "SimplicialComplex":
        """Build a complex from non-empty generating sets; dominated sets are
        dropped and the rest canonically ordered."""
        sets = [tuple(s) for s in sets]
        if any(not s for s in sets):
            raise ValueError("generating sets must be non-empty")
        return cls(sets)

    # -- basic structure ----------------------------------------------------

    @property
    def facets(self) -> tuple[Face, ...]:
        return self._facets

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    def dimension(self) -> int:
        return self._dim

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self._facets}
        return len(sizes) == 1

    def faces(self, k: int) -> list[Face]:
        """The k-dimensional faces in canonical order (empty list if none),
        listed on the first call and cached.

        A top-dimensional face lies in no larger facet, so it is a facet;
        other faces are the (k+1)-subsets of the facets with more than k
        vertices.
        """
        faces = self._faces_by_dim.get(k)
        if faces is None:
            if not 0 <= k <= self._dim:
                return []
            if k == 0:
                faces = [(v,) for v in self._vertices]
            elif k == self._dim:
                faces = [f for f in self._facets if len(f) == k + 1]
            else:
                faces = sorted({face for f in self._facets if len(f) > k
                                for face in combinations(f, k + 1)})
            self._faces_by_dim[k] = faces
        return faces

    def f_vector(self) -> tuple[int, ...]:
        """(alpha_0, ..., alpha_dim): face counts per dimension."""
        return tuple(len(self.faces(k)) for k in range(self._dim + 1))

    def component_count(self) -> int:
        """The number of connected components, by :func:`_component_count`
        on the vertices and facets.  {∅} has none."""
        return _component_count(self._vertices, self._facets)

    def is_facet_connected(self) -> bool:
        """True iff any two facets are joined by a chain of facets with
        consecutive non-empty intersections, that is, iff the vertices form
        at most one component ({∅} has none, a single facet one)."""
        return self.component_count() <= 1

    def link(self, face) -> "SimplicialComplex":
        """The link at ``face``: all faces disjoint from it whose union with
        it is again a face.  The link at ∅ is the complex itself; the link at
        a facet is the dimension -1 complex {∅}.

        Its facets are F ∖ σ for the facets F through σ, read off the
        position index, and they go through the trusted constructor: if
        F ∖ σ ⊆ F' ∖ σ and σ lies in both F and F', then F ⊆ F', so distinct
        facets give an antichain.
        """
        face = _as_face(face)
        if face == ():
            return self
        if self._index is None:
            self._index = _positions(self._facets)
        through = _through(self._index, face)
        if not through:
            raise ValueError(f"{face} is not a face of the complex")
        inside = set(face).__contains__
        return SimplicialComplex._trusted(
            [tuple(filterfalse(inside, self._facets[j])) for j in through])

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    def __repr__(self):
        inside = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self._facets[:8])
        tail = ", ..." if len(self._facets) > 8 else ""
        return f"SimplicialComplex<{inside}{tail}> ({len(self._facets)} facets)"


# --- JSON interchange --------------------------------------------------------
#
# {"n": <vertex count>, "facets": [[...], ...]}  with facets in canonical order.


def canonical_json(data) -> str:
    """Byte-stable JSON text: sorted keys, no spaces, one trailing newline."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def parse_json(text: str):
    """Decode JSON text; malformed or too deeply nested text is a ``ValueError``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a bool or a float is refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def complex_dumps(cx: SimplicialComplex) -> str:
    """Canonical (byte-stable) JSON text for a complex."""
    return canonical_json({"n": len(cx.vertices), "facets": [list(f) for f in cx.facets]})


def complex_loads(text: str) -> SimplicialComplex:
    """Decode complex JSON text through the validating :meth:`from_facets`."""
    data = parse_json(text)
    try:
        cx = SimplicialComplex.from_facets(data["facets"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex JSON: {exc}") from exc
    if "n" in data and json_int(data["n"], "n") != len(cx.vertices):
        raise ValueError(
            f"complex JSON claims {data['n']} vertices but facets use {len(cx.vertices)}"
        )
    return cx
