"""General simplicial complexes: faces, f-vector, purity, connectivity, links.

Faces are sorted tuples of integer vertex labels.  A complex is stored by its
facets (the inclusion-maximal faces) in canonical order: ascending vertex
lists compared lexicographically.  The complex whose only face is the empty
face (the link of a facet) is representable and has dimension -1.

A complex is built on one of two paths.  The public ones (the constructor,
:meth:`SimplicialComplex.from_facets` and JSON input) validate every
generator and drop the dominated ones.  The private trusted path only sorts;
it serves callers whose generators are provably an antichain of sorted
tuples: ``build_tsc`` (total indices are distinct triples plus singletons of
isolated vertices, and no triple contains an isolated vertex's label) and
:meth:`SimplicialComplex.link` (see there).

Both the antichain test and ``link`` read one index: for each vertex, the
bitmask of the generators containing it.  A generator is dominated exactly
when the AND of its vertices' masks has a bit besides its own, and the
facets through a face are the AND of its vertices' masks, so neither compares
generators pairwise.

Complexes are immutable; the face enumeration and the index are cached per
instance.
"""

from __future__ import annotations

import json
from itertools import combinations

Face = tuple[int, ...]


def _as_face(vertices) -> Face:
    vs = [json_int(v, "a vertex") for v in vertices]
    face = tuple(sorted(set(vs)))
    if len(face) != len(vs):
        raise ValueError(f"face {tuple(vs)} has repeated vertices")
    return face


def vertex_masks(faces) -> dict[int, int]:
    """For each vertex, the bitmask of the positions in ``faces`` of the
    faces that contain it."""
    masks: dict[int, int] = {}
    for j, face in enumerate(faces):
        bit = 1 << j
        for v in face:
            masks[v] = masks.get(v, 0) | bit
    return masks


def _meet(masks: dict[int, int], face: Face) -> int:
    """The AND of the masks of ``face``'s vertices: -1 (every bit) for ∅,
    0 if a vertex has no mask."""
    common = -1
    for v in face:
        common &= masks.get(v, 0)
    return common


def _antichain(faces: set[Face]) -> tuple[Face, ...]:
    """Keep only the inclusion-maximal members, in canonical order.

    The members are distinct, so one is dominated iff another member
    contains all its vertices, i.e. its meet has a bit besides its own.
    """
    ordered = sorted(faces)
    masks = vertex_masks(ordered)
    everything = (1 << len(ordered)) - 1
    return tuple(face for j, face in enumerate(ordered)
                 if (_meet(masks, face) & everything) == 1 << j)


class SimplicialComplex:
    """An abstract simplicial complex given by its facet antichain."""

    __slots__ = ("_facets", "_vertices", "_dim", "_faces_by_dim", "_masks")

    def __init__(self, facets):
        """Validating constructor: ``facets`` may be any generating family of
        (possibly empty) faces; each is checked for repeated vertices and
        the dominated ones are dropped by the mask test of ``_antichain``.
        Use :meth:`from_facets` to also refuse the empty face.
        """
        gens = {_as_face(f) for f in facets}
        if not gens:
            raise ValueError("a simplicial complex needs at least one generating face")
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
        self._vertices = tuple(sorted({v for f in facets for v in f}))
        self._dim = max(map(len, facets)) - 1
        self._faces_by_dim = None
        self._masks = None

    @classmethod
    def from_facets(cls, sets) -> "SimplicialComplex":
        """Build a complex from non-empty generating sets; dominated sets are
        dropped and the rest canonically ordered."""
        sets = [tuple(s) for s in sets]
        if not sets:
            raise ValueError("empty generating family")
        if any(not s for s in sets):
            raise ValueError("generating sets must be non-empty")
        return cls(sets)

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        """The complex {∅} containing only the empty face (dimension -1)."""
        return cls([()])

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

    def all_faces(self) -> dict[int, list[Face]]:
        """All faces grouped by dimension, each group in canonical order.

        The empty face is not listed (it is a face of every complex here).
        """
        if self._faces_by_dim is None:
            faces: set[Face] = set()
            for facet in self._facets:
                for k in range(1, len(facet) + 1):
                    faces.update(combinations(facet, k))
            grouped: dict[int, list[Face]] = {}
            for face in faces:
                grouped.setdefault(len(face) - 1, []).append(face)
            self._faces_by_dim = {k: sorted(v) for k, v in sorted(grouped.items())}
        return self._faces_by_dim

    def faces(self, k: int) -> list[Face]:
        """The k-dimensional faces in canonical order (empty list if none)."""
        return self.all_faces().get(k, [])

    def _facets_through(self, face: Face) -> int:
        """The bitmask of the facets (by position) that contain ``face``;
        -1 for ∅, which every facet contains."""
        if self._masks is None:
            self._masks = vertex_masks(self._facets)
        return _meet(self._masks, face)

    def has_face(self, face) -> bool:
        return self._facets_through(_as_face(face)) != 0

    def f_vector(self) -> tuple[int, ...]:
        """(alpha_0, ..., alpha_dim): face counts per dimension.

        A 1-dimensional complex is a graph, each of whose edges is a facet,
        so its counts are read off the facets without listing the faces.
        """
        if self._dim == 1:
            return len(self._vertices), sum(len(f) == 2 for f in self._facets)
        faces = self.all_faces()
        return tuple(len(faces[k]) for k in range(self.dimension() + 1))

    def component_count(self) -> int:
        """The number of connected components: a union-find on the vertices
        merges the roots of each facet's vertices.  {∅} has none."""
        parent = {v: v for v in self._vertices}
        components = len(parent)
        for facet in self._facets:
            roots = set()
            for v in facet:
                while parent[v] != v:  # path halving: point v at its grandparent, then step there
                    parent[v] = v = parent[parent[v]]
                roots.add(v)
            if len(roots) > 1:
                root = roots.pop()
                for other in roots:
                    parent[other] = root
                components -= len(roots)
        return components

    def is_facet_connected(self) -> bool:
        """True iff any two facets are joined by a chain of facets with
        consecutive non-empty intersections, that is, iff there is at most
        one facet or the vertices form one component."""
        return len(self._facets) <= 1 or self.component_count() == 1

    def link(self, face) -> "SimplicialComplex":
        """The link at ``face``: all faces disjoint from it whose union with
        it is again a face.  The link at ∅ is the complex itself; the link at
        a facet is the dimension -1 complex {∅}.

        Its facets are F ∖ σ for the facets F through σ, read off the mask
        index, and they go through the trusted constructor: if F ∖ σ ⊆ F' ∖ σ
        and σ lies in both F and F', then F ⊆ F', so distinct facets give an
        antichain.
        """
        face = _as_face(face)
        through = self._facets_through(face)
        if not through:
            raise ValueError(f"{face} is not a face of the complex")
        if face == ():
            return self
        fs = set(face)
        gens = []
        while through:
            low = through & -through
            through ^= low
            gens.append(tuple(v for v in self._facets[low.bit_length() - 1] if v not in fs))
        return SimplicialComplex._trusted(gens)

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
