"""Minimal vertex covers, unmixedness, squarefree ideal decompositions, and
Stanley-Reisner generators.

A vertex cover of a complex meets every facet; the minimal ones are the
minimal transversals of the facet hypergraph.  They are enumerated by MMCS
(Murakami & Uno, "Efficient algorithms for dualizing large-scale
hypergraphs", Discrete Appl. Math. 2014) on bitmasks, depth first on an
explicit stack.  Each search node branches on the uncovered facet with the
fewest candidate vertices, and a vertex is added only if every chosen
vertex keeps a critical facet (one that no other chosen vertex meets).  So
every leaf is a minimal cover and no cover is reached twice: no minimality
filter and no deduplication are needed, and the search depth is bounded by
the cover size, not by the interpreter's recursion limit.

A branch vertex that fails this test is also dropped from the candidates
of every child of its node.  That is sound because critical sets only
shrink as vertices are added: below the node every chosen set contains the
node's, so the vertex would leave the same chosen vertex without a
critical facet there too, and no minimal cover below the node contains it.
Without this rule the star K_{1,k} costs Θ(k²) facet scans: after one leaf
is chosen the centre stays a candidate that no node may add, every
uncovered facet keeps two candidates, and the fewest-candidate scan never
stops early.

The minimal primes of the facet ideal correspond one-to-one to the minimal
vertex covers, so the primary decomposition is read off the cover list.

The minimal non-faces (the Stanley-Reisner generators; Miller & Sturmfels,
"Combinatorial Commutative Algebra", 2005, ch. 1) are read off the face
links.  One pass over the subsets of each facet records, for every face σ,
the vertex mask of its link lk σ.  A set S = σ ∪ {x} with x above σ's
largest vertex is a minimal non-face exactly when x lies outside lk σ (S is
no face) and inside lk(σ ∖ y) for every y in σ (every S ∖ y is a face; S ∖
x = σ is one).  Every minimal non-face S arises so, from the face
σ = S ∖ max S, and from no other, so each is found once.  The pass costs
Σ_F 2^|F| over the facets F, the subsets that ``f_vector`` lists too:
cheap for TSCs, whose facets have at most 3 vertices, and bounded by
``complexes.MAX_FACET_SIZE`` for complex input.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .complexes import Face, SimplicialComplex, json_int

#: The most minimal covers, or minimal non-faces, one call returns.  A call
#: that finds more is refused with a ``ValueError`` as soon as it does: the
#: cover search at its leaves, the face-link rule as it reads the
#: generators, so neither can exhaust memory (the TSC of a path on m
#: vertices has about 4.5 times more covers per two more vertices).  The
#: friendship TSC at n = 8, with 210,714 minimal covers, stays below it.
MAX_TRANSVERSALS = 250_000


def _too_many() -> ValueError:
    """The refusal of a call that found more than :data:`MAX_TRANSVERSALS`."""
    return ValueError(f"more than {MAX_TRANSVERSALS} minimal transversals "
                      "(covers or non-faces); refusing to list them all")


class CoverReport(NamedTuple):
    """All minimal vertex covers in canonical order, their size multiset,
    and whether the sizes agree (unmixedness)."""

    covers: tuple[tuple[int, ...], ...]
    cardinalities: tuple[int, ...]
    unmixed: bool

    def to_json_dict(self) -> dict:
        return {
            "covers": [list(c) for c in self.covers],
            "cardinalities": list(self.cardinalities),
            "unmixed": self.unmixed,
        }


class PrimeComponent(NamedTuple):
    """One minimal prime of the facet ideal: the variables indexed by a
    minimal vertex cover."""

    variables: tuple[int, ...]


def _incidence(facets: tuple[Face, ...]) -> tuple[tuple[int, ...], list[int], list[int]]:
    """(vertices, members, hits) of ``facets``: the sorted vertices, for
    each facet j the mask ``members[j]`` of its vertices (bit i for
    ``vertices[i]``), and for each vertex i the mask ``hits[i]`` of the
    facets containing it.  These bitmasks are MMCS's own; the search is
    their only reader."""
    vertices = tuple(sorted({v for f in facets for v in f}))
    index = {v: i for i, v in enumerate(vertices)}
    members = [sum(1 << index[v] for v in f) for f in facets]
    hits = [0] * len(vertices)
    for j, f in enumerate(facets):
        for v in f:
            hits[index[v]] |= 1 << j
    return vertices, members, hits


def _minimal_transversals(vertices: tuple[int, ...], members: list[int],
                          hits: list[int]) -> list[tuple[int, ...]]:
    """Every minimal transversal of the sets ``members``, given as in
    :func:`_incidence`, each once as a sorted tuple of vertices, in search
    order; more than :data:`MAX_TRANSVERSALS` of them is a ``ValueError``.

    A stack entry is (chosen vertices, their critical-facet masks,
    uncovered facets, candidate vertices); a child that covers every facet
    is emitted at once instead of being pushed.
    """
    uncov = (1 << len(members)) - 1
    if not uncov:
        return [()]
    found = []
    stack = [((), (), uncov, (1 << len(vertices)) - 1)]
    while stack:
        chosen, crit, uncov, cand = stack.pop()
        # branch on the uncovered facet with the fewest candidates
        branch, fewest, rest = 0, len(vertices) + 1, uncov
        while rest and fewest > 1:
            low = rest & -rest
            rest ^= low
            options = members[low.bit_length() - 1] & cand
            if options.bit_count() < fewest:
                branch, fewest = options, options.bit_count()
        # sibling e may use the siblings branched before it, never the later
        # ones; one that breaks minimality here is no child's candidate
        cand &= ~branch
        while branch:
            low = branch & -branch
            branch ^= low
            e = low.bit_length() - 1
            miss = ~hits[e]
            left = uncov & miss
            # kept only if every chosen vertex keeps a critical facet; a child
            # that covers every facet is emitted and needs no masks of its own
            if left:
                kept = tuple(map(miss.__and__, crit))
                if all(kept):
                    stack.append((chosen + (vertices[e],), kept + (uncov ^ left,), left, cand))
                    cand |= low
            elif all(map(miss.__and__, crit)):
                found.append(tuple(sorted(chosen + (vertices[e],))))
                if len(found) > MAX_TRANSVERSALS:
                    raise _too_many()
                cand |= low
    return found


def minimal_vertex_covers(cx: SimplicialComplex) -> CoverReport:
    """Complete enumeration of the minimal vertex covers of ``cx``."""
    if any(not f for f in cx.facets):
        raise ValueError("the empty facet cannot be covered")
    covers = sorted(_minimal_transversals(*_incidence(cx.facets)))
    sizes = tuple(sorted(len(c) for c in covers))
    return CoverReport(
        covers=tuple(covers),
        cardinalities=sizes,
        unmixed=len(set(sizes)) <= 1,
    )


def facet_ideal_decomposition(cx: SimplicialComplex) -> list[PrimeComponent]:
    """The minimal primes of the facet ideal, one per minimal vertex cover,
    in canonical order."""
    return [PrimeComponent(variables=c) for c in minimal_vertex_covers(cx).covers]


def stanley_reisner_generators(cx: SimplicialComplex) -> list[Face]:
    """All inclusion-minimal non-faces over the complex's vertex set, in
    canonical order, by the face-link rule of the module docstring; more
    than :data:`MAX_TRANSVERSALS` of them is a ``ValueError``.

    Faces and links are vertex masks (bit i for ``cx.vertices[i]``).  The
    link of ∅ is every vertex, so the rule finds no generator at ∅, and
    the removal of the only vertex of a singleton σ checks that link.  A
    simplex, or {∅}, has no minimal non-face.

    Two vertices that span no edge form a minimal non-face, and at most
    Σ_F C(|F|, 2) pairs span one, so a complex whose vertex pairs outnumber
    that by more than :data:`MAX_TRANSVERSALS` is refused before the pass.
    """
    vertices = cx.vertices
    if comb(len(vertices), 2) - sum(comb(len(f), 2) for f in cx.facets) > MAX_TRANSVERSALS:
        raise _too_many()
    index = {v: i for i, v in enumerate(vertices)}
    full = (1 << len(vertices)) - 1
    links = {0: full}
    for facet in cx.facets:
        members = sum(1 << index[v] for v in facet)
        face = members
        while face:  # every non-empty subset of the facet, by submask descent
            links[face] = links.get(face, 0) | (members ^ face)
            face = (face - 1) & members
    found = []
    for face, link in links.items():
        # x above the face's largest vertex and outside its link
        tops = full & ~link & ~((1 << face.bit_length()) - 1)
        rest = face
        while tops and rest:
            low = rest & -rest
            rest ^= low
            tops &= links[face ^ low]
        if tops:
            base, rest = (), face
            while rest:
                low = rest & -rest
                rest ^= low
                base += (vertices[low.bit_length() - 1],)
            while tops:
                low = tops & -tops
                tops ^= low
                found.append(base + (vertices[low.bit_length() - 1],))
            if len(found) > MAX_TRANSVERSALS:
                raise _too_many()
    return sorted(found)


def friendship_cover_count(n: int) -> int:
    """Closed-form cover count for the friendship-family TSC, n >= 2.

    Enumeration is authoritative and shows this formula counts exactly the
    minimal covers of cardinality 3n+1 for n = 2..8; for n >= 2 the complex
    also has larger minimal covers the formula does not see.  For n = 2..8
    these are 4n + 1 covers of size 4n (9 of size 8 at n = 2, 13 of size 12
    at n = 3, up to 33 of size 32 at n = 8), a pattern observed by
    enumeration, not a proven one.  At n = 1 the formula (value 10)
    disagrees even with the size-4 census (15 covers: the complex is the
    full 2-skeleton on six vertices, so the minimal covers are the
    complements of the 2-subsets), hence that case is rejected outright.
    """
    if json_int(n, "n") < 2:
        raise ValueError(
            f"closed-form cover count needs n >= 2 (got {n}); at n = 1 the formula "
            "disagrees with enumeration, which is authoritative"
        )
    return _friendship_cover_formula(n)


def _friendship_cover_formula(n: int) -> int:
    """3^(n-2) (2n² + 19n + 9), written so that it is an integer at n = 1 too."""
    return (2 * n * n + 19 * n + 9) * 3 ** n // 9


def decomposition_to_json_dict(cx: SimplicialComplex, report: CoverReport | None = None) -> dict:
    """The cover report of ``cx`` (``report`` if given) as the JSON of the
    primary decomposition: its covers are the components."""
    payload = (report or minimal_vertex_covers(cx)).to_json_dict()
    payload["components"] = payload.pop("covers")
    return payload
