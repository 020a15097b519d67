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

The minimal primes of the facet ideal correspond one-to-one to the minimal
vertex covers, so the primary decomposition is read off the cover list.
The same search finds the minimal non-faces (the Stanley-Reisner
generators): a vertex set is a non-face iff it lies in no facet, that is,
iff it meets the complement V ∖ F of every facet F, so the minimal
non-faces are the minimal transversals of the facet complements (Miller &
Sturmfels, "Combinatorial Commutative Algebra", 2005, ch. 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Face, SimplicialComplex, vertex_masks

#: The most minimal transversals one search returns.  A search that finds
#: more is refused with a ``ValueError`` as soon as it does, so neither
#: minimal covers nor Stanley-Reisner generators can exhaust memory (the TSC
#: of a path on m vertices has about 4.5 times more covers per two more
#: vertices).  The friendship TSC at n = 8, with 210,714 minimal covers,
#: stays below it.
MAX_TRANSVERSALS = 250_000


@dataclass(frozen=True)
class CoverReport:
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


@dataclass(frozen=True)
class PrimeComponent:
    """One minimal prime of the facet ideal: the variables indexed by a
    minimal vertex cover."""

    variables: tuple[int, ...]

    def __str__(self):
        return "(" + ", ".join(f"x{v}" for v in self.variables) + ")"


def _minimal_transversals(facets: tuple[Face, ...]) -> list[tuple[int, ...]]:
    """Every minimal transversal of ``facets``, each once, in search order;
    more than :data:`MAX_TRANSVERSALS` of them is a ``ValueError``.

    Masks: ``members[j]`` holds the vertices of facet j, ``hits[i]`` the
    facets containing vertex i.  A stack entry is (chosen vertices, their
    critical-facet masks, uncovered facets, candidate vertices).
    """
    masks = vertex_masks(facets)
    vertices = sorted(masks)
    index = {v: i for i, v in enumerate(vertices)}
    members = [sum(1 << index[v] for v in f) for f in facets]
    hits = [masks[v] for v in vertices]
    found = []
    stack = [((), (), (1 << len(facets)) - 1, (1 << len(vertices)) - 1)]
    while stack:
        chosen, crit, uncov, cand = stack.pop()
        if not uncov:
            found.append(tuple(vertices[i] for i in sorted(chosen)))
            if len(found) > MAX_TRANSVERSALS:
                raise ValueError(f"more than {MAX_TRANSVERSALS} minimal transversals "
                                 "(covers or non-faces); refusing to list them all")
            continue
        # branch on the uncovered facet with the fewest candidates
        branch, fewest, rest = 0, len(vertices) + 1, uncov
        while rest and fewest > 1:
            low = rest & -rest
            rest ^= low
            options = members[low.bit_length() - 1] & cand
            if options.bit_count() < fewest:
                branch, fewest = options, options.bit_count()
        # sibling e may use the siblings branched before it, never the later ones
        cand &= ~branch
        while branch:
            low = branch & -branch
            branch ^= low
            e = low.bit_length() - 1
            kept = tuple(c & ~hits[e] for c in crit)
            if all(kept):  # every chosen vertex still has a facet only it covers
                stack.append((chosen + (e,), kept + (uncov & hits[e],), uncov & ~hits[e], cand))
            cand |= low
    return found


def minimal_vertex_covers(cx: SimplicialComplex) -> CoverReport:
    """Complete enumeration of the minimal vertex covers of ``cx``."""
    if any(not f for f in cx.facets):
        raise ValueError("the empty facet cannot be covered")
    covers = sorted(_minimal_transversals(cx.facets))
    sizes = tuple(sorted(len(c) for c in covers))
    return CoverReport(
        covers=tuple(covers),
        cardinalities=sizes,
        unmixed=len(set(sizes)) <= 1,
    )


def facet_ideal_decomposition(cx: SimplicialComplex,
                              report: CoverReport | None = None) -> list[PrimeComponent]:
    """The minimal primes of the facet ideal, one per minimal vertex cover,
    in canonical order; ``report`` is the cover report of ``cx`` if known."""
    report = report or minimal_vertex_covers(cx)
    return [PrimeComponent(variables=c) for c in report.covers]


def stanley_reisner_generators(cx: SimplicialComplex) -> list[Face]:
    """All inclusion-minimal non-faces over the complex's vertex set, in
    canonical order: the minimal transversals of the facet complements.

    A facet holding every vertex has an empty complement, which nothing
    meets, so such a complex (a simplex, or {∅}) has no minimal non-face.
    """
    vertices = set(cx.vertices)
    complements = tuple(tuple(sorted(vertices.difference(f))) for f in cx.facets)
    return sorted(_minimal_transversals(complements))


def friendship_cover_count(n: int) -> int:
    """Closed-form cover count for the friendship-family TSC, n >= 2.

    Enumeration is authoritative and shows this formula counts exactly the
    minimal covers of cardinality 3n+1 for n = 2..7; for n >= 2 the complex
    also has larger minimal covers the formula does not see.  For n = 2..7
    these are 4n + 1 covers of size 4n (9 of size 8 at n = 2, 13 of size 12
    at n = 3, up to 29 of size 28 at n = 7), a pattern observed by
    enumeration, not a proven one.  At n = 1 the formula (value 10)
    disagrees even with the size-4 census (15 covers: the complex is the
    full 2-skeleton on six vertices, so the minimal covers are the
    complements of the 2-subsets), hence that case is rejected outright.
    """
    if n < 2:
        raise ValueError(
            f"closed-form cover count needs n >= 2 (got {n}); at n = 1 the formula "
            "disagrees with enumeration, which is authoritative"
        )
    return _friendship_cover_formula(n)


def _friendship_cover_formula(n: int) -> int:
    """3^(n-2) (2n² + 19n + 9), written so that it is an integer at n = 1 too."""
    return (2 * n * n + 19 * n + 9) * 3 ** n // 9


def decomposition_to_json_dict(cx: SimplicialComplex, report: CoverReport | None = None) -> dict:
    report = report or minimal_vertex_covers(cx)
    return {
        "components": [list(c) for c in report.covers],
        "unmixed": report.unmixed,
        "cardinalities": list(report.cardinalities),
    }


def decomposition_text(components: list[PrimeComponent]) -> str:
    """Render an intersection-of-primes presentation."""
    return " ∩ ".join(str(c) for c in components)
