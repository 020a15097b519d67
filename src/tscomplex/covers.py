"""Minimal vertex covers, unmixedness, and squarefree ideal decompositions.

A vertex cover of a complex meets every facet; the minimal ones are the
minimal transversals of the facet hypergraph.  They are enumerated by a
depth-first branch on the first uncovered facet (at most one branch per
facet vertex, with earlier siblings excluded to keep branches disjoint),
followed by an exact minimality filter: a cover is minimal iff each of its
vertices has a private facet.

The minimal primes of the facet ideal correspond one-to-one to the minimal
vertex covers, so the primary decomposition is read off the cover list.
Minimal non-faces (the Stanley-Reisner generators) are found by direct
search up to size dim + 2, the largest size a minimal non-face can have.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import Face, SimplicialComplex


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


def _candidate_covers(facets: tuple[Face, ...]) -> list[frozenset[int]]:
    found: list[frozenset[int]] = []

    def extend(chosen: frozenset[int], banned: frozenset[int]):
        target = next((f for f in facets if not chosen.intersection(f)), None)
        if target is None:
            found.append(chosen)
            return
        for v in target:
            if v not in banned:
                extend(chosen | {v}, banned)
            banned = banned | {v}  # later siblings must avoid v

    extend(frozenset(), frozenset())
    return found


def _is_minimal_cover(cover: frozenset[int], facets: tuple[Face, ...]) -> bool:
    # minimal <=> every chosen vertex is the sole representative of some facet
    private = set()
    for f in facets:
        hit = cover.intersection(f)
        if not hit:
            return False
        if len(hit) == 1:
            private.update(hit)
    return private == cover


def minimal_vertex_covers(cx: SimplicialComplex) -> CoverReport:
    """Complete enumeration of the minimal vertex covers of ``cx``."""
    if any(not f for f in cx.facets):
        raise ValueError("the empty facet cannot be covered")
    candidates = _candidate_covers(cx.facets)
    covers = sorted({tuple(sorted(c)) for c in candidates
                     if _is_minimal_cover(c, cx.facets)})
    sizes = tuple(sorted(len(c) for c in covers))
    return CoverReport(
        covers=tuple(covers),
        cardinalities=sizes,
        unmixed=len(set(sizes)) <= 1,
    )


def is_unmixed(cx: SimplicialComplex) -> bool:
    """True iff all minimal vertex covers share one cardinality."""
    return minimal_vertex_covers(cx).unmixed


def facet_ideal_decomposition(cx: SimplicialComplex,
                              report: CoverReport | None = None) -> list[PrimeComponent]:
    """The minimal primes of the facet ideal, one per minimal vertex cover,
    in canonical order; ``report`` is the cover report of ``cx`` if known."""
    report = report or minimal_vertex_covers(cx)
    return [PrimeComponent(variables=c) for c in report.covers]


def stanley_reisner_generators(cx: SimplicialComplex) -> list[Face]:
    """All inclusion-minimal non-faces over the complex's vertex set.

    A minimal non-face has every proper subset a face, so its size is at
    most dim + 2; singletons are faces by construction, so the search starts
    at pairs.
    """
    cx.all_faces()
    is_face = cx.has_face
    generators: list[Face] = []
    for size in range(2, cx.dimension() + 3):
        for cand in combinations(cx.vertices, size):
            if is_face(cand):
                continue
            if all(is_face(cand[:i] + cand[i + 1:]) for i in range(size)):
                generators.append(cand)
    return sorted(generators)


def friendship_cover_count(n: int) -> int:
    """Closed-form cover count for the friendship-family TSC, n >= 2.

    Enumeration is authoritative and shows this formula counts exactly the
    minimal covers of cardinality 3n+1; for n >= 2 the complex also has
    larger minimal covers the formula does not see (9 of size 8 at n = 2,
    13 of size 12 at n = 3).  At n = 1 the formula (value 10) disagrees even
    with the size-4 census (15 covers: the complex is the full 2-skeleton on
    six vertices, so the minimal covers are the complements of the
    2-subsets), hence that case is rejected outright.
    """
    if n < 2:
        raise ValueError(
            f"closed-form cover count needs n >= 2 (got {n}); at n = 1 the formula "
            "disagrees with enumeration, which is authoritative"
        )
    return 3 ** (n - 2) * (2 * n * n + 19 * n + 9)


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
