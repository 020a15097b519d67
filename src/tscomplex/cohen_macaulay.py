"""Cohen-Macaulay, CM_t and Buchsbaum tests via vanishing link homology.

A complex is Cohen-Macaulay over a field when, for every face (the empty
face included), the reduced homology of its link vanishes strictly below the
link's own dimension (Reisner, *Adv. Math.* 1976).  The CM_t hierarchy
quantifies only over faces with at least t vertices and additionally
requires purity; t = 0 recovers Cohen-Macaulay on pure complexes and t = 1
is the Buchsbaum property.  On a pure complex the link of a face σ has
dimension dim - #σ, so both tests bound the degree by the link's dimension.

Both run one walk over the faces, largest first, canonical within a size,
with ∅ last; the first face that fails is the witness.  The walk stops below
t vertices and skips every face with at least dim vertices before building
its link: such a link has dimension at most 0 and passes vacuously.
Reduced homology in dimension -1 is never consulted.

The link of σ has dimension at most dim - #σ, so on a 2-dimensional complex
(the TSC of any graph with an edge) each vertex link is a graph: the only
degree below its dimension is H̃0, which :func:`homology_summary` reads off a
component count without elimination.  Only the link at ∅, the complex
itself, ranks boundary matrices: ∂1 by a union-find, ∂2 by elimination.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import Face, SimplicialComplex, json_int
from .homology import DEFAULT_FIELD, FieldSpec, _characteristic, homology_summary


class CmWitness(NamedTuple):
    """A face whose link has nonvanishing reduced homology in degree r."""

    face: Face
    r: int
    betti: int


class CmReport(NamedTuple):
    verdict: bool
    field: FieldSpec
    witness: CmWitness | None
    purity_ok: bool

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {
                "face": list(self.witness.face),
                "r": self.witness.r,
                "betti": self.witness.betti,
            }
        return {
            "verdict": self.verdict,
            "field": str(self.field),
            "witness": witness,
            "purity_ok": self.purity_ok,
        }


def _witness(cx: SimplicialComplex, field: FieldSpec, t: int = 0) -> CmWitness | None:
    """The first face with at least ``t`` vertices whose link has nonzero
    reduced homology below the link's dimension, or None."""
    for size in range(cx.dimension() - 1, t - 1, -1):
        for face in cx.faces(size - 1) if size else [()]:
            reduced = homology_summary(cx.link(face), field).reduced_betti
            for r, betti in enumerate(reduced[:-1]):  # the degrees below the link's dimension
                if betti:
                    return CmWitness(face, r, betti)
    return None


def is_cm(cx: SimplicialComplex, field: FieldSpec = DEFAULT_FIELD) -> CmReport:
    """Cohen-Macaulay test: every link has vanishing reduced homology below
    its dimension.  Stops at the first failing face."""
    _characteristic(field)
    witness = _witness(cx, field)
    return CmReport(witness is None, field, witness, cx.is_pure())


def is_cm_t(cx: SimplicialComplex, t: int, field: FieldSpec = DEFAULT_FIELD) -> CmReport:
    """CM_t test: purity plus vanishing reduced link homology in degrees
    r < dim(cx) - #face for every face with #face >= t vertices.  A ``t``
    that is not an integer (a bool or a float included) is refused."""
    _characteristic(field)
    d = cx.dimension() + 1
    if not 0 <= json_int(t, "t") <= d:
        raise ValueError(f"t must lie in 0..{d} for a complex of dimension {d - 1}, got {t}")
    if not cx.is_pure():
        return CmReport(False, field, None, purity_ok=False)
    witness = _witness(cx, field, t)
    return CmReport(witness is None, field, witness, purity_ok=True)


def vertex_links_connected(cx: SimplicialComplex) -> bool:
    """True iff the link at every single vertex is facet-connected."""
    return all(cx.link((v,)).is_facet_connected() for v in cx.vertices)
