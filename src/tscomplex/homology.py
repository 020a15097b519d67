"""Boundary matrices and exact simplicial homology over a field.

The boundary of an r-face drops one vertex at a time with alternating signs,
positions taken in ascending vertex order; bases are the canonical face
orders of the complex, so matrices are identical across runs.

Matrices are stored by rows only, one ``{column: entry}`` dict per
(r-1)-face, filled straight from the r-faces.  One exact kernel ranks
sparse vectors over every field by reduction on the lowest index
(Kaczynski, Mischaikow & Mrozek, *Computational Homology*, 2004).  Over
GF(p) it works with Python ints mod p, so no prime overflows it; over
the rationals entries stay ints until a pivot other than +-1 makes
fractions.  The default working field is GF(32003); the rationals serve
as the independent verification route.

:func:`matrix_rank` hands the kernel the stored rows of ∂_r, r >= 2, not its
columns.  A column reduction spends most of its work on the columns that end up zero,
and ∂_r has dim ker ∂_r of them (460 of the 820 triangles of the friendship
TSC at n = 6).  The rows have a known dependency instead: ∂_{r-1} ∂_r = 0
says that, for each (r-2)-face τ, the rows of the (r-1)-faces through τ
sum to zero with coefficients +-1.  Dropping the last row through each τ
therefore keeps the rank over every field, and at n = 6 leaves 360 rows, the
rank itself, so no row is reduced to zero there.  This is the "clearing" or
"twist" of persistent homology, used without a filtration (Chen & Kerber,
"Persistent homology computation with a twist", 2011; de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011).

∂1 of every complex is ranked without elimination: it is the oriented
incidence matrix of the complex's 1-skeleton, a graph, and has rank
f0 - (number of components) over every field (Munkres, *Elements of
Algebraic Topology*, 1984, §7), so clearing starts at r = 2.
:func:`matrix_rank` counts the components of ∂1's rows and columns with a
union-find; :func:`homology_summary` of a 1-dimensional complex, such as a
vertex link of a 2-dimensional complex, builds no matrix and reads
:meth:`SimplicialComplex.component_count`, the same union-find on the
vertices and facets.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .complexes import Face, SimplicialComplex, _component_count, json_int


# --- fields -----------------------------------------------------------------


class Rationals:
    """Exact rational coefficients.  It has no fields, so it is no tuple
    (an empty one would be false); all instances are equal."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(Rationals)

    def __repr__(self):
        return "Rationals()"

    def __str__(self):
        return "q"


#: Miller-Rabin with these bases decides primality exactly for p < 2^64.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in _BASES:
        powers = [pow(a, (p - 1) >> (s - k), p) for k in range(s)]  # a^d, a^2d, ...
        if powers[0] != 1 and p - 1 not in powers:
            return False
    return True


class _PrimeFieldFields(NamedTuple):
    p: int


class PrimeField(_PrimeFieldFields):
    """The finite field GF(p) for prime p < 2^64.  A ``p`` that is not an
    integer (a bool or a float included) is refused."""

    __slots__ = ()

    def __new__(cls, p: int):
        json_int(p, "a prime")
        if p >= 1 << 64:
            raise ValueError(f"{p} is too large: primes must be below 2^64")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # through the checks above, and so is _replace

    def __str__(self):
        return f"gf:{self.p}"


FieldSpec = Rationals | PrimeField

DEFAULT_FIELD = PrimeField(32003)


def _characteristic(field: FieldSpec) -> int:
    """p for ``PrimeField(p)``, 0 for ``Rationals()``.  Anything else, a
    spec string or a tuple equal to a ``PrimeField`` included, is refused
    rather than read as the rationals."""
    if isinstance(field, PrimeField):
        return field.p
    if isinstance(field, Rationals):
        return 0
    raise ValueError(f"not a field: {field!r}; pass parse_field(spec), PrimeField(p) "
                     f"or Rationals()")


def parse_field(spec: str) -> FieldSpec:
    """Parse a field spec string: "q" or "gf:<p>"."""
    spec = spec.strip().lower()
    if spec == "q":
        return Rationals()
    if spec.startswith("gf:"):
        try:
            p = int(spec[3:])
        except ValueError as exc:
            raise ValueError(f"bad prime in field spec {spec!r}") from exc
        return PrimeField(p)
    raise ValueError(f"unknown field spec {spec!r}; expected 'q' or 'gf:<p>'")


# --- boundary matrices --------------------------------------------------------


class BoundaryMatrix(NamedTuple):
    """Matrix of the r-th boundary map over the canonical face bases,
    stored by rows.

    Rows are the (r-1)-faces, columns the r-faces; ``entries[i]`` maps the
    column index of each nonzero entry of row i to its sign, +1 or -1, in
    ascending column order.
    """

    r: int
    rows: tuple[Face, ...]
    cols: tuple[Face, ...]
    entries: tuple[dict[int, int], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    @property
    def size(self) -> int:
        return len(self.rows) * len(self.cols)


def _face_drops(r: int) -> list[itemgetter]:
    """For each position of an r-face, r >= 1, in ascending order, a getter
    that maps the face to the (r-1)-face without that position: a slice at
    the two ends, the r remaining indices in between.

    A face through a fixed (r-1)-face σ that drops at an earlier position
    comes earlier in canonical order: the two agree up to that position,
    where the first holds its extra vertex, smaller than σ's vertex there.
    """
    return [itemgetter(slice(1, None)),
            *(itemgetter(*range(pos), *range(pos + 1, r + 1)) for pos in range(1, r)),
            itemgetter(slice(None, r))]


def boundary_matrix(cx: SimplicialComplex, r: int) -> BoundaryMatrix:
    """The boundary map from r-faces to (r-1)-faces, 1 <= r <= dim.

    Each position's getter is mapped over all the columns; by the order in
    :func:`_face_drops`, each row receives its columns in ascending order."""
    if not 1 <= json_int(r, "r") <= cx.dimension():
        raise ValueError(f"boundary dimension {r} out of range 1..{cx.dimension()}")
    rows = tuple(cx.faces(r - 1))
    cols = tuple(cx.faces(r))
    entries = tuple({} for _ in rows)
    row_of = dict(zip(rows, entries)).__getitem__
    for pos, drop in enumerate(_face_drops(r)):
        sign = -1 if pos % 2 else 1
        for j, row in enumerate(map(row_of, map(drop, cols))):
            row[j] = sign
    return BoundaryMatrix(r=r, rows=rows, cols=cols, entries=entries)


# --- exact rank ---------------------------------------------------------------


def _column_rank(columns, p: int) -> int:
    """Rank over GF(p), or over Q when ``p`` is 0, of the matrix with these
    sparse columns (or rows: :func:`matrix_rank` passes rows, keyed by
    column index).  Pivot columns are kept scaled to a lowest entry of 1; a
    column sheds multiples of them until its lowest row is no pivot's.  The
    input is never modified: each column is reduced in a copy.

    The input entries are boundary signs, +-1, and never 0 mod p, so the
    copy is taken as it is: an entry may read -1 rather than p - 1 until
    the reduction writes it, and every entry the reduction writes is
    reduced mod p."""
    pivots: dict[int, dict] = {}
    for col in columns:
        col = dict(col)
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                break
            c = col[low]
            for i, v in pivot.items():
                x = col.get(i, 0) - c * v
                if p:
                    x %= p
                if x:
                    col[i] = x
                else:
                    del col[i]
        if col:
            head = col[low]
            if head != 1:  # else ``col``, this loop's own copy, is kept as it is
                if p:
                    inv = pow(head, -1, p)
                elif head == -1:
                    inv = head
                else:
                    from fractions import Fraction  # deferred: most processes never need it
                    inv = 1 / Fraction(head)
                col = {i: v * inv % p if p else v * inv for i, v in col.items()}
            pivots[low] = col
    return len(pivots)


def matrix_rank(mat: BoundaryMatrix, field: FieldSpec) -> int:
    """Exact rank of a boundary matrix over ``field``.

    For r = 1 it reads only ``mat.rows`` and ``mat.cols``, not the entries,
    so ``mat`` must be built by :func:`boundary_matrix`: ∂_1 is the oriented
    incidence matrix of a graph, whose rank over every field is its vertex
    count minus its number of components, counted by a union-find.

    For r >= 2 it reduces the rows.  Row i is the (r-1)-face
    ``mat.rows[i]``.  For each (r-2)-face τ the rows through τ sum to zero
    with coefficients +-1 (∂_{r-1} ∂_r = 0), so the last of them lies in
    the span of the earlier ones; by induction up the rows, each such last
    row lies in the span of the rows kept, and dropping them leaves the
    rank unchanged over every field.
    """
    p = _characteristic(field)
    if mat.r == 1:
        return len(mat.rows) - _component_count((v for (v,) in mat.rows), mat.cols)
    # by the order in _face_drops, the last position to write τ writes the
    # last row through it
    last = {}
    for drop in _face_drops(mat.r - 1):
        last.update(zip(map(drop, mat.rows), range(len(mat.rows))))
    dropped = set(last.values())
    return _column_rank([row for i, row in enumerate(mat.entries) if i not in dropped], p)


# --- homology summaries --------------------------------------------------------


class HomologySummary(NamedTuple):
    """Per-dimension ranks and Betti numbers of a complex over one field.

    ``rank_im[r]`` is the rank of the r-th boundary map (0 for r = 0),
    ``rank_ker[r] = alpha[r] - rank_im[r]``, ``betti[r]`` the unreduced and
    ``reduced_betti[r]`` the reduced Betti numbers.  All tuples are indexed
    by dimension 0..dim.
    """

    field: FieldSpec
    alpha: tuple[int, ...]
    rank_im: tuple[int, ...]
    rank_ker: tuple[int, ...]
    betti: tuple[int, ...]
    reduced_betti: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "field": str(self.field),
            "alpha": list(self.alpha),
            "rank_im": list(self.rank_im),
            "rank_ker": list(self.rank_ker),
            "betti": list(self.betti),
            "reduced_betti": list(self.reduced_betti),
        }


def homology_summary(cx: SimplicialComplex, field: FieldSpec = DEFAULT_FIELD) -> HomologySummary:
    """Betti numbers of ``cx`` over ``field``.

    betti[r] = dim ker ∂_r - rank ∂_{r+1}; the reduced numbers agree except
    in dimension 0 where one copy of the field (the augmentation) drops out.
    On a graph, rank ∂_1 is f_0 minus the number of components over every
    field, read off :meth:`SimplicialComplex.component_count`; otherwise
    each rank is :func:`matrix_rank`'s.
    """
    _characteristic(field)
    dim = cx.dimension()
    if dim < 0:
        return HomologySummary(field, (), (), (), (), ())
    alpha = cx.f_vector()
    rank_im = [0] * (dim + 1)
    if dim == 1:
        rank_im[1] = alpha[0] - cx.component_count()
    else:
        for r in range(1, dim + 1):
            rank_im[r] = matrix_rank(boundary_matrix(cx, r), field)
    rank_ker = [alpha[r] - rank_im[r] for r in range(dim + 1)]
    betti = [rank_ker[r] - (rank_im[r + 1] if r + 1 <= dim else 0) for r in range(dim + 1)]
    reduced = list(betti)
    reduced[0] -= 1
    return HomologySummary(
        field=field,
        alpha=tuple(alpha),
        rank_im=tuple(rank_im),
        rank_ker=tuple(rank_ker),
        betti=tuple(betti),
        reduced_betti=tuple(reduced),
    )
