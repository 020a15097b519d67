"""Boundary matrices and exact simplicial homology over a field.

The boundary of an r-face drops one vertex at a time with alternating signs,
positions taken in ascending vertex order; bases are the canonical face
orders of the complex, so matrices are identical across runs.

Matrices are sparse columns, one ``{row: entry}`` dict per face, and one
exact kernel ranks them over every field by column reduction on the lowest
row (Kaczynski, Mischaikow & Mrozek, *Computational Homology*, 2004).  Over
GF(p) it works with Python ints mod p, so no prime overflows it; over the
rationals entries stay ints until a pivot other than +-1 makes fractions.
The default working field is GF(32003); the rationals serve as the
independent verification route.

:func:`matrix_rank` hands the kernel the rows of ∂_r, not its columns.  A
column reduction spends most of its work on the columns that end up zero,
and ∂_r has dim ker ∂_r of them (460 of the 820 triangles of the friendship
TSC at n = 6).  The rows have a known dependency instead: ∂_{r-1} ∂_r = 0
says that, for each (r-2)-face τ, the rows of the (r-1)-faces through τ
sum to zero with coefficients +-1.  Dropping the last row through each τ
therefore keeps the rank over every field, and at n = 6 leaves 360 rows, the
rank itself, so no row is reduced to zero there.  This is the "clearing" or
"twist" of persistent homology, used without a filtration (Chen & Kerber,
"Persistent homology computation with a twist", 2011; de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011).

:func:`homology_summary` eliminates nothing for a 1-dimensional complex
(a graph), such as a vertex link of a 2-dimensional complex: a graph's
oriented incidence matrix has rank f0 - (number of components) over every
field (Munkres, *Elements of Algebraic Topology*, 1984, §7), so it reads
rank ∂1 off :meth:`SimplicialComplex.component_count`, a union-find on the
vertices.  A complex of higher dimension has every ∂r eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import Face, SimplicialComplex


# --- fields -----------------------------------------------------------------


@dataclass(frozen=True)
class Rationals:
    """Exact rational coefficients."""

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


@dataclass(frozen=True)
class PrimeField:
    """The finite field GF(p) for prime p < 2^64."""

    p: int

    def __post_init__(self):
        if self.p >= 1 << 64:
            raise ValueError(f"{self.p} is too large: primes must be below 2^64")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __str__(self):
        return f"gf:{self.p}"


FieldSpec = Rationals | PrimeField

DEFAULT_FIELD = PrimeField(32003)


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


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of the r-th boundary map over the canonical face bases.

    Rows are the (r-1)-faces, columns the r-faces; ``columns[j]`` maps the
    row index of each nonzero entry of column j to its sign, +1 or -1.
    """

    r: int
    rows: tuple[Face, ...]
    cols: tuple[Face, ...]
    columns: tuple[dict[int, int], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    @property
    def size(self) -> int:
        return len(self.rows) * len(self.cols)


def boundary_matrix(cx: SimplicialComplex, r: int) -> BoundaryMatrix:
    """The boundary map from r-faces to (r-1)-faces, 1 <= r <= dim."""
    if not 1 <= r <= cx.dimension():
        raise ValueError(f"boundary dimension {r} out of range 1..{cx.dimension()}")
    rows = tuple(cx.faces(r - 1))
    cols = tuple(cx.faces(r))
    row_index = {face: i for i, face in enumerate(rows)}
    columns = tuple(
        {row_index[face[:pos] + face[pos + 1:]]: -1 if pos % 2 else 1 for pos in range(r + 1)}
        for face in cols
    )
    return BoundaryMatrix(r=r, rows=rows, cols=cols, columns=columns)


def export_triplets(bm: BoundaryMatrix) -> str:
    """Sparse triplet text: one "r row col value" line per nonzero entry,
    in row-major order."""
    entries = sorted((i, j, v) for j, col in enumerate(bm.columns) for i, v in col.items())
    return "".join(f"{bm.r} {i} {j} {v:+d}\n" for i, j, v in entries)


# --- exact rank ---------------------------------------------------------------


def _column_rank(columns, p: int) -> int:
    """Rank over GF(p), or over Q when ``p`` is 0, of the matrix with these
    sparse columns (or rows: :func:`matrix_rank` passes rows, keyed by
    column index).  Pivot columns are kept scaled to a lowest entry of 1; a
    column sheds multiples of them until its lowest row is no pivot's."""
    pivots: dict[int, dict] = {}
    for col in columns:
        col = {i: x for i, v in col.items() if (x := v % p)} if p else dict(col)
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
            if p:
                inv = pow(head, -1, p)
            else:
                inv = head if head in (1, -1) else 1 / Fraction(head)
            pivots[low] = {i: v * inv % p if p else v * inv for i, v in col.items()}
    return len(pivots)


def matrix_rank(mat: BoundaryMatrix, field: FieldSpec) -> int:
    """Exact rank of a boundary matrix over ``field``, reduced by its rows.

    Row i is the (r-1)-face ``mat.rows[i]``.  For each (r-2)-face τ the rows
    through τ sum to zero with coefficients +-1 (∂_{r-1} ∂_r = 0, or the
    augmentation ε ∂_1 = 0 when r = 1 and τ = ∅), so the last of them lies
    in the span of the earlier ones; by induction up the rows, each such
    last row lies in the span of the rows kept, and dropping them leaves
    the rank unchanged over every field.
    """
    last = {}
    for i, face in enumerate(mat.rows):
        for pos in range(mat.r):
            last[face[:pos] + face[pos + 1:]] = i
    dropped = set(last.values())
    rows = [{} for _ in mat.rows]
    for j, col in enumerate(mat.columns):
        for i, v in col.items():
            rows[i][j] = v
    return _column_rank([row for i, row in enumerate(rows) if i not in dropped],
                        field.p if isinstance(field, PrimeField) else 0)


# --- homology summaries --------------------------------------------------------


@dataclass(frozen=True)
class HomologySummary:
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
    field; otherwise each rank is eliminated.
    """
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


def euler_characteristic(cx: SimplicialComplex) -> int:
    """Alternating sum of the face counts."""
    return sum((-1) ** k * alpha_k for k, alpha_k in enumerate(cx.f_vector()))
