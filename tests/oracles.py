"""Brute-force oracles, independent of the library's algorithms.

Everything here recomputes results the slow, obviously-correct way so the
fast implementations can be checked against them.
"""

from itertools import chain, combinations
from math import gcd

import numpy as np

from tscomplex import Face, Graph, SimplicialComplex


def faces_by_dim(cx: SimplicialComplex) -> dict[int, list[Face]]:
    """Every non-empty face of ``cx``, grouped by dimension, read off
    :meth:`SimplicialComplex.faces`."""
    return {k: cx.faces(k) for k in range(cx.dimension() + 1)}


def columns_of(bm) -> list[dict[int, int]]:
    """The columns of a boundary matrix, one ``{row: sign}`` dict per
    r-face, transposed from its stored rows."""
    columns = [{} for _ in bm.cols]
    for i, row in enumerate(bm.entries):
        for j, v in row.items():
            columns[j][i] = v
    return columns


def brute_force_faces(cx: SimplicialComplex) -> dict[int, list[tuple[int, ...]]]:
    """Test every non-empty subset of the vertex set for membership; a subset
    larger than every facet lies in none, so sizes stop at the largest."""
    verts = cx.vertices
    facet_sets = [set(f) for f in cx.facets]
    grouped: dict[int, list[tuple[int, ...]]] = {}
    for size in range(1, max(map(len, facet_sets)) + 1):
        for cand in combinations(verts, size):
            if any(set(cand) <= fs for fs in facet_sets):
                grouped.setdefault(size - 1, []).append(cand)
    return grouped


def brute_force_antichain(gens) -> tuple[tuple[int, ...], ...]:
    """The inclusion-maximal members of ``gens`` as sorted tuples in
    canonical order, by comparing each with every member kept so far."""
    by_size = sorted({tuple(sorted(g)) for g in gens}, key=len, reverse=True)
    kept: list[tuple[int, ...]] = []
    kept_sets: list[frozenset] = []
    for face in by_size:
        fs = frozenset(face)
        if any(fs <= other for other in kept_sets):
            continue
        kept.append(face)
        kept_sets.append(fs)
    return tuple(sorted(kept))


def brute_force_minimal_covers(cx: SimplicialComplex) -> list[tuple[int, ...]]:
    """Scan all 2^N vertex subsets (vectorized); a subset is a minimal cover
    iff it meets every facet and each of its vertices is the unique
    representative of some facet."""
    verts = cx.vertices
    pos = {v: i for i, v in enumerate(verts)}
    facet_masks = np.array([sum(1 << pos[v] for v in f) for f in cx.facets], dtype=np.uint32)
    subsets = np.arange(1, np.uint32(1) << len(verts), dtype=np.uint32)
    inter = subsets[:, None] & facet_masks[None, :]
    covered = (inter != 0).all(axis=1)
    is_single = (inter != 0) & ((inter & (inter - 1)) == 0)
    privates = np.bitwise_or.reduce(np.where(is_single, inter, 0), axis=1)
    winners = subsets[covered & (privates == subsets)]
    covers = [tuple(verts[i] for i in range(len(verts)) if s >> i & 1) for s in winners]
    return sorted(covers)


def dense_rank(rows, p: int = 0) -> int:
    """Rank of a dense integer matrix, given as a list of rows, by plain
    Gaussian elimination with row swaps: over GF(p) with integers mod p, or
    over Q when ``p`` is 0, fraction-free: a row is cleared by a multiple
    of the pivot row after scaling it by the pivot, then divided by the gcd
    of its entries, so every step keeps the rank and the entries small."""
    if p:
        rows = [[x % p for x in row] for row in rows]
    else:
        rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                if p:
                    factor = rows[i][col] * pow(top[col], -1, p) % p
                    rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], top)]
                else:
                    scale, factor = top[col], rows[i][col]
                    row = [a * scale - factor * b for a, b in zip(rows[i], top)]
                    g = gcd(*row)
                    rows[i] = [a // g for a in row] if g > 1 else row
        rank += 1
    return rank


def dense_boundary_rank(bm, p: int = 0) -> int:
    """:func:`dense_rank` of a boundary matrix written out entry by entry
    (one dense list per column; a matrix and its transpose share a rank)."""
    return dense_rank([[col.get(i, 0) for i in range(len(bm.rows))] for col in columns_of(bm)], p)


def brute_force_reduced_betti(facets) -> tuple[int, ...]:
    """Reduced Betti numbers over Q of the complex generated by ``facets``
    (any iterable of vertex tuples; dominated sets are harmless).

    Lists every non-empty subset of every generator, builds each boundary
    matrix entry by entry with signs (-1)^i, and ranks it over Q with
    :func:`dense_rank`; the augmentation C_0 -> C_{-1} has rank 1.
    """
    by_dim: dict[int, set[tuple[int, ...]]] = {}
    for f in facets:
        f = tuple(sorted(f))
        for size in range(1, len(f) + 1):
            by_dim.setdefault(size - 1, set()).update(combinations(f, size))
    dim = max(by_dim)
    faces = [sorted(by_dim[r]) for r in range(dim + 1)]
    ranks = [1] + [0] * (dim + 1)
    for r in range(1, dim + 1):
        index = {face: j for j, face in enumerate(faces[r - 1])}
        rows = []
        for face in faces[r]:
            row = [0] * len(index)
            for i in range(r + 1):
                row[index[face[:i] + face[i + 1:]]] = (-1) ** i
            rows.append(row)
        ranks[r] = dense_rank(rows)
    return tuple(len(faces[r]) - ranks[r] - ranks[r + 1] for r in range(dim + 1))


def brute_force_boundary_columns(cx: SimplicialComplex, r: int) -> list[dict[int, int]]:
    """The columns of ∂_r by the definition: over the :func:`brute_force_faces`
    bases, the r-face (v_0 < ... < v_r) maps to the sum of (-1)^i times the
    face without v_i; one ``{row: sign}`` dict per r-face."""
    faces = brute_force_faces(cx)
    rows = faces[r - 1]
    return [{rows.index(face[:i] + face[i + 1:]): (-1) ** i for i in range(r + 1)}
            for face in faces[r]]


def euler_characteristic(cx: SimplicialComplex) -> int:
    """Alternating sum of the face counts."""
    return sum((-1) ** k * alpha_k for k, alpha_k in enumerate(cx.f_vector()))


def sparse_product(lower, upper) -> list[dict[int, int]]:
    """The columns of ``lower @ upper`` for two matrices given by sparse
    columns (``{row: entry}`` dicts), exact in Python ints, zeros dropped."""
    if lower.shape[1] != upper.shape[0]:
        raise ValueError(f"shapes {lower.shape} and {upper.shape} do not compose")
    product = []
    lower_columns = columns_of(lower)
    for col in columns_of(upper):
        acc: dict[int, int] = {}
        for k, v in col.items():
            for i, w in lower_columns[k].items():
                acc[i] = acc.get(i, 0) + w * v
        product.append({i: x for i, x in acc.items() if x})
    return product


def brute_force_cm_witness(facets, t=0):
    """Reisner's test over Q, spelled out: the first face with at least
    ``t`` vertices whose link has nonzero reduced homology in a degree below
    the link's dimension, as ``(face, r, betti)``, or None.

    Faces are taken largest first, canonical within a size, with the empty
    face last (the reporting contract).  Each link is the set of faces
    disjoint from the face whose union with it lies in a generator, ranked by
    ``brute_force_reduced_betti``.
    """
    gens = [set(f) for f in facets]
    faces = brute_force_faces(SimplicialComplex(facets))
    everything = [f for group in faces.values() for f in group]
    for face in [f for k in sorted(faces, reverse=True) for f in faces[k]] + [()]:
        if len(face) < t:
            break
        inside = set(face)
        link = [f for f in everything
                if not inside & set(f) and any(inside | set(f) <= g for g in gens)]
        top = max((len(f) for f in link), default=0) - 1
        betti = brute_force_reduced_betti(link) if top > 0 else ()
        for r in range(top):
            if betti[r]:
                return face, r, betti[r]
    return None


def facet_component_count(cx: SimplicialComplex) -> int:
    """Number of facet-connectivity components, by plain BFS."""
    facets = [set(f) for f in cx.facets]
    unseen = set(range(len(facets)))
    components = 0
    while unseen:
        components += 1
        stack = [unseen.pop()]
        while stack:
            i = stack.pop()
            linked = [j for j in unseen if facets[i] & facets[j]]
            for j in linked:
                unseen.remove(j)
            stack.extend(linked)
    return components


def brute_force_total_graph(g, labeling) -> Graph:
    """Test every pair of labels against the definition of the total graph:
    two vertices joined by an edge, two edges with a common endpoint, or a
    vertex and an edge through it."""
    objects = {labeling.vertex_label(i): frozenset({i}) for i in range(1, g.m + 1)}
    objects.update({labeling.edge_label(k): frozenset(e) for k, e in enumerate(g.edges, start=1)})
    edges = {frozenset(e) for e in g.edges}

    def adjacent(a, b):
        x, y = objects[a], objects[b]
        if len(x) == len(y) == 1:                 # two vertices
            return x | y in edges
        return bool(x & y)                        # two edges, or a vertex and an edge

    n = labeling.label_count
    return Graph(n, [(a, b) for a, b in combinations(range(1, n + 1), 2) if adjacent(a, b)])


def brute_force_total_indices(g, labeling) -> set[Face]:
    """Test all C(N, 3) label triples for two adjacent pairs in the total
    graph; a vertex on no edge gives a singleton."""
    t = brute_force_total_graph(g, labeling)
    adjacent = set(t.edges)
    indices = {(a, b, c) for a, b, c in combinations(range(1, t.m + 1), 3)
               if ((a, b) in adjacent) + ((a, c) in adjacent) + ((b, c) in adjacent) >= 2}
    on_edges = set(chain.from_iterable(g.edges))
    return indices | {(labeling.vertex_label(v),) for v in range(1, g.m + 1) if v not in on_edges}


def brute_force_minimal_nonfaces(cx: SimplicialComplex) -> list[tuple[int, ...]]:
    """All inclusion-minimal non-faces over the complex's vertex set.

    A minimal non-face has every proper subset a face, so its size is at
    most dim + 2; singletons are faces by construction, so the search starts
    at pairs.
    """
    faces = {face for group in faces_by_dim(cx).values() for face in group}
    generators: list[tuple[int, ...]] = []
    for size in range(2, cx.dimension() + 3):
        for cand in combinations(cx.vertices, size):
            if cand in faces:
                continue
            if all(cand[:i] + cand[i + 1:] in faces for i in range(size)):
                generators.append(cand)
    return sorted(generators)


def comparability_graph(facets) -> Graph:
    """The comparability graph of the non-empty faces of the complex
    generated by ``facets``: one vertex per face, numbered 1, 2, ... in
    canonical order, and an edge for each pair with one face inside the
    other.  It is the 1-skeleton of the barycentric subdivision."""
    faces = sorted({face for f in facets for size in range(1, len(f) + 1)
                    for face in combinations(sorted(f), size)})
    number = {face: i for i, face in enumerate(faces, start=1)}
    return Graph(len(faces), [(number[sub], number[face]) for face in faces
                              for size in range(1, len(face))
                              for sub in combinations(face, size)])


def friendship_facets_closed_form(n: int) -> set[Face]:
    """Facets of the friendship-graph TSC as explicit index families.

    Thirteen families cover the facet set; paired sequences written side by
    side iterate in lockstep (m-th entry with m-th entry) while trailing
    ranges expand fully.  Empty ranges (small n) contribute nothing.
    """
    if n < 1:
        raise ValueError(f"friendship family needs n >= 1, got {n}")
    c = 5 * n + 1
    base = 3 * n
    facets: set[Face] = set()

    def add(*vertices):
        facets.add(tuple(sorted(vertices)))

    # (1) the n outer triangles: vertex, outer edge, vertex
    for i in range(1, 3 * n - 1, 3):
        add(i, i + 1, i + 2)
    # (2) outer vertex with any center edge and the center vertex
    for i in chain(range(1, 3 * n - 1, 3), range(3, 3 * n + 1, 3)):
        for j in range(base + 1, 5 * n + 1):
            add(i, j, c)
    # (3) any three center edges (they all share the center vertex)
    for i, j, k in combinations(range(base + 1, 5 * n + 1), 3):
        add(i, j, k)
    # (4) any two center edges with the center vertex
    for i, j in combinations(range(base + 1, 5 * n + 1), 2):
        add(i, j, c)
    # (5) outer edge endpoints with an incident center edge
    for i, k in zip(range(1, 3 * n - 1, 3), range(1, 2 * n, 2)):
        add(i, i + 1, base + k)
        add(i, i + 1, base + k + 1)
    for i, k in zip(range(2, 3 * n, 3), range(1, 2 * n, 2)):
        add(i, i + 1, base + k)
        add(i, i + 1, base + k + 1)
    # (6) outer vertex, its outer edge, center vertex
    for i in chain(range(1, 3 * n - 1, 3), range(2, 3 * n, 3)):
        add(i, i + 1, c)
    # (7) two outer vertices through the center vertex
    for i in range(1, 3 * n - 4, 3):
        for j in range(i + 3, 3 * n - 1, 3):
            add(i, j, c)
            add(i, j - 1, c)
    for i in range(3, 3 * n - 2, 3):
        for j in range(i + 1, 3 * n - 1, 3):
            add(i, j, c)
            add(i, j + 2, c)
    for i in range(1, 3 * n - 1, 3):
        add(i, 3 * n, c)
    # (8) outer edge with an incident center edge and the center vertex
    for i, j in zip(range(2, 3 * n, 3), range(1, 2 * n, 2)):
        add(i, base + j, c)
        add(i, base + j + 1, c)
    # (9) outer edge with an incident center edge and any later center edge
    for i, j in zip(range(2, 3 * n, 3), range(1, 2 * n, 2)):
        for k in range(j + 1, 2 * n + 1):
            add(i, base + j, base + k)
    for i, j in zip(range(2, 3 * n - 3, 3), range(2, 2 * n - 1, 2)):
        for k in range(j + 1, 2 * n + 1):
            add(i, base + j, base + k)
    # (10) outer edge with two center edges, indexed from the top
    for i, j in zip(range(1, 3 * n - 4, 3), range(0, 2 * n - 3, 2)):
        for k in range(j + 2, 2 * n):
            add(3 * n - i, 5 * n - k, 5 * n - j)
    for i, j in zip(range(1, 3 * n - 4, 3), range(1, 2 * n - 2, 2)):
        for k in range(j + 1, 2 * n):
            add(3 * n - i, 5 * n - k, 5 * n - j)
    # (11) the two outer vertices of one triangle with an incident center edge
    for i, j in zip(range(1, 3 * n - 1, 3), range(1, 2 * n, 2)):
        add(i, i + 2, base + j)
        add(i, i + 2, base + j + 1)
    # (12) outer vertex with its center edge and any later center edge
    for i, j in zip(range(1, 3 * n - 1, 3), range(1, 2 * n, 2)):
        for k in range(j + 1, 2 * n + 1):
            add(i, base + j, base + k)
    for i, j in zip(range(3, 3 * n - 2, 3), range(2, 2 * n - 1, 2)):
        for k in range(j + 1, 2 * n + 1):
            add(i, base + j, base + k)
    # (13) outer vertex with two center edges, indexed from the top
    for i, j in zip(range(2, 3 * n - 3, 3), range(1, 2 * n - 2, 2)):
        for k in range(j + 1, 2 * n):
            add(3 * n - i, 5 * n - k, 5 * n - j)
    for i, j in zip(range(0, 3 * n - 2, 3), range(0, 2 * n - 1, 2)):
        for k in range(j + 1, 2 * n):
            add(3 * n - i, 5 * n - k, 5 * n - j)

    return facets


def friendship_large_cover_complements(n: int) -> set[Face]:
    """Complements, within the labels 1..5n+1 of ``gen_friendship(n)``, of
    the minimal covers of size 4n of the friendship TSC, in closed form.

    B is the center 5n+1 with every triangle's outer edge 3k-1; each other
    set is B with one outer edge 3k-1 swapped for one of triangle k's outer
    vertices 3k-2, 3k or center edges 3n+2k-1, 3n+2k: 4n + 1 sets in all.
    Enumeration confirms the family is complete for n = 2..8; that is not
    proven.  At n = 1 the sizes 4n and 3n+1 coincide and these are 5 of 15.
    """
    base = {5 * n + 1} | {3 * k - 1 for k in range(1, n + 1)}
    swapped = [base - {3 * k - 1} | {x} for k in range(1, n + 1)
               for x in (3 * k - 2, 3 * k, 3 * n + 2 * k - 1, 3 * n + 2 * k)]
    return {tuple(sorted(s)) for s in [base, *swapped]}
