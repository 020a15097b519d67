import os
import subprocess
import sys
import time
import types
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import tscomplex
import tscomplex.complexes
import tscomplex.homology
from tscomplex import (
    Graph,
    PrimeField,
    Rationals,
    SimplicialComplex,
    boundary_matrix,
    build_tsc,
    default_labeling,
    gen_friendship,
    homology_summary,
    is_cm,
    is_cm_t,
    is_connected,
    matrix_rank,
    parse_field,
)
from conftest import all_labeled_graphs, random_complexes, tsc_of
from oracles import (
    brute_force_boundary_columns,
    brute_force_reduced_betti,
    columns_of,
    comparability_graph,
    dense_boundary_rank,
    euler_characteristic,
    sparse_product,
)


# --- fields -------------------------------------------------------------------


def test_parse_field():
    assert parse_field("q") == Rationals()
    assert parse_field("gf:32003") == PrimeField(32003)
    with pytest.raises(ValueError):
        parse_field("gf:32004")  # composite
    with pytest.raises(ValueError):
        parse_field("zz")


def test_field_str_roundtrip():
    for f in (Rationals(), PrimeField(2), PrimeField(32003)):
        assert parse_field(str(f)) == f


def test_large_prime_field_is_quick_and_exact(tsc_friendship):
    start = time.perf_counter()
    field = parse_field("gf:2305843009213693951")  # 2^61 - 1
    assert time.perf_counter() - start < 1.0
    assert matrix_rank(boundary_matrix(tsc_friendship[2], 2), field) == 40


def test_primality_rejects_strong_pseudoprime_and_huge_p():
    # 151 * 751 * 28351 is a strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(3215031751)
    with pytest.raises(ValueError, match="below 2\\^64"):
        PrimeField(2 ** 64 + 13)
    assert PrimeField(2 ** 64 - 59).p == 2 ** 64 - 59  # the largest prime below 2^64


# --- boundary matrices ----------------------------------------------------------


def test_boundary_of_triangle_has_alternating_signs():
    cx = SimplicialComplex.from_facets([(1, 2, 3)])
    bm = boundary_matrix(cx, 2)
    assert bm.rows == ((1, 2), (1, 3), (2, 3))
    assert bm.cols == ((1, 2, 3),)
    assert bm.entries == ({0: 1}, {0: -1}, {0: 1})  # (2,3) - (1,3) + (1,2)


def test_boundary_of_edge():
    cx = SimplicialComplex.from_facets([(1, 2)])
    bm = boundary_matrix(cx, 1)
    assert bm.rows == ((1,), (2,))
    assert bm.entries == ({0: -1}, {0: 1})  # (2) - (1)


def test_boundary_shapes_f1(tsc_friendship):
    cx = tsc_friendship[1]
    assert boundary_matrix(cx, 1).shape == (6, 15)
    assert boundary_matrix(cx, 2).shape == (15, 20)


def test_boundary_rejects_out_of_range(corpus):
    with pytest.raises(ValueError):
        boundary_matrix(corpus["solid_triangle"], 3)
    with pytest.raises(ValueError):
        boundary_matrix(corpus["solid_triangle"], 0)


def test_boundary_composition_vanishes(corpus):
    for name, cx in corpus.items():
        for r in range(2, cx.dimension() + 1):
            product = sparse_product(boundary_matrix(cx, r - 1), boundary_matrix(cx, r))
            assert not any(product), (name, r)


def test_column_sparsity_pattern(corpus):
    for cx in (corpus["tsc_f2"], corpus["c42_fixture"]):
        for r in (1, 2):
            bm = boundary_matrix(cx, r)
            assert all(len(col) == r + 1 and 0 not in col.values() for col in columns_of(bm))


def test_columns_and_triplets_match_the_definition(tsc_friendship):
    # the matrix is stored by rows, each in ascending column order; its
    # transpose must still be the columns of the definition
    complexes = [tsc_friendship[2], SimplicialComplex.from_facets(RP2),
                 *random_complexes(200, seed=17)]
    checked = 0
    for cx in complexes:
        for r in range(1, cx.dimension() + 1):
            bm = boundary_matrix(cx, r)
            columns = brute_force_boundary_columns(cx, r)
            assert columns_of(bm) == columns, (cx, r)
            assert [sorted(row) for row in bm.entries] == [list(row) for row in bm.entries]
            checked += 1
    assert checked >= 200


def test_ranking_twice_leaves_the_matrix_unchanged(c42_fix):
    # reduced rows become pivots without a copy, so the kernel must work on
    # copies of the stored rows; ∂2 of both complexes reduces rows over Q
    fields = (Rationals(), PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(4294967311))
    for cx, d1, d2 in ((SimplicialComplex.from_facets(RP2), (5,) * 5, (10, 9, 10, 10, 10)),
                       (c42_fix, (10,) * 5, (45,) * 5)):
        for r, ranks in ((1, d1), (2, d2)):
            bm = boundary_matrix(cx, r)
            stored = [dict(row) for row in bm.entries]
            assert [matrix_rank(bm, field) for field in fields * 2] == list(ranks * 2)
            assert [dict(row) for row in bm.entries] == stored
            assert columns_of(bm) == brute_force_boundary_columns(cx, r)


# --- exact ranks ---------------------------------------------------------------


def test_rank_examples(tsc_friendship):
    cx = tsc_friendship[1]
    for field in (Rationals(), PrimeField(32003)):
        assert matrix_rank(boundary_matrix(cx, 1), field) == 5
        assert matrix_rank(boundary_matrix(cx, 2), field) == 10


# --- homology summaries ----------------------------------------------------------


def test_homology_f1(tsc_friendship):
    s = homology_summary(tsc_friendship[1], Rationals())
    assert s.betti == (1, 0, 10)
    assert s.reduced_betti == (0, 0, 10)
    assert s.rank_im == (0, 5, 10)
    assert s.rank_ker == (6, 10, 10)


def test_homology_f2_over_both_fields(tsc_friendship):
    for field in (Rationals(), PrimeField(32003)):
        assert homology_summary(tsc_friendship[2], field).betti == (1, 0, 36)


def test_homology_of_simplex_is_trivial():
    cx = SimplicialComplex.from_facets([(1, 2, 3)])
    assert homology_summary(cx).reduced_betti == (0, 0, 0)


def test_homology_unreduced_vs_reduced(corpus):
    for name, cx in corpus.items():
        s = homology_summary(cx)
        assert s.betti[0] == s.reduced_betti[0] + 1, name
        assert s.betti[1:] == s.reduced_betti[1:], name
        assert all(b >= 0 for b in s.betti), name


def test_homology_of_circle_and_points():
    hollow = SimplicialComplex.from_facets([(1, 2), (2, 3), (1, 3)])
    assert homology_summary(hollow).reduced_betti == (0, 1)
    points = SimplicialComplex.from_facets([(1,), (2,), (3,)])
    assert homology_summary(points).betti == (3,)


def test_homology_of_empty_complex():
    assert homology_summary(SimplicialComplex([()])).betti == ()


def test_field_independence_on_corpus(corpus):
    for name, cx in corpus.items():
        bq = homology_summary(cx, Rationals()).betti
        bp = homology_summary(cx, PrimeField(32003)).betti
        assert bq == bp, f"field-dependent Betti numbers on {name}: {bq} vs {bp}"


def test_rank_d1_from_components_equals_elimination(corpus):
    vertex_links = dict.fromkeys(cx.link((v,)) for g in all_labeled_graphs(5)
                                 for cx in [tsc_of(g)] for v in cx.vertices)
    complexes = [*corpus.values(), *vertex_links, *random_complexes(300, seed=5)]
    complexes = [cx for cx in complexes if cx.dimension() >= 1]
    assert sum(cx.component_count() > 1 for cx in complexes) >= 25
    assert sum(cx.dimension() == 1 for cx in complexes) >= 100
    # matrix_rank reads rank d1 off a union-find too, so the elimination is
    # the oracle's, over the entries the union-find never reads
    for cx in complexes:
        d1 = boundary_matrix(cx, 1)
        for field, p in ((Rationals(), 0), (PrimeField(2), 2), (PrimeField(32003), 32003)):
            rank = dense_boundary_rank(d1, p)
            assert cx.f_vector()[0] - cx.component_count() == rank, (field, cx)
            assert matrix_rank(d1, field) == rank, (field, cx)
            assert homology_summary(cx, field).rank_im[1] == rank, (field, cx)


def test_rank_d1_eliminates_nothing(monkeypatch):
    def refuse(columns, p):
        raise AssertionError("d1 was eliminated")

    monkeypatch.setattr(tscomplex.homology, "_column_rank", refuse)
    friendship = build_tsc(*gen_friendship(3))
    two_triangles = SimplicialComplex.from_facets([(1, 2, 3), (4, 5, 6)])
    for field in (Rationals(), PrimeField(2), PrimeField(32003)):
        assert matrix_rank(boundary_matrix(friendship, 1), field) == 15
        assert matrix_rank(boundary_matrix(two_triangles, 1), field) == 4


def test_graphs_and_vertex_links_need_no_elimination(monkeypatch):
    def refuse(mat, field):
        raise AssertionError("a 1-dimensional complex was eliminated")

    monkeypatch.setattr(tscomplex.homology, "matrix_rank", refuse)
    assert is_cm_t(build_tsc(*gen_friendship(3)), 1).verdict
    triangle_and_point = SimplicialComplex.from_facets([(1, 2), (1, 3), (2, 3), (4,)])
    summary = homology_summary(triangle_and_point, Rationals())
    assert (summary.rank_im, summary.reduced_betti) == ((0, 2), (1, 1))


def test_graph_homology_lists_no_faces(monkeypatch):
    # a graph's faces are its vertices and its edges, both read off the facets
    def refuse(*args):
        raise AssertionError("the faces of a 1-dimensional complex were enumerated")

    monkeypatch.setattr(tscomplex.complexes, "combinations", refuse)
    triangle_and_point = SimplicialComplex.from_facets([(1, 2), (1, 3), (2, 3), (4,)])
    summary = homology_summary(triangle_and_point, Rationals())
    assert (summary.alpha, summary.reduced_betti) == ((4, 3), (1, 1))


def test_homology_of_a_2_complex_takes_no_3_subsets(monkeypatch):
    # the triangles of a pure 2-dimensional complex are its facets
    taken = []

    def recording(face, k):
        taken.append(k)
        return combinations(face, k)

    cx = build_tsc(*gen_friendship(3))
    monkeypatch.setattr(tscomplex.complexes, "combinations", recording)
    summary = homology_summary(cx, Rationals())
    assert (summary.alpha, summary.reduced_betti) == ((16, 105, 176), (0, 0, 86))
    assert set(taken) == {2}


def test_buchsbaum_check_lists_no_edges(monkeypatch):
    # is_cm_t(cx, 1) visits only vertex links, which are graphs
    def refuse(*args):
        raise AssertionError("faces were enumerated from the facets")

    cx = build_tsc(*gen_friendship(3))
    monkeypatch.setattr(tscomplex.complexes, "combinations", refuse)
    assert is_cm_t(cx, 1).verdict


def test_euler_characteristic(corpus):
    assert euler_characteristic(corpus["point"]) == 1
    assert euler_characteristic(corpus["hollow_triangle"]) == 0
    assert euler_characteristic(corpus["tsc_f1"]) == 6 - 15 + 20 == 1 - 0 + 10


def test_euler_equals_alternating_betti_sum(corpus):
    for name, cx in corpus.items():
        s = homology_summary(cx)
        assert euler_characteristic(cx) == sum(
            (-1) ** k * b for k, b in enumerate(s.betti)
        ), name


# --- the sparse kernel against oracles and closed forms ---------------------------

RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
       (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]


def test_kernel_matches_brute_force_betti(corpus):
    for name, cx in corpus.items():
        expected = brute_force_reduced_betti(cx.facets)
        for field in (Rationals(), PrimeField(32003)):
            assert homology_summary(cx, field).reduced_betti == expected, (name, field)


def test_kernel_sees_the_characteristic_on_rp2():
    rp2 = SimplicialComplex.from_facets(RP2)
    assert homology_summary(rp2, PrimeField(2)).betti == (1, 1, 1)
    assert homology_summary(rp2, Rationals()).betti == (1, 0, 0)
    assert brute_force_reduced_betti(RP2) == (0, 0, 0)
    # over Q this reduction meets a pivot of 2, so it leaves the integers
    d2 = boundary_matrix(rp2, 2)
    assert [matrix_rank(d2, f) for f in (Rationals(), PrimeField(3), PrimeField(2))] == [10, 10, 9]
    suspension = SimplicialComplex.from_facets(f + (apex,) for f in RP2 for apex in (7, 8))
    assert homology_summary(suspension, Rationals()).reduced_betti == (0, 0, 0, 0)
    assert homology_summary(suspension, PrimeField(2)).reduced_betti == (0, 0, 1, 1)
    gf2 = parse_field("gf:2")
    assert homology_summary(rp2, gf2).reduced_betti == (0, 1, 1)
    report = is_cm(rp2, gf2)
    assert not report.verdict and (report.witness.face, report.witness.r) == ((), 1)


@pytest.mark.parametrize("not_a_field", ["gf:2", 2, (2,), None])
def test_entry_points_refuse_what_is_not_a_field(not_a_field):
    rp2 = SimplicialComplex.from_facets(RP2)
    d2 = boundary_matrix(rp2, 2)
    for call in (lambda f: matrix_rank(d2, f), lambda f: homology_summary(rp2, f),
                 lambda f: is_cm(rp2, f), lambda f: is_cm_t(rp2, 1, f)):
        with pytest.raises(ValueError, match=r"^not a field: .*parse_field"):
            call(not_a_field)


def test_tsc_cm_verdict_depends_on_the_field():
    # the graph is the 1-skeleton of the barycentric subdivision of RP2; its
    # TSC inherits RP2's 2-torsion, so it is CM over Q and GF(3) but not GF(2)
    g = comparability_graph(RP2)
    assert (g.m, g.edge_count) == (31, 90) and is_connected(g)
    cx = build_tsc(g, default_labeling(g))
    assert cx.f_vector() == (121, 3420, 6500)
    for field in (Rationals(), PrimeField(3)):
        assert homology_summary(cx, field).reduced_betti == (0, 0, 3200), field
        report = is_cm(cx, field)
        assert report.verdict and report.witness is None, field
        assert is_cm_t(cx, 1, field).verdict, field
    gf2 = PrimeField(2)
    assert homology_summary(cx, gf2).reduced_betti == (0, 1, 3201)
    report = is_cm(cx, gf2)
    assert not report.verdict
    assert (report.witness.face, report.witness.r) == ((), 1)
    assert is_cm_t(cx, 1, gf2).verdict


def test_q_rank_leaves_the_integers_on_rp2_and_its_suspension(monkeypatch):
    calls = []

    def counting_fraction(*args):
        calls.append(args)
        return Fraction(*args)

    # the kernel imports Fraction only where it needs one, so it is handed
    # a stand-in module whose Fraction counts its calls
    counting = types.ModuleType("fractions")
    counting.Fraction = counting_fraction
    monkeypatch.setitem(sys.modules, "fractions", counting)
    rp2 = SimplicialComplex.from_facets(RP2)
    assert matrix_rank(boundary_matrix(rp2, 2), Rationals()) == 10
    assert calls, "RP2's d2 met no pivot other than +-1"
    calls.clear()
    suspension = SimplicialComplex.from_facets(f + (apex,) for f in RP2 for apex in (7, 8))
    assert matrix_rank(boundary_matrix(suspension, 3), Rationals()) == 20
    assert calls, "the suspension's d3 met no pivot other than +-1"


# Ranks of d1 and d2 where matrix_rank keeps no spare row, so a version
# that dropped more rows would read too low.  d1 is ranked by a union-find
# (two disjoint triangles: 6 vertices, 2 components, rank 4); clearing
# starts at d2.  After the last row through each vertex is dropped, d2 of
# the 5-cycle's TSC keeps 31 rows for rank 30 (H~1 = 1); every other d2
# here keeps exactly its rank, except that of RP2 over GF(2), which keeps
# 10 rows for rank 9.
ROW_CASES = {  # name: (complex, ranks of d1 and d2 over Q)
    "five_cycle_tsc": (tsc_of(Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])), (9, 30)),
    "two_disjoint_triangles": (SimplicialComplex.from_facets([(1, 2, 3), (4, 5, 6)]), (4, 2)),
    "hollow_tetrahedron": (SimplicialComplex.from_facets(combinations((1, 2, 3, 4), 3)), (3, 3)),
    "rp2": (SimplicialComplex.from_facets(RP2), (5, 10)),
}


@pytest.mark.parametrize("name", list(ROW_CASES))
def test_row_ranks_match_dense_elimination(name):
    cx, ranks_q = ROW_CASES[name]
    matrices = [boundary_matrix(cx, r) for r in (1, 2)]
    assert [matrix_rank(bm, Rationals()) for bm in matrices] == list(ranks_q)
    for field, p in ((Rationals(), 0), (PrimeField(2), 2), (PrimeField(3), 3)):
        assert [matrix_rank(bm, field) for bm in matrices] == \
            [dense_boundary_rank(bm, p) for bm in matrices], (name, field)


def test_primes_above_int64_range_do_not_overflow(tsc_friendship):
    field = parse_field("gf:4294967311")
    cx = tsc_friendship[2]
    assert matrix_rank(boundary_matrix(cx, 2), field) == 40
    assert homology_summary(cx, field).betti == (1, 0, 36)


@pytest.mark.parametrize("n", [7, 8])
def test_friendship_closed_form_betti(n):
    cx = build_tsc(*gen_friendship(n))
    expected = (1, 0, (4 * n ** 3 + 12 * n * n + 14 * n) // 3)
    for field in (Rationals(), PrimeField(32003)):
        assert homology_summary(cx, field).betti == expected


def test_cli_import_does_not_load_numpy():
    code = "import sys, tscomplex.cli; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(Path(tscomplex.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
