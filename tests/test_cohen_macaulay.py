import pytest

from tscomplex import (
    CmReport,
    CmWitness,
    Graph,
    PrimeField,
    Rationals,
    SimplicialComplex,
    build_tsc,
    gen_c42,
    gen_friendship,
    homology_summary,
    is_cm,
    is_cm_t,
    is_connected,
    minimal_vertex_covers,
    vertex_links_connected,
)
from conftest import all_labeled_graphs, random_complexes, tsc_of
from oracles import brute_force_cm_witness, facet_component_count


def test_is_cm_friendship(tsc_friendship):
    for n in (1, 2):
        report = is_cm(tsc_friendship[n])
        assert report.verdict and report.witness is None and report.purity_ok


def test_is_cm_full_simplex():
    assert is_cm(SimplicialComplex.from_facets([(1, 2, 3, 4)])).verdict


def test_is_cm_failure_carries_witness(corpus):
    report = is_cm(corpus["two_triangles_shared_vertex"])
    assert not report.verdict
    assert report.witness is not None
    assert report.witness.face == (3,) and report.witness.r == 0
    # re-check the witness: the link really is disconnected
    link = corpus["two_triangles_shared_vertex"].link(report.witness.face)
    assert not link.is_facet_connected()


def test_is_cm_disconnected_complex(corpus):
    report = is_cm(corpus["two_disjoint_edges"])
    assert not report.verdict
    assert report.witness.face == () and report.witness.r == 0


def test_c42_fixture_is_cm_but_not_unmixed(c42_fix):
    # Surprising but triple-checked: the bundled 73-facet complex is pure,
    # every vertex link is connected, and its first reduced homology
    # vanishes over every field (its integral H1 is torsion-free), so the
    # Reisner-type criterion holds even though the complex is not unmixed.
    # Mixed cover cardinalities do not obstruct Stanley-Reisner
    # Cohen-Macaulayness; they obstruct unmixedness of the facet ideal.
    for field in (PrimeField(32003), Rationals(), PrimeField(2)):
        report = is_cm(c42_fix, field)
        assert report.verdict and report.witness is None
    assert not minimal_vertex_covers(c42_fix).unmixed


def test_report_json_shape(corpus):
    report = is_cm(corpus["two_triangles_shared_vertex"])
    data = report.to_json_dict()
    assert data == {
        "verdict": False,
        "field": "gf:32003",
        "witness": {"face": [3], "r": 0, "betti": 1},
        "purity_ok": True,
    }


def test_is_cm_t_p3_is_buchsbaum(corpus):
    assert is_cm_t(corpus["tsc_p3"], 1).verdict


def test_is_cm_t_impure_fails_on_purity():
    cx = SimplicialComplex.from_facets([(1,), (2, 3)])
    for t in (0, 1, 2):
        report = is_cm_t(cx, t)
        assert not report.verdict and not report.purity_ok and report.witness is None


def test_is_cm_t_simplex_t0():
    assert is_cm_t(SimplicialComplex.from_facets([(1, 2, 3)]), 0).verdict


def test_cm_t_at_the_dimension_lists_no_faces(monkeypatch):
    # every face with at least dim vertices passes vacuously, so none is listed
    def refuse(self, k):
        raise AssertionError("faces were listed")

    cx = build_tsc(*gen_friendship(3))
    monkeypatch.setattr(SimplicialComplex, "faces", refuse)
    assert is_cm_t(cx, 2).verdict


def test_is_cm_t_rejects_bad_t(corpus):
    with pytest.raises(ValueError):
        is_cm_t(corpus["solid_triangle"], 4)
    with pytest.raises(ValueError):
        is_cm_t(corpus["solid_triangle"], -1)


def test_is_cm_t_refuses_a_t_that_is_not_an_integer(corpus):
    cx = corpus["two_triangles_shared_vertex"]
    for t in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match="t must be an integer"):
            is_cm_t(cx, t)
    # the link of the shared vertex is two disjoint edges
    assert is_cm_t(cx, 1) == CmReport(False, PrimeField(32003), CmWitness((3,), 0, 1),
                                      purity_ok=True)


def test_buchsbaum_but_not_cm():
    # two disjoint triangles: every vertex link is an edge, but the complex
    # itself is disconnected, which only the t=0 check sees
    cx = SimplicialComplex.from_facets([(1, 2, 3), (4, 5, 6)])
    assert is_cm_t(cx, 1).verdict
    assert not is_cm(cx).verdict
    assert not is_cm_t(cx, 0).verdict


def test_cm_t0_agrees_with_reisner_on_pure_complexes(corpus):
    for name, cx in corpus.items():
        if cx.is_pure():
            assert is_cm(cx) == is_cm_t(cx, 0), name


def _oracle_report(cx, t=0):
    found = brute_force_cm_witness(cx.facets, t)
    witness = None if found is None else CmWitness(*found)
    return CmReport(found is None, Rationals(), witness, cx.is_pure())


def test_reports_match_brute_force_reisner_on_random_complexes():
    q = Rationals()
    complexes = list(random_complexes(250, seed=1))
    assert sum(not cx.is_pure() for cx in complexes) >= 30
    assert sum(facet_component_count(cx) > 1 for cx in complexes) >= 30
    for cx in complexes:
        assert is_cm(cx, q) == _oracle_report(cx), cx
        for t in range(cx.dimension() + 2):
            expected = _oracle_report(cx, t) if cx.is_pure() else CmReport(False, q, None, False)
            assert is_cm_t(cx, t, q) == expected, (cx, t)


def _first_homology_vanishes(cx):
    """H̃1(cx) = 0, the paper's shortcut: the TSC of a connected graph is
    Cohen-Macaulay exactly then.  A complex of dimension below 1 has no H̃1."""
    return not any(homology_summary(cx).reduced_betti[1:2])


def test_tsc_cm_shortcut_friendship(tsc_friendship):
    for n in (1, 2, 3):
        cx = tsc_friendship[n]
        assert is_cm(cx).verdict and homology_summary(cx).reduced_betti[1] == 0, n


def test_tsc_cm_shortcut_k2():
    cx = tsc_of(Graph(2, [(1, 2)]))
    assert is_cm(cx).verdict and homology_summary(cx).reduced_betti[1] == 0


def test_tsc_cm_shortcut_c42():
    # The first reduced homology of the constructed complex vanishes (it is
    # (0, 0, 29) over every field), and the complex is Cohen-Macaulay.
    cx = build_tsc(*gen_c42())
    assert homology_summary(cx).reduced_betti == (0, 0, 29)
    assert is_cm(cx).verdict


def test_vertex_links_connected(corpus):
    assert vertex_links_connected(corpus["tsc_f1"])
    assert vertex_links_connected(corpus["tsc_p3"])
    assert not vertex_links_connected(SimplicialComplex.from_facets([(1, 2), (1, 3)]))


def test_shortcut_equals_reisner_on_small_connected_graphs():
    for g in all_labeled_graphs(4):
        if is_connected(g):
            cx = tsc_of(g)
            assert _first_homology_vanishes(cx) == is_cm(cx).verdict, (g.m, g.edges)


def test_buchsbaum_on_small_connected_graphs():
    for g in all_labeled_graphs(4):
        if is_connected(g):
            assert is_cm_t(tsc_of(g), 1).verdict, (g.m, g.edges)


def test_buchsbaum_iff_no_edge_or_no_isolated_vertex():
    # connectivity is not needed (proof in the README): every vertex link of
    # the TSC of a graph with an edge and no isolated vertex is connected,
    # and an isolated vertex beside an edge makes the TSC impure
    for g in all_labeled_graphs(5):
        touched = {v for e in g.edges for v in e}
        expected = not g.edges or len(touched) == g.m
        cx = tsc_of(g)
        for field in (Rationals(), PrimeField(2)):
            assert is_cm_t(cx, 1, field).verdict == expected, (g.m, g.edges, field)


def test_cm_implies_pure_on_corpus(corpus):
    for name, cx in corpus.items():
        if is_cm(cx).verdict:
            assert cx.is_pure(), name
