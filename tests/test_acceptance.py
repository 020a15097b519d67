"""Acceptance suite: every headline claim, recomputed from scratch.

Each test prints one PASS/FAIL line.  Criteria 5 and 6 assert values that
direct computation and the independent oracles in `oracles.py` agree on,
where the bundled closed-form expectations do not hold:

* criterion 5: the bundled 73-facet reference complex has minimal covers
  of sizes 6 and 7, yet it is Cohen-Macaulay over q, gf:32003 and gf:2
  with reduced Betti numbers (0, 0, 28).  It is a counterexample to
  "Cohen-Macaulay implies an unmixed facet ideal", not to Cohen-Macaulayness.
  The paper's "not Cohen-Macaulay in general" is checked on the TSC of the
  5-cycle, whose reduced H1 is 1, so the link at the empty face is the
  witness;
* criterion 6: full minimal-cover enumeration on the friendship family
  finds covers of two sizes for n >= 2 (64 = 55+9 at n=2, 265 = 252+13 at
  n=3); the closed form counts exactly the size-(3n+1) covers, and at n=1
  it is rejected, since the 15 covers are the complements of the 2-subsets
  of six vertices.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from collections import Counter
from itertools import combinations

import pytest

from tscomplex import (
    CmWitness,
    Graph,
    PrimeField,
    Rationals,
    boundary_matrix,
    build_tsc,
    default_labeling,
    friendship_cover_count,
    gen_friendship,
    homology_summary,
    is_cm,
    is_cm_t,
    is_connected,
    matrix_rank,
    minimal_vertex_covers,
    vertex_links_connected,
)
from conftest import all_labeled_graphs, tsc_of
from oracles import (
    brute_force_faces,
    brute_force_minimal_covers,
    brute_force_reduced_betti,
    euler_characteristic,
    faces_by_dim,
    friendship_facets_closed_form,
    sparse_product,
)

BOTH_FIELDS = (Rationals(), PrimeField(32003))
FIXTURE_FIELDS = BOTH_FIELDS + (PrimeField(2),)


def _report(num, name, errors):
    status = "PASS" if not errors else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}")
    assert not errors, f"criterion {num} ({name}):\n" + "\n".join(errors)


@pytest.fixture(scope="module")
def small_graph_sweep():
    """One pass over every labeled graph on <= 5 vertices, shared by the
    Buchsbaum and theorem-equivalence criteria."""
    rows = []
    for g in all_labeled_graphs(5):
        cx = tsc_of(g)
        row = {
            "graph": (g.m, g.edges),
            "connected": is_connected(g),
            "tsc_connected": cx.is_facet_connected(),
        }
        if row["connected"]:
            row["links_connected"] = vertex_links_connected(cx)
            row["buchsbaum"] = is_cm_t(cx, 1).verdict
            row["cm"] = is_cm(cx).verdict
            row["reduced_b1"] = homology_summary(cx).reduced_betti[1] \
                if cx.dimension() >= 1 else 0
        rows.append(row)
    return rows


def test_criterion_1_f_vector(tsc_friendship):
    errors = []
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        cx = build_tsc(*gen_friendship(n))
        expected = (5 * n + 1, 10 * n * n + 5 * n, (4 * n ** 3 + 42 * n * n + 14 * n) // 3)
        if cx.f_vector() != expected:
            errors.append(f"n={n}: f-vector {cx.f_vector()} != {expected}")
    elapsed = time.monotonic() - start
    if elapsed >= 5:
        errors.append(f"took {elapsed:.1f}s, limit 5s")
    _report(1, "f-vector reproduction", errors)


def test_criterion_2_closed_form_facets(tsc_friendship):
    errors = []
    for n in (1, 2, 3):
        built = set(tsc_friendship[n].facets)
        closed = friendship_facets_closed_form(n)
        if built != closed:
            errors.append(
                f"n={n}: closed form differs from definition "
                f"(only-built {sorted(built - closed)[:5]}, "
                f"only-closed {sorted(closed - built)[:5]})"
            )
    _report(2, "closed-form facet equality", errors)


def test_criterion_3_homology(tsc_friendship):
    errors = []
    elapsed_n3 = 0.0
    for n in (1, 2, 3):
        start = time.monotonic()
        cx = tsc_friendship[n]
        beta2 = (4 * n ** 3 + 12 * n * n + 14 * n) // 3
        for field in BOTH_FIELDS:
            r1 = matrix_rank(boundary_matrix(cx, 1), field)
            r2 = matrix_rank(boundary_matrix(cx, 2), field)
            betti = homology_summary(cx, field).betti
            if r1 != 5 * n:
                errors.append(f"n={n} {field}: rank d1 = {r1} != {5 * n}")
            if r2 != 10 * n * n:
                errors.append(f"n={n} {field}: rank d2 = {r2} != {10 * n * n}")
            if betti != (1, 0, beta2):
                errors.append(f"n={n} {field}: betti {betti} != (1, 0, {beta2})")
        if n == 3:
            elapsed_n3 = time.monotonic() - start
    if elapsed_n3 >= 30:
        errors.append(f"n=3 took {elapsed_n3:.1f}s, limit 30s")
    _report(3, "homology reproduction", errors)


def test_criterion_4_cm_verdicts(tsc_friendship):
    errors = []
    for n in (1, 2):
        report = is_cm(tsc_friendship[n])
        if not report.verdict:
            errors.append(f"n={n}: full link-criterion verdict false, witness {report.witness}")
    for n in (1, 2, 3):
        cx = tsc_friendship[n]
        if not (is_cm(cx).verdict and homology_summary(cx).reduced_betti[1] == 0):
            errors.append(f"n={n}: the first-homology criterion disagrees with the verdict")
    _report(4, "friendship family is Cohen-Macaulay", errors)


def test_criterion_5_c42_counterexample(c42_fix):
    errors = []
    rep = minimal_vertex_covers(c42_fix)
    for cover in ((1, 4, 5, 6, 8, 9), (1, 2, 4, 5, 6, 8, 10)):
        if cover not in rep.covers:
            errors.append(f"{cover} not among the minimal covers")
    if rep.unmixed:
        errors.append("expected mixed cover cardinalities")

    # mixed covers do not obstruct Cohen-Macaulayness: the fixture passes
    # the link criterion over every field tried
    for field in FIXTURE_FIELDS:
        cm = is_cm(c42_fix, field)
        if not cm.verdict or cm.witness is not None:
            errors.append(f"fixture over {field}: verdict {cm.verdict}, witness {cm.witness}")
        reduced = homology_summary(c42_fix, field).reduced_betti
        if reduced != (0, 0, 28):
            errors.append(f"fixture over {field}: reduced betti {reduced} != (0, 0, 28)")
    # independent Reisner check: the fixture is pure of dimension 2, so only
    # the link at the empty face and the 1-dimensional vertex links count
    if brute_force_reduced_betti(c42_fix.facets) != (0, 0, 28):
        errors.append("fixture: oracle reduced betti != (0, 0, 28)")
    for v in c42_fix.vertices:
        link = [tuple(u for u in f if u != v) for f in c42_fix.facets if v in f]
        if brute_force_reduced_betti(link)[0] != 0:
            errors.append(f"fixture: oracle finds the link of vertex {v} disconnected")

    # "not Cohen-Macaulay in general": the 5-cycle's TSC has a hole
    c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    c5_tsc = build_tsc(c5, default_labeling(c5))
    for field in BOTH_FIELDS:
        cm = is_cm(c5_tsc, field)
        if cm.verdict or cm.witness != CmWitness(face=(), r=1, betti=1):
            errors.append(f"5-cycle over {field}: verdict {cm.verdict}, witness {cm.witness}")
        b1 = homology_summary(c5_tsc, field).reduced_betti[1]
        if b1 != 1:
            errors.append(f"5-cycle over {field}: reduced b1 {b1} != 1")
    if brute_force_reduced_betti(c5_tsc.facets) != (0, 1, 10):
        errors.append("5-cycle: oracle reduced betti != (0, 1, 10)")
    _report(5, "two-4-cycle counterexample", errors)


def test_criterion_6_cover_counting(tsc_friendship):
    errors = []
    start = time.monotonic()
    reports = {n: minimal_vertex_covers(tsc_friendship[n]) for n in (1, 2, 3)}
    elapsed = time.monotonic() - start
    expected = {1: {4: 15}, 2: {7: 55, 8: 9}, 3: {10: 252, 12: 13}}
    for n, histogram in expected.items():
        rep = reports[n]
        found = dict(Counter(len(c) for c in rep.covers))
        if found != histogram:
            errors.append(f"n={n}: cover sizes {found} != {histogram}")
        if rep.unmixed != (n == 1):
            errors.append(f"n={n}: unmixed is {rep.unmixed}")
    for n in (2, 3):
        at_card = sum(1 for c in reports[n].covers if len(c) == 3 * n + 1)
        if friendship_cover_count(n) != at_card:
            errors.append(
                f"n={n}: closed form {friendship_cover_count(n)} != "
                f"{at_card} covers of size {3 * n + 1}"
            )
    # n = 1 is the full 2-skeleton on six vertices: its minimal covers are
    # the complements of the 2-subsets, and the closed form is rejected
    verts = tsc_friendship[1].vertices
    complements = sorted(tuple(v for v in verts if v not in pair)
                         for pair in combinations(verts, 2))
    if list(reports[1].covers) != complements:
        errors.append("n=1: covers are not the complements of the 2-subsets")
    try:
        friendship_cover_count(1)
    except ValueError:
        pass
    else:
        errors.append("n=1: friendship_cover_count(1) did not raise ValueError")
    if elapsed >= 60:
        errors.append(f"enumeration took {elapsed:.1f}s, limit 60s")
    _report(6, "cover counting", errors)


def test_criterion_7_buchsbaum_suite(small_graph_sweep):
    errors = []
    for row in small_graph_sweep:
        if row["connected"]:
            if not row["buchsbaum"]:
                errors.append(f"{row['graph']}: TSC not Buchsbaum")
            if not row["tsc_connected"]:
                errors.append(f"{row['graph']}: TSC disconnected for connected graph")
            if not row["links_connected"]:
                errors.append(f"{row['graph']}: some vertex link disconnected")
        elif row["tsc_connected"]:
            errors.append(f"{row['graph']}: TSC connected for disconnected graph")
    n_conn = sum(1 for r in small_graph_sweep if r["connected"])
    print(f"  [corpus] {n_conn} connected / {len(small_graph_sweep)} labeled graphs on <= 5 vertices")
    _report(7, "Buchsbaum property suite", errors)


def test_criterion_8_cm_iff_first_homology(small_graph_sweep):
    errors = []
    for row in small_graph_sweep:
        if row["connected"] and row["cm"] != (row["reduced_b1"] == 0):
            errors.append(
                f"{row['graph']}: cm={row['cm']} but reduced b1={row['reduced_b1']}"
            )
    _report(8, "Cohen-Macaulay iff vanishing first homology", errors)


def test_criterion_9_algebraic_invariants(corpus):
    errors = []
    for name, cx in corpus.items():
        for r in range(2, cx.dimension() + 1):
            if any(sparse_product(boundary_matrix(cx, r - 1), boundary_matrix(cx, r))):
                errors.append(f"{name}: d{r-1} o d{r} != 0")
        summary = homology_summary(cx)
        alt_alpha = euler_characteristic(cx)
        alt_betti = sum((-1) ** k * b for k, b in enumerate(summary.betti))
        if alt_alpha != alt_betti:
            errors.append(f"{name}: Euler {alt_alpha} != alternating Betti sum {alt_betti}")
        if len(cx.vertices) <= 12 and faces_by_dim(cx) != brute_force_faces(cx):
            errors.append(f"{name}: face enumeration differs from brute force")
        if len(cx.vertices) <= 16:
            enumerated = list(minimal_vertex_covers(cx).covers)
            if enumerated != brute_force_minimal_covers(cx):
                errors.append(f"{name}: cover enumeration differs from brute force")
    _report(9, "algebraic invariants and oracles", errors)
