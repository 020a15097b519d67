import contextlib
import io
import random
from itertools import combinations

import pytest

from tscomplex import (
    Graph,
    SimplicialComplex,
    build_tsc,
    c42_fixture,
    default_labeling,
    gen_c42,
    gen_friendship,
)
from tscomplex.cli import main


def run_cli(*args):
    """Run ``tscomplex *args`` in this process: ``(exit code, stdout, stderr)``.

    The command always ends by raising ``SystemExit``; any other exception
    propagates, so a traceback fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exited:
        main(list(args))
    return exited.value.code, out.getvalue(), err.getvalue()


def all_labeled_graphs(max_m):
    """Every labeled simple graph on exactly 1..m vertices, m <= max_m."""
    for m in range(1, max_m + 1):
        pairs = list(combinations(range(1, m + 1), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(m, [p for i, p in enumerate(pairs) if bits >> i & 1])


def random_complexes(count, seed):
    """Complexes on at most 9 vertices, each from 1..8 generators of at most
    4 vertices.  Few generators on many vertices leave many disconnected;
    many generators give impure complexes with links whose dimension falls
    below dim - #face, where that bound and the link's own one differ."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        yield SimplicialComplex.from_facets(
            rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
            for _ in range(rng.randint(1, 8)))


def tsc_of(g):
    return build_tsc(g, default_labeling(g))


@pytest.fixture(scope="session")
def tsc_friendship():
    """Friendship-family complexes for n = 1..3, built once."""
    return {n: build_tsc(*gen_friendship(n)) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def c42_built():
    return build_tsc(*gen_c42())


@pytest.fixture(scope="session")
def c42_fix():
    return c42_fixture()


@pytest.fixture(scope="session")
def corpus(tsc_friendship, c42_built, c42_fix):
    """The fixed complexes every invariant is exercised on."""
    k2 = Graph(2, [(1, 2)])
    k3 = Graph(3, [(1, 2), (2, 3), (1, 3)])
    p3 = Graph(3, [(1, 2), (2, 3)])
    return {
        "point": SimplicialComplex.from_facets([(1,)]),
        "segment": SimplicialComplex.from_facets([(1, 2)]),
        "hollow_triangle": SimplicialComplex.from_facets([(1, 2), (1, 3), (2, 3)]),
        "solid_triangle": SimplicialComplex.from_facets([(1, 2, 3)]),
        "two_points": SimplicialComplex.from_facets([(1,), (2,)]),
        "two_disjoint_edges": SimplicialComplex.from_facets([(1, 2), (3, 4)]),
        "two_triangles_shared_vertex": SimplicialComplex.from_facets([(1, 2, 3), (3, 4, 5)]),
        "tsc_k2": tsc_of(k2),
        "tsc_k3": tsc_of(k3),
        "tsc_p3": tsc_of(p3),
        "tsc_c42": c42_built,
        "c42_fixture": c42_fix,
        "tsc_f1": tsc_friendship[1],
        "tsc_f2": tsc_friendship[2],
        "tsc_f3": tsc_friendship[3],
    }
