"""The benchmark's workloads: seeded inputs, the queries the program answers,
and a label-invariant check of every answer.

Each query builds its own complex, so no query reuses another's faces.  The
seed draws a random total labeling for every small graph and a random
relabeling of the c42 fixture, fresh for each query.  The friendship and c42
graphs keep one labeling in every run: the cost of cover enumeration and of
rank over Q changes several-fold with the labeling (cover enumeration of the
friendship n = 4 complex scans from 1,133 to 4,914 candidates over 30 random
labelings), and a run sees too few of these large inputs to average that
out.  ``friendship-exact`` uses the paper's labeling.  ``covers`` uses one
random labeling per graph drawn from a constant seed: the paper's labeling is
the slowest one measured for n = 4 (10,645 candidates), which would leave
room for only one or two passes per run.  The checks rest on closed forms,
censuses and brute force written here, not on the library's algorithms, and
are label-invariant, so any seed is valid.

Why each workload:

* ``sweep-small``: every labeled graph on 1..5 vertices.  Thousands of tiny
  complexes make per-call overhead dominate in TSC construction, links, the
  CM walk and GF(p) rank.  Covers and Q-rank never run here.
* ``friendship-exact``: a few large complexes (friendship n = 3..6 and the
  c42 fixture), so Q-rank and the link walk dominate: the same layers as
  ``sweep-small`` at the other end of problem size.
* ``covers``: cover enumeration does nearly all the work; homology and CM
  never run.
* ``cli``: the README pipeline as separate ``python -m tscomplex`` processes,
  where process start and import dominate; the only workload that reaches
  the ``cli`` layer.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

GF_BIG = "gf:4294967311"
WRONG_BETTI = "wrong Betti numbers"
#: Answers the program is known to get wrong, by query kind: the start of the
#: check's error that marks the defect, and the defect.  Such answers still
#: count as failed; they only do not make the run incorrect.  Any other
#: failure of the same kind (a crash, a wrong f-vector) is unexpected.
KNOWN_DEFECTS = {
    f"homology:{GF_BIG}": (WRONG_BETTI,
                           "GF(p) elimination works in int64, which overflows for p >= 2^31"),
}

# Minimal-cover census of the friendship TSCs by cover size (see README).  At
# n = 1 the complex is the full 2-skeleton on six vertices, whose minimal
# covers are the 15 complements of 2-subsets.
FRIENDSHIP_CENSUS = {
    1: {4: 15},
    2: {7: 55, 8: 9},
    3: {10: 252, 12: 13},
    4: {13: 1053, 16: 17},
}

# Two 4-cycles sharing a path of length two, labeled as in the paper:
# a=1, ab=2, b=3, bc=4, c=5, cd=6, d=7, da=8, ea=9, e=10, ce=11.
C42 = (5, ((1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5)),
       ((1, 3, 5, 7, 10), (2, 8, 9, 4, 6, 11)))


@dataclass
class Query:
    """One request: ``run`` asks the program, ``check`` returns None for a
    right answer and the reason otherwise.  ``layer`` is where the traced run
    puts the request's root span."""

    kind: str
    subject: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    layer: str = "request"

    def known_defect(self, error: str | None) -> str | None:
        """The listed defect that ``error`` shows, if it has its signature."""
        signature, defect = KNOWN_DEFECTS.get(self.kind, (None, None))
        if error is not None and signature is not None and error.startswith(signature):
            return defect
        return None


# -- inputs ----------------------------------------------------------------


def friendship(n: int):
    """(m, edges, labels): n triangles sharing the center vertex 2n + 1, with
    the paper's labeling.  Triangle k has outer vertices 3k-2 and 3k, outer
    edge 3k-1 and center edges 3n+2k-1, 3n+2k; the center gets 5n+1."""
    center = 2 * n + 1
    vertex_labels = [5 * n + 1] * center
    edge_labels = {}
    for k in range(1, n + 1):
        a, b = 2 * k - 1, 2 * k
        vertex_labels[a - 1], vertex_labels[b - 1] = 3 * k - 2, 3 * k
        edge_labels[(a, b)] = 3 * k - 1
        edge_labels[(a, center)] = 3 * n + 2 * k - 1
        edge_labels[(b, center)] = 3 * n + 2 * k
    edges = tuple(sorted(edge_labels))
    return center, edges, (tuple(vertex_labels), tuple(edge_labels[e] for e in edges))


def graph_of(name: str):
    """(m, edges, labels) of "c42" or of the friendship graph "f<n>"."""
    return C42 if name == "c42" else friendship(int(name[1:]))


def small_graphs(max_m: int):
    """Every labeled simple graph on exactly m vertices, m = 1..max_m."""
    for m in range(1, max_m + 1):
        pairs = list(combinations(range(1, m + 1), 2))
        for bits in range(1 << len(pairs)):
            yield m, tuple(p for i, p in enumerate(pairs) if bits >> i & 1)


def random_labeling(m: int, edges, rng) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A uniformly random total labeling: (vertex labels, labels of the
    edges in sorted order)."""
    labels = list(range(1, m + len(edges) + 1))
    rng.shuffle(labels)
    return tuple(labels[:m]), tuple(labels[m:])


def relabel(facets, rng) -> list[tuple[int, ...]]:
    vertices = sorted({v for f in facets for v in f})
    image = dict(zip(vertices, rng.sample(vertices, len(vertices))))
    return [tuple(sorted(image[v] for v in f)) for f in facets]


#: The runs have one client and no threads, so numpy's BLAS is held to one
#: thread.  Its default pool costs every fresh interpreter ~70 ms more (0.297 s
#: against 0.227 s for ``import tscomplex`` on a 2-core x86-64 machine), and that time
#: swings with the load on the other core.  The library's ranks use no BLAS call.
#: So ``setup_s`` and the cli workload leave out the BLAS pool start-up that a
#: ``python -m tscomplex`` run in a default environment pays.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(src) -> dict:
    """Environment for a child interpreter that must import tscomplex from ``src``."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return env


def graph_json(m: int, edges, labels) -> str:
    """A labeled graph in the documented interchange format."""
    vertex_labels, edge_labels = labels
    data = {"m": m, "edges": [list(e) for e in edges],
            "labels": {**{f"v{i}": l for i, l in enumerate(vertex_labels, 1)},
                       **{f"e{k}": l for k, l in enumerate(edge_labels, 1)}}}
    return json.dumps(data, sort_keys=True)


# -- independent oracles ----------------------------------------------------


def friendship_alpha(n: int) -> tuple[int, ...]:
    return (5 * n + 1, 10 * n * n + 5 * n, (4 * n ** 3 + 42 * n * n + 14 * n) // 3)


def friendship_betti(n: int) -> tuple[int, ...]:
    return (1, 0, (4 * n ** 3 + 12 * n * n + 14 * n) // 3)


def face_set(facets) -> set[tuple[int, ...]]:
    return {sub for f in facets for k in range(1, len(f) + 1) for sub in combinations(f, k)}


def f_vector(facets) -> tuple[int, ...]:
    sizes = Counter(len(face) for face in face_set(facets))
    return tuple(sizes[k] for k in range(1, max(sizes) + 1))


def minimal_nonfaces(facets) -> set[tuple[int, ...]]:
    """Minimal non-faces, grown from faces: a (k+1)-set whose k-subsets are
    all faces is found once, from the face that omits its largest vertex."""
    faces = face_set(facets)
    vertices = sorted({v for f in facets for v in f})
    found = {p for p in combinations(vertices, 2) if p not in faces}
    top = max(len(f) for f in facets)
    for k in range(2, top + 2):
        for face in (f for f in faces if len(f) == k):
            for v in vertices:
                if v <= face[-1]:
                    continue
                cand = face + (v,)
                if cand not in faces and all(cand[:i] + cand[i + 1:] in faces
                                             for i in range(k)):
                    found.add(cand)
    return found


def connected(m: int, edges) -> bool:
    reach = {1}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in reach) != (v in reach):
                reach.update((u, v))
                grew = True
    return len(reach) == m


def cover_census(facets) -> Counter:
    """Minimal vertex covers by size, by scanning every vertex subset."""
    vertices = sorted({v for f in facets for v in f})
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    masks = [sum(bit[v] for v in f) for f in facets]
    census: Counter = Counter()
    for subset in range(1, 1 << len(vertices)):
        private = 0
        for mask in masks:
            hit = subset & mask
            if not hit:
                break
            if hit & (hit - 1) == 0:
                private |= hit
        else:
            if private == subset:
                census[bin(subset).count("1")] += 1
    return census


def check_covers(facets, covers, census) -> str | None:
    """Every cover meets every facet, each of its vertices has a private
    facet, no cover repeats, and the sizes match the census."""
    bit = {v: 1 << i for i, v in enumerate(sorted({v for f in facets for v in f}))}
    masks = [sum(bit[v] for v in f) for f in facets]
    seen = set()
    for cover in covers:
        subset = sum(bit.get(v, 0) for v in set(cover))
        if subset in seen or len(set(cover)) != len(cover) or any(v not in bit for v in cover):
            return f"bad or repeated cover {cover}"
        seen.add(subset)
        private = 0
        for mask in masks:
            hit = subset & mask
            if not hit:
                return f"cover {cover} misses a facet"
            if hit & (hit - 1) == 0:
                private |= hit
        if private != subset:
            return f"cover {cover} is not minimal"
    sizes = Counter(len(c) for c in covers)
    if sizes != census:
        return f"census {dict(sorted(sizes.items()))}, expected {dict(sorted(census.items()))}"
    return None


def _check_cover_json(facets, covers, data, census) -> str | None:
    """A ``covers`` or ``decompose`` output: the covers are right, and the
    cardinalities and the unmixed flag agree with them and with the census."""
    covers = [tuple(c) for c in covers]
    error = check_covers(facets, covers, census)
    if error is None and data["cardinalities"] != sorted(len(c) for c in covers):
        error = "cardinalities are not the sorted cover sizes"
    if error is None and data["unmixed"] != (len(census) <= 1):
        error = f"unmixed={data['unmixed']} for census {dict(census)}"
    return error


# -- library workloads -------------------------------------------------------


class _Library:
    """Shared input handling for the workloads that call the library in-process."""

    def __init__(self, T, rng, workdir):
        self.T = T
        self.rng = rng
        self.fixture = T.c42_fixture().facets

    def close(self):
        pass

    def source(self, subject: str) -> Callable:
        """The input ``subject`` ("f<n>", "c42" or a fresh relabeling of
        "fixture"), built by the program when the returned function runs."""
        T = self.T
        if subject == "fixture":
            facets = relabel(self.fixture, self.rng)
            return lambda: T.SimplicialComplex.from_facets(facets)
        m, edges, labels = graph_of(subject)
        return lambda: T.build_tsc(T.Graph(m, edges), T.TotalLabeling(*labels))


def _expect_true(what):
    def check(answer):
        verdict, witness = answer
        if verdict and witness is None:
            return None
        return f"{what}: verdict={verdict} witness={witness}"
    return check


def _check_homology(alpha, betti):
    """f-vector, Euler characteristic, and Betti numbers; ``betti`` None
    leaves the Betti numbers to the Euler check alone."""
    def check(answer):
        got_alpha, got_betti = answer
        if got_alpha != alpha:
            return f"f-vector {got_alpha}, expected {alpha}"
        euler = sum((-1) ** k * a for k, a in enumerate(got_alpha))
        if euler != sum((-1) ** k * b for k, b in enumerate(got_betti)):
            return f"Betti {got_betti} break the Euler characteristic {euler}"
        if betti is not None and got_betti != betti:
            return f"{WRONG_BETTI} {got_betti}, expected {betti}"
        return None
    return check


def _check_sr(answer):
    facets, generators = answer
    if len(set(generators)) != len(generators):
        return "repeated Stanley-Reisner generator"
    expected = minimal_nonfaces(facets)
    if set(generators) != expected:
        return f"{len(generators)} Stanley-Reisner generators, expected {len(expected)}"
    return None


class SweepSmall(_Library):
    def queries(self, index):
        T = self.T
        field = T.PrimeField(32003)
        out = []
        for m, edges in small_graphs(5):
            labels = random_labeling(m, edges, self.rng)

            def run(m=m, edges=edges, labels=labels):
                g = T.Graph(m, edges)
                cx = T.build_tsc(g, T.TotalLabeling(*labels))
                answer = {"tsc_connected": cx.is_facet_connected(), "connected": T.is_connected(g)}
                if answer["connected"]:
                    answer["links_connected"] = T.vertex_links_connected(cx)
                    answer["buchsbaum"] = T.is_cm_t(cx, 1).verdict
                    answer["cm"] = T.is_cm(cx).verdict
                    reduced = T.homology_summary(cx, field).reduced_betti
                    answer["reduced_b1"] = reduced[1] if len(reduced) > 1 else 0
                return answer

            out.append(Query("sweep", f"m{m}e{len(edges)}", run,
                             lambda a, m=m, edges=edges: _check_sweep(m, edges, a)))
        return out


def _check_sweep(m, edges, answer):
    """On a connected graph the TSC and its vertex links are connected, it is
    Buchsbaum, and CM exactly when H~1 = 0; otherwise the TSC is disconnected."""
    if answer["connected"] != connected(m, edges):
        return f"is_connected={answer['connected']} is wrong"
    if not answer["connected"]:
        return None if not answer["tsc_connected"] else "TSC of a disconnected graph is connected"
    if not (answer["tsc_connected"] and answer["links_connected"] and answer["buchsbaum"]):
        return f"connected graph: {answer}"
    if answer["cm"] != (answer["reduced_b1"] == 0):
        return f"CM={answer['cm']} but reduced b1={answer['reduced_b1']}"
    return None


class FriendshipExact(_Library):
    SUBJECTS = ("f3", "f4", "f5", "f6", "fixture")
    FIELDS = ("gf:32003", "q", GF_BIG)

    def queries(self, index):
        T = self.T
        out = []
        for subject in self.SUBJECTS:
            if subject == "fixture":
                alpha, betti = f_vector(self.fixture), (1, 0, 28)
            else:
                n = int(subject[1:])
                alpha, betti = friendship_alpha(n), friendship_betti(n)
            for spec in self.FIELDS:
                build = self.source(subject)

                def run(build=build, spec=spec):
                    h = T.homology_summary(build(), T.parse_field(spec))
                    return tuple(h.alpha), tuple(h.betti)

                out.append(Query(f"homology:{spec}", subject, run, _check_homology(alpha, betti)))
            for kind, ask in (("is_cm", lambda cx: T.is_cm(cx)),
                              ("is_cm_t:1", lambda cx: T.is_cm_t(cx, 1)),
                              ("is_cm_t:2", lambda cx: T.is_cm_t(cx, 2))):
                build = self.source(subject)

                def run(build=build, ask=ask):
                    report = ask(build())
                    return report.verdict, report.witness

                out.append(Query(kind, subject, run, _expect_true(kind)))
            build = self.source(subject)

            def run(build=build):
                cx = build()
                return cx.facets, tuple(T.stanley_reisner_generators(cx))

            out.append(Query("stanley_reisner", subject, run, _check_sr))
        return out


class Covers(_Library):
    SUBJECTS = ("f2", "f3", "f4", "c42", "fixture")

    def __init__(self, T, rng, workdir):
        super().__init__(T, rng, workdir)
        self._census = {f"f{n}": Counter(c) for n, c in FRIENDSHIP_CENSUS.items()}

    def source(self, subject: str) -> Callable:
        if subject == "fixture":
            return super().source(subject)
        T = self.T
        m, edges, _ = graph_of(subject)
        labels = random_labeling(m, edges, random.Random(f"covers-{subject}"))
        return lambda: T.build_tsc(T.Graph(m, edges), T.TotalLabeling(*labels))

    def census(self, subject, facets) -> Counter:
        # Label-invariant, so one brute-force scan per subject serves every labeling.
        if subject not in self._census:
            self._census[subject] = cover_census(facets)
        return self._census[subject]

    def queries(self, index):
        T = self.T
        out = []
        for subject in self.SUBJECTS:
            build = self.source(subject)

            def run_covers(build=build):
                cx = build()
                # What the CLI covers command emits.
                return cx.facets, T.minimal_vertex_covers(cx).to_json_dict()

            out.append(Query("covers", subject, run_covers,
                             lambda a, s=subject: _check_cover_json(
                                 a[0], a[1]["covers"], a[1], self.census(s, a[0]))))
            build = self.source(subject)

            def run_decompose(build=build):
                cx = build()
                components = tuple(c.variables for c in T.facet_ideal_decomposition(cx))
                # What the CLI decompose command also computes.
                return cx.facets, components, T.covers.decomposition_to_json_dict(cx)

            out.append(Query("decompose", subject, run_decompose,
                             lambda a, s=subject: self._check_decompose(s, a)))
        return out

    def _check_decompose(self, subject, answer):
        facets, components, payload = answer
        if [list(c) for c in components] != payload["components"]:
            return "JSON components differ from the decomposition"
        return _check_cover_json(facets, components, payload, self.census(subject, facets))


# -- cli workload -------------------------------------------------------------


class Cli:
    """Sequential ``python -m tscomplex`` processes over files in a work
    directory inside the checkout.  The inputs are drawn once per run.

    Every command's exit code is checked, and its JSON output both against
    the oracles below and against the same command run in-process through
    the click entry point."""

    GRAPHS = ("f2", "f3", "c42")

    def __init__(self, T, rng, workdir: Path):
        self.T = T
        self.workdir = workdir
        self.inputs = workdir / "in"
        self.inputs.mkdir(parents=True, exist_ok=True)
        for name in self.GRAPHS:
            m, edges, _ = graph_of(name)
            text = graph_json(m, edges, random_labeling(m, edges, rng))
            (self.inputs / f"{name}.json").write_text(text)
        self.env = child_env(Path(T.__file__).resolve().parent.parent)
        self.fixture = T.c42_fixture().facets
        self.fixture_census = cover_census(self.fixture)
        self._expected = None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def commands(self, out: Path):
        """(argument list, expected exit code, output file or None, oracle of
        the output's JSON)."""
        cmds = []
        for n in (2, 3):
            cmds.append((["gen", "friendship", "--n", str(n)], 0, f"gen-f{n}",
                         _check_graph(f"f{n}")))
        cmds.append((["gen", "c42"], 0, "gen-c42", _check_graph("c42")))
        oracles = {g: _CliOracle(g, out) for g in self.GRAPHS}
        for g in self.GRAPHS:
            cmds.append((["tsc", str(self.inputs / f"{g}.json")], 0, f"{g}.tsc", oracles[g].tsc))
        for g in self.GRAPHS:
            oracle, tsc = oracles[g], str(out / f"{g}.tsc.json")
            cmds.append((["fvector", tsc, "--format", "json"], 0, f"{g}.fvector",
                         oracle.fvector))
            for field in ("gf:32003", "q"):
                cmds.append((["homology", tsc, "--field", field, "--format", "json"], 0,
                             f"{g}.homology-{field.replace(':', '')}", oracle.homology(field)))
            for check in (["cm"], ["buchsbaum"], ["cmt", "--t", "2"]):
                cmds.append((["check", check[0], tsc, *check[1:], "--format", "json"], 0,
                             f"{g}.check-{check[0]}", oracle.check(check[0])))
        cmds.append((["covers", "c42-fixture", "--assert", "--format", "json"], 3,
                     "fixture.covers",
                     lambda d: _check_cover_json(self.fixture, d["covers"], d, self.fixture_census)))
        cmds.append((["decompose", str(out / "f2.tsc.json"), "--format", "json"], 0,
                     "f2.decompose",
                     lambda d: _check_cover_json(oracles["f2"].facets(), d["components"], d,
                                                 Counter(FRIENDSHIP_CENSUS[2]))))
        cmds.append((["verify-friendship", "--n-max", "3", "--format", "json"], 0, "verify",
                     _check_verify_friendship))
        # A refused input: GF(4) is not a prime field.
        cmds.append((["homology", str(out / "f2.tsc.json"), "--field", "gf:4"], 2, None, None))
        return [(args + ["--out", str(out / f"{name}.json")] if name else args, code,
                 out / f"{name}.json" if name else None, oracle)
                for args, code, name, oracle in cmds]

    def queries(self, index, in_process: bool = False):
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if in_process:
            # Imported here, so that no pass pays a one-off import the others do not.
            importlib.import_module("tscomplex.cli")
            importlib.import_module("click.testing")
        run = self._in_process if in_process else self._subprocess
        return [Query(args[0], path.stem if path else "refused-field",
                      lambda a=args, p=path: run(a, p),
                      lambda answer, i=i, code=code, oracle=oracle:
                          self._check(i, code, oracle, answer),
                      layer="cli")
                for i, (args, code, path, oracle) in enumerate(self.commands(out))]

    def _subprocess(self, args, path):
        proc = subprocess.run([sys.executable, "-m", "tscomplex", *args], cwd=self.workdir,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, _read(path), "Traceback" in proc.stderr

    def _in_process(self, args, path):
        from click.testing import CliRunner

        result = CliRunner().invoke(importlib.import_module("tscomplex.cli").main, args)
        crashed = result.exception is not None and not isinstance(result.exception, SystemExit)
        return result.exit_code, _read(path), crashed

    def expected(self):
        """Answers of the same commands run in-process through the click entry point."""
        if self._expected is None:
            out = self.workdir / "expect"
            out.mkdir(parents=True, exist_ok=True)
            self._expected = [self._in_process(args, path)
                              for args, _, path, _ in self.commands(out)]
        return self._expected

    def _check(self, i, code, oracle, answer):
        got_code, text, crashed = answer
        if crashed:
            return "traceback"
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if (text is None) != (oracle is None):
            return "output file missing" if text is None else "output written for a refused input"
        if oracle is not None:
            try:
                error = oracle(json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                error = f"malformed output: {type(exc).__name__}: {exc}"
            if error is not None:
                return error
        want = self.expected()[i]
        if want[0] != code:
            return f"in-process exit {want[0]}, expected {code}"
        if (text is None) != (want[1] is None):
            return "in-process output file missing"
        if text is not None and json.loads(text) != json.loads(want[1]):
            return "JSON differs from the in-process answer"
        return None


def _degrees(m: int, edges) -> list[int]:
    degree = Counter(v for e in edges for v in e)
    return sorted(degree[v] for v in range(1, m + 1))


def _check_graph(name: str):
    """The ``gen`` output: the named graph, up to vertex numbering, with a
    total labeling."""
    m, edges, _ = graph_of(name)
    keys = {f"v{i}" for i in range(1, m + 1)} | {f"e{k}" for k in range(1, len(edges) + 1)}

    def check(data):
        if data["m"] != m or _degrees(m, data["edges"]) != _degrees(m, edges):
            return f"not the {name} graph: m={data['m']} edges={data['edges']}"
        if set(data["labels"]) != keys or sorted(data["labels"].values()) != list(
                range(1, len(keys) + 1)):
            return f"labels {data['labels']} are not a total labeling"
        return None
    return check


class _CliOracle:
    """Checks of one graph's CLI outputs.  A friendship graph is held to the
    closed forms.  c42, which has none here, is held to face counts of its own
    TSC, the Euler characteristic, b0 = 1, the two fields agreeing, and, its
    graph being connected, to CM <=> H~1 = 0 and Buchsbaum.  A later command's
    check reads the outputs of earlier commands, which were checked before."""

    def __init__(self, name: str, out: Path):
        self.name, self.out = name, out
        self.n = None if name == "c42" else int(name[1:])

    def _output(self, stem: str) -> dict:
        return json.loads((self.out / f"{self.name}.{stem}.json").read_text())

    def facets(self) -> list[tuple[int, ...]]:
        return [tuple(f) for f in self._output("tsc")["facets"]]

    def alpha(self) -> tuple[int, ...]:
        return friendship_alpha(self.n) if self.n else f_vector(self.facets())

    def tsc(self, data):
        m, edges, _ = graph_of(self.name)
        facets = [tuple(f) for f in data["facets"]]
        if len(set(facets)) != len(facets) or any(
                len(f) != 3 or list(f) != sorted(set(f)) for f in facets):
            return "facets are not distinct sorted triples"
        if {v for f in facets for v in f} != set(range(1, m + len(edges) + 1)):
            return "the vertices are not the graph's labels"
        if self.n and f_vector(facets) != friendship_alpha(self.n):
            return f"f-vector {f_vector(facets)}, expected {friendship_alpha(self.n)}"
        return None

    def fvector(self, data):
        alpha = self.alpha()
        if (tuple(data["alpha"]), data["dimension"], data["pure"]) != (alpha, len(alpha) - 1, True):
            return f"fvector {data}, expected alpha {alpha}, pure"
        return None

    def homology(self, field: str):
        def check(data):
            if data["field"] != field:
                return f"field {data['field']}, expected {field}"
            alpha, betti = tuple(data["alpha"]), tuple(data["betti"])
            if self.n:
                want = friendship_betti(self.n)
            else:
                want = None if field != "q" else tuple(self._output("homology-gf32003")["betti"])
            error = _check_homology(self.alpha(), want)((alpha, betti))
            if error is None and betti[0] != 1:
                error = f"b0 = {betti[0]} for the TSC of a connected graph"
            if error is None and list(data["reduced_betti"]) != [betti[0] - 1, *betti[1:]]:
                error = f"reduced Betti {data['reduced_betti']} for Betti {betti}"
            return error
        return check

    def check(self, kind: str):
        def check(data):
            # Connected graphs give Buchsbaum TSCs, and Buchsbaum implies CM_2.
            verdict = True
            if kind == "cm" and self.n is None:
                verdict = self._output("homology-gf32003")["betti"][1] == 0
            if data["verdict"] != verdict or (data["witness"] is None) != verdict:
                return f"verdict={data['verdict']} witness={data['witness']}, expected {verdict}"
            return None
        return check


def _check_verify_friendship(data) -> str | None:
    """Each computed cell of ``verify-friendship`` against the closed forms
    and censuses, and each PASS/FAIL against its own cell."""
    rows = data["rows"]
    if [row["n"] for row in rows] != [1, 2, 3]:
        return f"rows for n = {[row['n'] for row in rows]}, expected 1..3"
    for row in rows:
        n, census = row["n"], FRIENDSHIP_CENSUS[row["n"]]
        want = {
            "alpha": list(friendship_alpha(n)),
            "betti": {"gf": list(friendship_betti(n)), "q": list(friendship_betti(n))},
            "rank_d1": {"gf": 5 * n, "q": 5 * n},
            "rank_d2": {"gf": 10 * n * n, "q": 10 * n * n},
            "cover_cardinality": sorted(census),
            "cover_count": sum(census.values()),
        }
        for key, value in want.items():
            cell = row[key]
            if cell["computed"] != value:
                return f"n={n} {key}: computed {cell['computed']}, expected {value}"
            if cell["status"] != "OPEN" and cell["status"] != (
                    "PASS" if cell["computed"] == cell["expected"] else "FAIL"):
                return f"n={n} {key}: status {cell['status']} for {cell}"
    all_pass = all(row[key]["status"] != "FAIL" for row in rows for key in row if key != "n")
    if data["all_pass"] != all_pass:
        return f"all_pass={data['all_pass']}, the cells say {all_pass}"
    return None


def _read(path):
    return path.read_text() if path is not None and path.exists() else None


WORKLOADS = {
    "sweep-small": SweepSmall,
    "friendship-exact": FriendshipExact,
    "covers": Covers,
    "cli": Cli,
}
