import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import tscomplex
from tscomplex import SimplicialComplex, complex_dumps
from conftest import run_cli


def _assert_answered(result, code=0) -> str:
    """Assert that a run exited with ``code`` and wrote nothing to stderr;
    return its stdout."""
    exit_code, out, err = result
    assert (exit_code, err) == (code, ""), result
    return out


def _assert_refused(result, *context) -> str:
    """Assert that a run was refused: exit 2, nothing on stdout, and one
    ``Error:`` line, the last line of stderr, with no traceback; return
    that line."""
    code, out, err = result
    assert (code, out) == (2, ""), (result, *context)
    lines = err.splitlines()
    errors = [line for line in lines if line.startswith("Error:")]
    assert lines and errors == [lines[-1]], (result, *context)
    assert "Traceback" not in err, (result, *context)
    return lines[-1]


def test_gen_friendship_writes_canonical_graph(tmp_path):
    out = tmp_path / "f1.json"
    assert run_cli("gen", "friendship", "--n", "1", "--out", str(out)) == (0, "", "")
    data = json.loads(out.read_text())
    assert data["m"] == 3 and len(data["edges"]) == 3
    assert sorted(data["labels"].values()) == list(range(1, 7))


def test_gen_c42():
    data = json.loads(_assert_answered(run_cli("gen", "c42")))
    assert data["m"] == 5 and len(data["edges"]) == 6


def test_gen_edge_list():
    out = _assert_answered(run_cli("gen", "edge-list", "-m", "3", "-e", "1,2", "-e", "2,3"))
    assert json.loads(out)["edges"] == [[1, 2], [2, 3]]


def test_gen_rejects_bad_params():
    _assert_refused(run_cli("gen", "friendship", "--n", "0"))
    _assert_refused(run_cli("gen", "friendship"))
    _assert_refused(run_cli("gen", "edge-list", "-m", "2", "-e", "1-2"))


@pytest.mark.parametrize("args, option", [
    (["c42", "--n", "3"], "--n"),
    (["friendship", "--n", "1", "-m", "5", "-e", "1,2"], "-m"),
    (["edge-list", "-m", "2", "-e", "1,2", "--n", "4"], "--n"),
    (["friendship"], "--n"),
    (["edge-list", "-e", "1,2"], "-m"),
])
def test_gen_takes_only_the_options_its_family_reads(args, option):
    # each family is a subcommand that declares only the options it reads:
    # an option it does not declare is refused with what follows it, and an
    # option it requires is named when it is missing
    line = _assert_refused(run_cli("gen", *args))
    if option in args:
        assert line == "Error: unrecognized arguments: " + " ".join(args[args.index(option):])
    else:
        required = {"--n": "--n", "-m": "-m/--m"}[option]
        assert line == f"Error: the following arguments are required: {required}"


def test_bare_gen_shows_its_help_like_bare_tscomplex():
    # a bare command group is refused with its usage line, which names its
    # subcommands
    for args, names in (((), "{gen,tsc,fvector,homology,check,covers,decompose,"
                                "verify-friendship}"),
                        (("gen",), "{friendship,c42,edge-list}")):
        result = run_cli(*args)
        assert _assert_refused(result) == "Error: the following arguments are required: command"
        assert names in result[2]


def test_options_are_not_abbreviated():
    line = _assert_refused(run_cli("fvector", "c42-fixture", "--form", "json"))
    assert line == "Error: unrecognized arguments: --form json"


@pytest.mark.parametrize("args, usage", [
    (["gen", "c42", "--n", "3"], "gen c42"),
    (["fvector", "c42-fixture", "--form", "json"], "fvector"),
    (["homology", "c42-fixture", "extra"], "homology"),
    (["check", "cm", "c42-fixture", "--t", "2"], "check cm"),
    (["check", "cmt", "c42-fixture"], "check cmt"),
    (["gen", "edge-list", "-m", "3", "-e", "1-2"], "gen edge-list"),
    # a subcommand's options follow its name
    (["check", "--format", "json", "cm", "c42-fixture"], "check"),
])
def test_a_bad_command_line_shows_the_usage_of_the_subcommand_given_it(args, usage):
    # the subcommand that was given the bad argument refuses it, not the
    # top-level parser, whose usage line names no subcommand
    result = run_cli(*args)
    _assert_refused(result)
    assert result[2].splitlines()[0].startswith(f"usage: tscomplex {usage} "), result


def test_pipeline_gen_tsc_fvector(tmp_path):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    assert run_cli("gen", "friendship", "--n", "1", "--out", str(gpath)) == (0, "", "")
    assert run_cli("tsc", str(gpath), "--out", str(cpath)) == (0, "", "")
    assert run_cli("fvector", str(cpath)) == (0, "(6, 15, 20)\n", "")
    as_json = _assert_answered(run_cli("fvector", str(cpath), "--format", "json"))
    assert json.loads(as_json)["alpha"] == [6, 15, 20]


def test_tsc_roundtrip_is_byte_stable(tmp_path):
    gpath = tmp_path / "g.json"
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert run_cli("gen", "friendship", "--n", "2", "--out", str(gpath)) == (0, "", "")
    assert run_cli("tsc", str(gpath), "--out", str(c1)) == (0, "", "")
    assert run_cli("tsc", str(gpath), "--out", str(c2)) == (0, "", "")
    assert c1.read_bytes() == c2.read_bytes()


def test_homology_rational_on_simplex(tmp_path):
    cpath = tmp_path / "simplex.json"
    cpath.write_text('{"n": 3, "facets": [[1, 2, 3]]}')
    out = _assert_answered(run_cli("homology", str(cpath), "--field", "q", "--format", "json"))
    data = json.loads(out)
    assert data["reduced_betti"] == [0, 0, 0]
    assert data["field"] == "q"


def test_homology_rejects_bad_field(tmp_path):
    cpath = tmp_path / "simplex.json"
    cpath.write_text('{"n": 3, "facets": [[1, 2, 3]]}')
    _assert_refused(run_cli("homology", str(cpath), "--field", "gf:6"))
    too_big = run_cli("homology", str(cpath), "--field", f"gf:{2 ** 64 + 13}")
    assert _assert_refused(too_big) == f"Error: {2 ** 64 + 13} is too large: primes must be below 2^64"


@pytest.mark.parametrize("command, text", [
    ("fvector", '{"facets": [[1.7, 2], [true, 3]]}'),
    ("tsc", '{"m": 3.9, "edges": [[1, 2.5]]}'),
])
def test_non_integer_json_exits_2_with_one_line(tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert "must be an integer" in _assert_refused(run_cli(command, str(path)))


def test_oversized_graph_is_refused_before_allocating(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"m": 1000000000, "edges": []}')
    start = time.perf_counter()
    result = run_cli("tsc", str(path))
    assert time.perf_counter() - start < 1.0
    assert "at most 100000 vertices" in _assert_refused(result)


def test_tsc_with_too_many_facets_is_refused_before_building(tmp_path):
    # K_100 has 5,050 labels, under MAX_VERTICES, but tens of millions of total indices
    path = tmp_path / "k100.json"
    path.write_text(json.dumps({"m": 100, "edges": list(combinations(range(1, 101), 2))}))
    start = time.perf_counter()
    result = run_cli("tsc", str(path))
    assert time.perf_counter() - start < 1.0
    assert _assert_refused(result) == ("Error: a TSC may have at most 1000000 facets, and the "
                                       "degrees of this graph allow up to 98490150")


def test_oversized_facet_is_refused_before_listing_faces(tmp_path):
    # one facet on 60 vertices has 2^60 faces; the cap refuses it first
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"facets": [list(range(1, 61))]}))
    for command in ("fvector", "homology"):
        start = time.perf_counter()
        result = run_cli(command, str(path))
        assert time.perf_counter() - start < 1.0
        assert "a facet has 60 vertices" in _assert_refused(result)


def test_check_cm_on_fixture_passes_honestly():
    # the bundled complex satisfies the link criterion over every field even
    # though it is not unmixed, so `check cm` reports a true verdict
    out = _assert_answered(run_cli("check", "cm", "c42-fixture", "--format", "json", "--assert"))
    data = json.loads(out)
    assert data["verdict"] is True and data["witness"] is None


def test_check_cm_assert_exits_3_on_failure(tmp_path):
    cpath = tmp_path / "bad.json"
    cpath.write_text('{"n": 5, "facets": [[1, 2, 3], [3, 4, 5]]}')
    out = _assert_answered(run_cli("check", "cm", str(cpath), "--assert", "--format", "json"), 3)
    data = json.loads(out)
    assert data["verdict"] is False and data["witness"]["face"] == [3]


def test_check_cm_assert_writes_the_answer_to_out_then_exits_3(tmp_path):
    cpath, out = tmp_path / "bad.json", tmp_path / "verdict.json"
    cpath.write_text('{"n": 5, "facets": [[1, 2, 3], [3, 4, 5]]}')
    assert run_cli("check", "cm", str(cpath), "--assert", "--format", "json",
                   "--out", str(out)) == (3, "", "")
    assert json.loads(out.read_text())["verdict"] is False


def test_check_buchsbaum_and_cmt(tmp_path):
    cpath = tmp_path / "two.json"
    cpath.write_text('{"n": 6, "facets": [[1, 2, 3], [4, 5, 6]]}')
    _assert_answered(run_cli("check", "buchsbaum", str(cpath), "--assert"))
    _assert_answered(run_cli("check", "cmt", str(cpath), "--t", "0", "--assert"), 3)
    _assert_refused(run_cli("check", "cmt", str(cpath)))  # missing --t
    # the missing --t is refused before the file is read
    result = run_cli("check", "cmt", str(tmp_path / "missing.json"))
    assert _assert_refused(result) == "Error: the following arguments are required: --t"


@pytest.mark.parametrize("kind", ["cm", "buchsbaum"])
def test_check_refuses_t_outside_cmt(kind):
    result = run_cli("check", kind, "c42-fixture", "--t", "3")
    assert _assert_refused(result) == "Error: unrecognized arguments: --t 3"


def test_covers_assert_flags_mixed_fixture():
    out = _assert_answered(run_cli("covers", "c42-fixture", "--format", "json", "--assert"), 3)
    data = json.loads(out)
    assert data["unmixed"] is False and len(data["covers"]) == 34


def test_decompose_text(tmp_path):
    cpath = tmp_path / "path.json"
    cpath.write_text('{"n": 3, "facets": [[1, 2], [2, 3]]}')
    assert run_cli("decompose", str(cpath)) == (0, "(x1, x3) ∩ (x2)\n", "")
    as_json = _assert_answered(run_cli("decompose", str(cpath), "--format", "json"))
    assert json.loads(as_json)["components"] == [[1, 3], [2]]


def test_verify_friendship_n1():
    out = _assert_answered(run_cli("verify-friendship", "--n-max", "1", "--format", "json"))
    row = json.loads(out)["rows"][0]
    assert row["alpha"]["status"] == "PASS"
    assert row["rank_d1"]["status"] == "PASS" and row["rank_d2"]["status"] == "PASS"
    assert row["betti"]["status"] == "PASS"
    assert row["cover_cardinality"]["status"] == "PASS"
    assert row["cover_count"]["status"] == "OPEN"
    assert row["cover_count"]["computed"] == 15 and row["cover_count"]["formula"] == 10


def test_verify_friendship_n2_reports_cover_mismatch():
    out = _assert_answered(run_cli("verify-friendship", "--n-max", "2", "--format", "json"))
    row = json.loads(out)["rows"][1]
    assert row["alpha"]["status"] == row["betti"]["status"] == "PASS"
    # full enumeration sees 64 minimal covers, 55 of them of cardinality 7
    assert row["cover_count"]["computed"] == 64
    assert row["cover_count"]["expected"] == 55
    assert row["cover_count"]["at_expected_cardinality"] == 55
    assert row["cover_count"]["status"] == "FAIL"
    assert row["cover_cardinality"]["computed"] == [7, 8]
    # housekeeping: the honest mismatch trips --assert
    _assert_answered(run_cli("verify-friendship", "--n-max", "2", "--assert"), 3)


VERIFY_N2_TEXT = (
    "n=1 | alpha: computed=[6, 15, 20] expected=[6, 15, 20] PASS"
    " | rank_d1: computed={'gf': 5, 'q': 5} expected={'gf': 5, 'q': 5} PASS"
    " | rank_d2: computed={'gf': 10, 'q': 10} expected={'gf': 10, 'q': 10} PASS"
    " | betti: computed={'gf': [1, 0, 10], 'q': [1, 0, 10]}"
    " expected={'gf': [1, 0, 10], 'q': [1, 0, 10]} PASS"
    " | cover_cardinality: computed=[4] expected=[4] PASS"
    " | cover_count: computed=15 formula=10 analytic=15 OPEN\n"
    "n=2 | alpha: computed=[11, 50, 76] expected=[11, 50, 76] PASS"
    " | rank_d1: computed={'gf': 10, 'q': 10} expected={'gf': 10, 'q': 10} PASS"
    " | rank_d2: computed={'gf': 40, 'q': 40} expected={'gf': 40, 'q': 40} PASS"
    " | betti: computed={'gf': [1, 0, 36], 'q': [1, 0, 36]}"
    " expected={'gf': [1, 0, 36], 'q': [1, 0, 36]} PASS"
    " | cover_cardinality: computed=[7, 8] expected=[7] FAIL"
    " | cover_count: computed=64 expected=55 at_expected_cardinality=55 FAIL\n"
)


def test_verify_friendship_text_is_stable():
    assert run_cli("verify-friendship", "--n-max", "2") == (0, VERIFY_N2_TEXT, "")


def test_verify_friendship_n6_cover_census():
    out = _assert_answered(run_cli("verify-friendship", "--n-max", "6", "--format", "json"))
    cell = json.loads(out)["rows"][5]["cover_count"]
    assert (cell["computed"], cell["at_expected_cardinality"]) == (15820, 15795)


def test_verify_friendship_rejects_bad_n_max():
    assert "Largest n, in 1..6 (default 3)." in _assert_answered(
        run_cli("verify-friendship", "--help"))
    for bad in ("0", "7", "9", "x", "-1", "²"):
        result = run_cli("verify-friendship", "--n-max", bad)
        assert _assert_refused(result) == (
            f"Error: argument --n-max: {bad} is not an integer in 1..6")


@pytest.mark.parametrize("command", ["covers", "decompose"])
def test_deep_star_runs_without_traceback(tmp_path, command):
    path = tmp_path / "star.json"
    path.write_text(complex_dumps(SimplicialComplex.from_facets([(1, i) for i in range(2, 1502)])))
    env = dict(os.environ, PYTHONPATH=str(Path(tscomplex.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "tscomplex", command, str(path), "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert json.loads(done.stdout)["cardinalities"] == [1, 1500]


@pytest.mark.parametrize("command", ["covers", "decompose"])
def test_too_many_covers_exit_2_with_one_line(tmp_path, monkeypatch, command):
    monkeypatch.setattr(tscomplex.covers, "MAX_TRANSVERSALS", 1000)
    path = tmp_path / "path30.json"
    g = tscomplex.Graph(30, [(v, v + 1) for v in range(1, 30)])
    path.write_text(complex_dumps(tscomplex.build_tsc(g, tscomplex.default_labeling(g))))
    start = time.perf_counter()
    result = run_cli(command, str(path))
    assert time.perf_counter() - start < 5.0
    assert "more than 1000 minimal transversals" in _assert_refused(result)


def test_missing_files_exit_2():
    _assert_refused(run_cli("tsc", "nope.json"))
    _assert_refused(run_cli("fvector", "nope.json"))


# --- refusals: the CLI exits 0, 2 or 3 and never shows a traceback -----------

OUT_COMMANDS = [
    ["gen", "c42"],
    ["tsc", "GRAPH"],
    ["fvector", "c42-fixture"],
    ["homology", "c42-fixture", "--field", "gf:2"],
    ["check", "cm", "c42-fixture"],
    ["covers", "c42-fixture"],
    ["decompose", "c42-fixture"],
    ["verify-friendship", "--n-max", "1"],
]


@pytest.mark.parametrize("args", OUT_COMMANDS, ids=lambda args: args[0])
@pytest.mark.parametrize("target", ["missing-parent", "directory", "empty"])
def test_unwritable_out_exits_2_with_one_line(tmp_path, args, target):
    graph = tmp_path / "g.json"
    graph.write_text('{"edges": [[1, 2]], "m": 2}')
    # the empty path names the working directory
    out = {"missing-parent": str(tmp_path / "no" / "such" / "x.json"),
           "directory": str(tmp_path), "empty": ""}[target]
    args = [str(graph) if a == "GRAPH" else a for a in args]
    _assert_refused(run_cli(*args, "--out", out))


@pytest.mark.parametrize("command", ["tsc", "fvector"])
def test_deeply_nested_json_exits_2_with_one_line(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert "invalid JSON" in _assert_refused(run_cli(command, str(path)))


def _random_json(rng, depth=0):
    kind = rng.randrange(7 if depth < 2 else 4)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randrange(-2, 9)
    if kind == 2:
        return rng.choice([0.5, -1.0, 2.0])
    if kind == 3:
        return rng.choice(["", "x", "1", "v1", "e1"])
    if kind in (4, 5):
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    keys = ["m", "edges", "labels", "n", "facets", "v1", "e1"]
    return {k: _random_json(rng, depth + 1) for k in rng.sample(keys, rng.randrange(4))}


def _random_graph_dict(rng):
    m = rng.randrange(1, 9)
    pairs = [list(p) for p in combinations(range(1, m + 1), 2)]
    edges = rng.sample(pairs, min(len(pairs), rng.randrange(6)))
    keys = [f"v{i}" for i in range(1, m + 1)] + [f"e{k}" for k in range(1, len(edges) + 1)]
    labels = dict(zip(keys, rng.sample(range(1, len(keys) + 1), len(keys))))
    return {"m": m, "edges": edges, "labels": labels}


def _random_complex_dict(rng):
    facets = [rng.sample(range(1, 50), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 7))]
    return {"facets": facets}


def _corrupt(rng, data):
    """One malformed variant of a graph or complex dict."""
    data = json.loads(json.dumps(data))
    way = rng.randrange(4)
    if way == 0:  # a field of the wrong type
        data[rng.choice(sorted(data))] = _random_json(rng, 1)
    elif way == 1:  # a repeated vertex
        rows = data.get("edges") or data.get("facets")
        if rows:
            row = rng.choice(rows)
            row.append(row[0])
    elif way == 2 and "labels" in data:  # a bad, missing or extra label
        key = rng.choice(sorted(data["labels"]) + ["v99", "x"])
        data["labels"][key] = rng.choice([0, -1, 49, 1, 2.5, "1", None])
        if rng.random() < 0.3:
            del data["labels"][key]
    elif way == 3:  # a wrong vertex count
        data["n" if "facets" in data else "m"] = rng.randrange(0, 9)
    return data


FIELDS = ["q", "Q", "gf:2", "gf:3", "gf:4", "gf:", "gf:-7", "gf:1", "gf:0", "gf:x", "gf:2^3",
          "zz", " gf:5 ", "gf:32003", f"gf:{2 ** 64 + 13}", f"gf:{2 ** 64 - 59}"]


def _malformed_invocation(rng, path):
    """An argument list and the text of the input file it reads."""
    is_graph = rng.random() < 0.3
    data = _random_graph_dict(rng) if is_graph else _random_complex_dict(rng)
    style = rng.randrange(4)
    if style == 0:
        text = json.dumps(_random_json(rng))
    elif style == 1:
        full = json.dumps(data)
        text = full[:rng.randrange(len(full))]
    else:
        text = json.dumps(_corrupt(rng, data) if style == 2 else data)
    if is_graph:
        return ["tsc", str(path)], text
    command = rng.choice(["fvector", "homology", "check", "covers", "decompose"])
    args = [command]
    if command == "check":
        kind = rng.choice(["cm", "buchsbaum", "cmt"])
        args.append(kind)
        if kind == "cmt" or rng.random() < 0.2:
            args += ["--t", str(rng.randrange(-2, 6))]
    args.append(str(path))
    if command in ("homology", "check"):
        args += ["--field", rng.choice(FIELDS)]
    if command in ("check", "covers") and rng.random() < 0.5:
        args.append("--assert")
    if rng.random() < 0.5:
        args += ["--format", "json"]
    return args, text


def test_malformed_inputs_never_show_a_traceback(tmp_path):
    rng = random.Random(2024)
    path = tmp_path / "input.json"
    codes = Counter()
    for _ in range(240):
        args, text = _malformed_invocation(rng, path)
        path.write_text(text)
        code, out, err = result = run_cli(*args)  # an uncaught exception fails the test here
        assert code in (0, 2, 3), (args, text, result)
        assert "Traceback" not in out + err, (args, text)
        if code == 2:
            _assert_refused(result, args, text)
        else:
            assert err == "", (args, text, result)
        codes[code] += 1
    assert codes[0] >= 20 and codes[2] >= 60 and codes[3] >= 5, codes
    for edge, named in (([1], "(1,)"), ([1, 2, 3], "(1, 2, 3)")):
        path.write_text(json.dumps({"m": 3, "edges": [edge]}))
        assert _assert_refused(run_cli("tsc", str(path))) == (
            f"Error: cannot read graph file {str(path)!r}: edge {named} is not a pair of vertices")
