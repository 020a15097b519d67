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
from click.testing import CliRunner

import tscomplex
from tscomplex import SimplicialComplex, complex_dumps
from tscomplex.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_gen_friendship_writes_canonical_graph(runner, tmp_path):
    out = tmp_path / "f1.json"
    result = invoke(runner, "gen", "friendship", "--n", "1", "--out", str(out))
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["m"] == 3 and len(data["edges"]) == 3
    assert sorted(data["labels"].values()) == list(range(1, 7))


def test_gen_c42(runner):
    result = invoke(runner, "gen", "c42")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["m"] == 5 and len(data["edges"]) == 6


def test_gen_edge_list(runner):
    result = invoke(runner, "gen", "edge-list", "-m", "3", "-e", "1,2", "-e", "2,3")
    assert result.exit_code == 0
    assert json.loads(result.output)["edges"] == [[1, 2], [2, 3]]


def test_gen_rejects_bad_params(runner):
    assert invoke(runner, "gen", "friendship", "--n", "0").exit_code == 2
    assert invoke(runner, "gen", "friendship").exit_code == 2
    assert invoke(runner, "gen", "edge-list", "-m", "2", "-e", "1-2").exit_code == 2


def test_pipeline_gen_tsc_fvector(runner, tmp_path):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    assert invoke(runner, "gen", "friendship", "--n", "1", "--out", str(gpath)).exit_code == 0
    assert invoke(runner, "tsc", str(gpath), "--out", str(cpath)).exit_code == 0
    result = invoke(runner, "fvector", str(cpath))
    assert result.exit_code == 0
    assert result.output.strip() == "(6, 15, 20)"
    as_json = invoke(runner, "fvector", str(cpath), "--format", "json")
    assert json.loads(as_json.output)["alpha"] == [6, 15, 20]


def test_tsc_roundtrip_is_byte_stable(runner, tmp_path):
    gpath = tmp_path / "g.json"
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    invoke(runner, "gen", "friendship", "--n", "2", "--out", str(gpath))
    invoke(runner, "tsc", str(gpath), "--out", str(c1))
    invoke(runner, "tsc", str(gpath), "--out", str(c2))
    assert c1.read_bytes() == c2.read_bytes()


def test_homology_rational_on_simplex(runner, tmp_path):
    cpath = tmp_path / "simplex.json"
    cpath.write_text('{"n": 3, "facets": [[1, 2, 3]]}')
    result = invoke(runner, "homology", str(cpath), "--field", "q", "--format", "json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["reduced_betti"] == [0, 0, 0]
    assert data["field"] == "q"


def _error_lines(result) -> list[str]:
    return [line for line in result.output.splitlines() if line.startswith("Error:")]


def test_homology_rejects_bad_field(runner, tmp_path):
    cpath = tmp_path / "simplex.json"
    cpath.write_text('{"n": 3, "facets": [[1, 2, 3]]}')
    assert invoke(runner, "homology", str(cpath), "--field", "gf:6").exit_code == 2
    too_big = invoke(runner, "homology", str(cpath), "--field", f"gf:{2 ** 64 + 13}")
    assert too_big.exit_code == 2
    assert _error_lines(too_big) == [f"Error: {2 ** 64 + 13} is too large: primes must be below 2^64"]


@pytest.mark.parametrize("command, text", [
    ("fvector", '{"facets": [[1.7, 2], [true, 3]]}'),
    ("tsc", '{"m": 3.9, "edges": [[1, 2.5]]}'),
])
def test_non_integer_json_exits_2_with_one_line(runner, tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    result = invoke(runner, command, str(path))
    assert result.exit_code == 2
    errors = _error_lines(result)
    assert len(errors) == 1 and "must be an integer" in errors[0]
    assert "Traceback" not in result.output


def test_oversized_graph_is_refused_before_allocating(runner, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"m": 1000000000, "edges": []}')
    start = time.perf_counter()
    result = invoke(runner, "tsc", str(path))
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    errors = _error_lines(result)
    assert len(errors) == 1 and "at most 100000 vertices" in errors[0]
    assert "Traceback" not in result.output


def test_check_cm_on_fixture_passes_honestly(runner):
    # the bundled complex satisfies the link criterion over every field even
    # though it is not unmixed, so `check cm` reports a true verdict
    result = invoke(runner, "check", "cm", "c42-fixture", "--format", "json", "--assert")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["verdict"] is True and data["witness"] is None


def test_check_cm_assert_exits_3_on_failure(runner, tmp_path):
    cpath = tmp_path / "bad.json"
    cpath.write_text('{"n": 5, "facets": [[1, 2, 3], [3, 4, 5]]}')
    result = invoke(runner, "check", "cm", str(cpath), "--assert", "--format", "json")
    assert result.exit_code == 3
    data = json.loads(result.output)
    assert data["verdict"] is False and data["witness"]["face"] == [3]


def test_check_buchsbaum_and_cmt(runner, tmp_path):
    cpath = tmp_path / "two.json"
    cpath.write_text('{"n": 6, "facets": [[1, 2, 3], [4, 5, 6]]}')
    assert invoke(runner, "check", "buchsbaum", str(cpath), "--assert").exit_code == 0
    assert invoke(runner, "check", "cmt", str(cpath), "--t", "0", "--assert").exit_code == 3
    assert invoke(runner, "check", "cmt", str(cpath)).exit_code == 2  # missing --t


@pytest.mark.parametrize("kind", ["cm", "buchsbaum"])
def test_check_refuses_t_outside_cmt(runner, kind):
    result = invoke(runner, "check", kind, "c42-fixture", "--t", "3")
    assert result.exit_code == 2
    assert _error_lines(result) == [f"Error: --t applies only to check cmt, not to check {kind}"]


def test_covers_assert_flags_mixed_fixture(runner):
    result = invoke(runner, "covers", "c42-fixture", "--format", "json", "--assert")
    assert result.exit_code == 3
    data = json.loads(result.output)
    assert data["unmixed"] is False and len(data["covers"]) == 34


def test_decompose_text(runner, tmp_path):
    cpath = tmp_path / "path.json"
    cpath.write_text('{"n": 3, "facets": [[1, 2], [2, 3]]}')
    result = invoke(runner, "decompose", str(cpath))
    assert result.exit_code == 0
    assert result.output.strip() == "(x1, x3) ∩ (x2)"
    as_json = invoke(runner, "decompose", str(cpath), "--format", "json")
    assert json.loads(as_json.output)["components"] == [[1, 3], [2]]


def test_verify_friendship_n1(runner):
    result = invoke(runner, "verify-friendship", "--n-max", "1", "--format", "json")
    assert result.exit_code == 0
    row = json.loads(result.output)["rows"][0]
    assert row["alpha"]["status"] == "PASS"
    assert row["rank_d1"]["status"] == "PASS" and row["rank_d2"]["status"] == "PASS"
    assert row["betti"]["status"] == "PASS"
    assert row["cover_cardinality"]["status"] == "PASS"
    assert row["cover_count"]["status"] == "OPEN"
    assert row["cover_count"]["computed"] == 15 and row["cover_count"]["formula"] == 10


def test_verify_friendship_n2_reports_cover_mismatch(runner):
    result = invoke(runner, "verify-friendship", "--n-max", "2", "--format", "json")
    assert result.exit_code == 0
    row = json.loads(result.output)["rows"][1]
    assert row["alpha"]["status"] == row["betti"]["status"] == "PASS"
    # full enumeration sees 64 minimal covers, 55 of them of cardinality 7
    assert row["cover_count"]["computed"] == 64
    assert row["cover_count"]["expected"] == 55
    assert row["cover_count"]["at_expected_cardinality"] == 55
    assert row["cover_count"]["status"] == "FAIL"
    assert row["cover_cardinality"]["computed"] == [7, 8]
    # housekeeping: the honest mismatch trips --assert
    assert invoke(runner, "verify-friendship", "--n-max", "2", "--assert").exit_code == 3


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


def test_verify_friendship_text_is_stable(runner):
    result = invoke(runner, "verify-friendship", "--n-max", "2")
    assert (result.exit_code, result.output) == (0, VERIFY_N2_TEXT)


def test_verify_friendship_n6_cover_census(runner):
    result = invoke(runner, "verify-friendship", "--n-max", "6", "--format", "json")
    assert result.exit_code == 0
    cell = json.loads(result.output)["rows"][5]["cover_count"]
    assert (cell["computed"], cell["at_expected_cardinality"]) == (15820, 15795)


def test_verify_friendship_rejects_bad_n_max(runner):
    for bad in ("0", "7", "9"):
        assert invoke(runner, "verify-friendship", "--n-max", bad).exit_code == 2


@pytest.mark.parametrize("command", ["covers", "decompose"])
def test_deep_star_runs_without_traceback(tmp_path, command):
    path = tmp_path / "star.json"
    path.write_text(complex_dumps(SimplicialComplex.from_facets([(1, i) for i in range(2, 1502)])))
    env = dict(os.environ, PYTHONPATH=str(Path(tscomplex.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "tscomplex", command, str(path), "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    assert json.loads(done.stdout)["cardinalities"] == [1, 1500]


@pytest.mark.parametrize("command", ["covers", "decompose"])
def test_too_many_covers_exit_2_with_one_line(runner, tmp_path, monkeypatch, command):
    monkeypatch.setattr(tscomplex.covers, "MAX_TRANSVERSALS", 1000)
    path = tmp_path / "path30.json"
    g = tscomplex.Graph(30, [(v, v + 1) for v in range(1, 30)])
    path.write_text(complex_dumps(tscomplex.build_tsc(g, tscomplex.default_labeling(g))))
    start = time.perf_counter()
    result = invoke(runner, command, str(path))
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 2
    errors = _error_lines(result)
    assert len(errors) == 1 and "more than 1000 minimal transversals" in errors[0]
    assert "Traceback" not in result.output


def test_missing_files_exit_2(runner):
    assert invoke(runner, "tsc", "nope.json").exit_code == 2
    assert invoke(runner, "fvector", "nope.json").exit_code == 2


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


def _assert_refused(result):
    assert result.exit_code == 2, result.output
    assert len(_error_lines(result)) == 1, result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", OUT_COMMANDS, ids=lambda args: args[0])
@pytest.mark.parametrize("target", ["missing-parent", "directory"])
def test_unwritable_out_exits_2_with_one_line(runner, tmp_path, args, target):
    graph = tmp_path / "g.json"
    graph.write_text('{"edges": [[1, 2]], "m": 2}')
    out = tmp_path / "no" / "such" / "x.json" if target == "missing-parent" else tmp_path
    args = [str(graph) if a == "GRAPH" else a for a in args]
    _assert_refused(invoke(runner, *args, "--out", str(out)))


@pytest.mark.parametrize("command", ["tsc", "fvector"])
def test_deeply_nested_json_exits_2_with_one_line(runner, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    result = invoke(runner, command, str(path))
    _assert_refused(result)
    assert "invalid JSON" in _error_lines(result)[0]


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


def test_malformed_inputs_never_show_a_traceback(runner, tmp_path):
    rng = random.Random(2024)
    path = tmp_path / "input.json"
    codes = Counter()
    for _ in range(240):
        args, text = _malformed_invocation(rng, path)
        path.write_text(text)
        result = invoke(runner, *args)  # an uncaught exception fails the test here
        assert result.exit_code in (0, 2, 3), (args, text, result.output)
        assert "Traceback" not in result.output, (args, text)
        if result.exit_code == 2:
            assert len(_error_lines(result)) == 1, (args, text, result.output)
        codes[result.exit_code] += 1
    assert codes[0] >= 20 and codes[2] >= 60 and codes[3] >= 5, codes
    for edge, named in (([1], "(1,)"), ([1, 2, 3], "(1, 2, 3)")):
        path.write_text(json.dumps({"m": 3, "edges": [edge]}))
        result = invoke(runner, "tsc", str(path))
        assert result.exit_code == 2
        assert _error_lines(result) == [f"Error: cannot read graph file {str(path)!r}: "
                                        f"edge {named} is not a pair of vertices"]
