import json
import os
import subprocess
import sys
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


def test_missing_files_exit_2(runner):
    assert invoke(runner, "tsc", "nope.json").exit_code == 2
    assert invoke(runner, "fvector", "nope.json").exit_code == 2
