"""The README's library sketch and CLI block run, each value and exit code
their comments state holds, and the public names the README and
``tscomplex.__all__`` list exist."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import tscomplex
from tscomplex import BoundaryMatrix, Graph, SimplicialComplex
from conftest import run_cli

README = Path(__file__).parents[1] / "README.md"


def _comments(source: str) -> dict[int, str]:
    """The text of each line's comment, keyed by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def _leading_literal(comment: str):
    """The longest prefix of ``comment`` that is a Python literal, as
    ``(value,)``; ``None`` when no prefix is one."""
    for end in range(len(comment), 0, -1):
        try:
            return (ast.literal_eval(comment[:end]),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_library_sketch_values_hold():
    (source,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    comments = _comments(source)
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        stated = _leading_literal(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and stated is not None:
            assert eval(code, namespace) == stated[0], (code, stated[0])
            checked.append(code)
        else:
            exec(code, namespace)
    # the sketch states five values: an f-vector, Betti numbers and three verdicts
    assert len(checked) == 5, checked


def test_cli_block_runs_with_the_stated_exit_codes_and_values(tmp_path, monkeypatch):
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    stated_values = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *args = shlex.split(command)
        assert program == "tscomplex", line
        code, out, err = result = run_cli(*args)
        # a comment that opens with "exit <n>:" states the exit code; 0 otherwise
        stated_code = re.match(r"exit (\d+):", comment.strip())
        assert (code, err) == (int(stated_code[1]) if stated_code else 0, ""), (line, result)
        stated = _leading_literal(comment.strip())
        if stated is not None:
            assert out == f"{stated[0]}\n", (line, result)
            stated_values.append(stated[0])
    assert len(block.splitlines()) == 12
    assert stated_values == [(11, 50, 76)]


def test_every_public_name_resolves_once_in_order():
    names = tscomplex.__all__
    assert [name for name in names if not hasattr(tscomplex, name)] == []
    assert names == sorted(set(names))


def test_readme_complex_methods_exist():
    (sentence,) = re.findall(r"`SimplicialComplex` exposes (.*?);", README.read_text(), re.S)
    names = [re.sub(r"\(.*\)", "", name) for name in re.findall(r"`([^`]+)`", sentence)]
    assert len(names) == 9, names
    assert [name for name in names if not hasattr(SimplicialComplex, name)] == []


def test_removed_entry_points_stay_removed():
    # their jobs are done by faces(k), SimplicialComplex([()]), link() and
    # BoundaryMatrix.entries; the closed form and the Euler characteristic
    # are oracles in tests/oracles.py, no command writes triplet text, and
    # the tests assert the TSC's first-homology criterion directly;
    # build_tsc(g, lab).facets are the total indices; decompose renders its
    # text from the cover report
    removed = [(tscomplex, "export_triplets"), (tscomplex.homology, "export_triplets"),
               (tscomplex, "euler_characteristic"), (tscomplex.homology, "euler_characteristic"),
               (SimplicialComplex, "all_faces"), (SimplicialComplex, "empty"),
               (SimplicialComplex, "has_face"), (BoundaryMatrix, "columns"),
               (Graph, "degree"), (tscomplex, "friendship_facets_closed_form"),
               (tscomplex.tsc, "friendship_facets_closed_form"),
               (tscomplex, "tsc_cm_shortcut"), (tscomplex.cohen_macaulay, "tsc_cm_shortcut"),
               (tscomplex, "total_indices"), (tscomplex.tsc, "total_indices"),
               (tscomplex, "TotalIndexSet"), (tscomplex.tsc, "TotalIndexSet"),
               (Graph, "isolated_vertices"), (tscomplex.covers, "decomposition_text")]
    assert [(owner.__name__, name) for owner, name in removed if hasattr(owner, name)] == []
