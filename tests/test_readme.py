"""The README's library sketch runs, each value its comments state holds,
and the public names it and ``tscomplex.__all__`` list exist."""

import ast
import io
import re
import tokenize
from pathlib import Path

import tscomplex
from tscomplex import BoundaryMatrix, Graph, SimplicialComplex

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
    # BoundaryMatrix.entries; the closed form is an oracle in tests/oracles.py
    removed = [(SimplicialComplex, "all_faces"), (SimplicialComplex, "empty"),
               (SimplicialComplex, "has_face"), (BoundaryMatrix, "columns"),
               (Graph, "degree"), (tscomplex, "friendship_facets_closed_form"),
               (tscomplex.tsc, "friendship_facets_closed_form")]
    assert [(owner.__name__, name) for owner, name in removed if hasattr(owner, name)] == []
