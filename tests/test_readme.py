"""The README's library sketch runs, and each value its comments state holds."""

import ast
import io
import re
import tokenize
from pathlib import Path

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
