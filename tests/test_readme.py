"""The README's library quick start runs and prints what it says."""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_quick_start_values_match_their_comments():
    # each expression statement ends in a comment holding the repr of its value
    source = _quick_start()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    scope: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
            checked.append((ast.unparse(stmt.value), repr(value), comments[stmt.end_lineno]))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    assert len(checked) == 5
    assert [(expr, got) for expr, got, _ in checked] == [(expr, want) for expr, _, want in checked]
