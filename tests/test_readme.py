"""The README's library tour runs and prints what its comments say.

The tour is the README's one ``python`` block. It runs here statement by
statement, as the interactive interpreter would, keeping the value of each bare
expression with the comment on its line.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def tour() -> dict:
    """Each bare expression of the tour -> (its value, the comment on its line)."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = block.splitlines()
    namespace, shown = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            shown[ast.get_source_segment(block, node)] = value, comment
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return shown


def test_the_library_tour_gives_the_values_in_its_comments():
    shown = tour()
    value, comment = shown["sphere_laplacian(f, p)"]
    assert comment.startswith("-6 * 0.48") and value == pytest.approx(-2.88, abs=1e-12)
    value, comment = shown["report.value"]
    assert comment == "-4.0" and value == pytest.approx(-4.0, abs=1e-12)
    records, comment = shown["evaluate_points(f, cons, None, X)"]
    assert comment == "[LaplacianReport, DomainError, LaplacianReport]"
    assert [type(r).__name__ for r in records] == ["LaplacianReport", "DomainError", "LaplacianReport"]
    # the general path on the same sphere, with either frame
    for frame in ("frame", "None"):
        value, _ = shown[f"laplace_beltrami_general(f, cons, {frame}, [0.6, 0.8, 0.0]).value"]
        assert value == pytest.approx(-2.88, abs=1e-12)
