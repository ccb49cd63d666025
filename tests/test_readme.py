"""The README's Library example runs, and its expressions give the values
their trailing comments state."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_gives_the_stated_values():
    code = library_block()
    lines = code.splitlines()
    scope, stated = {}, []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].split("#", 1)[1]
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)
            stated.append((value, ast.literal_eval(comment.strip())))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    assert stated == [(1, 1), (True, True)]
