"""The README's quick start runs as written and prints what it documents."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    documented = []  # (value of a bare expression, its trailing comment)
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            documented.append((eval(source, namespace), comment))
        else:
            exec(source, namespace)

    assert [comment for _, comment in documented] == [
        "0.5", "0.5, 0.3536, 0.1464", "True"]
    for value, comment in documented:
        expected = ast.literal_eval(comment)
        if isinstance(expected, bool):
            assert value is expected
        else:
            assert value == pytest.approx(expected, abs=5e-5)
