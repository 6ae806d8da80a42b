"""The README's Python example runs, and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_matches_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        claim = re.search(r"#\s*(True|False)\b", lines[node.end_lineno - 1])
        if claim is None:
            exec(source, namespace)
            continue
        assert isinstance(node, ast.Expr), source
        assert eval(source, namespace) is (claim.group(1) == "True"), source
        checked += 1
    assert checked == 3
