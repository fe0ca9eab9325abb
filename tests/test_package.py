"""Properties of the package source itself."""

import ast
from pathlib import Path

import sumbins

SRC = Path(sumbins.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so every check in the package must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
