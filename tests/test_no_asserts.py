"""The package states its invariants as exceptions: `python -O` strips
`assert` statements, so none may appear under src/lapshift."""

import ast
from pathlib import Path

import lapshift

PACKAGE = Path(lapshift.__file__).parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
