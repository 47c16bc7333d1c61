"""Source-level rules for the package."""

import ast
from pathlib import Path

import epsbialg

PACKAGE_DIR = Path(epsbialg.__file__).parent


def test_no_check_sits_behind_assert():
    # python -O strips assert statements, so a check written as one
    # silently stops checking; every check in the package must raise
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
