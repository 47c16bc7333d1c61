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


def _rebinds_to_a_sum_of_itself(node):
    return (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, (ast.Add, ast.Sub))
        and isinstance(node.value.left, ast.Name)
        and node.value.left.id == node.targets[0].id
    )


def test_no_loop_copies_a_growing_sum():
    # `out = out + term` in a loop copies the whole sum on every term, which
    # is quadratic in the number of terms; add into one sparse map instead
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = sorted({
        f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
        for path in modules
        for loop in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(loop, ast.For)
        for node in ast.walk(loop)
        if _rebinds_to_a_sum_of_itself(node)
    })
    assert found == []
