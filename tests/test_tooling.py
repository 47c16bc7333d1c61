"""Source-level rules for the package."""

import ast
from pathlib import Path

import pytest

import epsbialg
from epsbialg import parse_expression
from epsbialg.cli import build_algebra

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


def _is_re_compile(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compile"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
    )


def test_one_parser():
    # parser.py holds the only tokenizer and recursive descent; scalar text
    # is read by the same parser run without an algebra
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert PACKAGE_DIR / "parser.py" in modules
    found = sorted(
        f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
        for path in modules if path.name != "parser.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_re_compile(node)
        or (isinstance(node, ast.ClassDef)
            and any(isinstance(f, ast.FunctionDef) and f.name == "expr" for f in node.body))
    )
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


def _is_plain_key(key):
    return type(key) is int or (type(key) is tuple and all(type(x) is int for x in key))


@pytest.mark.parametrize("selector,text", [
    ("matrix:3", "E[1,2] + 2*E[3,1] - [[0,1,0],[0,0,0],[1,0,0]] + E"),
    ("word:xy", "x*y*y + 3*y - 1"),
    ("univar", "x^3 + 2*x - 1"),
])
def test_keys_are_plain_builtins(selector, text):
    # basis keys are hashed and compared in C: a key class with a Python-level
    # __eq__/__hash__ must not come back onto the hot path
    A = build_algebra(selector, None)
    kind = A.kind
    keys = list(A.basis_keys(3))
    sources = {
        "basis_keys": keys,
        "unit_terms": list(kind.unit_terms()),
        "key_mul": [k for p in keys for q in keys if (k := kind.key_mul(p, q)) is not None],
        "coproduct legs": [k for p in keys for legs in A.basis_coproduct(p).terms for k in legs],
        "parse_expression": list(parse_expression(text, A).terms),
    }
    for source, found in sources.items():
        assert found, source
        assert [k for k in found if not _is_plain_key(k)] == [], source
