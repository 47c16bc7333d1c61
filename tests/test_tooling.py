"""Source-level rules for the package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epsbialg
from epsbialg import LambdaPoly, Word, parse_expression, word_algebra
from epsbialg.cli import build_algebra
from epsbialg.verify import run_suite

from support import tensor_coassoc_oracle

PACKAGE_DIR = Path(epsbialg.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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


def _tracer_layers():
    """``LAYERS`` of the benchmark tracer, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    ]
    return ast.literal_eval(value)


def _traced_target(layer, qualname):
    """The object the tracer wraps for ``layer.qualname``, resolved as it does; None if absent."""
    module = importlib.import_module(f"epsbialg.{layer}")
    if "." not in qualname:
        return getattr(module, qualname, None)
    cls_name, attr = qualname.split(".")
    owner = getattr(module, cls_name, None)
    raw = vars(owner).get(attr) if owner is not None else None
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


def test_every_traced_name_has_its_own_definition():
    # the benchmark's tracer wraps each of these names; one that is dropped is
    # reported missing, and two that alias one object share one wrapper
    targets = {
        f"{layer}.{qualname}": _traced_target(layer, qualname)
        for layer, names in _tracer_layers().items()
        for qualname in names
    }
    assert len(targets) == 38
    assert [name for name, obj in targets.items() if obj is None] == []
    by_object = {}
    for name, obj in targets.items():
        by_object.setdefault(id(obj), []).append(name)
    assert [names for names in by_object.values() if len(names) > 1] == []


_STARTUP_PROBE = """\
import io, sys
import epsbialg.cli as cli
sys.stdout = io.StringIO()
codes = [
    cli.main(["coproduct", "-a", "matrix:2", "-e", "E[1,2]"]),
    cli.main(["verify", "--suite", "all", "-a", "matrix:2"]),
]
sys.stdout = sys.__stdout__
print(codes, sorted(set(sys.modules) & set(sys.argv[1:])))
"""


def test_cli_start_up_imports_no_heavy_stdlib_module():
    # every CLI process pays for what it imports: dataclasses, with inspect,
    # ast, dis and tokenize behind it, was half of start-up; -S keeps site's
    # own imports from hiding one of these coming back
    heavy = ["ast", "dataclasses", "dis", "inspect", "tokenize", "typing"]
    done = subprocess.run(
        [sys.executable, "-S", "-c", _STARTUP_PROBE, *heavy], capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)), timeout=60, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[0, 0] []\n"


_POLY_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def _count_poly_arithmetic(monkeypatch):
    """Wrap LambdaPoly's arithmetic; returns the map name -> calls so far."""
    calls = dict.fromkeys(_POLY_ARITHMETIC, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in _POLY_ARITHMETIC:
        monkeypatch.setattr(LambdaPoly, name, counting(name, getattr(LambdaPoly, name)))
    return calls


def test_coalgebra_suites_do_no_poly_arithmetic_at_weight_l(monkeypatch):
    # the coassoc and cocycle checkers work on the coproducts split by power
    # of L, so a passing sweep at the generic weight multiplies and adds only
    # ints and Fractions; the element-level oracle, counted the same way,
    # shows that the counter sees LambdaPoly arithmetic where there is some
    calls = _count_poly_arithmetic(monkeypatch)
    A = word_algebra("xy")
    for suite in ("coassoc", "cocycle"):
        assert run_suite(suite, A).status == "pass"
    assert calls == dict.fromkeys(_POLY_ARITHMETIC, 0)
    assert tensor_coassoc_oracle(A, Word((0, 1)))
    assert calls["__mul__"] + calls["__rmul__"] > 0
