"""Source-level rules for the package."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epsbialg
from epsbialg import (
    Element,
    EMatrix,
    LambdaPoly,
    TensorElement,
    UnivarMonomial,
    Word,
    commutator_bracket,
    matrix_algebra,
    parse_expression,
    verify,
    word_algebra,
)
from epsbialg import cli
from epsbialg.cli import _read_argv, build_algebra
from epsbialg.usage import build_arg_parser
from epsbialg.verify import run_suite

from support import tensor_coassoc_oracle

PACKAGE_DIR = Path(epsbialg.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
BENCH_TESTS = TRACER.with_name("test_bench.py")


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


def _is_descent(node):
    # a class with an ``expr`` method: a recursive descent over the grammar
    return isinstance(node, ast.ClassDef) and any(
        isinstance(f, ast.FunctionDef) and f.name == "expr" for f in node.body
    )


def test_one_parser():
    # grammar.py, behind the entry points of parser.py, holds the only
    # tokenizer and recursive descent; scalar text is read by the same parser
    # run without an algebra
    found = sorted(
        (path.name, "re.compile" if _is_re_compile(node) else "descent")
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_re_compile(node) or _is_descent(node)
    )
    assert found == [("grammar.py", "descent"), ("grammar.py", "re.compile")]



# What a linear combination does whatever its leg count is written once, in
# the base of Element and TensorElement; each class defines only how it is
# built, its leg count and leg view, and the arithmetic the benchmark traces.
_PER_CLASS = {"__init__", "_make", "zero", "legs", "leg_keys", "__add__", "__mul__", "__rmul__"}
_CLASS_METADATA = {
    "__slots__", "__module__", "__doc__", "__qualname__", "__firstlineno__", "__static_attributes__",
}


def test_one_implementation_of_a_linear_combination():
    both = set(vars(Element)) & set(vars(TensorElement))
    assert sorted(both - _PER_CLASS - _CLASS_METADATA) == []

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


def _nodes_by_function(path):
    """(owner, node) for every node of ``path``, the owner being the dotted
    name of the innermost enclosing def or class, or of the module."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}"
            yield name, child
            yield from walk(child, name)
    yield from walk(ast.parse(path.read_text(), filename=str(path)), path.stem)


def _is_integral_test(node):
    # `<expr>.denominator == 1`, the test of the int-if-integral rule
    return (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], ast.Eq)
        and isinstance(node.left, ast.Attribute)
        and node.left.attr == "denominator"
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value == 1
    )


def test_one_sparse_map_sum():
    # polynomials, elements, tensors and law witnesses all add through
    # scalars._accumulate: it alone drops a cancelled entry, and it and
    # scalars._stored alone turn an integral Fraction into an int
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert PACKAGE_DIR / "scalars.py" in modules
    nodes = [pair for path in modules for pair in _nodes_by_function(path)]
    assert {owner for owner, node in nodes if isinstance(node, ast.Delete)} == {
        "scalars._accumulate"
    }
    assert {owner for owner, node in nodes if _is_integral_test(node)} == {
        "scalars._accumulate", "scalars._stored"
    }


# each kind's one plain key type, and keys built by its checked constructor;
# a word key is a str, whose hash is cached, never a tuple of letter indices
_PLAIN_KEYS = {
    "matrix:3": (
        lambda key: type(key) is tuple and len(key) == 2 and all(type(x) is int for x in key),
        lambda: [EMatrix(1, 2, 3), EMatrix(3, 3, 3)],
    ),
    "word:xy": (lambda key: type(key) is str, lambda: [Word(()), Word((0,)), Word((1, 0, 1))]),
    "univar": (lambda key: type(key) is int, lambda: [UnivarMonomial(0), UnivarMonomial(3)]),
}


@pytest.mark.parametrize("selector,text", [
    ("matrix:3", "E[1,2] + 2*E[3,1] - [[0,1,0],[0,0,0],[1,0,0]] + E"),
    ("word:xy", "x*y*y + 3*y - 1"),
    ("univar", "x^3 + 2*x - 1"),
])
def test_keys_are_plain_builtins(selector, text):
    # basis keys are hashed and compared in C: a key class with a Python-level
    # __eq__/__hash__ must not come back onto the hot path
    is_plain, constructed = _PLAIN_KEYS[selector]
    A = build_algebra(selector, None)
    kind = A.kind
    keys = list(A.basis_keys(3))
    sources = {
        "basis_keys": keys,
        "unit_terms": list(kind.unit_terms()),
        "key_mul": [k for p in keys for q in keys if (k := kind.key_mul(p, q)) is not None],
        "coproduct legs": [k for p in keys for legs in A.basis_coproduct(p) for k in legs],
        "parse_expression": list(parse_expression(text, A).terms),
        "constructor": constructed(),
    }
    for source, found in sources.items():
        assert found, source
        assert [k for k in found if not is_plain(k)] == [], source


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


def test_verify_binds_every_name_the_benchmark_reads():
    # the benchmark's own tests read these names off ``verify``; an import
    # that ``verify`` drops breaks them, which tier-1 would not otherwise see
    tree = ast.parse(BENCH_TESTS.read_text(), filename=str(BENCH_TESTS))
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "verify"
    }
    assert names >= {"EMatrix", "prelie_product"}
    assert [name for name in sorted(names) if not hasattr(verify, name)] == []


def test_every_benchmark_argv_parses(monkeypatch, capsys):
    # the benchmark runs these calls; an option the CLI stops taking would
    # otherwise fail only there.  Each one is read by the option table's fast
    # reader, to the attributes argparse gives it.  The workload module is
    # read, not changed.
    spec = importlib.util.spec_from_file_location("bench_workloads", TRACER.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    corpus = workloads.load_corpus_calls()
    built = [call for make in workloads.WORKLOADS.values() for call in make(4242).calls]
    assert (len(corpus), len(built)) == (390, 122)
    parser = build_arg_parser()
    refused, declined, differ = [], [], []
    for call in corpus + built:
        try:
            expected = vars(parser.parse_args(call.argv))
        except SystemExit:
            refused.append(call.argv)
            continue
        fast = _read_argv(call.argv)
        if fast is None:
            declined.append(call.argv)
        elif vars(fast) != expected:
            differ.append(call.argv)
    assert (refused, declined, differ) == ([], [], [])
    assert capsys.readouterr().err == ""


def test_no_function_takes_a_cap_and_no_command_declares_one():
    # an antipode series ends where a finite basis, a falling degree or the
    # fixed bound core.SERIES_CAP decides it; no caller chooses a cap
    found = [
        f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and any(isinstance(a, ast.arg) and a.arg == "cap" for a in ast.walk(node.args))
    ]
    assert found == []
    flags = {
        flag
        for _, options, exclusive in cli._COMMANDS.values()
        for option in options + exclusive
        for flag in option[0]
    }
    assert flags and "--cap" not in flags


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "antipode", "-a", "univar", "--weight", "0", "--cap", "5"),
    ("antipode", "-a", "univar", "--weight", "0", "-e", "x^5", "--cap", "5"),
    ("antipode", "-a", "matrix:2", "--cap=5", "-e", "E[1,2]"),
])
def test_cap_is_an_unrecognized_argument(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    flag = "--cap=5" if "--cap=5" in argv else "--cap 5"
    assert err.endswith(f"epsbialg: error: unrecognized arguments: {flag}\n")
    assert "Traceback" not in err


_STARTUP_PROBE = """\
import io, sys
import epsbialg.cli as cli
sys.stdout = io.StringIO()
codes = [
    cli.main(["verify", "--suite", "all", "-a", "matrix:5"]),
    cli.main(["verify", "--suite", "all", "-a", "word:xy", "--max-len", "9"]),
]
unparsed = sorted(set(sys.modules) & {"re"})
codes += [
    cli.main(["coproduct", "-a", "matrix:2", "-e", "E[1,2]"]),
    cli.main(["verify", "--suite", "all", "-a", "matrix:2"]),
]
sys.stdout = sys.__stdout__
print(codes, unparsed, sorted(set(sys.modules) & set(sys.argv[1:])))
"""


def test_cli_start_up_imports_no_heavy_stdlib_module():
    # every CLI process pays for what it imports: dataclasses, with inspect,
    # ast, dis and tokenize behind it, was half of start-up, and argparse (with
    # gettext and locale) and json much of the rest; fractions (with decimal)
    # loads only where a Fraction is built; -S keeps site's own imports from
    # hiding one of these coming back; no module imports __future__, whose
    # annotations feature would cost every process a module.  A verify run
    # that reads no text loads no re, which only the grammar's tokenizer needs
    heavy = [
        "__future__", "argparse", "ast", "dataclasses", "decimal", "dis", "fractions",
        "gettext", "inspect", "json", "locale", "tokenize", "typing",
    ]
    done = subprocess.run(
        [sys.executable, "-S", "-c", _STARTUP_PROBE, *heavy], capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)), timeout=60, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[0, 0, 0, 0] [] []\n"


_PATH_PROBE = """\
import io, sys
import epsbialg.cli as cli
sys.stdout = sys.stderr = io.StringIO()
code = cli.main(sys.argv[1:])
text, sys.stdout, sys.stderr = sys.stdout.getvalue(), sys.__stdout__, sys.__stderr__
print(code, "json" in sys.modules, "argparse" in sys.modules)
print(text, end="")
"""


@pytest.mark.parametrize("argv,code,loaded,text", [
    (["coproduct", "-a", "matrix:2", "-e", "E[1,2]", "--json"], 0, "True False",
     '{\n  "algebra": "matrix:2",'),
    (["coproduct", "--help"], 0, "False True", "usage: epsbialg coproduct [-h] --algebra ALGEBRA"),
    (["coproduct", "-a", "matrix:2", "-e", "E[1,2]", "--seed", "3"], 2, "False True",
     "usage: epsbialg [-h] {coproduct,antipode,multiply,prelie,bracket,verify} ..."),
])
def test_only_json_output_loads_json_and_only_help_or_errors_load_argparse(
    argv, code, loaded, text
):
    # a well-formed call is read from the option table: --json loads json for
    # its output, and only argparse prints help and usage errors
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PATH_PROBE, *argv], capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent), COLUMNS="80"),
        timeout=60, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    first, output = done.stdout.split("\n", 1)
    assert first == f"{code} {loaded}"
    assert output.startswith(text)
    if code == 2:
        assert output.endswith("epsbialg: error: unrecognized arguments: --seed 3\n")


_LOAD_PROBE = """\
import io, sys
import epsbialg
bare = sorted(m for m in sys.modules if m.startswith("epsbialg."))
import epsbialg.cli as cli
sys.stdout = io.StringIO()
code = cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, bare, sorted(m[len("epsbialg."):] for m in sys.modules if m.startswith("epsbialg.")))
"""

_LAYER_MODULES = sorted(
    path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem not in ("__init__", "__main__")
)


# what no computation on ``matrix:N`` loads: the law checkers and their
# report types, the suites with the letter-blind certificate and the weight-0
# sweeps, the word and univar kinds, the derived coproducts and the argparse
# parser of help texts and usage errors
_OFF_A_MATRIX_CALL = {"derived", "laws", "relabel", "sweeps", "usage", "verify", "words"}
# what no computation on a word or univar instance loads
_OFF_A_WORD_CALL = {"derived", "laws", "prelie", "relabel", "sweeps", "usage", "verify"}


@pytest.mark.parametrize("argv,code,unloaded", [
    (["coproduct", "-a", "matrix:2", "-e", "E[1,2]"], 0, _OFF_A_MATRIX_CALL | {"prelie"}),
    (["bracket", "-a", "matrix:2", "--lhs", "E[1,2]", "--rhs", "E[2,1]"], 0, _OFF_A_MATRIX_CALL),
    (["prelie", "-a", "matrix:3", "--lhs", "E[1,2]", "--rhs", "E[2,3]", "--json"], 0,
     _OFF_A_MATRIX_CALL),
    (["coproduct", "-a", "word:xy", "-e", "x"], 0, _OFF_A_WORD_CALL),
    (["verify", "--suite", "all", "-a", "matrix:2"], 0, {"derived", "grammar", "relabel", "usage"}),
    (["verify", "--suite", "all", "-a", "word:xy", "--max-len", "9"], 0,
     {"derived", "grammar", "sweeps", "usage"}),
    (["antipode", "-a", "matrix:3", "-e", "E[1,2]"], 0, _OFF_A_MATRIX_CALL | {"prelie"}),
    (["multiply", "-a", "matrix:3", "--lhs", "E[1,2]", "--rhs", "E[2,3]", "--json"], 0,
     _OFF_A_MATRIX_CALL | {"prelie"}),
    (["multiply", "-a", "univar", "--lhs", "x", "--rhs", "x"], 0, _OFF_A_WORD_CALL),
    (["verify", "--suite", "coassoc", "-a", "rmatrix:2:E[1,1] (x) E[1,1]:0"], 1,
     {"relabel", "sweeps", "usage"}),
    (["verify", "--suite", "jacobi", "-a", "rmatrix:3:E[1,1] (x) E[2,2]:0"], 1,
     {"relabel", "usage"}),
    (["coproduct", "-a", "lmatrix:3:E[1,3]", "-e", "E[1,2]"], 0,
     {"laws", "prelie", "relabel", "sweeps", "usage", "verify", "words"}),
    (["coproduct", "--help"], 0,
     {"derived", "grammar", "laws", "prelie", "relabel", "sweeps", "verify", "words"}),
])
def test_each_command_loads_only_the_modules_it_runs(argv, code, unloaded):
    # every CLI process compiles the modules it imports, with no bytecode cache
    # on a fresh checkout; a computation has no use for verify or its law
    # checkers, a matrix call none for prelie, the word and univar kinds or
    # the derived coproducts, only --help or a malformed argv builds the
    # argparse parser, and a bare ``import epsbialg`` loads no module at all.
    # verify loads the grammar only to read text, the letter-blind certificate
    # only on words, and the weight-0 sweeps only where one of them runs
    done = subprocess.run(
        [sys.executable, "-S", "-c", _LOAD_PROBE, *argv], capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)), timeout=60, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    loaded = sorted(set(_LAYER_MODULES) - unloaded)
    assert done.stdout == f"{code} [] {loaded}\n"


# The lines of source that ``coproduct -a matrix:2 -e E[1,2]`` compiles,
# ``__init__`` included, and those of each computing command on ``matrix:3``,
# as text and as --json: gates, as the budgets of test_acceptance.py are.
# Tighten them when a change earns it, never loosen them.
MATRIX_CALL_SOURCE_LINES = 1930
COMMAND_SOURCE_LINES = {
    "coproduct": 1930, "multiply": 1930, "antipode": 1930, "prelie": 2110, "bracket": 2110,
}
# The same for ``verify --suite all`` on the benchmark's two sweep instances:
# neither loads the grammar, matrix:5 the letter-blind certificate, nor
# word:xy at weight L the weight-0 sweeps.
VERIFY_SOURCE_LINES = {"matrix:5": 3052, "word:xy": 2937}


def _compiled_lines(argv):
    """The exit code of ``argv`` and the lines of the package's modules it loads."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", _LOAD_PROBE, *argv],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)),
        timeout=60, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    code, _, loaded = done.stdout.split(" ", 2)
    modules = ["__init__", *ast.literal_eval(loaded)]
    return code, sum(len((PACKAGE_DIR / f"{name}.py").read_text().splitlines()) for name in modules)


def test_a_matrix_call_compiles_no_more_source_than_its_budget():
    # with no bytecode cache, each process compiles every line it imports, and
    # that is most of what a short call adds to the interpreter's own start-up
    code, lines = _compiled_lines(["coproduct", "-a", "matrix:2", "-e", "E[1,2]"])
    assert (code, lines <= MATRIX_CALL_SOURCE_LINES) == ("0", True), lines


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", list(COMMAND_SOURCE_LINES))
def test_each_matrix_command_compiles_no_more_source_than_its_budget(command, output):
    operands = ["-e", "E[1,2]"] if command in ("coproduct", "antipode") else [
        "--lhs", "E[1,2] + E[2,1]", "--rhs", "E[2,3]"]
    code, lines = _compiled_lines([command, "-a", "matrix:3", *operands, *output])
    assert (code, lines <= COMMAND_SOURCE_LINES[command]) == ("0", True), lines


@pytest.mark.parametrize("selector", list(VERIFY_SOURCE_LINES))
def test_a_verify_run_compiles_no_more_source_than_its_budget(selector):
    code, lines = _compiled_lines(["verify", "--suite", "all", "-a", selector, "--max-len", "9"])
    assert (code, lines <= VERIFY_SOURCE_LINES[selector]) == ("0", True), lines


_LAYER_PROBE = """\
import io, sys
import epsbialg.cli as cli
import epsbialg.verify
sys.stdout = io.StringIO()
code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0
sys.stdout = sys.__stdout__
print(code, [layer for layer in sys.argv[1].split(",") if f"epsbialg.{layer}" not in sys.modules])
"""


@pytest.mark.parametrize("argv", [
    [],
    ["verify", "--suite", "all", "-a", "matrix:5"],
    ["verify", "--suite", "all", "-a", "word:xy", "--max-len", "9"],
], ids=["import", "matrix-laws", "word-coalgebra"])
def test_verify_loads_every_layer_the_benchmark_traces(argv):
    # the benchmark's tracer reads each of its ``LAYERS`` modules from
    # sys.modules, after a sweep workload's one call in process, and in its own
    # test after importing cli and verify alone: a layer left unloaded ends
    # either in a KeyError.  So words stays a module-level import of verify
    done = subprocess.run(
        [sys.executable, "-S", "-c", _LAYER_PROBE, ",".join(_tracer_layers()), *argv],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)),
        timeout=60, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 []\n"


def test_core_reads_the_traced_checkers_from_laws_and_binds_none(monkeypatch):
    # the benchmark's tracer names four checkers as ``core.*``: each resolves
    # to the ``laws`` object, a wrapper on ``laws`` included, and reading it
    # writes nothing into ``core``, whose attributes the tracer's test snapshots
    from epsbialg import core, laws

    names = ("check_cocycle", "check_coassoc", "check_antipode_axiom", "check_antipode_properties")
    assert [name for name in names if getattr(core, name) is not getattr(laws, name)] == []
    assert [name for name in names if name in vars(core)] == []
    wrapped = object()
    monkeypatch.setattr(laws, "check_coassoc", wrapped)
    assert core.check_coassoc is wrapped and "check_coassoc" not in vars(core)
    with pytest.raises(AttributeError, match="has no attribute '_fold'"):
        core._fold


_RANDOM_PROBE = """\
import io, sys
import epsbialg.cli as cli
sys.stdout = io.StringIO()
code = cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, "random" in sys.modules)
"""


def test_no_module_imports_random():
    # every check is exact: no suite draws, so no module needs random
    importers = sorted(
        path.name
        for path in PACKAGE_DIR.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "random"
    )
    assert importers == []


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "-a", "word:xy"],
    ["verify", "--suite", "all", "-a", "univar", "--weight", "0"],
    ["verify", "--suite", "antipode", "-a", "matrix:2"],
    ["verify", "--suite", "antipode", "-a", "rmatrix:8:E[1,2] (x) E[2,3]:0"],
])
def test_no_verify_run_loads_random(argv):
    # random (with bisect, _random and _sha512 behind it) stays unloaded, on
    # an M_8 instance with D != 0 too, whose pairs past 50 keys are all walked
    done = subprocess.run(
        [sys.executable, "-S", "-c", _RANDOM_PROBE, *argv], capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)), timeout=60, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 False\n"


def test_lazy_namespace_resolves_every_name_to_its_definition():
    # names resolve on first use: each one is the object its defining module
    # binds, and ``__all__``, ``dir`` and star imports list the same names
    table = epsbialg._SOURCE
    assert len(table) == 77
    for name, module_name in table.items():
        module = importlib.import_module(f"epsbialg.{module_name}")
        value = getattr(epsbialg, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert sorted(epsbialg.__all__) == sorted(table)
    assert set(table) <= set(dir(epsbialg))
    with pytest.raises(AttributeError) as excinfo:
        epsbialg.nope
    assert str(excinfo.value) == "module 'epsbialg' has no attribute 'nope'"
    namespace = {}
    exec("from epsbialg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(epsbialg.__all__)


def test_verify_help_names_every_suite_and_the_default_seed(monkeypatch, capsys):
    # the help text reads the suite names and the default seed from their one
    # definition; verify re-exports the names.  No check reads --seed, and its
    # help says so.  A wide terminal keeps each on one line
    from epsbialg import cli, errors, verify

    monkeypatch.setenv("COLUMNS", "200")
    assert cli.main(["verify", "--help"]) == 0
    lines = {
        line.split()[0]: line.split(None, 2)[2]
        for line in capsys.readouterr().out.splitlines() if line.startswith("  --s")
    }
    assert lines == {
        "--seed": f"accepted for existing command lines; no check reads it "
                  f"(default {errors.DEFAULT_SEED})",
        "--suite": "one of: " + ", ".join(verify.SUITE_NAMES),
    }
    assert lines == {
        "--seed": "accepted for existing command lines; no check reads it (default 12345)",
        "--suite": "one of: algebra, coassoc, cocycle, antipode, prelie, jacobi, "
                   "representation, bracket-closed-form, paper-examples, all",
    }
    assert verify.SUITE_NAMES is errors.SUITE_NAMES and not hasattr(verify, "DEFAULT_SEED")
    assigned = sorted(
        f"{path.name}:{target.id}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("DEFAULT_SEED", "SUITE_NAMES")
    )
    assert assigned == ["errors.py:DEFAULT_SEED", "errors.py:SUITE_NAMES"]


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
    # the same for the dense sweeps, which every failure goes through: on
    # words they run only where the letter-blind certificate does not hold
    monkeypatch.setattr("epsbialg.verify._letter_blind", lambda A, max_len: None)
    for suite in ("coassoc", "cocycle"):
        outcome = run_suite(suite, word_algebra("xy"))
        assert (outcome.status, outcome.checked) == ("pass", outcome.evaluated)
    assert calls == dict.fromkeys(_POLY_ARITHMETIC, 0)
    assert tensor_coassoc_oracle(A, Word((0, 1)))
    assert calls["__mul__"] + calls["__rmul__"] > 0


def test_a_passing_bracket_sweep_builds_no_element(monkeypatch):
    # the bracket suite compares the case table, the sign form and the |>
    # table's commutator as sparse maps, and builds an Element only for a
    # failing witness; the element-level commutator, counted the same way,
    # shows that the counter sees every construction
    A = matrix_algebra(4)  # construction builds the unit
    built = []
    make, init = Element._make.__func__, Element.__init__

    def counting_make(cls, kind, terms):
        built.append("_make")
        return make(cls, kind, terms)

    def counting_init(self, kind, terms=None):
        built.append("__init__")
        init(self, kind, terms)

    # the two ways to build an Element
    monkeypatch.setattr(Element, "_make", classmethod(counting_make))
    monkeypatch.setattr(Element, "__init__", counting_init)
    outcome = run_suite("bracket-closed-form", A)
    assert outcome.line() == "[PASS] bracket-closed-form: 256 pairs checked across 3 code paths"
    assert built == []
    commutator_bracket(A, A.element((1, 2)), A.element((1, 3)))
    assert "_make" in built
