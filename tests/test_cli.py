"""The command-line contract: dispatch, selectors, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import epsbialg
from epsbialg import (
    TensorElement,
    UnknownSuite,
    antipode,
    classical_comatrix_algebra,
    deconcat_algebra,
    matrix_algebra,
    matrix_bracket_table,
    verify,
)
from epsbialg import cli, sweeps
from epsbialg.cli import build_algebra, main
from epsbialg.usage import build_arg_parser
from epsbialg.verify import (
    MAX_SWEEP,
    SUITE_NAMES,
    _cocycle_pair_count,
    _cocycle_pairs,
    _passed,
    run_suite,
    run_verify,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coproduct_command(capsys):
    code, out, _ = run(
        capsys, "coproduct", "--algebra", "matrix:2", "--expr", "E[1,2]+E[2,2]"
    )
    assert code == 0
    assert out == "E[1,1] (x) E[2,2]\n"


def test_coproduct_dense_input(capsys):
    code, out, _ = run(
        capsys, "coproduct", "--algebra", "matrix:2", "--expr", "[[1,0],[1,0]]"
    )
    assert code == 0
    assert out == "-E[2,1] (x) E[2,1]\n"


def test_multiply_command(capsys):
    code, out, _ = run(
        capsys, "multiply", "--algebra", "word:xy", "--lhs", "x*y", "--rhs", "y*x*y"
    )
    assert code == 0
    assert out == "x*y*y*x*y\n"


def test_antipode_command(capsys):
    code, out, _ = run(capsys, "antipode", "--algebra", "matrix:3", "--expr", "E[1,3]")
    assert code == 0
    assert out == "-E[1,3]\n"


def test_prelie_command(capsys):
    code, out, _ = run(
        capsys, "prelie", "--algebra", "matrix:3", "--lhs", "E[1,2]", "--rhs", "E[1,3]"
    )
    assert code == 0
    assert out == "E[1,3]\n"


def test_bracket_routes_agree(capsys):
    args = ("--algebra", "matrix:2", "--lhs", "E[1,1]+E[2,1]", "--rhs", "E[1,2]+E[2,2]")
    outputs = set()
    for route in ((), ("--closed-form",), ("--table",)):
        code, out, _ = run(capsys, "bracket", *args, *route)
        assert code == 0
        outputs.add(out)
    assert outputs == {"E[2,1]\n"}


@pytest.mark.parametrize("selector,lhs,rhs,plain", [
    ("rmatrix:3:E[1,1] (x) E[2,2]:0", "E[1,2]", "E[2,3]", "-E[1,3]\n"),
    ("rmatrix:2:E[1,2] (x) E[1,2]:1", "E[1,2]", "E[2,1]", None),
    ("lmatrix:3:E[1,3]", "E[1,2]", "E[2,3]", "0\n"),
    ("word:xy", "x", "y", None),
])
def test_bracket_closed_forms_refuse_other_instances(capsys, selector, lhs, rhs, plain):
    # the closed forms are the telescoping instance's bracket: on any other
    # instance both flags would answer for matrix:N, so they exit 2 instead
    args = ("bracket", "-a", selector, "--lhs", lhs, "--rhs", rhs)
    code, out, _ = run(capsys, *args)
    assert (code, out) == ((0, plain) if plain else (2, ""))
    for route in ("--closed-form", "--table"):
        for fmt in ((), ("--json",)):
            assert run(capsys, *args, route, *fmt) == (
                2, "", "error: --closed-form/--table need the telescoping instance matrix:N\n"
            )


def _verify_outputs(capsys, suite):
    """The text and --json output of one failing suite on matrix:3."""
    text = run(capsys, "verify", "--suite", suite, "-a", "matrix:3")
    as_json = run(capsys, "verify", "--suite", suite, "-a", "matrix:3", "--json")
    return text, (as_json[0], json.loads(as_json[1]), as_json[2])


def _failing(suite, detail, witness, checked, evaluated):
    text = f"[FAIL] {suite}: {detail}\n       witness {witness}\nresult: LAW VIOLATION\n"
    payload = {
        "algebra": "matrix:3",
        "suites": [{
            "suite": suite, "status": "fail", "detail": detail,
            "checked": checked, "evaluated": evaluated, "witness": witness,
        }],
        "passed": False,
    }
    return (1, text, ""), (1, payload, "")


def _half_table(p, q):
    """The case table on p <= q and 0 below it: the sign form made the same
    agrees with it and the commutator agrees on p <= q, but antisymmetry fails."""
    return matrix_bracket_table(p, q) if p <= q else {}


@pytest.mark.parametrize("patch,detail,difference", [
    ({"matrix_bracket_closed_form": lambda p, q: {}},
     "sign form disagrees after 11 pairs", "-E[1,3]"),
    # the suite reads the commutator off the |> table's rows
    ({"_prelie_on_keys": lambda A, p, q: {}},
     "commutator disagrees after 11 pairs", "-E[1,3]"),
    ({"matrix_bracket_table": _half_table, "matrix_bracket_closed_form": _half_table},
     "antisymmetry broken after 11 pairs", "E[1,3]"),
])
def test_bracket_closed_form_failures_are_reported(capsys, monkeypatch, patch, detail, difference):
    for name, value in patch.items():
        monkeypatch.setattr(sweeps, name, value)
    witness = f"inputs (E[1,2], E[1,3]): difference = {difference}"
    # of the pairs up to index 11, those of the support and of the |> table's
    # entries are evaluated: the indices 1, 5, 9, 10 and 11
    assert _verify_outputs(capsys, "bracket-closed-form") == _failing(
        "bracket-closed-form", detail, witness, 11, 5
    )


@pytest.mark.parametrize("name, patched, detail, witness", [
    # subword taking only its first letter breaks two of the three subword
    # examples; the report names the first and prints both values as words
    ("subword", lambda subword: lambda w, i, j: subword(w, i, i),
     "subword [1,4]", "got x, want x*x*y*x"),
    # a zero left action breaks both derivation rows, whose values are tensors
    ("act_left", lambda act_left: lambda a, t: TensorElement(t.kind, 2),
     "derivation display", "got -E[2,1] (x) E[2,2], want E[1,1] (x) E[2,2]"),
])
def test_a_mismatched_golden_example_is_named(capsys, monkeypatch, name, patched, detail, witness):
    monkeypatch.setattr(verify, name, patched(getattr(verify, name)))
    assert _verify_outputs(capsys, "paper-examples") == _failing(
        "paper-examples",
        f"2 of 20 golden examples mismatched, the first: {detail}",
        f"inputs ({witness})",
        20, 20,
    )


def test_json_output(capsys):
    code, out, _ = run(
        capsys, "coproduct", "--algebra", "univar", "--expr", "x^2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "univar"
    assert payload["weight"] == "L"
    assert len(payload["terms"]) == 3


def test_verify_all_matrix3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--algebra", "matrix:3")
    assert code == 0
    assert "result: ok" in out
    assert out.startswith("[PASS] algebra: 729 triples checked\n")
    assert out.count("[PASS]") == 9


def test_verify_word_coassoc(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "coassoc", "--algebra", "word:xy", "--max-len", "6"
    )
    assert code == 0
    assert "[PASS] coassoc: 127 keys checked" in out


def test_verify_algebra_text_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--algebra", "matrix:2")
    assert (code, out) == (0, "[PASS] algebra: 64 triples checked\nresult: ok\n")
    code, out, _ = run(
        capsys, "verify", "--suite", "algebra", "--algebra", "matrix:2", "--json"
    )
    assert code == 0
    assert out == json.dumps({
        "algebra": "matrix:2",
        "suites": [{
            "suite": "algebra", "status": "pass", "detail": "64 triples checked",
            "checked": 64, "evaluated": 16, "witness": None,
        }],
        "passed": True,
    }, indent=2) + "\n"


def test_verify_all_skips_inapplicable_on_words(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--algebra", "word:xy")
    assert code == 0
    assert "[SKIP] antipode: weight L != 0" in out
    assert "[SKIP] bracket-closed-form" in out


def test_negative_control_coassoc_fails_with_witness(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "coassoc",
        "--algebra", "rmatrix:2:E[1,1] (x) E[1,1]:0",
    )
    assert code == 1
    assert "[FAIL] coassoc" in out
    assert "witness" in out and "E[1,2]" in out
    assert "result: LAW VIOLATION" in out


def test_negative_control_cocycle_still_passes(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "cocycle",
        "--algebra", "rmatrix:2:E[1,1] (x) E[1,1]:0",
    )
    assert code == 0
    assert "[PASS] cocycle" in out


def test_negative_control_l_square(capsys):
    code, _, err = run(
        capsys, "coproduct", "--algebra", "lmatrix:2:E[1,1]", "--expr", "E[1,2]"
    )
    assert code == 2
    assert "L^2 != 0" in err


def test_negative_control_antipode_cap(capsys):
    code, _, err = run(
        capsys,
        "antipode", "--algebra", "word:xy", "--weight", "0", "--expr", "x*y",
    )
    assert code == 1
    assert "64" in err


def test_rmatrix_accepts_zero_r(capsys):
    # ``0`` is the canonical text of the zero tensor, a valid r.
    code, out, _ = run(
        capsys, "coproduct", "--algebra", "rmatrix:2:0:0", "--expr", "E[1,2]"
    )
    assert code == 0
    assert out == "0\n"
    code, _, err = run(
        capsys, "coproduct", "--algebra", "rmatrix:2:1:0", "--expr", "E[1,2]"
    )
    assert code == 2
    assert "expected a 2-leg tensor expression" in err


def test_lmatrix_selector_works_when_square_zero(capsys):
    code, out, _ = run(
        capsys, "coproduct", "--algebra", "lmatrix:2:E[1,2]", "--expr", "E[2,1]"
    )
    assert code == 0
    assert out == "-E[1,2] (x) E[1,1] + E[2,2] (x) E[1,2]\n"


def test_weight_override_on_word(capsys):
    code, out, _ = run(
        capsys, "coproduct", "--algebra", "word:xy", "--weight", "0", "--expr", "x*y"
    )
    assert code == 0
    assert out == "x (x) x*y + x*y (x) y\n"


def test_weight_rejected_for_matrix(capsys):
    code, _, err = run(
        capsys, "coproduct", "--algebra", "matrix:2", "--weight", "0", "--expr", "E[1,2]"
    )
    assert code == 2
    assert "not meaningful" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "coproduct", "--algebra", "matrix:2", "--expr", "E[9,9]")
    assert code == 2
    assert "error" in err


def test_unknown_suite_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope", "--algebra", "matrix:2")
    assert code == 2
    assert "unknown suite" in err
    # run_suite runs one suite, so it refuses "all" and offers only what it runs
    A = build_algebra("matrix:2", None)
    for suite in ("nope", "all"):
        with pytest.raises(UnknownSuite) as info:
            run_suite(suite, A)
        assert str(info.value) == (
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES[:-1])}"
        )


def test_closed_stdout_exits_2_without_a_traceback():
    # the read end is closed before the child starts, so its first write to
    # stdout fails, as a later one does when `| head` stops reading
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = ["coproduct", "-a", "word:xyz", "-e", "(x+y+z)^5"]
    try:
        done = subprocess.run(
            [sys.executable, "-m", "epsbialg", *argv], stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(Path(epsbialg.__file__).parents[1])),
            timeout=60,
        )
    finally:
        os.close(write_end)
    err = done.stderr.decode()
    assert done.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: stdout was closed before the output was complete\n"


def test_unknown_selector_exit_code(capsys):
    code, _, err = run(capsys, "coproduct", "--algebra", "octonion:2", "--expr", "1")
    assert code == 2
    assert "unknown algebra selector" in err


@pytest.mark.parametrize("selector, letter", [
    ("word:x,1", "1"),  # -e reads 1 as the scalar, so x*1 gave the coproduct of x
    ("word:1,2", "1"),  # the unit's text
    ("word:a*b,c", "a*b"),  # prints like a product
    ("word:é", "é"),
    ("word:x y", " "),
])
def test_word_letters_must_be_names_the_parser_reads(capsys, selector, letter):
    code, out, err = run(capsys, "coproduct", "-a", selector, "-e", "x*1")
    assert (code, out) == (2, "")
    assert err == f"error: letter name {letter!r} is not a name the expression parser reads\n"


@pytest.mark.parametrize("selector", [
    "rmatrix:2:E[1,1] (x) E[2,2]:x:0", "rmatrix:2:0:L:0", "rmatrix:2:0", "rmatrix:2",
])
def test_rmatrix_selector_has_exactly_four_fields(capsys, selector):
    # the r-expression grammar has no ':', so a fifth field is never part of it
    code, out, err = run(capsys, "coproduct", "-a", selector, "-e", "E[1,1]")
    assert (code, out) == (2, "")
    assert err == f"error: malformed selector {selector!r}; want rmatrix:N:<r-expr>:<weight>\n"


# What each subcommand reads besides --algebra, --weight and --json.
_COMMAND_DESTS = {
    "coproduct": {"expr"},
    "antipode": {"expr"},
    "multiply": {"lhs", "rhs"},
    "prelie": {"lhs", "rhs"},
    "bracket": {"lhs", "rhs", "closed_form", "table"},
    "verify": {"suite", "max_len", "seed"},
}
_COMMAND_ARGV = {
    "coproduct": ("-e", "E[1,2]"),
    "antipode": ("-e", "E[1,2]"),
    "multiply": ("--lhs", "E[1,2]", "--rhs", "E[2,1]"),
    "prelie": ("--lhs", "E[1,2]", "--rhs", "E[2,1]"),
    "bracket": ("--lhs", "E[1,2]", "--rhs", "E[2,1]"),
    "verify": ("--suite", "algebra"),
}

# The 16 command/flag pairs that the commands do not read: no command reads --cap.
_REFUSED_FLAGS = [
    (command, flag)
    for command, own in _COMMAND_DESTS.items()
    for flag in ("--cap", "--max-len", "--seed")
    if flag[2:].replace("-", "_") not in own
]


def test_each_command_takes_only_the_options_it_reads():
    (sub,) = [a for a in build_arg_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        name: [a.dest for a in command._actions if a.dest != "help"]
        for name, command in sub.choices.items()
    }
    assert {name: sorted(d) for name, d in dests.items()} == {
        name: sorted(own | {"algebra", "weight", "json"}) for name, own in _COMMAND_DESTS.items()
    }
    # argparse and the fast reader both read the one option table
    assert dests == {
        name: [cli._dest(option) for option in options + exclusive]
        for name, (_, options, exclusive) in cli._COMMANDS.items()
    }
    assert sum(map(len, dests.values())) == 31
    assert len(_REFUSED_FLAGS) == 16


_TABLE_FLAGS = sorted({
    flag
    for _, options, exclusive in cli._COMMANDS.values()
    for option in options + exclusive
    for flag in option[0]
})
_PLAIN_VALUES = ["matrix:2", "word:xy", "E[1,2]", "x", "all", "", "=x", "a=b", "L", "1/2"]
_ARGV_VALUES = st.one_of(
    st.sampled_from(_PLAIN_VALUES + ["3", "0", "1_0", "+3", " 7", "٣"]),
    st.sampled_from(["-1", "-4", "-", "--", "-e", "--lhs", "-E[1,2]", "-h"]),
    st.text(max_size=4),
)
_ARGV_JUNK = st.one_of(
    st.sampled_from(_TABLE_FLAGS + [
        "-h", "--help", "--", "--alg", "--js", "--clo", "-a=word:xy", "-amatrix:2",
        "-ematrix", "coproduct", "junk",
    ]),
    st.builds("{}={}".format, st.sampled_from(_TABLE_FLAGS), _ARGV_VALUES),
    _ARGV_VALUES,
)


@st.composite
def _table_argvs(draw):
    """A well-formed argv of one command, which is then spoiled up to twice: a
    token is replaced by, or preceded by, junk, a copy of another token or one
    of the command's flags with an ``=value``."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, options, exclusive = cli._COMMANDS[name]
    argv = [name]
    for flags, convert, default, _ in draw(st.permutations(options + exclusive)):
        if default is not cli._REQUIRED and draw(st.booleans()):
            continue
        flag = draw(st.sampled_from(flags))
        if convert is bool:
            argv.append(flag)
            continue
        value = draw(st.sampled_from(["1", "3", "64"] if convert else _PLAIN_VALUES))
        argv += [f"{flag}={value}"] if flag[1] == "-" and draw(st.booleans()) else [flag, value]
    own = st.sampled_from([flag for option in options + exclusive for flag in option[0]])
    own_with_value = st.builds("{}={}".format, own, st.just("--") | _ARGV_VALUES)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        token = draw(_ARGV_JUNK | st.sampled_from(argv) | own_with_value)
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [token]
    return argv


_PARSER = build_arg_parser()


@settings(max_examples=500, deadline=None)
@given(_table_argvs())
def test_the_fast_reader_takes_only_what_argparse_reads_alike(argv):
    # every argv the table's reader takes, argparse reads to the same
    # attributes; every argv argparse refuses (or answers with help), it declines
    fast = cli._read_argv(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            slow = vars(_PARSER.parse_args(argv))
        except SystemExit:
            slow = None
    event("taken" if fast is not None else "declined")
    if fast is not None:
        assert vars(fast) == slow


@pytest.mark.parametrize("argv", [
    ["coproduct", "-a", "matrix:2", "-e", "E[1,2]"],
    ["coproduct", "--expr=E[1,2]", "--json", "--algebra=matrix:2", "--json"],
    ["bracket", "--lhs=", "--rhs", "", "-a", "x", "--table", "--weight=-1"],
    ["verify", "--suite=all", "-a", "word:xy", "--seed=-4", "--max-len=2"],
])
def test_the_fast_reader_takes_a_well_formed_argv(argv):
    assert vars(cli._read_argv(argv)) == vars(_PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nope"], ["coproduct", "-a", "matrix:2"],
    ["coproduct", "-a", "matrix:2", "-e", "x", "-h"],
    ["coproduct", "-a", "matrix:2", "-e", "x", "--"],
    ["coproduct", "--alg", "matrix:2", "-e", "x"],
    ["coproduct", "-a=matrix:2", "-e", "x"],
    ["coproduct", "-amatrix:2", "-e", "x"],
    ["coproduct", "-a", "matrix:2", "-e", "x", "-a", "matrix:3"],
    ["coproduct", "-a", "word:xy", "-e", "x", "--weight", "-1"],
    ["coproduct", "-a", "word:xy", "--expr=--"],
    ["coproduct", "-a", "word:xy", "-e", "x", "--json=1"],
    ["coproduct", "-a", "word:xy", "-e", "x", "--seed", "3"],
    ["bracket", "-a", "matrix:2", "--lhs", "x", "--rhs", "y", "--table", "--closed-form"],
    ["verify", "--suite", "all", "-a", "word:xy", "--max-len=0"],
    ["verify", "--suite", "all", "-a", "word:xy", "--seed", "+3"],
])
def test_the_fast_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read_argv(argv) is None


@pytest.mark.parametrize("command, flag", _REFUSED_FLAGS)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, command, flag):
    code, out, err = run(capsys, command, "-a", "matrix:2", *_COMMAND_ARGV[command], flag, "3")
    assert (code, out) == (2, "")
    assert err.endswith(f"epsbialg: error: unrecognized arguments: {flag} 3\n")


@pytest.mark.parametrize("selector", [
    "matrix:65", "matrix:1000000", "lmatrix:65:E[1,2]", "rmatrix:65:0:0",
])
def test_matrix_dimension_past_the_bound_is_refused_before_building(
    capsys, monkeypatch, selector
):
    def refuse(n):
        raise AssertionError(f"built M_{n}")

    monkeypatch.setattr("epsbialg.cli.matrix_algebra", refuse)
    code, out, err = run(capsys, "coproduct", "--algebra", selector, "--expr", "E[1,2]")
    assert (code, out) == (2, "")
    assert "matrix dimension must be at most 64" in err


def test_missing_flag_exit_code(capsys):
    code, _, _ = run(capsys, "coproduct", "--algebra", "matrix:2")
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (("coproduct", "--algebra=--", "-e", "x"), "--algebra/-a"),
    (("coproduct", "-a=--", "-e", "x"), "--algebra/-a"),
    (("coproduct", "-a", "matrix:2", "--expr=--"), "--expr/-e"),
    (("coproduct", "-a", "word:xy", "--weight=--", "-e", "x"), "--weight"),
    (("verify", "--suite", "all", "-a", "matrix:2", "--max-len=--"), "--max-len"),
    (("multiply", "-a", "matrix:2", "--lhs=--", "--rhs", "E[1,2]"), "--lhs"),
    (("verify", "--suite=--", "-a", "matrix:2"), "--suite"),
    (("verify", "--suite", "all", "-a", "matrix:2", "--seed=--"), "--seed"),
])
def test_an_explicit_value_of_two_dashes_is_a_usage_error(capsys, argv, flag):
    # argparse drops the "--" of ``--opt=--`` too, which leaves no value
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"epsbialg {argv[0]}: error: argument {flag}: expected one argument"]


def test_explicit_antipode_on_weighted_instance_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "antipode", "--algebra", "word:xy")
    assert code == 2
    assert "weight" in err


def test_byte_identical_repeated_runs(capsys):
    for argv in (
        ["verify", "--suite", "all", "--algebra", "matrix:2"],
        ["coproduct", "--algebra", "word:xy", "--expr", "x*y*y", "--json"],
        ["bracket", "--algebra", "matrix:3", "--lhs", "E[2,1]", "--rhs", "E[1,2]"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


@pytest.mark.parametrize(
    "argv, detail, later_line",
    [
        # proved on the 4 keys of M_2, by D^4 != 0
        (("-a", "rmatrix:2:E[1,1] (x) E[1,1]:0"),
         "series of E[1,2] never truncates: D^4 of it is nonzero on a basis of 4 keys",
         "witness inputs (E[1,2]): difference = -E[1,1] (x) E[1,1] (x) E[1,2]"),
        # words at weight 0 grow at every step: the 64-step bound decides
        (("-a", "word:xy", "--weight", "0"), "series of x does not truncate within cap 64",
         "[PASS] prelie: 343 triples checked"),
    ],
    ids=["rmatrix", "word-weight-0"],
)
def test_verify_all_reports_non_truncating_antipode(capsys, argv, detail, later_line):
    code, out, err = run(capsys, "verify", "--suite", "all", *argv)
    assert code == 1
    assert err == ""
    assert f"[FAIL] antipode: {detail}\n" in out
    assert later_line in out
    assert "[PASS] jacobi" in out and "[PASS] representation" in out
    assert out.endswith("result: LAW VIOLATION\n")


def test_verify_antipode_names_a_product_beyond_the_sweep(capsys, monkeypatch):
    # the pairs of x^0..x^4 reach the products x^5..x^8, whose series are
    # evaluated, in that order, after the swept keys'
    order = []

    def recording(algebra, a):
        order.append(tuple(a.terms))
        return antipode(algebra, a)

    monkeypatch.setattr("epsbialg.laws.antipode", recording)
    code, out, _ = run(
        capsys, "verify", "--suite", "antipode", "-a", "univar", "--weight", "0", "--max-len", "4",
    )
    assert (code, out) == (0, "[PASS] antipode: 30 checks\nresult: ok\n")
    assert order == [(e,) for e in range(9)]


def test_univar_antipode_series_truncate_past_64_steps(capsys):
    # the pairs reach x^64, whose series truncates after 65 steps:
    # D(x^n) = n x^(n-1), a falling degree, decides it, not a step bound
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "--suite", "antipode", "-a", "univar", "--weight", "0",
        "--max-len", "32",
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "[PASS] antipode: 1122 checks\nresult: ok\n", "")


@pytest.mark.parametrize(
    "argv, checked",
    [
        (("-a", "rmatrix:2:E[1,1] (x) E[1,1]:0"), 1),
        (("-a", "word:xy", "--weight", "0"), 1),
    ],
    ids=["rmatrix", "word-weight-0"],
)
def test_non_truncating_antipode_counts_the_checks_before_it(capsys, argv, checked):
    code, out, err = run(capsys, "verify", "--suite", "antipode", *argv, "--json")
    assert (code, err) == (1, "")
    [suite] = json.loads(out)["suites"]
    assert " truncate" in suite["detail"]
    assert (suite["checked"], suite["evaluated"]) == (checked, checked + 1)


@pytest.mark.parametrize(
    "selector, detail, witness, checked",
    [
        ("rmatrix:2:E[1,1] (x) E[1,2]:0", "property failure after 4 checks",
         "inputs (E[1,1]): difference = -E[1,2] (x) E[1,2]", 4),
        ("rmatrix:2:E[1,1] (x) E[1,2] + E[1,1] (x) E[2,2]:0", "axiom failure after 0 checks",
         "inputs (E[1,1]): difference = E[1,2]", 0),
    ],
    ids=["property", "axiom"],
)
def test_verify_antipode_pins_the_failure_witness(capsys, selector, detail, witness, checked):
    code, out, err = run(capsys, "verify", "--suite", "antipode", "-a", selector)
    assert (code, err) == (1, "")
    assert out == f"[FAIL] antipode: {detail}\n       witness {witness}\nresult: LAW VIOLATION\n"
    code, out, err = run(capsys, "verify", "--suite", "antipode", "-a", selector, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "algebra": selector,
        "suites": [{
            "suite": "antipode", "status": "fail", "detail": detail,
            "checked": checked, "evaluated": checked + 1, "witness": witness,
        }],
        "passed": False,
    }


@pytest.mark.parametrize("flag", ["--max-len"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_bounds_below_one_are_usage_errors(capsys, flag, value):
    code, out, err = run(
        capsys, "verify", "--suite", "all", "-a", "word:xy", f"{flag}={value}"
    )
    assert code == 2
    assert out == ""
    assert f"argument {flag}: value must be >= 1, got {value}" in err


@pytest.mark.parametrize("argv, text", [
    (("-a", "matrix:1_6"), "1_6"),
    (("-a", "matrix:+2"), "+2"),
    (("-a", "matrix: 2"), " 2"),
    (("-a", "matrix:٢"), "٢"),
    (("-a", "lmatrix:+2:E[1,2]"), "+2"),
    (("-a", "word:xy", "--max-len", "1_0"), "1_0"),
    (("-a", "word:xy", "--seed", "1_0"), "1_0"),
    (("-a", "word:xy", "--seed", " 7"), " 7"),
    (("-a", "word:xy", "--seed", "+3"), "+3"),
    (("-a", "word:xy", "--seed", "٣"), "٣"),
])
def test_integer_arguments_are_ascii_digits(capsys, argv, text):
    # int() reads a sign, blanks, underscores and non-ASCII digits; the CLI does not
    code, out, err = run(capsys, "verify", "--suite", "coassoc", *argv)
    assert (code, out) == (2, "")
    (line,) = [line for line in err.splitlines() if "error" in line]
    assert line.endswith(f"must be an integer, got {text!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [("--seed", "-4"), ("--seed=-4",), ("--seed", "0")])
def test_a_seed_may_be_negative_or_zero(capsys, seed):
    code, out, err = run(capsys, "verify", "--suite", "antipode", "-a", "matrix:2", *seed)
    assert (code, err) == (0, "")
    assert out.endswith("result: ok\n")


@pytest.mark.parametrize("tail", [(), ("--weight", "-1")])
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, tail):
    # the second argv goes to argparse: it reads a separate value "-1" itself
    argv = ["coproduct", "-a", "word:xy", "-e", "x*y", *tail]
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["epsbialg", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert code == 0


def nested(core, depth):
    return "(" * depth + core + ")" * depth


@pytest.mark.parametrize("depth", [200, 3000])
def test_deep_nesting_is_a_parse_error(capsys, depth):
    code, out, err = run(capsys, "coproduct", "-a", "matrix:2", "-e", nested("E[1,1]", depth))
    assert (code, out) == (2, "")
    assert "parentheses nested deeper than 100 (at position 100)" in err
    code, out, err = run(
        capsys, "coproduct", "-a", "word:xy", "--weight", nested("1", depth), "-e", "x*y"
    )
    assert (code, out) == (2, "")
    assert "parentheses nested deeper than 100 (at position 100)" in err


def test_nesting_at_the_bound_parses(capsys):
    code, out, _ = run(capsys, "coproduct", "-a", "matrix:2", "-e", nested("E[1,2]+E[2,2]", 100))
    assert (code, out) == (0, "E[1,1] (x) E[2,2]\n")
    code, out, _ = run(
        capsys, "coproduct", "-a", "word:xy", "--weight", nested("2", 100), "-e", "x*y"
    )
    assert (code, out) == (0, "2 * x (x) y + x (x) x*y + x*y (x) y\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("coproduct", "-a", "matrix:2", "-e", "E[1,1]^1000000000"),
        ("coproduct", "-a", "word:xy", "--weight", "L^1000000000", "-e", "x"),
    ],
    ids=["expression", "scalar"],
)
def test_exponent_above_the_bound_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "exponent 1000000000 exceeds the limit 1000" in err


def test_exponent_at_the_bound_is_computed(capsys):
    code, out, _ = run(capsys, "multiply", "-a", "univar", "--lhs", "x^1000", "--rhs", "x")
    assert (code, out) == (0, "x^1001\n")
    code, out, _ = run(capsys, "multiply", "-a", "matrix:2", "--lhs", "E[1,2]^1000", "--rhs", "1")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(
        capsys, "coproduct", "-a", "word:xy", "--weight", "L^1000 - L^1000 + 1", "-e", "x*y"
    )
    assert (code, out) == (0, "x (x) y + x (x) x*y + x*y (x) y\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("multiply", "-a", "word:xy", "--lhs", "(x^1000)^1000", "--rhs", "1"),
            "word length 2000 exceeds the limit 1000",
        ),
        (
            ("multiply", "-a", "univar", "--lhs", "(x^1000)^1000", "--rhs", "1"),
            "degree in x 2000 exceeds the limit 1000",
        ),
        (
            ("multiply", "-a", "word:xy", "--lhs", "(x+y)^16", "--rhs", "1"),
            "product of 256 by 256 terms exceeds the limit of 4096 term pairs",
        ),
        (
            ("coproduct", "-a", "word:xy", "--weight", "((1+L)^1000)^1000", "-e", "x"),
            "product of 65 by 65 terms exceeds the limit of 4096 term pairs",
        ),
        (
            ("coproduct", "-a", "word:xy", "--weight", "L^1000 * L", "-e", "x"),
            "degree in L 1001 exceeds the limit 1000",
        ),
        (
            ("coproduct", "-a", "word:xy", "--weight", "(10^1000)^1000", "-e", "x"),
            "coefficient bit length 13288 exceeds the limit 10000",
        ),
        (
            ("coproduct", "-a", "univar", "-e", "((1/3)^1000 * x)^7"),
            "coefficient bit length 11095 exceeds the limit 10000",
        ),
        (
            ("multiply", "-a", "word:xy", "--lhs", "(x+y)^12 + x^13", "--rhs", "1"),
            "term count 4097 exceeds the limit 4096",
        ),
        (
            ("coproduct", "-a", "word:xy", "-e", "(x+y)^6 (x) (x+y)^7"),
            "product of 64 by 128 terms exceeds the limit of 4096 term pairs",
        ),
    ],
    ids=[
        "word-length", "univar-degree", "power-of-a-sum", "weight-power", "weight-degree",
        "weight-coefficient", "expression-coefficient", "sum", "tensor",
    ],
)
def test_parsed_values_past_a_size_bound_are_parse_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_parsed_values_at_the_size_bounds_are_computed(capsys):
    code, out, _ = run(capsys, "multiply", "-a", "word:xy", "--lhs", "(x+y)^12", "--rhs", "1")
    assert code == 0
    assert out.count(" + ") == 4095
    code, out, _ = run(capsys, "multiply", "-a", "word:xy", "--lhs", "(x*y)^500", "--rhs", "1")
    assert (code, out) == (0, "*".join(["x*y"] * 500) + "\n")
    code, out, _ = run(
        capsys, "coproduct", "-a", "univar", "--weight", "(1+L)^63 - (1+L)^63", "-e", "x^2"
    )
    assert (code, out) == (0, "1 (x) x + x (x) 1\n")


@pytest.mark.parametrize("command", ["multiply", "prelie", "bracket"])
def test_operands_past_the_term_bound_are_refused(capsys, command):
    # 256 by 256 terms is 65,536 term pairs, past MAX_TERMS = 4096
    code, out, err = run(
        capsys, command, "-a", "word:xy", "--weight", "0",
        "--lhs", "(x+y)^8", "--rhs", "(x+y)^8",
    )
    assert (code, out) == (2, "")
    assert "exceeds the limit of 4096 term pairs" in err


# Grammar characters make the fuzz reach the parsers past their first token.
_FUZZ_TEXT = st.one_of(
    st.text(max_size=20),
    st.text(alphabet="xyzLE[],0123456789()+-*/^ .", max_size=20),
)
_FUZZ_SELECTORS = st.one_of(
    _FUZZ_TEXT,
    st.sampled_from(["matrix:1", "matrix:2", "matrix:3", "word:xy", "univar"]),
    st.builds("matrix:{}".format, st.integers(min_value=0, max_value=10**6)),
    st.builds("word:{}".format, st.text(max_size=12)),
    st.builds("lmatrix:2:{}".format, _FUZZ_TEXT),
    st.builds("rmatrix:2:{}:{}".format, _FUZZ_TEXT, _FUZZ_TEXT),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["coproduct", "antipode", "multiply", "prelie", "bracket"]),
    _FUZZ_SELECTORS, _FUZZ_TEXT, _FUZZ_TEXT, st.none() | _FUZZ_TEXT,
)
def test_arbitrary_text_ends_in_an_exit_code(command, selector, first, second, weight):
    if command in ("coproduct", "antipode"):
        argv = [command, "-a", selector, "-e", first]
    else:
        argv = [command, "-a", selector, "--lhs", first, "--rhs", second]
    if weight is not None:
        argv += ["--weight", weight]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


def _algebra_argv(selector, weight=None):
    return ["-a", selector] + ([] if weight is None else ["--weight", weight])


# Mostly constructible instances, so that the suites themselves run.
_VERIFY_ALGEBRAS = st.one_of(
    st.builds(_algebra_argv, st.builds("matrix:{}".format, st.integers(min_value=1, max_value=4))),
    st.builds(
        _algebra_argv,
        st.sampled_from(["word:x", "word:xy", "word:xyz", "univar"]),
        st.none() | st.sampled_from(["0", "L", "-1", "1/2", "2*L - 1/3"]) | _FUZZ_TEXT,
    ),
    st.builds(_algebra_argv, st.sampled_from([
        "lmatrix:2:E[1,2]", "lmatrix:3:E[1,3] - E[2,3]", "rmatrix:2:0:L",
        "rmatrix:2:E[1,1] (x) E[1,1]:0", "rmatrix:3:E[1,2] (x) E[2,3]:0",
        "rmatrix:2:E[1,1] (x) E[1,2] + E[1,1] (x) E[2,2]:0",
    ])),
    st.builds(_algebra_argv, st.builds("rmatrix:2:{}:{}".format, _FUZZ_TEXT, _FUZZ_TEXT)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SUITE_NAMES),
    _VERIFY_ALGEBRAS,
    st.integers(min_value=1, max_value=3),
)
def test_verify_on_drawn_inputs_ends_in_an_exit_code(suite, algebra, max_len):
    argv = ["verify", "--suite", suite, *algebra, "--max-len", str(max_len)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


@pytest.mark.parametrize("expr, k, terms", [("(x+y)^6", 8, 4760), ("x*y*x*y*x*y*x*y", 8, 6435)])
def test_antipode_series_past_the_term_bound_exits_2(capsys, expr, k, terms):
    code, out, err = run(capsys, "antipode", "-a", "word:xy", "--weight", "0", "-e", expr)
    assert (code, out) == (2, "")
    assert err == f"error: antipode series: D^{k}(a) has {terms} terms, more than the limit 4096\n"


@pytest.mark.parametrize("expr, k, work", [("(x+y)^3", 36, 531534), ("x*y*x", 44, 535095)])
def test_antipode_series_past_the_work_bound_exits_2(capsys, expr, k, work):
    # each power stays below the term bound, but the series grows without
    # truncating; it is refused on its coproduct terms in all, within seconds
    start = time.perf_counter()
    code, out, err = run(capsys, "antipode", "-a", "word:xy", "--weight", "0", "-e", expr)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "")
    assert err == (
        f"error: antipode series: computing D^{k}(a) would visit {work} coproduct terms "
        "in all, more than the limit 524288\n"
    )


@pytest.mark.parametrize("expr, cap", [("x*y", "64"), ("(x+y)^2", "64")])
def test_antipode_series_within_the_term_bound_still_fails_to_truncate(capsys, expr, cap):
    # words at weight 0 grow at every step: the 64-step bound decides
    code, out, err = run(capsys, "antipode", "-a", "word:xy", "--weight", "0", "-e", expr)
    assert (code, out) == (1, "")
    assert err == f"law failure: element not annihilated by D within {cap} iterations\n"


def test_outcomes_report_checked_and_evaluated():
    # evaluated on M_2
    # (the antipode evaluates the n^2 keys; S = -id there decides its pairs, its n^2
    # involution and 200 random-matrix checks.  Cocycle is evaluated at the pairs
    # (x, q) of the 2(n-1) generators x, and the bracket on the 7 pairs of its support)
    term_driven = {
        "algebra": (64, 16), "prelie": (64, 2), "jacobi": (64, 4), "representation": (64, 2),
        "antipode": (224, 4), "cocycle": (16, 8), "bracket-closed-form": (16, 7),
    }
    _, outcomes = run_verify("all", matrix_algebra(2))
    for o in outcomes:
        if o.suite in term_driven:
            assert (o.checked, o.evaluated) == term_driven[o.suite]
        else:
            assert o.checked == o.evaluated == int(o.detail.split()[0]) > 0, o.suite
    _, [o] = run_verify("coassoc", build_algebra("rmatrix:2:E[1,1] (x) E[1,1]:0", None))
    assert o.status == "fail"
    assert o.evaluated == o.checked + 1
    _, outcomes = run_verify("all", build_algebra("word:xy", None))
    assert [(o.checked, o.evaluated) for o in outcomes if o.status == "skip"] == [(0, 0)] * 5


def test_json_reports_checked_and_evaluated(capsys):
    # the two counts of every suite object; text output does not print them
    def counts(*argv):
        code, out, err = run(capsys, "verify", "--suite", "all", *argv, "--json")
        assert (code, err) == (0, "")
        return {o["suite"]: (o["checked"], o["evaluated"]) for o in json.loads(out)["suites"]}

    # the letter-blind certificate counts every pair but evaluates far fewer
    words = counts("-a", "word:xy", "--max-len", "9")
    assert words["cocycle"] == (9217, 1133)
    assert words["coassoc"] == (1023, 1115)
    # on matrices the cocycle law is evaluated at the generator pairs only
    matrices = counts("-a", "matrix:2")
    _, outcomes = run_verify("all", matrix_algebra(2))
    assert matrices == {o.suite: (o.checked, o.evaluated) for o in outcomes}
    assert matrices["cocycle"] == (16, 8)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_no_suite_passes_on_zero_inputs(suite):
    # a bound below 1 sweeps no key: refused in process as on the command line
    instances = (("word:xy", None), ("word:xy", "0"), ("univar", "0"), ("matrix:2", None))
    for selector, weight in instances:
        A = build_algebra(selector, weight)
        for max_len in (0, -1):
            with pytest.raises(ValueError, match=f"max-len must be >= 1, got {max_len}"):
                run_verify(suite, A, max_len=max_len)
            if suite != "all":
                with pytest.raises(ValueError, match=f"max-len must be >= 1, got {max_len}"):
                    run_suite(suite, A, max_len=max_len)
    with pytest.raises(ValueError, match=f"suite {suite!r} checked no input"):
        _passed(suite, "0 checks", 0)


@pytest.mark.parametrize("selector", [
    *(f"matrix:{n}" for n in range(1, 5)), "rmatrix:3:E[1,2] (x) E[2,3]:0", "word:xy", "univar",
])
def test_every_pass_evaluates_an_input(selector):
    # no silent counts: a pass evaluates at least one input, however many more
    # an argument (bilinearity, a lemma) decides
    _, outcomes = run_verify("all", build_algebra(selector, None))
    assert [o.suite for o in outcomes if o.status == "pass" and o.evaluated < 1] == []


SWEEP_COUNT_CASES = [
    *((f"matrix:{n}", 1) for n in range(1, 5)),
    ("comatrix:3", 1),
    *(("word:x", L) for L in range(6)),
    *(("word:xy", L) for L in range(8)),
    *(("word:xyz", L) for L in range(5)),
    ("deconcat:xy", 5),
    *(("univar", L) for L in range(10)),
]


def _sweep_algebra(selector):
    if selector == "comatrix:3":
        return classical_comatrix_algebra(3)
    if selector == "deconcat:xy":
        return deconcat_algebra("xy")
    return build_algebra(selector, None)


@pytest.mark.parametrize("selector,max_len", SWEEP_COUNT_CASES)
def test_closed_form_counts_match_the_sweeps(selector, max_len):
    A = _sweep_algebra(selector)
    assert A.kind.count_keys(max_len) == len(list(A.basis_keys(max_len)))
    assert _cocycle_pair_count(A.kind, max_len) == len(_cocycle_pairs(A, max_len))


@pytest.mark.parametrize("selector,max_len,pairs", [
    ("word:xy", 9, 9217),
    ("matrix:16", 6, 65536),
    ("matrix:19", 6, 130321),
    ("word:abcdefghijkm", 4, 111049),
])
def test_every_workload_sweep_is_within_the_bound(selector, max_len, pairs):
    assert _cocycle_pair_count(build_algebra(selector, None).kind, max_len) == pairs <= MAX_SWEEP


@pytest.mark.parametrize("argv,count", [
    (("--suite", "coassoc", "-a", "word:abcdefghijkm"), 271453),
    (("--suite", "all", "-a", "univar", "--max-len", "1000000"), 131073),
    (("--suite", "all", "-a", "word:xy", "--max-len", "100000000"), 262143),
    (("--suite", "paper-examples", "-a", "matrix:20"), 160000),
])
def test_verify_past_the_sweep_bound_exits_2_at_once(capsys, argv, count):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"sweeps at least {count} cocycle pairs, more than MAX_SWEEP = {MAX_SWEEP}" in err
