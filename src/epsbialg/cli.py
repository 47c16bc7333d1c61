"""Command-line surface.

Six subcommands, each declared once with its options in the table
``_COMMANDS``: --algebra, --weight and --json on all, and the options each one
reads.  Any other option is a usage error (exit 2).  Algebra selectors:

    matrix:N                 telescoping coproduct on M_N, weight 0
    word:xy | word:x1,x2     weighted word coproduct (generic weight L,
                             override with --weight)
    univar                   one-variable coproduct (generic weight L)
    lmatrix:N:<expr>         L-coproduct on M_N for L = <expr>, L^2 = 0
    rmatrix:N:<r-expr>:<w>   derived coproduct for the 2-leg tensor <r-expr>
                             at weight <w>; <r-expr> may be 0, the zero tensor

``verify --seed`` is still accepted as an ASCII integer, so existing command
lines parse, but no check reads it: every suite is exact and draws nothing.

A matrix dimension N is at most 64, so that the N^2 basis keys stay within
the parser's term bound MAX_TERMS = 4096; a larger N exits 2 before anything
is built.

Exit codes: 0 success, 1 law violation (including an antipode series that
``core._d_powers`` finds does not truncate), 2 usage or parse errors (including
unconstructible selectors) and a stdout closed before the output was complete.
Output is deterministic: identical invocations print identical bytes.

Reading argv: ``_read_argv`` reads a well-formed call from the table alone:
the command, then each of its options once as ``--opt value``, ``-a value`` or
``--opt=value``, and --json any number of times.  It leaves anything else
(--help, ``--``, an abbreviation, a repeat, a separate value that starts with
``-``, a value its converter refuses) to the argparse parser that
``usage.build_arg_parser`` makes from the same table, so argparse prints
every help text and usage error.  A well-formed call imports neither
argparse (with gettext and locale) nor json, which only --json output loads.

This module holds what a computing call on ``matrix:N`` runs, and each other
path imports its own module where it starts: ``usage`` for an argv that
``_read_argv`` declines, ``derived`` for the ``rmatrix:`` and ``lmatrix:``
selectors, ``words`` for ``word:`` and ``univar``, ``prelie`` for the
``prelie`` and ``bracket`` commands, and ``verify`` (which prints its own
report) for ``verify``.  ``parser`` stays a module-level import, though its
grammar loads only on the first parse: the benchmark's tracer reads it from
``sys.modules`` on every workload.  With no bytecode cache each process
compiles every line it imports, so a line here costs every call.
"""

import os
import sys
from math import isqrt
from types import SimpleNamespace

from .core import antipode
from .errors import DEFAULT_SEED, SUITE_NAMES, EpsBialgError, NotNilpotentWithinCap
from .matrices import TELESCOPING, matrix_algebra
from .parser import check_product, emit, monomials, parse_expression, parse_scalar, parse_tensor
from .scalars import MAX_TERMS


def _integer(text, what="value"):
    # ASCII digits only: int() also reads "+2", " 2", "1_6" and other scripts' digits
    try:
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise ValueError
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


def _positive_int(text, what="value"):
    """Also the converter of --max-len: a bound below 1 would check nothing."""
    value = _integer(text, what)
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


# Each option is (flags, converter, default, help): the converter None keeps
# the text, bool makes a flag, and the default _REQUIRED makes it required.
# The first flag names the attribute, as argparse's dest does.
_REQUIRED = object()
_COMMON = (
    (("--algebra", "-a"), None, _REQUIRED,
     "algebra selector: matrix:N | word:<letters> | univar | "
     "lmatrix:N:<expr> | rmatrix:N:<r-expr>:<weight>"),
    (("--weight",), None, None, "weight override (word/univar selectors only), e.g. 0, -1, L"),
    (("--json",), bool, False, "emit JSON instead of text"),
)
_EXPR = (("--expr", "-e"), None, _REQUIRED, "element expression")
_OPERANDS = ((("--lhs",), None, _REQUIRED, None), (("--rhs",), None, _REQUIRED, None))

# command -> (help, options in help order, options of which at most one is given)
_COMMANDS = {
    "coproduct": ("apply the coproduct", _COMMON + (_EXPR,), ()),
    "antipode": ("apply the antipode series", _COMMON + (_EXPR,), ()),
    "multiply": ("multiply two elements", _COMMON + _OPERANDS, ()),
    "prelie": ("pre-Lie product lhs |> rhs", _COMMON + _OPERANDS, ()),
    "bracket": ("Lie bracket [lhs, rhs]", _COMMON + _OPERANDS, (
        (("--closed-form",), bool, False,
         "use the sign-condition closed form (matrix basis pairs)"),
        (("--table",), bool, False, "use the five-case table (matrix basis pairs)"),
    )),
    "verify": ("run a verification suite", _COMMON + (
        (("--max-len",), _positive_int, 6,
         "bound for word-length / exponent sweeps (default 6)"),
        (("--seed",), _integer, DEFAULT_SEED,
         f"accepted for existing command lines; no check reads it (default {DEFAULT_SEED})"),
        (("--suite",), None, _REQUIRED, "one of: " + ", ".join(SUITE_NAMES)),
    ), ()),
}


def _dest(option):
    return option[0][0][2:].replace("-", "_")


def _read_argv(argv):
    """The attributes of a well-formed call, read from ``_COMMANDS``, or None
    when argparse must read ``argv`` (see the module docstring)."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, options, exclusive = command
    by_flag = {flag: option for option in options + exclusive for flag in option[0]}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        option = by_flag.get(flag)
        if option is None or (eq and not flag.startswith("--")):
            return None
        dest, convert = _dest(option), option[1]
        if (dest in values and dest != "json") or (eq and convert is bool):
            return None
        if convert is bool:
            values[dest] = True
            continue
        text = text if eq else next(tokens, "-")
        # argparse may read a separate "-..." as an option, and drops a value "--"
        if (not eq and text.startswith("-")) or text == "--":
            return None
        try:
            values[dest] = text if convert is None else convert(text)
        except ValueError:
            return None
    if sum(values.get(_dest(option), False) for option in exclusive) > 1:
        return None
    values = {**{_dest(option): option[2] for option in options + exclusive}, **values}
    if _REQUIRED in values.values():
        return None
    return SimpleNamespace(command=argv[0], **values)


def build_algebra(selector: str, weight_text):
    if selector.startswith("matrix:"):
        _reject_weight(weight_text, "matrix")
        return matrix_algebra(_matrix_dimension(selector.split(":", 1)[1]))
    if selector.startswith("word:"):
        from .words import word_algebra

        letters = selector.split(":", 1)[1]
        alphabet = letters.split(",") if "," in letters else list(letters)
        weight = parse_scalar(weight_text) if weight_text is not None else None
        return word_algebra(alphabet, weight)
    if selector == "univar":
        from .words import univar_algebra

        weight = parse_scalar(weight_text) if weight_text is not None else None
        return univar_algebra(weight)
    if selector.startswith("lmatrix:"):
        _reject_weight(weight_text, "lmatrix")
        parts = selector.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"malformed selector {selector!r}; want lmatrix:N:<expr>")
        n = _matrix_dimension(parts[1])
        base = matrix_algebra(n)
        from .derived import l_coproduct_instance

        return l_coproduct_instance(n, parse_expression(parts[2], base))
    if selector.startswith("rmatrix:"):
        _reject_weight(weight_text, "rmatrix (the selector carries the weight)")
        parts = selector.split(":")
        if len(parts) != 4:
            raise ValueError(
                f"malformed selector {selector!r}; want rmatrix:N:<r-expr>:<weight>"
            )
        n = _matrix_dimension(parts[1])
        weight = parse_scalar(parts[3])
        base = matrix_algebra(n)
        from .derived import coproduct_from_r

        return coproduct_from_r(base, parse_tensor(parts[2], base), weight, selector=selector)
    raise ValueError(f"unknown algebra selector {selector!r}")


def _matrix_dimension(text):
    n = _positive_int(text, "matrix dimension")
    if n * n > MAX_TERMS:
        raise ValueError(
            f"matrix dimension must be at most {isqrt(MAX_TERMS)}, so that its basis "
            f"stays within {MAX_TERMS} terms; got {n}"
        )
    return n


def _reject_weight(weight_text, which):
    if weight_text is not None:
        raise ValueError(f"--weight is not meaningful for {which} selectors")


def _value(args, algebra):
    """The value a computing command prints.  --lhs and --rhs are refused,
    before any product is computed, when their term pairs exceed the
    parser's bound, MAX_TERMS."""
    if args.command == "coproduct":
        return algebra.coproduct(parse_expression(args.expr, algebra))
    if args.command == "antipode":
        return antipode(algebra, parse_expression(args.expr, algebra))
    lhs = parse_expression(args.lhs, algebra)
    rhs = parse_expression(args.rhs, algebra)
    check_product(monomials(lhs), monomials(rhs))
    if args.command == "multiply":
        return algebra.multiply(lhs, rhs)
    from . import prelie

    if args.command == "prelie":
        return prelie.prelie_product(algebra, lhs, rhs)
    if not (args.closed_form or args.table):
        return prelie.commutator_bracket(algebra, lhs, rhs)
    if TELESCOPING not in algebra.tags:
        raise ValueError("--closed-form/--table need the telescoping instance matrix:N")
    rule = prelie.matrix_bracket_closed_form if args.closed_form else prelie.matrix_bracket_table
    return prelie.bilinear_from_pairs(lhs, rhs, rule)


def main(argv=None) -> int:
    """Run one command; returns its exit code.  A reader that closes stdout
    early (``| head``) ends the run with exit 2 and one line on stderr."""
    try:
        status = _run(argv)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return status
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit finds no pipe to
        # fail on, as the signal module's documentation recommends
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was complete", file=sys.stderr)
        return 2


def _run(argv):
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        from .usage import build_arg_parser

        try:
            args = build_arg_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        algebra = build_algebra(args.algebra, args.weight)
        if args.command == "verify":
            from .verify import verify_command

            return verify_command(args, algebra)
        print(emit(_value(args, algebra), "json" if args.json else "text", algebra))
        return 0
    except NotNilpotentWithinCap as exc:
        print(f"law failure: {exc}", file=sys.stderr)
        return 1
    except (EpsBialgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
