"""Command-line surface.

Subcommands, each with --algebra, --weight and --json: ``coproduct`` and
``antipode`` read --expr, ``antipode`` also --cap; ``multiply``, ``prelie`` and
``bracket`` read --lhs and --rhs, ``bracket`` also --closed-form or --table;
``verify`` reads --suite, --cap, --max-len and --seed.  Any other option is a
usage error (exit 2).  Algebra selectors:

    matrix:N                 telescoping coproduct on M_N, weight 0
    word:xy | word:x1,x2     weighted word coproduct (generic weight L,
                             override with --weight)
    univar                   one-variable coproduct (generic weight L)
    lmatrix:N:<expr>         L-coproduct on M_N for L = <expr>, L^2 = 0
    rmatrix:N:<r-expr>:<w>   derived coproduct for the 2-leg tensor <r-expr>
                             at weight <w>; <r-expr> may be 0, the zero tensor

A matrix dimension N is at most 64, so that the N^2 basis keys stay within
the parser's term bound MAX_TERMS = 4096; a larger N exits 2 before anything
is built.

Exit codes: 0 success, 1 law violation (including a non-truncating antipode
series), 2 usage or parse errors (including unconstructible selectors) and
a stdout closed before the output was complete.
Output is deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isqrt

from .core import antipode, coproduct_from_r
from .errors import DEFAULT_SEED, SUITE_NAMES, EpsBialgError, NotNilpotentWithinCap
from .matrices import TELESCOPING, l_coproduct_instance, matrix_algebra
from .parser import check_product, emit, monomials, parse_expression, parse_scalar, parse_tensor
from .scalars import MAX_TERMS

# ``prelie``, ``verify`` and ``words`` are imported by the commands and
# selectors that use them: a process compiles only the modules its command runs.


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--algebra", "-a", required=True,
        help="algebra selector: matrix:N | word:<letters> | univar | "
             "lmatrix:N:<expr> | rmatrix:N:<r-expr>:<weight>",
    )
    common.add_argument(
        "--weight", default=None,
        help="weight override (word/univar selectors only), e.g. 0, -1, L",
    )
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument(
        "--cap", type=_count_arg, default=64,
        help="iteration cap for the antipode series (default 64)",
    )

    parser = argparse.ArgumentParser(
        prog="epsbialg",
        description="Exact checks and computations for weighted "
                    "infinitesimal-bialgebra structures over Q[L].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coproduct", parents=[common], help="apply the coproduct")
    p.add_argument("--expr", "-e", required=True, help="element expression")

    p = sub.add_parser("antipode", parents=[capped], help="apply the antipode series")
    p.add_argument("--expr", "-e", required=True, help="element expression")

    p = sub.add_parser("multiply", parents=[common], help="multiply two elements")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = sub.add_parser("prelie", parents=[common], help="pre-Lie product lhs |> rhs")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = sub.add_parser("bracket", parents=[common], help="Lie bracket [lhs, rhs]")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    route = p.add_mutually_exclusive_group()
    route.add_argument(
        "--closed-form", action="store_true",
        help="use the sign-condition closed form (matrix basis pairs)",
    )
    route.add_argument(
        "--table", action="store_true",
        help="use the five-case table (matrix basis pairs)",
    )

    p = sub.add_parser("verify", parents=[capped], help="run a verification suite")
    p.add_argument(
        "--max-len", type=_count_arg, default=6,
        help="bound for word-length / exponent sweeps (default 6)",
    )
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"seed for random-matrix checks (default {DEFAULT_SEED})",
    )
    p.add_argument("--suite", required=True, help="one of: " + ", ".join(SUITE_NAMES))
    return parser


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
        return coproduct_from_r(base, parse_tensor(parts[2], base), weight, selector=selector)
    raise ValueError(f"unknown algebra selector {selector!r}")


def _positive_int(text, what):
    # ASCII digits only: int() also reads "+2", " 2", "1_6" and other scripts' digits
    try:
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise ValueError
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def _matrix_dimension(text):
    n = _positive_int(text, "matrix dimension")
    if n * n > MAX_TERMS:
        raise ValueError(
            f"matrix dimension must be at most {isqrt(MAX_TERMS)}, so that its basis "
            f"stays within {MAX_TERMS} terms; got {n}"
        )
    return n


def _count_arg(text):
    """argparse type of --cap and --max-len: a bound below 1 would check nothing."""
    try:
        return _positive_int(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
        return antipode(algebra, parse_expression(args.expr, algebra), args.cap)
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


def _verify(args, algebra):
    from .verify import run_verify

    passed, outcomes = run_verify(
        args.suite, algebra, max_len=args.max_len, cap=args.cap, seed=args.seed
    )
    if args.json:
        payload = {
            "algebra": algebra.selector,
            "suites": [
                {
                    "suite": o.suite,
                    "status": o.status,
                    "detail": o.detail,
                    "checked": o.checked,
                    "evaluated": o.evaluated,
                    "witness": str(o.failure.witness)
                    if o.failure is not None and o.failure.witness is not None
                    else None,
                }
                for o in outcomes
            ],
            "passed": passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for outcome in outcomes:
            print(outcome.line())
        print("result: " + ("ok" if passed else "LAW VIOLATION"))
    return 0 if passed else 1


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
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        algebra = build_algebra(args.algebra, args.weight)
        if args.command == "verify":
            return _verify(args, algebra)
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
