"""Verification suites orchestrating the law checkers.

Each suite sweeps a deterministic, canonically ordered set of inputs and
stops at the first failing law, so a broken instance always reproduces the
same witness.  ``run_verify`` maps a suite name (or ``all``) to outcomes;
the caller turns them into text and an exit status.

The pre-Lie, Jacobi and representation sweeps walk every basis triple in
canonical order but run the checker only where some pair of the triple's
entries touches under |> (``prelie.prelie_support``).  Each term of the
three laws nests a |> of two entries, so on every other triple the law
holds as 0 = 0 by bilinearity; such a triple passes and counts as checked.
Counts and first witnesses are those of the dense walk over every triple,
which is kept as the test oracle ``dense_law_sweep`` in ``tests/support.py``.

Applicability: the antipode and pre-Lie family need weight 0, and the
bracket conformance sweep compares against closed forms specific to the
telescoping matrix instance, so under ``all`` these are skipped (with a
printed reason) wherever they do not apply.  Requesting such a suite
explicitly raises instead, which the CLI reports as a usage error.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .core import (
    AlgebraInstance,
    LawReport,
    antipode,
    antipode_endo,
    check_antipode_axiom,
    check_antipode_properties,
    check_coassoc,
    check_cocycle,
    d_map,
)
from .errors import KindMismatch, NotNilpotentWithinCap, UnknownSuite, WeightNotZero
from .lincomb import Element, EMatrix, MatrixKind, Word, act_left, act_right, tensor
from .matrices import matrix_algebra, matrix_from_rows, random_integer_matrix
from .parser import parse_expression
from .prelie import (
    bilinear_from_pairs,
    check_jacobi,
    check_left_representation,
    check_prelie_identity,
    commutator_bracket,
    matrix_bracket_closed_form,
    matrix_bracket_table,
    prelie_product,
    prelie_support,
)
from .scalars import LAMBDA
from .words import subword, word_algebra

SUITE_NAMES = (
    "coassoc",
    "cocycle",
    "antipode",
    "prelie",
    "jacobi",
    "representation",
    "bracket-closed-form",
    "paper-examples",
    "all",
)

DEFAULT_SEED = 12345


@dataclass
class SuiteOutcome:
    suite: str
    status: str  # "pass" | "fail" | "skip"
    detail: str
    failure: Optional[LawReport] = None

    def line(self) -> str:
        tag = {"pass": "[PASS]", "fail": "[FAIL]", "skip": "[SKIP]"}[self.status]
        text = f"{tag} {self.suite}: {self.detail}"
        if self.failure is not None and self.failure.witness is not None:
            text += f"\n       witness {self.failure.witness}"
        return text


def _passed(suite, detail):
    return SuiteOutcome(suite, "pass", detail)


def _failed(suite, detail, report):
    return SuiteOutcome(suite, "fail", detail, report)


def _skipped(suite, reason):
    return SuiteOutcome(suite, "skip", reason)


# ---------------------------------------------------------------------------
# input enumeration
# ---------------------------------------------------------------------------

def _keys(A: AlgebraInstance, max_len: int):
    return list(A.basis_keys(max_len))


def _cocycle_pairs(A: AlgebraInstance, max_len: int):
    """Ordered basis pairs: all of them for matrices, total-size-bounded otherwise."""
    if A.kind.finite_basis:
        keys = _keys(A, max_len)
        return [(p, q) for p in keys for q in keys]
    pairs = []
    for p in A.basis_keys(max_len):
        for q in A.basis_keys(max_len - A.kind.key_size(p)):
            pairs.append((p, q))
    return pairs


def _triple_keys(A: AlgebraInstance, max_len: int):
    if A.kind.finite_basis:
        return _keys(A, max_len)
    return _keys(A, max(1, max_len // 3))


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _suite_coassoc(A, max_len):
    count = 0
    for key in A.basis_keys(max_len):
        report = check_coassoc(A, key)
        if not report:
            return _failed("coassoc", f"failure after {count} keys", report)
        count += 1
    return _passed("coassoc", f"{count} keys checked")


def _suite_cocycle(A, max_len):
    count = 0
    for p, q in _cocycle_pairs(A, max_len):
        report = check_cocycle(A, p, q)
        if not report:
            return _failed("cocycle", f"failure after {count} pairs", report)
        count += 1
    return _passed("cocycle", f"{count} pairs checked")


def _require_weight_zero(A, suite):
    if not A.weight.is_zero():
        raise WeightNotZero(
            f"suite {suite!r} needs a weight-0 instance, got weight {A.weight}"
        )


def _suite_antipode(A, max_len, cap, seed):
    """The antipode laws; a series that does not truncate is a failure, not an error.

    The series is evaluated on the unit's keys first and then on the swept
    basis keys in canonical order, so the key named is the first of them
    whose series does not truncate, or else a product or coproduct leg of
    swept keys that lies beyond the sweep.
    """
    _require_weight_zero(A, "antipode")
    try:
        return _antipode_sweep(A, max_len, cap, seed)
    except NotNilpotentWithinCap as exc:
        return _failed(
            "antipode",
            f"series of {exc.element} does not truncate within cap {exc.cap}",
            None,
        )


def _antipode_sweep(A, max_len, cap, seed):
    s = antipode_endo(A, cap)
    checks = 0
    if s(A.unit) != -A.unit:
        return _failed(
            "antipode", "S(unit) != -unit",
            LawReport.fail("antipode-unit", ("unit",), s(A.unit) + A.unit),
        )
    keys = _keys(A, max_len)
    d_vanishes = True
    for key in keys:
        e = A.element(key)
        if not d_map(A, e).is_zero():
            d_vanishes = False
        report = check_antipode_axiom(A, e, cap)
        if not report:
            return _failed("antipode", f"axiom failure after {checks} checks", report)
        checks += 1
    if len(keys) ** 2 <= 2500:
        pairs = [(p, q) for p in keys for q in keys]
    else:
        pairs = [(p, p) for p in keys]
    for p, q in pairs:
        report = check_antipode_properties(A, A.element(p), A.element(q), cap)
        if not report:
            return _failed("antipode", f"property failure after {checks} checks", report)
        checks += 1
    if d_vanishes:
        # with D = 0 on the basis the series collapses to S = -id, so the
        # involution S(S(a)) = a is an exact bijectivity witness
        for key in keys:
            e = A.element(key)
            back = antipode(A, s(e), cap)
            if back != e:
                return _failed(
                    "antipode", "S(S(a)) != a",
                    LawReport.fail("antipode-involution", (str(e),), back - e),
                )
            checks += 1
    if isinstance(A.kind, MatrixKind):
        rng = random.Random(seed)
        previous = None
        for _ in range(100):
            m = random_integer_matrix(A.kind.n, rng)
            report = check_antipode_axiom(A, m, cap)
            if not report:
                return _failed("antipode", "axiom failure on a random matrix", report)
            partner = previous if previous is not None else m
            report = check_antipode_properties(A, m, partner, cap)
            if not report:
                return _failed("antipode", "property failure on a random matrix", report)
            if d_vanishes and s(m) != -m:
                return _failed(
                    "antipode", "S != -id on a random matrix",
                    LawReport.fail("antipode-negation", (str(m),), s(m) + m),
                )
            previous = m
            checks += 2
    return _passed("antipode", f"{checks} checks")


def _suite_prelie(A, max_len, which):
    _require_weight_zero(A, which)
    keys = _triple_keys(A, max_len)
    checker = {
        "prelie": check_prelie_identity,
        "jacobi": check_jacobi,
        "representation": check_left_representation,
    }[which]
    elements = [A.element(key) for key in keys]
    touch = prelie_support(A, keys)
    count = 0
    for i, j, k in itertools.product(range(len(keys)), repeat=3):
        if touch[i][j] or touch[j][k] or touch[i][k]:
            report = checker(A, elements[i], elements[j], elements[k])
            if not report:
                return _failed(which, f"failure after {count} triples", report)
        count += 1
    return _passed(which, f"{count} triples checked")


def _suite_bracket_closed_form(A, max_len):
    if not isinstance(A.kind, MatrixKind) or not A.selector.startswith("matrix:"):
        raise KindMismatch(
            "suite 'bracket-closed-form' applies to the telescoping matrix instance only"
        )
    _require_weight_zero(A, "bracket-closed-form")
    keys = _keys(A, max_len)
    count = 0
    for p in keys:
        for q in keys:
            table = matrix_bracket_table(p, q)
            closed = matrix_bracket_closed_form(p, q)
            comm = commutator_bracket(A, A.element(p), A.element(q))
            pair = (A.kind.key_text(p), A.kind.key_text(q))
            if closed != table:
                return _failed(
                    "bracket-closed-form", f"sign form disagrees after {count} pairs",
                    LawReport.fail("bracket-closed-vs-table", pair, closed - table),
                )
            if comm != table:
                return _failed(
                    "bracket-closed-form", f"commutator disagrees after {count} pairs",
                    LawReport.fail("bracket-commutator-vs-table", pair, comm - table),
                )
            if matrix_bracket_table(q, p) != -table:
                return _failed(
                    "bracket-closed-form", f"antisymmetry broken after {count} pairs",
                    LawReport.fail("bracket-antisymmetry", pair, matrix_bracket_table(q, p) + table),
                )
            count += 1
    return _passed("bracket-closed-form", f"{count} pairs checked across 3 code paths")


def _suite_worked_examples(_A, _max_len):
    """Golden worked examples, fixed regardless of the selected algebra."""
    failures = []
    total = 0

    def expect(label, got, want):
        nonlocal total
        total += 1
        if got != want:
            failures.append((label, got, want))

    m2 = matrix_algebra(2)
    k11, k12, k21, k22 = (EMatrix(i, j, 2) for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)))
    e21 = m2.element(k21)
    m = matrix_from_rows([[1, 0], [1, 0]])  # E[1,1] + E[2,1]
    n = matrix_from_rows([[0, 1], [0, 1]])  # E[1,2] + E[2,2]

    expect("coproduct of [[1,0],[1,0]]", m2.coproduct(m), tensor(e21, e21).scale(-1))
    expect(
        "coproduct of [[0,1],[0,1]]",
        m2.coproduct(n),
        tensor(m2.element(k11), m2.element(k22)),
    )
    expect(
        "iterated coproduct of [[1,0],[1,0]]",
        m2.iterated_coproduct(m, 2),
        tensor(tensor(e21, e21), e21),
    )
    expect(
        "iterated coproduct, both expansion orders",
        m2._expand_leg(m2.coproduct(m), 0),
        m2._expand_leg(m2.coproduct(m), 1),
    )
    expect("iterated coproduct of [[0,1],[0,1]]", m2.iterated_coproduct(n, 2).is_zero(), True)
    lhs = act_right(m2.coproduct(m), n) + act_left(m, m2.coproduct(n))
    expect("derivation display", lhs, m2.coproduct(m * n))
    expect("derivation display value", lhs, tensor(m2.element(k11), m2.element(k22)))

    w = word_algebra("xy")
    x = parse_expression("x", w)
    y = parse_expression("y", w)
    xy = parse_expression("x*y", w)
    yx = parse_expression("y*x", w)
    yxy = parse_expression("y*x*y", w)
    expect(
        "word coproduct of xy",
        w.coproduct(xy),
        tensor(xy, y) + tensor(x, xy) + tensor(x, y).scale(LAMBDA),
    )
    expect(
        "word coproduct of yxy",
        w.coproduct(yxy),
        tensor(yxy, y) + tensor(yx, xy) + tensor(y, yxy)
        + (tensor(yx, y) + tensor(y, xy)).scale(LAMBDA),
    )
    w1w2 = xy * yxy
    expect("word product xy.yxy", w1w2, parse_expression("x*y*y*x*y", w))
    xyy = parse_expression("x*y*y", w)
    xyyx = parse_expression("x*y*y*x", w)
    golden = (
        tensor(x, w1w2)
        + tensor(xy, parse_expression("y*y*x*y", w))
        + tensor(xyy, yxy)
        + tensor(xyyx, xy)
        + tensor(w1w2, y)
        + (tensor(x, parse_expression("y*y*x*y", w)) + tensor(xy, yxy)
           + tensor(xyy, xy) + tensor(xyyx, y)).scale(LAMBDA)
    )
    expect("word coproduct of xyyxy", w.coproduct(w1w2), golden)
    expect("word coproduct of xyyxy has 9 terms", len(w.coproduct(w1w2).terms), 9)

    big = Word((0, 0, 1, 0, 1))  # xxyxy
    expect("subword [1,4]", subword(big, 1, 4), Word((0, 0, 1, 0)))
    expect("subword [3,3]", subword(big, 3, 3), Word((1,)))
    expect("subword [2,3]", subword(big, 2, 3), Word((0, 1)))

    e21_single = Element.from_key(m2.kind, k21)
    expect("bracket [M,N] via Sweedler commutator", commutator_bracket(m2, m, n), e21_single)
    expect(
        "bracket [M,N] via case table",
        bilinear_from_pairs(m, n, matrix_bracket_table),
        e21_single,
    )
    expect(
        "bracket [M,N] via sign form",
        bilinear_from_pairs(m, n, matrix_bracket_closed_form),
        e21_single,
    )
    expect(
        "bracket sandwich display",
        prelie_product(m2, m, n) - prelie_product(m2, n, m),
        e21_single,
    )
    expect(
        "bracket [E21,E12]",
        commutator_bracket(m2, e21_single, m2.element(k12)),
        e21_single,
    )

    if failures:
        label, got, want = failures[0]
        return _failed(
            "paper-examples", f"{len(failures)} of {total} golden examples mismatched",
            LawReport.fail(label, (f"got {got}", f"want {want}"), None),
        )
    return _passed("paper-examples", f"{total} golden examples checked")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _applicable(suite, A):
    if suite in ("antipode", "prelie", "jacobi", "representation"):
        if not A.weight.is_zero():
            return f"weight {A.weight} != 0"
    if suite == "bracket-closed-form":
        if not (isinstance(A.kind, MatrixKind) and A.selector.startswith("matrix:")):
            return "telescoping matrix instances only"
    return None


def run_suite(suite, A, max_len=6, cap=64, seed=DEFAULT_SEED):
    if suite == "coassoc":
        return _suite_coassoc(A, max_len)
    if suite == "cocycle":
        return _suite_cocycle(A, max_len)
    if suite == "antipode":
        return _suite_antipode(A, max_len, cap, seed)
    if suite in ("prelie", "jacobi", "representation"):
        return _suite_prelie(A, max_len, suite)
    if suite == "bracket-closed-form":
        return _suite_bracket_closed_form(A, max_len)
    if suite == "paper-examples":
        return _suite_worked_examples(A, max_len)
    raise UnknownSuite(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")


def run_verify(suite, A, max_len=6, cap=64, seed=DEFAULT_SEED):
    """Run one suite (or ``all``); returns (passed, [SuiteOutcome])."""
    if suite == "all":
        outcomes = []
        for name in SUITE_NAMES[:-1]:
            reason = _applicable(name, A)
            if reason is not None:
                outcomes.append(_skipped(name, reason))
                continue
            outcomes.append(run_suite(name, A, max_len=max_len, cap=cap, seed=seed))
        return all(o.status != "fail" for o in outcomes), outcomes
    if suite not in SUITE_NAMES:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    outcome = run_suite(suite, A, max_len=max_len, cap=cap, seed=seed)
    return outcome.status != "fail", [outcome]
