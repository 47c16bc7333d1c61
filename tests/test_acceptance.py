"""Acceptance gate: each test is one exit criterion, checked exactly.

Every criterion prints one ``ACCEPTANCE <n> PASS/FAIL`` line (visible under
``pytest -s``) and enforces its stated runtime bound; all equalities are
exact in Q[L].  Run just this module with ``pytest tests/test_acceptance.py -v``.
"""

import contextlib
import io
import itertools
import random
import time

import pytest

from epsbialg import (
    Element,
    EMatrix,
    LAMBDA,
    MINUS_ONE,
    LSquareNotZero,
    MatrixKind,
    NotNilpotentWithinCap,
    UnivarMonomial,
    Word,
    antipode,
    antipode_endo,
    check_antipode_axiom,
    check_antipode_properties,
    check_coassoc,
    check_cocycle,
    check_jacobi,
    check_left_representation,
    check_prelie_identity,
    classical_comatrix_algebra,
    classical_comatrix_coproduct,
    commutator_bracket,
    coproduct_from_r,
    d_map,
    deconcat_algebra,
    emit,
    l_coproduct_instance,
    matrix_algebra,
    matrix_bracket_closed_form,
    matrix_bracket_table,
    newtonian_coproduct,
    parse_expression,
    parse_value,
    prelie_product,
    subword,
    tensor,
    univar_algebra,
    word_algebra,
)
from epsbialg.cli import build_algebra, main
from epsbialg.prelie import bilinear_from_pairs
from epsbialg.verify import run_suite, run_verify

from expression_corpus import CORPUS
from support import (
    counit_contract_left,
    counit_contract_right,
    nilpotency_index,
    random_integer_matrix,
)


@contextlib.contextmanager
def criterion(number, description, bound_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < bound_seconds, (
        f"criterion {number} exceeded its {bound_seconds}s budget: {elapsed:.1f}s"
    )
    print(
        f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s < {bound_seconds:g}s)"
    )


def test_criterion_1_worked_examples():
    with criterion(1, "golden worked examples reproduce exactly", 1.0):
        m2 = matrix_algebra(2)
        e = lambda s: parse_expression(s, m2)
        m = e("E[1,1] + E[2,1]")
        n = e("E[1,2] + E[2,2]")
        e21, e11, e22 = e("E[2,1]"), e("E[1,1]"), e("E[2,2]")

        assert m2.coproduct(m) == tensor(e21, e21).scale(-1)
        assert m2.coproduct(n) == tensor(e11, e22)

        triple = tensor(tensor(e21, e21), e21)
        assert m2._expand_leg(m2.coproduct(m), 0) == triple
        assert m2._expand_leg(m2.coproduct(m), 1) == triple
        assert m2._expand_leg(m2.coproduct(n), 0).is_zero()
        assert m2._expand_leg(m2.coproduct(n), 1).is_zero()

        from epsbialg import act_left, act_right

        display = act_right(m2.coproduct(m), n) + act_left(m, m2.coproduct(n))
        assert display == tensor(e11, e22) == m2.coproduct(m * n)

        w = word_algebra("xy")
        we = lambda s: parse_expression(s, w)
        x, y, xy, yxy = we("x"), we("y"), we("x*y"), we("y*x*y")
        assert w.coproduct(xy) == tensor(xy, y) + tensor(x, xy) + tensor(x, y).scale(LAMBDA)
        assert w.coproduct(yxy) == (
            tensor(yxy, y) + tensor(we("y*x"), xy) + tensor(y, yxy)
            + (tensor(we("y*x"), y) + tensor(y, xy)).scale(LAMBDA)
        )
        big = w.coproduct(xy * yxy)
        assert len(big.terms) == 9
        assert big == (
            tensor(x, we("x*y*y*x*y")) + tensor(xy, we("y*y*x*y"))
            + tensor(we("x*y*y"), yxy) + tensor(we("x*y*y*x"), xy)
            + tensor(we("x*y*y*x*y"), y)
            + (
                tensor(x, we("y*y*x*y")) + tensor(xy, yxy)
                + tensor(we("x*y*y"), xy) + tensor(we("x*y*y*x"), y)
            ).scale(LAMBDA)
        )

        word = Word((0, 0, 1, 0, 1))  # xxyxy
        assert subword(word, 1, 4) == Word((0, 0, 1, 0))
        assert subword(word, 3, 3) == Word((1,))
        assert subword(word, 2, 3) == Word((0, 1))

        assert commutator_bracket(m2, m, n) == e21
        assert bilinear_from_pairs(m, n, matrix_bracket_table) == e21
        assert bilinear_from_pairs(m, n, matrix_bracket_closed_form) == e21
        assert prelie_product(m2, m, n) - prelie_product(m2, n, m) == e21

        umbrella = run_suite("paper-examples", m2)
        assert umbrella.status == "pass", umbrella.detail


def test_criterion_2_matrix_laws_desk_scale():
    with criterion(2, "telescoping instance laws for n in {2,3,4,5}", 30.0):
        for n in (2, 3, 4, 5):
            A = matrix_algebra(n)
            keys = list(A.basis_keys())
            assert len(keys) == n * n
            for key in keys:
                assert check_coassoc(A, key).passed, key
            pairs = 0
            for p in keys:
                for q in keys:
                    assert check_cocycle(A, p, q).passed, (p, q)
                    pairs += 1
            assert pairs == n**4


def test_criterion_3_antipode():
    with criterion(3, "D vanishes, antipode is -id, axiom and properties hold", 5.0):
        for n in range(2, 7):
            A = matrix_algebra(n)
            s = antipode_endo(A)
            assert s(A.unit) == -A.unit
            for key in A.basis_keys():
                el = A.element(key)
                assert d_map(A, el).is_zero()
                assert nilpotency_index(A, el) == 1
                assert s(el) == -el
                assert antipode(A, s(el)) == el
                assert check_antipode_axiom(A, el).passed
                assert check_antipode_properties(A, el, el).passed
        A3 = matrix_algebra(3)
        for p in A3.basis_keys():
            for q in A3.basis_keys():
                assert check_antipode_properties(A3, A3.element(p), A3.element(q)).passed
        rng = random.Random(12345)
        s3 = antipode_endo(A3)
        previous = None
        for _ in range(100):
            mat = random_integer_matrix(3, rng)
            assert s3(mat) == -mat
            assert antipode(A3, s3(mat)) == mat
            assert check_antipode_axiom(A3, mat).passed
            assert check_antipode_properties(
                A3, mat, previous if previous is not None else mat
            ).passed
            previous = mat


def test_criterion_4_word_laws_desk_scale():
    with criterion(4, "weighted word laws at generic weight, length <= 6", 1.0):
        W = word_algebra("xy")
        keys = list(W.basis_keys(6))
        assert len(keys) == 127
        for key in keys:
            assert check_coassoc(W, key).passed, key
        pairs = 0
        for p in keys:
            for q in W.basis_keys(6 - len(p)):
                assert check_cocycle(W, p, q).passed, (p, q)
                pairs += 1
        assert pairs == sum((s + 1) * 2**s for s in range(7))


def test_criterion_5_deconcat_and_univar():
    with criterion(5, "deconcatenation (weight -1) and one-variable instances", 5.0):
        D = deconcat_algebra("xy")
        assert D.weight == MINUS_ONE
        keys = list(D.basis_keys(5))
        assert len(keys) == 63
        for key in keys:
            assert check_coassoc(D, key).passed, key
        for p in keys:
            for q in keys:
                assert check_cocycle(D, p, q).passed, (p, q)
        U = univar_algebra()
        for m in range(21):
            for n in range(21 - m):
                assert check_cocycle(U, UnivarMonomial(m), UnivarMonomial(n)).passed, (m, n)
        for n in range(31):
            assert check_coassoc(U, UnivarMonomial(n)).passed, n


def test_criterion_6_prelie_family():
    with criterion(6, "pre-Lie, Jacobi, representation, bracket conformance", 10.0):
        for n, expected in ((3, 729), (4, 4096)):
            A = matrix_algebra(n)
            keys = list(A.basis_keys())
            count = 0
            for p, q, r in itertools.product(keys, repeat=3):
                a, b, c = A.element(p), A.element(q), A.element(r)
                assert check_prelie_identity(A, a, b, c).passed, (p, q, r)
                assert check_jacobi(A, a, b, c).passed, (p, q, r)
                assert check_left_representation(A, a, b, c).passed, (p, q, r)
                count += 1
            assert count == expected
        for n in range(2, 7):
            A = matrix_algebra(n)
            keys = list(A.basis_keys())
            pairs = 0
            for p in keys:
                for q in keys:
                    table = matrix_bracket_table(p, q)
                    assert matrix_bracket_closed_form(p, q) == table, (p, q)
                    assert commutator_bracket(A, A.element(p), A.element(q)).terms == table
                    assert matrix_bracket_table(q, p) == {k: -c for k, c in table.items()}
                    pairs += 1
            assert pairs == n**4
        assert pairs == 1296  # the n = 6 sweep


def test_criterion_7_negative_controls():
    with criterion(7, "negative controls produce their distinct outcomes", 10.0):
        m2 = matrix_algebra(2)
        with pytest.raises(LSquareNotZero):
            l_coproduct_instance(2, parse_expression("E[1,1]", m2))

        r = parse_value("E[1,1] (x) E[1,1]", m2)
        inst = coproduct_from_r(m2, r, 0)
        coassoc_results = [check_coassoc(inst, k) for k in inst.basis_keys()]
        assert any(not rep.passed for rep in coassoc_results)
        failing = next(rep for rep in coassoc_results if not rep.passed)
        assert failing.witness is not None
        for p in inst.basis_keys():
            for q in inst.basis_keys():
                assert check_cocycle(inst, p, q).passed, (p, q)

        W0 = word_algebra("xy", 0)
        with pytest.raises(NotNilpotentWithinCap) as exc:
            antipode(W0, parse_expression("x*y", W0))
        assert (exc.value.cap, exc.value.basis) == (64, None)


def test_criterion_8_classical_contrast():
    with criterion(8, "classical comatrix contrast instance", 10.0):
        for n in (2, 3, 4, 5):
            C = classical_comatrix_algebra(n)
            for key in C.basis_keys():
                assert check_coassoc(C, key).passed, key
                back = Element.from_key(C.kind, key)
                t = C.coproduct(back)
                assert counit_contract_left(t) == back
                assert counit_contract_right(t) == back
        for n in range(2, 7):
            key, kind = EMatrix(1, 2, n), MatrixKind(n)
            assert newtonian_coproduct(key) != classical_comatrix_coproduct(key, kind)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_9_cli_contract():
    with criterion(9, "CLI round trip, exit codes, determinism", 30.0):
        from test_parser import ALGEBRAS

        for selector, text in CORPUS:
            algebra = ALGEBRAS[selector]
            value = parse_value(text, algebra)
            printed = emit(value, "text", algebra)
            assert parse_value(printed, algebra) == value, (selector, text)

        code, out, _ = _run_cli(["verify", "--suite", "all", "--algebra", "matrix:3"])
        assert code == 0
        assert "result: ok" in out

        argv = ["verify", "--suite", "coassoc", "--algebra", "rmatrix:2:E[1,1] (x) E[1,1]:0"]
        code, out, _ = _run_cli(argv)
        assert code == 1
        assert "witness" in out

        for repeated in (
            ["verify", "--suite", "all", "--algebra", "matrix:2"],
            ["coproduct", "--algebra", "matrix:2", "--expr", "[[0,1],[0,1]]", "--json"],
            argv,
        ):
            assert _run_cli(repeated) == _run_cli(repeated)


def test_criterion_10_law_sweeps_scale():
    with criterion(10, "pre-Lie, Jacobi, representation sweeps on M_10", 1.0):
        A = matrix_algebra(10)
        for suite in ("prelie", "jacobi", "representation"):
            assert run_suite(suite, A).line() == f"[PASS] {suite}: 1000000 triples checked"


def test_criterion_11_antipode_suite_scales():
    with criterion(11, "antipode laws on every basis pair of M_10, decided by S = -id", 0.05):
        assert run_suite("antipode", matrix_algebra(10)).line() == "[PASS] antipode: 10400 checks"
    with criterion(11, "antipode laws on every basis pair of M_16, decided by S = -id", 0.2):
        assert run_suite("antipode", matrix_algebra(16)).line() == "[PASS] antipode: 66248 checks"


def test_criterion_15_every_suite_on_m16():
    # cocycle on the generator pairs, the |> table filled from coproduct terms,
    # the bracket on its support and the antipode pairs decided by S = -id
    with criterion(15, "every suite on M_16, no law walking all n^4 pairs", 0.5):
        passed, outcomes = run_verify("all", matrix_algebra(16))
        assert passed
        assert "[PASS] cocycle: 65536 pairs checked" in [o.line() for o in outcomes]


def test_criterion_12_construction_is_constant_and_the_algebra_suite_scales():
    with criterion(12, "matrix:64 construction, the largest the CLI accepts", 0.05):
        build_algebra("matrix:64", None)
    with criterion(12, "unit and associativity on M_16, 16^6 triples", 1.0):
        line = run_suite("algebra", matrix_algebra(16)).line()
        assert line == "[PASS] algebra: 16777216 triples checked"


def test_criterion_13_word_coalgebra_suites_at_length_9():
    with criterion(13, "coassoc and cocycle on words at generic weight, length <= 9", 0.15):
        W = word_algebra("xy")
        assert run_suite("coassoc", W, max_len=9).line() == "[PASS] coassoc: 1023 keys checked"
        assert run_suite("cocycle", W, max_len=9).line() == "[PASS] cocycle: 9217 pairs checked"


def test_criterion_14_letter_blind_word_sweeps_at_length_12():
    with criterion(14, "every suite on word:xy at length <= 12, through the relabel lemma", 0.5):
        passed, outcomes = run_verify("all", word_algebra("xy"), max_len=12)
        lines = [o.line() for o in outcomes]
        assert passed
        assert "[PASS] coassoc: 8191 keys checked" in lines
        assert "[PASS] cocycle: 98305 pairs checked" in lines
