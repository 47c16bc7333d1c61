"""Matrix instances: telescoping coproduct, classical contrast, L-coproduct."""

import pytest
from hypothesis import given, settings

from epsbialg import (
    DimensionMismatch,
    Element,
    EMatrix,
    LSquareNotZero,
    MatrixKind,
    check_coassoc,
    check_cocycle,
    classical_comatrix_algebra,
    classical_comatrix_coproduct,
    classical_counit,
    coproduct_from_r,
    counit_contract_left,
    counit_contract_right,
    l_coproduct_instance,
    matrix_algebra,
    matrix_from_rows,
    newtonian_coproduct,
    parse_expression,
    sgn,
    tensor,
)
from epsbialg.scalars import ONE, ZERO

from support import matrix_elements, termwise_oracle

M2 = matrix_algebra(2)


def e(i, j, n=2):
    return Element.from_key(MatrixKind(n), EMatrix(i, j, n))


def test_sgn():
    assert sgn(3) == 1
    assert sgn(0) == 0
    assert sgn(-2) == -1


def test_elementary_product():
    assert e(1, 2) * e(2, 2) == e(1, 2)
    assert (e(2, 2) * e(1, 2)).is_zero()
    assert e(1, 1) * e(1, 1) == e(1, 1)


def test_telescoping_coproduct_cases():
    assert newtonian_coproduct((1, 2)) == tensor(e(1, 1), e(2, 2)).terms
    assert newtonian_coproduct((2, 1)) == tensor(e(2, 1), e(2, 1)).scale(-1).terms
    assert newtonian_coproduct((3, 3)) == {}


def test_telescoping_coproduct_long_range():
    got = newtonian_coproduct((1, 3))
    want = tensor(e(1, 1, 3), e(2, 3, 3)) + tensor(e(1, 2, 3), e(3, 3, 3))
    assert got == want.terms


def test_antisymmetric_index_pattern():
    # the i > j branch mirrors the i < j sum with a global sign, term by term
    for n in range(2, 6):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                got = newtonian_coproduct((j, i))
                want_terms = {}
                for s in range(i, j):
                    want_terms[((j, s), (s + 1, i))] = -ONE
                assert got == want_terms


def test_case_pattern_coverage_at_n4():
    # the pair sweep at n = 4 exercises every branch of the derivation-law
    # case analysis: j != k, and for j = k the order patterns of i, j, l
    A = matrix_algebra(4)
    keys = list(A.basis_keys())
    seen = {"jk": 0, "i<=j<=l": 0, "j<i<=l": 0, "i<=l<j": 0, "i>l": 0}
    for p in keys:
        for q in keys:
            (i, j), (k, l) = p, q
            if j != k:
                pattern = "jk"
            elif i <= l:
                if i <= j <= l:
                    pattern = "i<=j<=l"
                elif j < i <= l:
                    pattern = "j<i<=l"
                else:
                    pattern = "i<=l<j"
            else:
                pattern = "i>l"
            if seen[pattern] == 0:
                assert check_cocycle(A, p, q).passed, (p, q)
            seen[pattern] += 1
    assert all(count > 0 for count in seen.values())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weight_zero_laws_hold(n):
    A = matrix_algebra(n)
    keys = list(A.basis_keys())
    assert A.weight == ZERO
    for key in keys:
        assert check_coassoc(A, key).passed
    for p in keys:
        for q in keys:
            assert check_cocycle(A, p, q).passed


def test_classical_coproduct_and_counit():
    got = classical_comatrix_coproduct((1, 2), M2.kind)
    assert got == (tensor(e(1, 1), e(1, 2)) + tensor(e(1, 2), e(2, 2))).terms
    assert classical_counit((1, 1)) == ONE
    assert classical_counit((1, 2)) == ZERO


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_classical_instance_coassociative_and_counital(n):
    C = classical_comatrix_algebra(n)
    for key in C.basis_keys():
        assert check_coassoc(C, key).passed
        back = Element.from_key(C.kind, key)
        t = C.coproduct(back)
        assert counit_contract_left(t) == back
        assert counit_contract_right(t) == back


@settings(max_examples=30, deadline=None)
@given(matrix_elements(3), matrix_elements(3), matrix_elements(3))
def test_counit_contractions_match_the_termwise_oracle(a, b, c):
    # images that cancel across keys: (E[1,1] - E[2,2]) (x) E[1,2] contracts to 0
    cancelling = tensor(e(1, 1) - e(2, 2), e(1, 2))
    assert counit_contract_left(cancelling).terms == {}
    assert counit_contract_right(tensor(e(1, 2), e(1, 1) - e(2, 2))).terms == {}
    t = tensor(a, b) + tensor(b, c)
    kind, zero = t.kind, Element.zero(t.kind)
    left = termwise_oracle(
        t, lambda k: Element.from_key(kind, k[1]).scale(classical_counit(k[0])), zero
    )
    right = termwise_oracle(
        t, lambda k: Element.from_key(kind, k[0]).scale(classical_counit(k[1])), zero
    )
    assert counit_contract_left(t) == left
    assert counit_contract_right(t) == right


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_telescoping_differs_from_classical(n):
    key, kind = EMatrix(1, 2, n), MatrixKind(n)
    assert newtonian_coproduct(key) != classical_comatrix_coproduct(key, kind)


def test_l_coproduct_examples():
    A = matrix_algebra(2)
    inst = l_coproduct_instance(2, parse_expression("E[1,2]", A))
    assert inst.coproduct(e(2, 1)) == tensor(e(2, 2), e(1, 2)) - tensor(e(1, 2), e(1, 1))
    assert inst.coproduct(e(1, 2)).is_zero()
    assert inst.weight == ZERO


def test_l_coproduct_rejects_non_nilpotent():
    A = matrix_algebra(2)
    with pytest.raises(LSquareNotZero):
        l_coproduct_instance(2, parse_expression("E[1,1]", A))


def _dense_nilpotent(n):
    """The dense L whose every row is (1, -1, 1, ...); L^2 = 0 for even n."""
    return "[[" + "],[".join([",".join(["1", "-1"] * (n // 2))] * n) + "]]"


@pytest.mark.parametrize("n,text", [
    (2, "E[1,2]"),
    (2, _dense_nilpotent(2)),
    (3, "E[1,3]"),
    (3, "L * E[1,3] - 1/2 * E[2,3]"),
    (3, "[[1,1,-1],[0,0,0],[1,1,-1]]"),
    (4, "E[1,3] + E[2,4] - E[1,4]"),
    (4, _dense_nilpotent(4)),
])
def test_l_coproduct_is_the_derived_coproduct_of_l_tensor_l(n, text):
    # the closed form ML (x) L - L (x) LM, key by key, against M.r - r.M, r = L (x) L
    base = matrix_algebra(n)
    L = parse_expression(text, base)
    inst = l_coproduct_instance(n, L)
    derived = coproduct_from_r(base, tensor(L, L), 0)
    nonzero = 0
    for key in inst.basis_keys():
        assert inst.basis_coproduct(key) == derived.basis_coproduct(key), key
        nonzero += bool(inst.basis_coproduct(key))
    assert nonzero


def test_l_coproduct_laws():
    A = matrix_algebra(3)
    inst = l_coproduct_instance(3, parse_expression("E[1,3]", A))
    keys = list(inst.basis_keys())
    for key in keys:
        assert check_coassoc(inst, key).passed
    for p in keys:
        for q in keys:
            assert check_cocycle(inst, p, q).passed


def test_matrix_from_rows():
    assert matrix_from_rows([[1, 0], [1, 0]]) == e(1, 1) + e(2, 1)
    assert matrix_from_rows([[0, 0], [0, 0]]).is_zero()
    assert matrix_from_rows([[2, -3], [4, 5]]) == (
        e(1, 1).scale(2) - e(1, 2).scale(3) + e(2, 1).scale(4) + e(2, 2).scale(5)
    )


def test_matrix_from_rows_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        matrix_from_rows([[1, 0], [1]])
