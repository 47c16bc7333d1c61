"""Matrix instances: telescoping coproduct, classical contrast, L-coproduct."""

import pytest

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
from epsbialg import KindMismatch, TensorElement, matrices
from epsbialg.scalars import ONE, ZERO

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
    assert newtonian_coproduct((1, 2), M2.kind) == tensor(e(1, 1), e(2, 2))
    assert newtonian_coproduct((2, 1), M2.kind) == tensor(e(2, 1), e(2, 1)).scale(-1)
    assert newtonian_coproduct((3, 3), MatrixKind(3)).is_zero()


def test_telescoping_coproduct_long_range():
    got = newtonian_coproduct((1, 3), MatrixKind(3))
    want = tensor(e(1, 1, 3), e(2, 3, 3)) + tensor(e(1, 2, 3), e(3, 3, 3))
    assert got == want


def test_antisymmetric_index_pattern():
    # the i > j branch mirrors the i < j sum with a global sign, term by term
    for n in range(2, 6):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                got = newtonian_coproduct((j, i), MatrixKind(n))
                want_terms = {}
                for s in range(i, j):
                    want_terms[((j, s), (s + 1, i))] = -ONE
                assert got.terms == want_terms


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
    assert got == tensor(e(1, 1), e(1, 2)) + tensor(e(1, 2), e(2, 2))
    assert classical_counit((1, 1)) == ONE
    assert classical_counit((1, 2)) == ZERO


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_classical_instance_coassociative_and_counital(n):
    C = classical_comatrix_algebra(n)
    for key in C.basis_keys():
        assert check_coassoc(C, key).passed
        t = C.basis_coproduct(key)
        back = Element.from_key(C.kind, key)
        assert counit_contract_left(t) == back
        assert counit_contract_right(t) == back


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_telescoping_differs_from_classical(n):
    key, kind = EMatrix(1, 2, n), MatrixKind(n)
    assert newtonian_coproduct(key, kind) != classical_comatrix_coproduct(key, kind)


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


def test_l_coproduct_identity_check_raises(monkeypatch):
    # a real check, not an assert that python -O strips: break the right
    # action it compares against and construction must name the first key
    monkeypatch.setattr(matrices, "act_right", lambda t, a: TensorElement.zero(t.kind))
    A = matrix_algebra(2)
    with pytest.raises(KindMismatch, match=r"at E\[2,1\]$"):
        l_coproduct_instance(2, parse_expression("E[1,2]", A))


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
