"""Word instances: weighted splitting, deconcatenation, one-variable coproduct."""

import pytest

from epsbialg import (
    Element,
    IndexOutOfRange,
    LAMBDA,
    LambdaPoly,
    UnivarMonomial,
    Word,
    WordKind,
    check_coassoc,
    check_cocycle,
    deconcat_algebra,
    deconcat_coproduct,
    parse_expression,
    subword,
    tensor,
    univar_algebra,
    univar_coproduct,
    weighted_word_coproduct,
    word_algebra,
)
from epsbialg.scalars import MINUS_ONE

W = word_algebra("xy")
KIND = W.kind


def w_el(text, algebra=W):
    return parse_expression(text, algebra)


def test_concat():
    concat = WordKind("xy").key_mul
    assert concat(Word((0, 1)), Word((1, 0, 1))) == Word((0, 1, 1, 0, 1))
    assert concat(Word(()), Word((0,))) == Word((0,))
    assert concat(Word((0,)), Word(())) == Word((0,))


def test_subword_values():
    w = Word((0, 0, 1, 0, 1))  # xxyxy
    assert subword(w, 1, 4) == Word((0, 0, 1, 0))
    assert subword(w, 3, 3) == Word((1,))
    assert subword(w, 2, 3) == Word((0, 1))


def test_subword_shares_endpoints():
    w = Word((0, 1, 1))
    assert KIND.key_mul(subword(w, 1, 2), subword(w, 2, 3)) == Word((0, 1, 1, 1))


@pytest.mark.parametrize("i,j", [(2, 1), (0, 1), (1, 4), (0, 0)])
def test_subword_rejects_bad_ranges(i, j):
    with pytest.raises(IndexOutOfRange):
        subword(Word((0, 1, 0)), i, j)


def test_weighted_coproduct_xy():
    got = weighted_word_coproduct(Word((0, 1)))
    want = (
        tensor(w_el("x*y"), w_el("y"))
        + tensor(w_el("x"), w_el("x*y"))
        + tensor(w_el("x"), w_el("y")).scale(LAMBDA)
    )
    assert got == want.terms


def test_weighted_coproduct_yxy():
    got = weighted_word_coproduct(Word((1, 0, 1)))
    want = (
        tensor(w_el("y*x*y"), w_el("y"))
        + tensor(w_el("y*x"), w_el("x*y"))
        + tensor(w_el("y"), w_el("y*x*y"))
        + (tensor(w_el("y*x"), w_el("y")) + tensor(w_el("y"), w_el("x*y"))).scale(LAMBDA)
    )
    assert got == want.terms


def test_weighted_coproduct_single_letter():
    assert weighted_word_coproduct(Word((0,))) == tensor(w_el("x"), w_el("x")).terms


def test_shared_letter_structure():
    # weight-free part: n terms with leg lengths (i, n-i+1); weight part:
    # n-1 terms with leg lengths summing to n
    for w in KIND.basis_keys(5):
        n = len(w)
        if n == 0:
            continue
        free, weighted = [], []
        for (a, b), c in weighted_word_coproduct(w).items():
            (weighted if isinstance(c, LambdaPoly) else free).append((len(a), len(b)))
        assert len(free) == n
        assert sorted(free) == [(i, n - i + 1) for i in range(1, n + 1)]
        assert len(weighted) == n - 1
        assert all(a + b == n for a, b in weighted)


def test_deconcat_values():
    d = deconcat_algebra("xy")
    one = d.unit
    assert deconcat_coproduct(Word((0,))) == (
        tensor(one, w_el("x")) + tensor(w_el("x"), one)
    ).terms
    assert deconcat_coproduct(Word((0, 1))) == (
        tensor(one, w_el("x*y")) + tensor(w_el("x"), w_el("y")) + tensor(w_el("x*y"), one)
    ).terms
    assert deconcat_coproduct(Word(())) == tensor(one, one).terms


def test_deconcat_weight_is_minus_one():
    d = deconcat_algebra("xy")
    assert d.weight == MINUS_ONE
    # Delta(1) = 1 (x) 1 agrees with the unit rule at weight -1
    assert d.coproduct(d.unit) == tensor(d.unit, d.unit).scale(-d.weight)


def test_univar_values():
    u = univar_algebra()
    one = u.unit
    x = u.element(UnivarMonomial(1))
    assert univar_coproduct(UnivarMonomial(1)) == tensor(one, one).terms
    assert univar_coproduct(UnivarMonomial(2)) == (
        tensor(one, x) + tensor(x, one) + tensor(x, x).scale(LAMBDA)
    ).terms
    assert univar_coproduct(UnivarMonomial(0)) == tensor(one, one).scale(-LAMBDA).terms


def test_single_letter_and_univar_are_different_coalgebras():
    single = word_algebra("x")
    u = univar_algebra()
    word_split = single.basis_coproduct(Word((0,)))
    univar_split = u.basis_coproduct(UnivarMonomial(1))
    # x (x) x versus 1 (x) 1: the legs have different sizes
    ((a, b),) = word_split
    ((c, d),) = univar_split
    assert (len(a), len(b)) == (1, 1)
    assert (c, d) == (0, 0)


def test_word_laws_generic_weight():
    keys = list(KIND.basis_keys(4))
    for key in keys:
        assert check_coassoc(W, key).passed
    for p in keys:
        for q in keys:
            if len(p) + len(q) <= 4:
                assert check_cocycle(W, p, q).passed


def test_word_laws_at_concrete_weights():
    for weight in (0, -1, 2):
        A = word_algebra("xy", weight)
        for key in A.basis_keys(3):
            assert check_coassoc(A, key).passed
        for p in A.basis_keys(3):
            for q in A.basis_keys(3 - len(p)):
                assert check_cocycle(A, p, q).passed


def test_deconcat_laws():
    d = deconcat_algebra("xy")
    keys = list(KIND.basis_keys(4))
    for key in keys:
        assert check_coassoc(d, key).passed
    for p in keys:
        for q in keys:
            assert check_cocycle(d, p, q).passed


def test_univar_laws():
    u = univar_algebra()
    for n in range(12):
        assert check_coassoc(u, UnivarMonomial(n)).passed
    for m in range(9):
        for n in range(9 - m):
            assert check_cocycle(u, UnivarMonomial(m), UnivarMonomial(n)).passed


def test_three_letter_alphabet():
    A = word_algebra(["ax", "by", "cz"])
    keys = list(A.basis_keys(2))
    for key in keys:
        assert check_coassoc(A, key).passed
    assert str(parse_expression("ax*by", A)) == "ax*by"


def test_zero_coproduct_at_element_layer():
    assert W.coproduct(Element.zero(KIND)).is_zero()
