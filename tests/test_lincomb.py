"""Linear combinations, tensors, and the bimodule actions on the tensor square."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsbialg import (
    AlphabetMismatch,
    DimensionMismatch,
    Element,
    EMatrix,
    KindMismatch,
    LAMBDA,
    MatrixKind,
    MINUS_ONE,
    ONE,
    TensorElement,
    UnivarKind,
    UnivarMonomial,
    Word,
    WordKind,
    act_left,
    act_right,
    bilinear_extend,
    linear_extend,
    matrix_algebra,
    parse_expression,
    parse_tensor,
    tensor,
    univar_algebra,
    word_algebra,
)
from epsbialg.scalars import LambdaPoly

from support import (
    dense_from_element,
    dense_mul,
    element_from_dense,
    lambda_polys,
    linear_map_cases,
    matrix_elements,
    nonzero_polys,
    termwise_oracle,
    univar_elements,
    word_elements,
)

M2 = MatrixKind(2)
M3 = MatrixKind(3)
WXY = WordKind("xy")


def e(i, j, n=2):
    return Element.from_key(MatrixKind(n), EMatrix(i, j, n))


def w(*letters):
    return Element.from_key(WXY, Word(letters))


def test_fraction_is_a_scalar_operand():
    half = Fraction(1, 2)
    v = e(1, 2) + e(2, 1).scale(3)
    assert v * half == half * v == v.scale(half)
    assert (v * half).terms == {(1, 2): half, (2, 1): Fraction(3, 2)}
    t = tensor(e(1, 1), v)
    assert t * half == half * t == t.scale(half)
    # products that are integral are stored as ints again
    back = (v * half) * 2
    assert back == v and all(type(c) is int for c in back.terms.values())


def test_add_doubles():
    assert e(1, 2) + e(1, 2) == e(1, 2).scale(2)


def test_add_cancels_tensor():
    t = tensor(w(0), w(1))
    assert (t + t.scale(-1)).is_zero()


def test_add_collects_lambda():
    t = tensor(e(1, 1), e(2, 2))
    assert t + t.scale(LAMBDA) == t.scale(ONE + LAMBDA)


def test_scale_by_zero():
    assert (e(1, 2) + e(2, 1)).scale(0).is_zero()


def test_scale_by_lambda():
    t = tensor(w(0), w(1))
    assert t.scale(LAMBDA).terms == {(Word((0,)), Word((1,))): LAMBDA}


def test_scale_involution():
    v = e(1, 2) + e(2, 1).scale(3)
    assert v.scale(MINUS_ONE).scale(MINUS_ONE) == v


def test_tensor_bilinearity_left():
    got = tensor(e(1, 1) + e(2, 1), e(2, 2))
    assert got == tensor(e(1, 1), e(2, 2)) + tensor(e(2, 1), e(2, 2))


def test_tensor_of_zero():
    assert tensor(Element.zero(M2), e(1, 1)).is_zero()


def test_tensor_scalar_pullthrough():
    assert tensor(w(0).scale(2), w(1).scale(3)) == tensor(w(0), w(1)).scale(6)


def test_act_left_delta_rule():
    # E[1,2] . (E[2,2] (x) E[3,3]) = E[1,2] (x) E[3,3], by E12 E22 = E12
    t = tensor(e(2, 2, 3), e(3, 3, 3))
    assert act_left(e(1, 2, 3), t) == tensor(e(1, 2, 3), e(3, 3, 3))


def test_act_left_unit():
    unit = Element(M2, M2.unit_terms())
    t = tensor(e(1, 2), e(2, 1)) + tensor(e(1, 1), e(2, 2)).scale(LAMBDA)
    assert act_left(unit, t) == t


def test_act_left_concatenates():
    assert act_left(w(0), tensor(w(1), w(1))) == tensor(w(0, 1), w(1))


def test_act_right_delta_rule():
    # (E[1,1] (x) E[1,2]) . E[2,2] = E[1,1] (x) E[1,2]
    t = tensor(e(1, 1), e(1, 2))
    assert act_right(t, e(2, 2)) == t


def test_act_right_unit():
    unit = Element(WXY, WXY.unit_terms())
    t = tensor(w(0), w(0, 1))
    assert act_right(t, unit) == t


def test_act_right_concatenates():
    assert act_right(tensor(w(0), w(0)), w(1)) == tensor(w(0), w(0, 1))


@given(matrix_elements(2), matrix_elements(2), matrix_elements(2), matrix_elements(2))
def test_bimodule_compatibility(a, b, c, d):
    t = tensor(b, c)
    assert act_right(act_left(a, t), d) == act_left(a, act_right(t, d))


# -- linear_extend, bilinear_extend and the bimodule actions -------------------

LINEAR_MAP_CASES = linear_map_cases()


def _coproduct_rule(A):
    return lambda key: A.basis_coproduct(key).items()


def _key_product_rule(kind):
    key_mul = kind.key_mul
    return lambda p, q: () if (k := key_mul(p, q)) is None else ((k, ONE),)


@pytest.mark.parametrize("case", sorted(LINEAR_MAP_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_linear_extend_is_linear_and_stores_no_zero(case, data):
    A, elements = LINEAR_MAP_CASES[case]
    a, b = data.draw(elements, label="a"), data.draw(elements, label="b")
    c = data.draw(lambda_polys, label="c")

    def extend(v):
        out = linear_extend(v.terms, _coproduct_rule(A))
        assert all(out.values())
        return TensorElement._make(A.kind, 2, out)

    assert extend(a + b) == extend(a) + extend(b)
    assert extend(a.scale(c)) == extend(a).scale(c)
    basis_tensor = lambda key: TensorElement(A.kind, 2, A.basis_coproduct(key))
    assert extend(a) == termwise_oracle(a, basis_tensor, TensorElement.zero(A.kind))
    # the product, as the bilinear extension of the key product
    product = bilinear_extend(a.terms, b.terms, _key_product_rule(A.kind))
    assert all(product.values())
    assert product == (a * b).terms


def test_linear_extend_drops_images_that_cancel_across_keys():
    # at weight 0, Delta_r(1) = 1.r - r.1 = 0 although the unit's diagonal keys
    # can have nonzero images: those images cancel in the sum
    cancelled = 0
    for name, (A, _) in LINEAR_MAP_CASES.items():
        if name.startswith("rmatrix"):
            assert linear_extend(A.unit.terms, _coproduct_rule(A)) == {}
            cancelled += any(A.basis_coproduct(key) for key in A.unit.terms)
    assert cancelled


@pytest.mark.parametrize("case", sorted(LINEAR_MAP_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bimodule_actions_match_the_termwise_oracle(case, data):
    A, elements = LINEAR_MAP_CASES[case]
    a, b, c = (data.draw(elements, label=name) for name in "abc")
    t = tensor(b, c) + A.coproduct(a)
    e, zero = A.element, TensorElement.zero(A.kind)
    assert act_left(a, t) == termwise_oracle(t, lambda k: tensor(a * e(k[0]), e(k[1])), zero)
    assert act_right(t, a) == termwise_oracle(t, lambda k: tensor(e(k[0]), e(k[1]) * a), zero)


def matrix_operands(n):
    """Single-term, sparse and dense elements of M_n, so that the row index
    meets empty, partial and full buckets."""
    kind = MatrixKind(n)
    keys = [EMatrix(i, j, n) for i in range(1, n + 1) for j in range(1, n + 1)]
    single = st.tuples(st.sampled_from(keys), nonzero_polys).map(
        lambda kc: Element(kind, {kc[0]: kc[1]})
    )
    entries = st.integers(min_value=-9, max_value=8).map(lambda v: v if v < 0 else v + 1)
    dense = st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda cs: Element(kind, dict(zip(keys, cs)))
    )
    return st.one_of(single, matrix_elements(n, max_terms=n + 1), dense)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_matches_dense_oracle(data):
    for n in range(1, 7):
        a = data.draw(matrix_operands(n), label=f"a{n}")
        b = data.draw(matrix_operands(n), label=f"b{n}")
        want = element_from_dense(dense_mul(dense_from_element(a, n), dense_from_element(b, n)))
        assert a * b == want


@given(matrix_elements(2), matrix_elements(2), matrix_elements(2))
def test_tensor_bilinear_in_each_slot(a, b, c):
    assert tensor(a + b, c) == tensor(a, c) + tensor(b, c)
    assert tensor(c, a + b) == tensor(c, a) + tensor(c, b)
    assert tensor(a.scale(LAMBDA), b) == tensor(a, b).scale(LAMBDA)


def test_kind_mismatch_dimensions():
    with pytest.raises(DimensionMismatch, match=r"^mixed matrix dimensions 2 and 3$"):
        e(1, 1, 2) + e(1, 1, 3)


def test_kind_mismatch_alphabets():
    other = Element.from_key(WordKind("ab"), Word((0,)))
    with pytest.raises(AlphabetMismatch, match=r"^mixed alphabets \('x', 'y'\) and \('a', 'b'\)$"):
        w(0) + other


def test_kind_mismatch_cross_family():
    with pytest.raises(KindMismatch, match=r"^mixed algebra kinds word:xy and matrix:2$"):
        w(0) + e(1, 1)
    with pytest.raises(KindMismatch, match=r"^mixed algebra kinds univar and word:xy$"):
        Element.from_key(UnivarKind(), 1) + w(0)


def test_leg_count_mismatch():
    two = tensor(e(1, 1), e(2, 2))
    three = tensor(two, e(1, 2))
    with pytest.raises(KindMismatch):
        two + three


def test_tensor_needs_two_legs():
    with pytest.raises(KindMismatch):
        TensorElement(M2, 1, {})


def test_keys_validated_on_construction():
    with pytest.raises(DimensionMismatch):
        EMatrix(3, 1, 2)
    with pytest.raises(ValueError):
        UnivarMonomial(-1)
    with pytest.raises(KindMismatch):
        Element(M2, {Word((0,)): ONE})


U = UnivarKind()


@pytest.mark.parametrize("kind,key", [
    (M2, (0, 1)), (M2, (3, 1)), (M2, (1, 3)), (M2, (1,)), (M2, (1, 2, 1)), (M2, 1),
    (M2, [1, 2]), (M2, (1.0, 2)), (M2, (True, 1)), (M2, "E[1,2]"),
    (WXY, (2,)), (WXY, (0, -1)), (WXY, [0, 1]), (WXY, (0.0,)), (WXY, 0), (WXY, "xy"),
    (WXY, ()), (WXY, (0, 1)), (WXY, Word((2,))), (WXY, Word((0, 1, 2))),
    (U, -1), (U, 1.0), (U, True), (U, (1,)), (U, "x"),
], ids=repr)
def test_validate_key_rejects_wrong_shape_type_and_range(kind, key):
    with pytest.raises(KindMismatch):
        kind.validate_key(key)


def test_validate_key_accepts_plain_keys():
    plain = (
        (M2, (1, 1)), (M2, (2, 1)), (M3, (3, 3)), (WXY, Word(())), (WXY, Word((1, 0))),
        (U, 0), (U, 7),
    )
    for kind, key in plain:
        kind.validate_key(key)
        assert Element.from_key(kind, key).terms == {key: ONE}


def test_no_zero_coefficients_stored():
    v = Element(M2, {EMatrix(1, 1, 2): LambdaPoly()})
    assert v.is_zero()
    assert (e(1, 1) - e(1, 1)).terms == {}


def test_canonical_term_order():
    v = e(2, 1) + e(1, 2) + e(1, 1)
    assert [k for k, _ in v.sorted_terms()] == [(1, 1), (1, 2), (2, 1)]
    words = w(1) + w(0, 0) + w() + w(0)
    assert [k for k, _ in words.sorted_terms()] == [Word(ls) for ls in ((), (0,), (1,), (0, 0))]


# Reference orders, enumerated here: matrices row-major, words by length then
# letters in alphabet order (x1 < x2 < x10, which is not their text order),
# monomials by exponent.  A key's rank is its place in the enumeration.
_WORD_RANKS = {Word(letters): r for r, letters in enumerate(
    letters for length in range(5) for letters in itertools.product(range(3), repeat=length)
)}
_REFERENCE_RANKS = {
    "matrix:3": {key: r for r, key in enumerate(
        (i, j) for i in range(1, 4) for j in range(1, 4)
    )},
    "word:xyz": _WORD_RANKS,
    "word:x1,x2,x10": _WORD_RANKS,
    "univar": {key: r for r, key in enumerate(range(13))},
}
_ORDERED_ELEMENTS = {
    "matrix:3": matrix_elements(3, max_terms=8),
    "word:xyz": word_elements("xyz", max_len=4, max_terms=8),
    "word:x1,x2,x10": word_elements(["x1", "x2", "x10"], max_len=4, max_terms=8),
    "univar": univar_elements(max_degree=12, max_terms=8),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("selector", sorted(_ORDERED_ELEMENTS))
def test_sorted_terms_follow_the_reference_order(selector, data):
    rank = _REFERENCE_RANKS[selector]
    u = data.draw(_ORDERED_ELEMENTS[selector], label="u")
    v = data.draw(_ORDERED_ELEMENTS[selector], label="v")
    ranks = [rank[k] for k, _ in u.sorted_terms()]
    assert ranks == sorted(ranks) and len(ranks) == len(u.terms)
    if u.terms and v.terms:
        pairs = [(rank[a], rank[b]) for (a, b), _ in tensor(u, v).sorted_terms()]
        assert pairs == sorted(pairs) and len(pairs) == len(u.terms) * len(v.terms)


def test_text_forms():
    assert str(e(1, 2).scale(2)) == "2 * E[1,2]"
    assert str(tensor(e(2, 1), e(2, 1)).scale(-1)) == "-E[2,1] (x) E[2,1]"
    assert str(Element.zero(M2)) == "0"
    assert str(w(0, 1)) == "x*y"
    assert str(Element(WXY, WXY.unit_terms())) == "1"



# -- what Element and TensorElement share, on every kind ----------------------

_SHARED_CASES = {
    "matrix:2": (matrix_algebra(2), matrix_elements(2)),
    "word:xy": (word_algebra("xy"), word_elements()),
    "univar": (univar_algebra(), univar_elements()),
}


def _combinations(elements, legs):
    """Elements, or 2-leg tensors a (x) b + c (x) d of them."""
    if legs == 1:
        return elements
    return st.tuples(elements, elements, elements, elements).map(
        lambda t: tensor(t[0], t[1]) + tensor(t[2], t[3])
    )


@pytest.mark.parametrize("legs", [1, 2])
@pytest.mark.parametrize("case", sorted(_SHARED_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_behaviour_of_elements_and_tensors(case, legs, data):
    A, elements = _SHARED_CASES[case]
    a = data.draw(_combinations(elements, legs), label="a")
    b = data.draw(_combinations(elements, legs), label="b")
    # equal values, built in another term order or another way, hash equal
    terms = dict(reversed(a.terms.items()))
    rebuilt = Element(A.kind, terms) if legs == 1 else TensorElement(A.kind, legs, terms)
    for same in (rebuilt, a + b - b, -(-a)):
        assert (same, hash(same)) == (a, hash(a))
    assert a - b == a + (-b)
    zero = a.scale(0)
    assert (type(zero), zero.legs, zero.is_zero()) == (type(a), legs, True)
    name, legs_text = ("Element", "") if legs == 1 else ("TensorElement", " legs=2")
    assert repr(a) == f"<{name} {A.selector}{legs_text}: {a}>"
    parse = parse_expression if legs == 1 else parse_tensor
    assert parse(str(a), A) == a


def test_word_alphabet_rejects_reserved_names():
    with pytest.raises(ValueError):
        WordKind(["x", "L"])
    with pytest.raises(ValueError):
        WordKind(["lambda"])
    with pytest.raises(ValueError):
        WordKind(["x", "x"])
