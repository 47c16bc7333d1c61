"""Expression grammar, canonical emission, and round-trip guarantees."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epsbialg import (
    DimensionMismatch,
    Element,
    LAMBDA,
    ParseError,
    TensorElement,
    UnknownAtom,
    emit,
    matrix_algebra,
    parse_expression,
    parse_scalar,
    parse_tensor,
    parse_value,
    tensor,
    univar_algebra,
    word_algebra,
)
from epsbialg.cli import main
from epsbialg.parser import monomials
from epsbialg.scalars import MAX_TERMS

from expression_corpus import CORPUS
from support import is_canonical, matrix_elements, word_elements

M2 = matrix_algebra(2)
M3 = matrix_algebra(3)
W = word_algebra("xy")
U = univar_algebra()
ZERO2 = Element.zero(M2.kind)

ALGEBRAS = {
    "matrix:2": M2,
    "matrix:3": M3,
    "word:xy": W,
    "word:x1,x2": word_algebra(["x1", "x2"]),
    "univar": U,
}


def test_parse_worked_matrix_sum():
    got = parse_expression("E[1,1]+E[2,1]", M2)
    assert got == parse_expression("[[1,0],[1,0]]", M2)


def test_parse_word_concatenation():
    got = parse_expression("x*y*y*x*y", W)
    assert [len(k) for k in got.terms] == [5]


def test_parse_scalar_coefficient():
    got = parse_expression("(2*L - 1/3)*E[1,2]", M2)
    ((key, coeff),) = got.terms.items()
    assert coeff == parse_scalar("2*L - 1/3")
    assert key == (1, 2)


def test_parse_unary_minus_and_powers():
    assert parse_expression("-E[1,2]", M2) == parse_expression("0 - E[1,2]", M2)
    assert parse_expression("x^3", W) == parse_expression("x*x*x", W)
    assert parse_expression("E[1,1]^2", M2) == parse_expression("E[1,1]", M2)
    assert parse_expression("x^0", U) == U.unit


def test_parse_scalar_promotion():
    assert parse_expression("1", M2) == M2.unit
    assert parse_expression("2", W) == W.unit.scale(2)
    assert parse_expression("0", M2).is_zero()


def test_parse_identity_matrix_atom():
    assert parse_expression("E", M2) == M2.unit


def test_parse_tensor_expressions():
    got = parse_value("E[1,1] (x) E[2,2] + E[1,2] (x) E[2,1]", M2)
    assert isinstance(got, TensorElement) and got.legs == 2
    e = lambda s: parse_expression(s, M2)
    assert got == tensor(e("E[1,1]"), e("E[2,2]")) + tensor(e("E[1,2]"), e("E[2,1]"))
    three = parse_value("E[1,1] (x) E[1,1] (x) E[2,2]", M2)
    assert three.legs == 3


def test_tensor_separator_vs_parenthesized_letter():
    # operand position: parenthesized letter; operator position: separator
    assert parse_expression("(x)*y", W) == parse_expression("x*y", W)
    t = parse_value("y (x) y", W)
    assert isinstance(t, TensorElement)
    assert t == tensor(parse_expression("y", W), parse_expression("y", W))


def test_parse_tensor_scaling():
    got = parse_value("L * x (x) y", W)
    assert got == tensor(parse_expression("x", W), parse_expression("y", W)).scale(LAMBDA)


def test_parse_expression_rejects_tensor():
    with pytest.raises(ParseError):
        parse_expression("x (x) y", W)


def test_parse_tensor_rejects_element():
    with pytest.raises(ParseError):
        parse_tensor("E[1,1]", M2)
    # A zero value is the zero 2-leg tensor, whose canonical text is ``0``.
    assert parse_tensor("0", M2) == TensorElement.zero(M2.kind, 2)


def test_unknown_atom():
    # each kind names its atoms: a word kind its letters, univar x, M_n E
    for text, algebra, message in (
        ("z + x", W, "unknown letter 'z' in word:xy (at position 0)"),
        ("y", U, "unknown atom 'y' in univar (at position 0)"),
        ("E + x", M2, "unknown atom 'x' in matrix:2 (at position 4)"),
    ):
        with pytest.raises(UnknownAtom) as excinfo:
            parse_expression(text, algebra)
        assert str(excinfo.value) == message


# Element syntax that scalar text (a weight) does not have: the parser run
# without an algebra has no atom but L, no dense rows and no '(x)'.
NOT_SCALARS = ["x", "E", "E[1,1]", "[[1]]", "1 (x) 1"]


@pytest.mark.parametrize("text", NOT_SCALARS)
def test_parse_scalar_rejects_element_syntax(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


@pytest.mark.parametrize("text", NOT_SCALARS)
def test_element_syntax_as_a_weight_exits_2(text):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["coproduct", "-a", "word:xy", "--weight", text, "-e", "x"])
    assert code == 2
    assert err.getvalue().startswith("error: ")


@given(st.one_of(st.text(max_size=20), st.text(alphabet="L0123456789()+-*/^ xE[],", max_size=20)))
@example("2*L - 1/3")
@example("(L+1)^3")
def test_scalar_text_parses_as_the_scaled_unit(text):
    try:
        value = parse_scalar(text)
    except ParseError:
        return
    assert is_canonical(value)
    assert parse_expression(text, W) == W.unit.scale(value)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        parse_expression("E[3,1]", M2)
    with pytest.raises(DimensionMismatch):
        parse_expression("[[1,0,0],[0,1,0],[0,0,1]]", M2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_expression("E[1,1] + ?", M2)
    assert exc.value.position == 9
    with pytest.raises(ParseError):
        parse_expression("E[1,1] E[2,2]", M2)  # juxtaposition is not multiplication
    with pytest.raises(ParseError):
        parse_expression("", M2)


def test_emit_text_examples():
    assert emit(M2.coproduct(parse_expression("E[1,2]", M2))) == "E[1,1] (x) E[2,2]"
    assert emit(parse_expression("0", M2)) == "0"
    assert emit(M2.coproduct(parse_expression("E[1,1]", M2))) == "0"


def test_emit_json_structure():
    value = W.coproduct(parse_expression("x*y", W))
    payload = json.loads(emit(value, "json", W))
    assert payload["algebra"] == "word:xy"
    assert payload["weight"] == "L"
    assert len(payload["terms"]) == 3
    degrees = sorted(deg for term in payload["terms"] for deg, _ in term["coeff"]["poly"])
    assert degrees == [0, 0, 1]
    assert all(len(term["legs"]) == 2 for term in payload["terms"])


def test_emit_json_term_order_is_canonical():
    value = W.coproduct(parse_expression("x*y", W))
    payload = json.loads(emit(value, "json", W))
    assert [term["legs"] for term in payload["terms"]] == [
        ["x", "y"],
        ["x", "x*y"],
        ["x*y", "y"],
    ]


def test_corpus_round_trip():
    for selector, text in CORPUS:
        algebra = ALGEBRAS[selector]
        value = parse_value(text, algebra)
        printed = emit(value, "text", algebra)
        assert parse_value(printed, algebra) == value, (selector, text, printed)
        assert emit(parse_value(printed, algebra), "text", algebra) == printed


@given(matrix_elements(3))
def test_random_matrix_elements_round_trip(v):
    assert parse_value(str(v), M3) == v


@given(word_elements())
def test_random_word_elements_round_trip(v):
    assert parse_value(str(v), W) == v


def _left_to_right_power(v, n, algebra):
    out = algebra.unit
    for _ in range(n):
        out = out * v
    return out


def _power_pairs_past_the_bound(v, n, algebra):
    """Whether a product of the parser's square-and-multiply schedule for
    v^n pairs more than MAX_TERMS monomials, which it refuses."""
    out = algebra.unit
    while n:
        if n & 1:
            if monomials(out) * monomials(v) > MAX_TERMS:
                return True
            out = out * v
        n >>= 1
        if n:
            if monomials(v) ** 2 > MAX_TERMS:
                return True
            v = v * v
    return False


@given(matrix_elements(3), st.integers(min_value=0, max_value=12))
@example(parse_value("(1+L)*E[1,1] + (1+L^3)*E[2,1] + (1+L+L^3)*E[1,2]", M3), 12)
def test_matrix_power_equals_left_to_right_product(v, n):
    # a power is the left-to-right product unless the parser's term-pair bound
    # refuses a step of its schedule
    if _power_pairs_past_the_bound(v, n, M3):
        with pytest.raises(ParseError, match=f"exceeds the limit of {MAX_TERMS} term pairs"):
            parse_value(f"({v})^{n}", M3)
    else:
        assert parse_value(f"({v})^{n}", M3) == _left_to_right_power(v, n, M3)


@given(word_elements(max_len=2, max_terms=2), st.integers(min_value=0, max_value=5))
def test_word_power_equals_left_to_right_product(v, n):
    assert parse_value(f"({v})^{n}", W) == _left_to_right_power(v, n, W)


@given(matrix_elements(2), matrix_elements(2))
@example(ZERO2, ZERO2)
@example(ZERO2, M2.unit)
@example(M2.unit, ZERO2)
def test_random_tensors_round_trip(a, b):
    # parse_tensor, not parse_value: a zero tensor prints as the bare scalar
    # ``0``, which parse_value reads as an element.
    t = tensor(a, b)
    assert parse_tensor(str(t), M2) == t


def test_emit_deterministic():
    value = M3.coproduct(parse_expression("E[1,3] + 2 * E[3,1]", M3))
    assert emit(value, "json", M3) == emit(value, "json", M3)
    assert emit(value) == emit(value)
