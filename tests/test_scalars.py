"""The coefficient ring Q[L]: exact arithmetic, specialization, text syntax."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epsbialg import LAMBDA, MINUS_ONE, LambdaPoly, ONE, ZERO, ParseError, parse_scalar, scalar
from epsbialg.scalars import _combined, poly_json, poly_text

from support import is_canonical, lambda_polys, small_fractions, specialize


def test_additive_inverse():
    assert (LAMBDA + ONE) + (-LAMBDA) == ONE


def test_additive_identity():
    p = parse_scalar("2*L - 1/3")
    assert ZERO + p == p


def test_rational_addition():
    half_lambda = LambdaPoly({1: Fraction(1, 2)})
    assert half_lambda + half_lambda == LAMBDA


def test_lambda_square():
    assert LAMBDA * LAMBDA == LambdaPoly({2: Fraction(1)})


def test_multiplicative_identity():
    p = parse_scalar("7*L^3 - L + 4")
    assert ONE * p == p
    assert p * ONE == p


def test_difference_of_squares():
    assert (LAMBDA + ONE) * (LAMBDA - ONE) == LambdaPoly({2: Fraction(1), 0: Fraction(-1)})


def test_specialize_linear():
    assert specialize(LAMBDA + LambdaPoly.const(2), -1) == Fraction(1)


def test_specialize_constant():
    assert specialize(LambdaPoly.const(7), 5) == Fraction(7)


def test_specialize_square():
    assert specialize(LAMBDA * LAMBDA, Fraction(1, 2)) == Fraction(1, 4)


@given(lambda_polys, lambda_polys, lambda_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


@given(lambda_polys, lambda_polys, small_fractions)
def test_specialize_is_a_ring_homomorphism(p, q, v):
    # a sum or product may be a number, which specialize takes as well
    assert specialize(p + q, v) == specialize(p, v) + specialize(q, v)
    assert specialize(p * q, v) == specialize(p, v) * specialize(q, v)


@given(lambda_polys)
def test_normalization_idempotent(p):
    assert LambdaPoly(dict(p.items())) == p
    assert all(q != 0 for _, q in p.items())


@given(lambda_polys)
def test_text_round_trip(p):
    assert parse_scalar(poly_text(p)) == p


def test_canonical_text_forms():
    assert poly_text(parse_scalar("2*L - 1/3")) == "2*L - 1/3"
    assert poly_text(ZERO) == "0"
    assert poly_text(-LAMBDA) == "-L"
    assert poly_text(parse_scalar("L*L")) == "L^2"
    assert poly_text(parse_scalar("lambda")) == "L"
    assert poly_text(parse_scalar("(L+1)*(L-1)")) == "L^2 - 1"


def test_parse_powers_and_signs():
    assert parse_scalar("L^3") == LAMBDA * LAMBDA * LAMBDA
    assert parse_scalar("-L + L") == ZERO
    assert parse_scalar("3/2") == LambdaPoly.const(Fraction(3, 2))


@given(lambda_polys, st.integers(min_value=0, max_value=12))
def test_power_equals_left_to_right_product(p, n):
    want = ONE
    for _ in range(n):
        want = want * p
    assert parse_scalar(f"({poly_text(p)})^{n}") == want


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_scalar("2 + $")
    assert exc.value.position == 4


def test_parse_error_trailing():
    with pytest.raises(ParseError):
        parse_scalar("2 2")


def test_parse_error_zero_denominator():
    with pytest.raises(ParseError):
        parse_scalar("1/0")


def test_parse_error_unknown_symbol():
    with pytest.raises(ParseError):
        parse_scalar("q + 1")


def test_constants_hash_like_their_rationals():
    assert len({ONE, 1}) == 1
    assert len({ZERO, 0, Fraction(0)}) == 1
    assert {LambdaPoly.const(Fraction(-2, 3)): "x"}[Fraction(-2, 3)] == "x"


@given(small_fractions, small_fractions)
def test_equal_constants_hash_equal(p, q):
    values = [LambdaPoly.const(p), LambdaPoly.const(q), p, q, p.numerator // p.denominator]
    for a, b in itertools.product(values, repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a, b)


# -- canonical form: a constant is a number, an integral one an int -----------


def stored(p):
    return dict(p.items())


def test_integral_coefficients_are_stored_as_ints():
    # a constant is an int when integral and a Fraction otherwise
    half = Fraction(1, 2)
    for value, want in (
        (Fraction(-6, 3), -2), (LambdaPoly({0: Fraction(4, 2)}), 2), (LambdaPoly(), 0),
        (True, 1), (half, half), (LambdaPoly.const(half), half),
    ):
        c = scalar(value)
        assert c == want and type(c) is type(want), value
    # a constant LambdaPoly is not canonical, but arithmetic on it returns a number
    const_half = LambdaPoly.const(half)
    assert type(const_half + const_half) is int and const_half + const_half == 1
    assert type(const_half * 4) is int and type(4 * const_half) is int
    assert type(LambdaPoly.const(Fraction(3, 2)) - const_half) is int
    assert type(parse_scalar("1/2 + 1/2")) is int
    assert type((LAMBDA + half) - LAMBDA) is Fraction
    assert type((LAMBDA + 1) * (LAMBDA - 1) - LAMBDA * LAMBDA) is int
    assert LAMBDA - LAMBDA == 0 and type(LAMBDA - LAMBDA) is int
    # a polynomial of positive degree stores its integral coefficients as ints
    assert stored(LambdaPoly({0: Fraction(4, 2), 1: Fraction(1, 3)})) == {0: 2, 1: Fraction(1, 3)}
    assert type(stored(parse_scalar("1/2 + 1/2 + L"))[0]) is int
    assert type(stored(LAMBDA * half * 2)[1]) is int
    assert (ZERO, ONE, MINUS_ONE) == (0, 1, -1) and type(ONE) is int


@given(lambda_polys, lambda_polys)
def test_arithmetic_keeps_the_storage_form(p, q):
    # every result is canonical, whether the operands are or not
    for value in (
        scalar(p), p + q, p - q, p * q, -p, 1 - p, p - 1, 2 * p, p + Fraction(1, 2),
        Fraction(2, 3) * p, p * 0, p + 0,
    ):
        assert is_canonical(value), value


@given(lambda_polys, lambda_polys, st.booleans())
def test_combined_is_a_new_map(p, q, negate):
    # _combined(left, right, negate) is left + right or left - right, with a
    # cancelled entry dropped, and never writes to its operands
    left, right = stored(p), stored(q)
    left_before, right_before = dict(left), dict(right)
    out = _combined(left, right, negate)
    assert out is not left and out is not right
    assert (left, right) == (left_before, right_before)
    assert out == stored(LambdaPoly.coerce(p - q if negate else p + q))
    assert 0 not in out.values()


@pytest.mark.parametrize("n", [-3, 0, 1, 7, 10**30])
def test_int_fraction_and_constant_agree_on_hash_and_equality(n):
    values = (n, Fraction(n), LambdaPoly.const(n), LambdaPoly.const(Fraction(n)))
    for a, b in itertools.product(values, repeat=2):
        assert a == b
        assert hash(a) == hash(b)
    assert len(set(values)) == 1


def test_coefficient_and_specialize_return_fractions():
    p = parse_scalar("3*L^2 + 1/2")
    assert type(p.coefficient(2)) is Fraction and p.coefficient(2) == 3
    assert type(p.coefficient(1)) is Fraction and p.coefficient(1) == 0
    assert type(specialize(p, 2)) is Fraction and specialize(p, 2) == Fraction(25, 2)
    assert type(specialize(LambdaPoly.const(1), 0)) is Fraction


def test_text_and_json_of_int_coefficients():
    p = LambdaPoly({2: Fraction(6, 2), 1: -1, 0: Fraction(1, 2)})
    assert poly_text(p) == "3*L^2 - L + 1/2"
    assert poly_json(p) == {"poly": [[0, "1/2"], [1, "-1"], [2, "3"]]}
