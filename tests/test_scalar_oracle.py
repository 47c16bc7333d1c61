"""LambdaPoly arithmetic cross-checked against sympy's polynomials over QQ."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epsbialg import LambdaPoly

sympy = pytest.importorskip("sympy")

L = sympy.Symbol("L")

# Small denominators, so that sums and products often cancel to integers
# and the int storage form is exercised on the way.
coefficients = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.sampled_from([1, 2, 3, 4, 6])
)
polys = st.dictionaries(st.integers(min_value=0, max_value=4), coefficients, max_size=4)


def to_sympy(coeffs):
    terms = {(deg,): sympy.Rational(q.numerator, q.denominator) for deg, q in coeffs.items()}
    return sympy.Poly.from_dict(terms, L, domain=sympy.QQ)


def assert_matches(p: LambdaPoly, want):
    assert to_sympy(dict(p.items())) == want
    for _, q in p.items():
        assert type(q) is (int if q.denominator == 1 else Fraction)


# -1 at degree 0 takes a fast path in the product, on either side
MINUS_ONE = {0: Fraction(-1)}


@given(polys, polys)
@example(MINUS_ONE, {0: Fraction(3), 2: Fraction(-5, 2)})
@example({1: Fraction(4), 3: Fraction(1, 6)}, MINUS_ONE)
@example(MINUS_ONE, MINUS_ONE)
@example(MINUS_ONE, {})
def test_ring_operations_match_sympy(a, b):
    p, q = LambdaPoly(a), LambdaPoly(b)
    sp, sq = to_sympy(a), to_sympy(b)
    assert_matches(p, sp)
    assert_matches(p + q, sp + sq)
    assert_matches(p - q, sp - sq)
    assert_matches(p * q, sp * sq)
    assert_matches(-p, -sp)


@given(polys, coefficients)
def test_specialize_matches_sympy(a, v):
    want = to_sympy(a).eval(sympy.Rational(v.numerator, v.denominator))
    got = LambdaPoly(a).specialize(v)
    assert type(got) is Fraction
    assert got == Fraction(int(want.p), int(want.q))
