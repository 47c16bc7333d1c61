"""Scalar arithmetic cross-checked against sympy's polynomials over QQ.

Operands come in every form a coefficient can take: an int, a Fraction, and
a LambdaPoly, constant or not.  A LambdaPoly built by its constructor may be
constant, which is not canonical; every result must be canonical all the
same, a number exactly when it is constant.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epsbialg import LAMBDA, LambdaPoly

from support import is_canonical, specialize

sympy = pytest.importorskip("sympy")

L = sympy.Symbol("L")

# Small denominators, so that sums and products often cancel to integers
# and the int form is exercised on the way.
coefficients = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.sampled_from([1, 2, 3, 4, 6])
)
polys = st.dictionaries(st.integers(min_value=0, max_value=4), coefficients, max_size=4)

poly_operands = st.one_of(coefficients.map(LambdaPoly.const), polys.map(LambdaPoly))
operands = st.one_of(st.integers(min_value=-12, max_value=12), coefficients, poly_operands)


def to_sympy(value):
    coeffs = LambdaPoly.coerce(value).items()
    terms = {(deg,): sympy.Rational(q.numerator, q.denominator) for deg, q in coeffs}
    return sympy.Poly.from_dict(terms, L, domain=sympy.QQ)


def assert_matches(value, want):
    assert to_sympy(value) == want
    assert is_canonical(value), value
    assert isinstance(value, LambdaPoly) == (want.degree() > 0), value


@given(poly_operands, operands)
@example(LambdaPoly({1: 4, 3: Fraction(1, 6)}), -1)
@example(LAMBDA, 1)
@example(LAMBDA, LAMBDA)
@example(LambdaPoly.const(-1), LambdaPoly.const(-1))
@example(LambdaPoly(), 0)
@example(LambdaPoly({0: Fraction(1, 2), 1: 3}), 2)
@example(LambdaPoly({0: Fraction(1, 2), 1: 3}), Fraction(1, 2))
def test_ring_operations_match_sympy(p, x):
    sp, sx = to_sympy(p), to_sympy(x)
    assert_matches(p + x, sp + sx)
    assert_matches(x + p, sp + sx)
    assert_matches(p - x, sp - sx)
    assert_matches(x - p, sx - sp)
    assert_matches(p * x, sp * sx)
    assert_matches(x * p, sp * sx)
    assert_matches(-p, -sp)


@given(polys, coefficients)
def test_specialize_matches_sympy(a, v):
    want = to_sympy(LambdaPoly(a)).eval(sympy.Rational(v.numerator, v.denominator))
    got = specialize(LambdaPoly(a), v)
    assert type(got) is Fraction
    assert got == Fraction(int(want.p), int(want.q))
