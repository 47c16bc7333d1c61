"""Exact coefficient arithmetic in Q[L].

The coefficient ring of everything in this package is the polynomial ring
Q[L], where L is a formal weight symbol adjoined as an indeterminate.  An
identity that holds coefficient-wise in Q[L] holds for every numeric weight
at once, so law sweeps are run at the generic weight and only specialised
when a concrete instance demands it.

``LambdaPoly`` stores a finitely supported map from degree to a nonzero
rational coefficient; zero coefficients are never stored.  A coefficient is
stored as a plain ``int`` when it is integral and as a ``fractions.Fraction``
(normalised, positive denominator) only when it is not: 1/t! in the antipode
series, or a weight such as 1/2.  Construction and every sum and product
restore this form, so ``Fraction(1, 2) + Fraction(1, 2)`` is stored as ``1``.
Nearly all arithmetic in the law sweeps is integral, and int arithmetic is
several times cheaper than Fraction arithmetic.  Nothing observable depends
on the form: ``n == Fraction(n)`` and ``hash(n) == hash(Fraction(n))``, so
equality and hashing agree across both, ``str(n) == str(Fraction(n))``, so
text and JSON output are the same, and ``coefficient`` and ``specialize``
return a ``Fraction``.

This module holds the arithmetic, the text and JSON forms, and the size
bounds; scalar text such as ``2*L - 1/3`` is read by ``parser.parse_scalar``.
"""

from __future__ import annotations

import operator
from fractions import Fraction

_F0 = Fraction(0)


class LambdaPoly:
    """A sparse polynomial in the weight symbol L with rational coefficients.

    Immutable; all arithmetic returns new values.  Equality is
    coefficient-wise, which is exact equality in Q[L].  A coefficient is
    stored as an ``int`` when it is integral and as a ``Fraction`` otherwise
    (see the module docstring).
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for deg, q in coeffs.items():
                q = _stored(q)
                if q:
                    if deg < 0:
                        raise ValueError(f"negative degree {deg}")
                    c[deg] = q
        self._c = c

    @classmethod
    def const(cls, q) -> "LambdaPoly":
        """Embed a rational (or int) as a degree-0 polynomial."""
        return cls({0: q})

    @staticmethod
    def coerce(value) -> "LambdaPoly":
        if isinstance(value, LambdaPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return LambdaPoly.const(value)
        raise TypeError(f"cannot coerce {value!r} into Q[L]")

    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, deg: int) -> Fraction:
        return Fraction(self._c.get(deg, 0))

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def items(self):
        return self._c.items()

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LambdaPoly.coerce(other)
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a constant, zero included, equals its int or Fraction, so it hashes
        # like one; hash(n) == hash(Fraction(n)) keeps the two forms agreeing
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        if type(other) is not LambdaPoly:
            try:
                other = LambdaPoly.coerce(other)
            except TypeError:
                return NotImplemented
        if not self._c:
            return other
        if not other._c:
            return self
        return _combined(self._c, other._c, operator.add)

    __radd__ = __add__

    def __neg__(self):
        out = LambdaPoly.__new__(LambdaPoly)
        out._c = {deg: -q for deg, q in self._c.items()}
        return out

    def __sub__(self, other):
        if type(other) is not LambdaPoly:
            try:
                other = LambdaPoly.coerce(other)
            except TypeError:
                return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return -other
        return _combined(self._c, other._c, operator.sub)

    def __rsub__(self, other):
        try:
            other = LambdaPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not LambdaPoly:
            try:
                other = LambdaPoly.coerce(other)
            except TypeError:
                return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        # the unit and its negative: the only stored coefficient is the int
        # 1 or -1 at degree 0
        if len(a) == 1:
            q = a.get(0)
            if q == 1:
                return other
            if q == -1:
                return -other
        if len(b) == 1:
            q = b.get(0)
            if q == 1:
                return self
            if q == -1:
                return -self
        c = {}
        for da, qa in a.items():
            for db, qb in b.items():
                deg = da + db
                s = c.get(deg, 0) + qa * qb
                if s:
                    if type(s) is Fraction and s.denominator == 1:
                        s = s.numerator
                    c[deg] = s
                else:
                    del c[deg]
        out = LambdaPoly.__new__(LambdaPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def specialize(self, value) -> Fraction:
        """Evaluate at L = value (a ring homomorphism Q[L] -> Q)."""
        v = Fraction(value)
        total = _F0
        for deg, q in self._c.items():
            total += q * v**deg
        return total

    def __str__(self):
        return poly_text(self)

    def __repr__(self):
        return f"LambdaPoly({self._c!r})"


def _combined(a: dict, b: dict, op) -> LambdaPoly:
    """The polynomial with coefficients op(a[deg], b[deg]), op being + or -."""
    c = dict(a)
    for deg, q in b.items():
        s = op(c.get(deg, 0), q)
        if s:
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            c[deg] = s
        else:
            del c[deg]
    out = LambdaPoly.__new__(LambdaPoly)
    out._c = c
    return out


def _stored(q):
    """A rational in its stored form: an int when integral, else a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


ZERO = LambdaPoly()
ONE = LambdaPoly.const(1)
MINUS_ONE = LambdaPoly.const(-1)
LAMBDA = LambdaPoly({1: 1})


def _monomial_text(deg: int, q: Fraction) -> str:
    if deg == 0:
        return str(q)
    sym = "L" if deg == 1 else f"L^{deg}"
    if q == 1:
        return sym
    if q == -1:
        return f"-{sym}"
    return f"{q}*{sym}"


def poly_text(p: LambdaPoly) -> str:
    """Canonical text form, highest degree first, e.g. ``2*L - 1/3``."""
    if p.is_zero():
        return "0"
    parts = []
    for deg in sorted(p._c, reverse=True):
        mono = _monomial_text(deg, p._c[deg])
        if not parts:
            parts.append(mono)
        elif mono.startswith("-"):
            parts.append(f" - {mono[1:]}")
        else:
            parts.append(f" + {mono}")
    return "".join(parts)


def poly_json(p: LambdaPoly) -> dict:
    """JSON form: {"poly": [[degree, "num/den"], ...]} sorted by degree."""
    return {"poly": [[deg, str(p._c[deg])] for deg in sorted(p._c)]}


# Bounds of the expression parser; past one, it raises a ParseError that
# names the limit.  They sit here, not in ``parser`` (which imports
# ``core``), because ``core`` bounds the antipode series by MAX_TERMS too.
# Each level of parentheses costs the recursive descent a few Python
# frames, so the depth bound keeps parsing well inside the interpreter's
# recursion limit.  The size bounds hold for every value the parser
# builds, intermediate values included:
#
# * MAX_KEY_SIZE: the size of a key (word length, degree in x) and the
#   degree in L;
# * MAX_TERMS: the number of terms, counting a key times a power of L as
#   one term; a product is refused before it is computed when its operands'
#   terms pair up past it, so no step of a parse does more than MAX_TERMS
#   products of coefficients;
# * MAX_COEFF_BITS: the bit length of a coefficient's numerator and
#   denominator, below what the text output can print (4300 digits).
#
# All lie far above the values in use: the corpus goes up to ^5, 4 terms
# and 5-letter words, and a dense 12x12 matrix has 144 terms.
MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_KEY_SIZE = 1000
MAX_TERMS = 4096
MAX_COEFF_BITS = 10000
