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
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import ParseError

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


# Bounds shared by both expression parsers; past one, a parser raises a
# ParseError that names the limit.  Each level of parentheses costs the
# recursive descent a few Python frames, so the depth bound keeps parsing
# well inside the interpreter's recursion limit.  The size bounds hold for
# every value a parser builds, intermediate values included:
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


def check_bound(what: str, size: int, limit: int, pos: int):
    """Raise a ParseError naming the limit when size is past it."""
    if size > limit:
        raise ParseError(f"{what} {size} exceeds the limit {limit}", pos)


def check_product(m: int, n: int, pos=None):
    """Refuse, before it is computed, a product of m by n terms (monomials)
    whose term pairs are more than MAX_TERMS."""
    if m * n > MAX_TERMS:
        raise ParseError(
            f"product of {m} by {n} terms exceeds the limit of {MAX_TERMS} term pairs", pos
        )


def bounded_poly(p: LambdaPoly, pos: int) -> LambdaPoly:
    """p itself, once its degree and its coefficients are within their bounds."""
    check_bound("degree in L", p.degree(), MAX_KEY_SIZE, pos)
    for q in p._c.values():
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        check_bound("coefficient bit length", bits, MAX_COEFF_BITS, pos)
    return p


def parsed_power(value, exp: int, one, mul, pos: int):
    """value^exp for the parsers, by repeated squaring under ``mul``.

    Exact in an associative ring, so it equals the left-to-right product
    one * value * ... * value.  An exponent above MAX_EXPONENT is a ParseError.
    """
    if exp > MAX_EXPONENT:
        raise ParseError(f"exponent {exp} exceeds the limit {MAX_EXPONENT}", pos)
    out = one
    while exp:
        if exp & 1:
            out = mul(out, value)
        exp >>= 1
        if exp:
            value = mul(value, value)
    return out


_SCALAR_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _tokenize_scalar(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _SCALAR_TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:]
            if rest.strip():
                offset = len(rest) - len(rest.lstrip())
                raise ParseError(f"unexpected character {rest.strip()[0]!r}", pos + offset)
            break
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _ScalarParser:
    """Recursive descent over: sums and products of rationals and L.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ['^' int]
    base   := int ['/' int] | 'L' | '(' expr ')'
    """

    def __init__(self, text):
        self.tokens = _tokenize_scalar(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> LambdaPoly:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input after scalar", pos)
        return value

    def expr(self) -> LambdaPoly:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            value = -self.term()
        else:
            value = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = bounded_poly(value + rhs if val == "+" else value - rhs, pos)
            else:
                return value

    def term(self) -> LambdaPoly:
        value = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                value = self._mul(value, self.factor(), pos)
            else:
                return value

    @staticmethod
    def _mul(x: LambdaPoly, y: LambdaPoly, pos: int) -> LambdaPoly:
        check_product(len(x.items()), len(y.items()), pos)
        return bounded_poly(x * y, pos)

    def factor(self) -> LambdaPoly:
        value = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            return parsed_power(value, exp, ONE, lambda x, y: self._mul(x, y, pos), pos)
        return value

    def base(self) -> LambdaPoly:
        kind, val, pos = self.take()
        if kind == "int":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "/":
                self.take()
                dkind, den, dpos = self.take()
                if dkind != "int" or den == 0:
                    raise ParseError("denominator must be a nonzero integer", dpos)
                return bounded_poly(LambdaPoly.const(Fraction(val, den)), pos)
            return bounded_poly(LambdaPoly.const(val), pos)
        if kind == "name":
            if val.lower() in ("l", "lambda"):
                return LAMBDA
            raise ParseError(f"unknown scalar symbol {val!r}", pos)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError("expected a rational, 'L', or '('", pos)


def parse_scalar(text: str) -> LambdaPoly:
    """Parse scalar syntax: integers ``3``, rationals ``3/2``, the weight
    literal ``L`` (alias ``lambda``, case-insensitive), and their sums and
    products, e.g. ``2*L - 1/3``."""
    return _ScalarParser(text).parse()
