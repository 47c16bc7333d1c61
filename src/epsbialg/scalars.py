"""Exact coefficient arithmetic in Q[L].

The coefficient ring of everything in this package is the polynomial ring
Q[L], where L is a formal weight symbol adjoined as an indeterminate.  An
identity that holds coefficient-wise in Q[L] holds for every numeric weight
at once, so law sweeps are run at the generic weight and only specialised
when a concrete instance demands it.

Rationals are ``fractions.Fraction`` (arbitrary precision, normalised with a
positive denominator).  ``LambdaPoly`` stores a finitely supported map from
degree to Fraction; zero coefficients are never stored.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_F0 = Fraction(0)
_F1 = Fraction(1)


class LambdaPoly:
    """A sparse polynomial in the weight symbol L with Fraction coefficients.

    Immutable; all arithmetic returns new values.  Equality is
    coefficient-wise, which is exact equality in Q[L].
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for deg, q in coeffs.items():
                q = q if isinstance(q, Fraction) else Fraction(q)
                if q != 0:
                    if deg < 0:
                        raise ValueError(f"negative degree {deg}")
                    c[deg] = q
        self._c = c

    @classmethod
    def const(cls, q) -> "LambdaPoly":
        """Embed a rational (or int) as a degree-0 polynomial."""
        return cls({0: Fraction(q)})

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
        return self._c.get(deg, _F0)

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
        # a constant, zero included, equals its Fraction, so it hashes like one
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, _F0))
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        try:
            other = LambdaPoly.coerce(other)
        except TypeError:
            return NotImplemented
        if not self._c:
            return other
        if not other._c:
            return self
        c = dict(self._c)
        for deg, q in other._c.items():
            s = c.get(deg, _F0) + q
            if s:
                c[deg] = s
            else:
                c.pop(deg, None)
        out = LambdaPoly.__new__(LambdaPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LambdaPoly.__new__(LambdaPoly)
        out._c = {deg: -q for deg, q in self._c.items()}
        return out

    def __sub__(self, other):
        try:
            other = LambdaPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        try:
            other = LambdaPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        try:
            other = LambdaPoly.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        if a == {0: _F1}:
            return other
        if b == {0: _F1}:
            return self
        c = {}
        for da, qa in a.items():
            for db, qb in b.items():
                deg = da + db
                s = c.get(deg, _F0) + qa * qb
                if s:
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


ZERO = LambdaPoly()
ONE = LambdaPoly.const(1)
MINUS_ONE = LambdaPoly.const(-1)
LAMBDA = LambdaPoly({1: _F1})


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


# Bounds shared by both expression parsers.  Each level of parentheses costs
# the recursive descent a few Python frames, so the depth bound keeps parsing
# well inside the interpreter's recursion limit.  The exponent bound lies far
# above the exponents in use (the corpus goes up to ^5).
MAX_NESTING = 100
MAX_EXPONENT = 1000


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
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self) -> LambdaPoly:
        value = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> LambdaPoly:
        value = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            return parsed_power(value, exp, ONE, LambdaPoly.__mul__, pos)
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
                return LambdaPoly.const(Fraction(val, den))
            return LambdaPoly.const(val)
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
