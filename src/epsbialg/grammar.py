"""The expression grammar and its recursive-descent parser, behind ``parser``.

Grammar (juxtaposition is never multiplication; ``*`` is mandatory):

    expr    := ['-'] tensor (('+'|'-') tensor)*
    tensor  := term ('(x)' term)*
    term    := factor ('*' factor)*
    factor  := base ['^' int]
    base    := int ['/' int]               rational scalar
             | 'L'                         the weight symbol (alias 'lambda')
             | 'E' '[' int ',' int ']'     elementary matrix (matrix kinds)
             | 'E'                         the identity matrix (matrix kinds)
             | letter                      alphabet letter, or 'x' for univar
             | '[' row (',' row)* ']'      dense integer matrix rows
             | '(' expr ')'

``(x)`` acts as the tensor separator only in operator position (after a
complete term), so it never collides with a parenthesised letter ``(x)``
at operand position.  A bare scalar evaluates to scalar * unit.

Scalar text (a weight) is read by the same parser run without an algebra:
its only atom is ``L``, it has no ``(x)`` and no dense rows, and a bare
scalar stays a scalar, in the canonical form of ``scalars``.

Parentheses nest at most ``MAX_NESTING`` deep, an exponent is at most
``MAX_EXPONENT``, and every value the parser builds, intermediate values
included, stays within the size bounds ``MAX_KEY_SIZE``, ``MAX_TERMS`` and
``MAX_COEFF_BITS`` (all in ``scalars``); beyond any bound the parser raises
``ParseError`` naming the limit.  ``x^N`` is computed by repeated squaring.
"""

import re

from .errors import DimensionMismatch, ParseError, UnknownAtom
from .lincomb import Element, MatrixKind, TensorElement, tensor
from .parser import check_product, monomials
from .scalars import (LAMBDA, MAX_COEFF_BITS, MAX_EXPONENT, MAX_KEY_SIZE, MAX_NESTING,
                      MAX_TERMS, SCALAR_TYPES, scalar, scalar_items)

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()\[\],+\-*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
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


def check_bound(what: str, size: int, limit: int, pos: int):
    """Raise a ParseError naming the limit when size is past it."""
    if size > limit:
        raise ParseError(f"{what} {size} exceeds the limit {limit}", pos)


def bounded_poly(p, pos: int):
    """The scalar p itself, once its degree and its coefficients are within their bounds."""
    items = scalar_items(p)
    check_bound("degree in L", max((deg for deg, _ in items), default=-1), MAX_KEY_SIZE, pos)
    for _, q in items:
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        check_bound("coefficient bit length", bits, MAX_COEFF_BITS, pos)
    return p


def parsed_power(value, exp: int, one, mul, pos: int):
    """value^exp by repeated squaring under ``mul``.

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


class _ExprParser:
    """Recursive descent over the grammar above.  Without an algebra it reads
    scalar text: any atom but ``L`` is an ``UnknownAtom`` and ``parse``
    returns a scalar."""

    def __init__(self, text: str, algebra=None):
        self.algebra = algebra
        self.kind = algebra.kind if algebra is not None else None
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, *ops):
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def expect_int(self, what):
        kind, val, pos = self.take()
        if kind != "int":
            raise ParseError(f"expected {what}", pos)
        return val

    def at_tensor_sep(self):
        k0, v0, _ = self.peek(0)
        k1, v1, _ = self.peek(1)
        k2, v2, _ = self.peek(2)
        return (
            self.kind is not None
            and k0 == "op" and v0 == "(" and k1 == "name" and v1 == "x"
            and k2 == "op" and v2 == ")"
        )

    # -- grammar -----------------------------------------------------------

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input after expression", pos)
        return value if self.kind is None else self._promote(value, 0)

    def expr(self):
        if self.at_op("-"):
            self.take()
            value = -self.tensor_term()
        else:
            value = self.tensor_term()
        while self.at_op("+", "-"):
            _, op, pos = self.take()
            rhs = self.tensor_term()
            value = self._add(value, rhs if op == "+" else -rhs, pos)
        return value

    def tensor_term(self):
        value = self.term()
        while self.at_tensor_sep():
            _, _, pos = self.take()
            self.take()
            self.take()
            value = self._tensor(value, self.term(), pos)
        return value

    def term(self):
        value = self.factor()
        while self.at_op("*"):
            _, _, pos = self.take()
            value = self._mul(value, self.factor(), pos)
        return value

    def factor(self):
        value = self.base()
        if self.at_op("^"):
            _, _, pos = self.take()
            exp = self.expect_int("a non-negative integer exponent")
            if isinstance(value, TensorElement):
                raise ParseError("cannot exponentiate a tensor", pos)
            one = 1 if isinstance(value, SCALAR_TYPES) else self.algebra.unit
            return parsed_power(value, exp, one, lambda x, y: self._mul(x, y, pos), pos)
        return value

    def base(self):
        kind, val, pos = self.take()
        if kind == "int":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "/":
                self.take()
                den = self.expect_int("a denominator")
                if den == 0:
                    raise ParseError("zero denominator", pos)
                from fractions import Fraction  # a call that writes no fraction never loads it
                return bounded_poly(scalar(Fraction(val, den)), pos)
            return bounded_poly(val, pos)
        if kind == "name":
            return self.atom(val, pos)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        if kind == "op" and val == "[":
            return self.dense_matrix(pos)
        raise ParseError("expected a scalar, an atom, or '('", pos)

    def atom(self, name, pos):
        if name.lower() in ("l", "lambda"):
            return LAMBDA
        k = self.kind
        if k is None:
            raise UnknownAtom(f"unknown atom {name!r}", pos)
        if isinstance(k, MatrixKind):
            if name == "E":
                if self.at_op("["):
                    self.take()
                    i = self.expect_int("a row index")
                    self.expect_op(",")
                    j = self.expect_int("a column index")
                    self.expect_op("]")
                    if not (1 <= i <= k.n and 1 <= j <= k.n):
                        raise DimensionMismatch(
                            f"E[{i},{j}] out of range for {k.selector()}"
                        )
                    return Element.from_key(k, (i, j))
                return self.algebra.unit
            raise UnknownAtom(f"unknown atom {name!r} in {k.selector()}", pos)
        key = k.atom_key(name)  # a letter of a word kind, x of univar
        if key is None:
            raise UnknownAtom(f"unknown {k.atom_noun} {name!r} in {k.selector()}", pos)
        return Element.from_key(k, key)

    def dense_matrix(self, pos):
        if not isinstance(self.kind, MatrixKind):
            raise ParseError("dense matrix rows are only valid in matrix algebras", pos)
        rows = [self.dense_row()]
        while self.at_op(","):
            self.take()
            rows.append(self.dense_row())
        self.expect_op("]")
        n = self.kind.n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimensionMismatch(
                f"expected a {n}x{n} matrix, got rows of shape {[len(r) for r in rows]}"
            )
        from .matrices import matrix_from_rows

        return self._bounded(matrix_from_rows(rows), pos)

    def dense_row(self):
        self.expect_op("[")
        row = [self.dense_entry()]
        while self.at_op(","):
            self.take()
            row.append(self.dense_entry())
        self.expect_op("]")
        return row

    def dense_entry(self):
        negative = False
        if self.at_op("-"):
            self.take()
            negative = True
        value = self.expect_int("an integer entry")
        return -value if negative else value

    # -- value arithmetic ---------------------------------------------------

    # Every value built here is checked against the size bounds of
    # ``scalars`` (a product before it is computed), so an intermediate
    # value can never grow past them.

    def _bounded(self, value, pos):
        """value itself, once its terms, keys and coefficients are within bounds."""
        if isinstance(value, SCALAR_TYPES):
            return bounded_poly(value, pos)
        check_bound("term count", monomials(value), MAX_TERMS, pos)
        kind = self.kind
        for keys, c in value.terms.items():
            for key in value.leg_keys(keys):
                check_bound(kind.key_size_name, kind.key_size(key), MAX_KEY_SIZE, pos)
            bounded_poly(c, pos)
        return value

    def _promote(self, v, pos):
        if isinstance(v, SCALAR_TYPES):
            unit = self.algebra.unit
            check_product(len(unit.terms), monomials(v), pos)
            return unit.scale(v)
        return v

    def _add(self, x, y, pos):
        if isinstance(x, TensorElement) != isinstance(y, TensorElement):
            raise ParseError("cannot add a tensor to a non-tensor", pos)
        if isinstance(x, SCALAR_TYPES) and isinstance(y, SCALAR_TYPES):
            return bounded_poly(scalar(x + y), pos)
        return self._bounded(self._promote(x, pos) + self._promote(y, pos), pos)

    def _mul(self, x, y, pos):
        x_scalar = isinstance(x, SCALAR_TYPES)
        y_scalar = isinstance(y, SCALAR_TYPES)
        tensors = isinstance(x, TensorElement) or isinstance(y, TensorElement)
        if tensors and not (x_scalar or y_scalar):
            raise ParseError("cannot multiply tensors; use the '(x)' separator", pos)
        check_product(monomials(x), monomials(y), pos)
        if x_scalar and not y_scalar:
            value = y.scale(x)
        elif y_scalar and not x_scalar:
            value = x.scale(y)
        elif x_scalar:  # an int or Fraction product is put into canonical form
            value = scalar(x * y)
        else:
            value = x * y
        return self._bounded(value, pos)

    def _tensor(self, x, y, pos):
        x = self._promote(x, pos)
        y = self._promote(y, pos)
        check_product(monomials(x), monomials(y), pos)
        return self._bounded(tensor(x, y), pos)
