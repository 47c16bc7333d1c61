"""Exact coefficient arithmetic in Q[L].

The coefficient ring of everything in this package is the polynomial ring
Q[L], where L is a formal weight symbol adjoined as an indeterminate.  An
identity that holds coefficient-wise in Q[L] holds for every numeric weight
at once, so law sweeps are run at the generic weight and only specialised
when a concrete instance demands it.

A coefficient has exactly one canonical form: an ``int`` when it is an
integral constant (zero is ``0``), a ``Fraction`` when it is a constant that
is not integral (1/t! in the antipode series, a weight of 1/2), and a
``LambdaPoly`` only when it has positive degree in L.  The paper's matrix
structure constants are integers, so most coefficient arithmetic is int
arithmetic, done in C.  ``LambdaPoly`` stores a map degree -> nonzero
rational, an ``int`` when integral; its arithmetic takes operands in all
three forms and returns the canonical form (``(L + 1) - L`` is ``1``), into
which ``scalar`` puts any accepted value.  Equality and hashing agree across
the forms.  ``const`` and ``coerce`` build a ``LambdaPoly`` of any degree,
for callers that want its methods (``coefficient``, ``degree``); they are
not canonical.
Only ``scalar_items`` (the degree and coefficient pairs of any form) tells
the forms apart: ``poly_text``, ``poly_json``, the coefficient prefix of an
element's text and the parser's bounds go through it.

This module holds the arithmetic, the text and JSON forms, and the size
bounds; scalar text such as ``2*L - 1/3`` is read by ``parser.parse_scalar``.
It also holds the package's one sparse-map sum: ``_accumulate`` adds a
stream of (key, coefficient) terms into a map, dropping a sum that cancels,
and ``_combined`` adds or subtracts two maps into a new one.  A polynomial's
arithmetic uses them on its map degree -> coefficient, as elements, tensors
and law witnesses do on theirs.
"""

from __future__ import annotations

from fractions import Fraction


class LambdaPoly:
    """A sparse polynomial in the weight symbol L with rational coefficients.

    Immutable; all arithmetic returns new values, in canonical form (see the
    module docstring).  Equality is coefficient-wise, which is exact
    equality in Q[L].  A coefficient is stored as an ``int`` when it is
    integral and as a ``Fraction`` otherwise.
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
        """``value`` as a ``LambdaPoly`` object, whatever its degree."""
        if isinstance(value, LambdaPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return LambdaPoly.const(value)
        raise TypeError(f"cannot coerce {value!r} into Q[L]")

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
        b = _coeffs(other)
        if b is None:
            return NotImplemented
        return self._c == b

    def __hash__(self):
        # a constant, zero included, equals its int or Fraction, so it hashes
        # like one; hash(n) == hash(Fraction(n)) keeps the two forms agreeing
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        b = other._c if type(other) is LambdaPoly else _coeffs(other)
        if b is None:
            return NotImplemented
        return _canonical(_combined(self._c, b))

    __radd__ = __add__

    def __neg__(self):
        return _canonical({deg: -q for deg, q in self._c.items()})

    def __sub__(self, other):
        b = other._c if type(other) is LambdaPoly else _coeffs(other)
        if b is None:
            return NotImplemented
        return _canonical(_combined(self._c, b, True))

    def __rsub__(self, other):
        b = _coeffs(other)
        if b is None:
            return NotImplemented
        return _canonical(_combined(b, self._c, True))

    def __mul__(self, other):
        b = other._c if type(other) is LambdaPoly else _coeffs(other)
        if b is None:
            return NotImplemented
        c = {}
        _accumulate(c, ((da + db, qa * qb) for da, qa in self._c.items() for db, qb in b.items()))
        return _canonical(c)

    __rmul__ = __mul__

    def __str__(self):
        return poly_text(self)

    def __repr__(self):
        return f"LambdaPoly({self._c!r})"


SCALAR_TYPES = (int, Fraction, LambdaPoly)


def _canonical(c: dict):
    """The canonical form of the polynomial with the stored coefficients ``c``."""
    if not c or (len(c) == 1 and 0 in c):
        return c.get(0, 0)
    out = LambdaPoly.__new__(LambdaPoly)
    out._c = c
    return out


def _coeffs(value):
    """The map degree -> stored coefficient of a scalar in any form; None for
    a value that is not a scalar."""
    if isinstance(value, LambdaPoly):
        return value._c
    if isinstance(value, (int, Fraction)):
        return {0: _stored(value)} if value else {}
    return None


def _accumulate(out: dict, terms, negate=False):
    """Add (or, with ``negate``, subtract) each (keys, coeff) of ``terms``
    into the sparse map ``out``, dropping a sum that cancels to zero.  A sum
    or product of Fractions can be integral: it is stored as its int."""
    for keys, c in terms:
        s = out.get(keys)
        if s is None:
            s = -c if negate else c
        else:
            s = s - c if negate else s + c
            if not s:
                del out[keys]
                continue
        if type(s) is Fraction and s.denominator == 1:
            s = s.numerator
        out[keys] = s


def _combined(left: dict, right: dict, negate=False) -> dict:
    """left + right, or left - right with ``negate``, as a new sparse map;
    neither operand is written to."""
    out = dict(left)
    _accumulate(out, right.items(), negate)
    return out


def _stored(q):
    """A rational in its stored form: an int when integral, else a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def scalar(value):
    """``value`` (an int, a Fraction or a LambdaPoly) in canonical form: an
    int or a Fraction when it is constant, else a LambdaPoly."""
    if type(value) is int:
        return value
    if isinstance(value, LambdaPoly):
        return _canonical(value._c)
    if isinstance(value, (int, Fraction)):
        return _stored(value)
    raise TypeError(f"cannot coerce {value!r} into Q[L]")


def scalar_items(c):
    """The (degree, nonzero coefficient) pairs of a scalar in any form."""
    return _coeffs(c).items()


# the exported constants, in canonical form
ZERO, ONE, MINUS_ONE = 0, 1, -1
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


def poly_text(p) -> str:
    """Canonical text form of a scalar, highest degree first, e.g. ``2*L - 1/3``."""
    parts = []
    for deg, q in sorted(scalar_items(p), reverse=True):
        mono = _monomial_text(deg, q)
        if not parts:
            parts.append(mono)
        elif mono.startswith("-"):
            parts.append(f" - {mono[1:]}")
        else:
            parts.append(f" + {mono}")
    return "".join(parts) or "0"


def poly_json(p) -> dict:
    """JSON form of a scalar: {"poly": [[degree, "num/den"], ...]} sorted by degree."""
    return {"poly": [[deg, str(q)] for deg, q in sorted(scalar_items(p))]}


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
