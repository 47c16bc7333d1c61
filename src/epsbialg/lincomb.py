"""Finitely supported linear combinations over basis keys, and tensor powers.

A basis key is a plain builtin value, hashed and compared in C:

* on M_n, the tuple ``(i, j)`` (1-based) for the elementary matrix E[i,j],
  with the delta product rule E[i,j]E[k,l] = delta_jk E[i,l]; n is kept on
  the kind, not on the key;
* on words over a finite ordered alphabet, the ``str`` of one character
  chr(i) per 0-based letter index i, multiplied by concatenation, the empty
  string being the unit: a ``str`` caches its hash, where a tuple of ints
  hashes every letter again on each lookup of a key whose legs are words;
* on the one-variable polynomial algebra, the int exponent e of x^e.

``EMatrix(i, j, n)``, ``Word(letters)`` and ``UnivarMonomial(e)`` are
checked constructors that return these keys.  A key means nothing without
its kind: the kind owns its text (``key_text``), its validation
(``validate_key``), its order (``sort_key``, used by ``sorted_terms``: words
by length, then letters; matrices and monomials in their natural tuple or
int order) and its size.  ``MatrixKind`` and ``EMatrix`` are defined here;
``WordKind``, ``UnivarKind``, ``Word`` and ``UnivarMonomial`` in ``words``,
beside the coproduct rules on them, so that a call on ``matrix:N`` never
compiles them.  Nothing here names a word or univar kind: the parser reads a
letter or ``x`` through the kind's ``atom_key``, and ``ensure_same_kind``
raises the error a kind's ``mismatch`` names.

An ``Element`` is a map key -> coefficient; a ``TensorElement`` is a map
from k-tuples of keys (k >= 2, the tensor legs) to coefficients, each nonzero
and in the canonical form of ``scalars``.  Both are immutable by convention:
nothing in this package mutates them after construction, so they can be
shared freely between tasks.

A ``Kind`` value identifies the owning algebra (dimension, alphabet, ...)
and carries its product rule, its unit and the size of a key (word length,
degree in x; 0 for matrices), by which sweeps and parsed values are
bounded; ``count_keys(bound)`` is the number of keys of size <= bound, in
closed form.  Coproducts live elsewhere: several coalgebra structures can
sit on top of the same kind.

Each kind also gives a product index: ``product_index(terms)`` maps a left
key p to the right-hand terms (q, c) whose product pq may be nonzero.  On
M_n the terms are grouped by row, since E[i,j]E[k,l] vanishes unless k = j,
so a dense-by-dense product visits n^3 pairs rather than n^4; words and
monomials have a single bucket.  ``left_index(terms)`` is its mirror: it
maps a right key q to the left-hand terms (p, c) whose product pq may be
nonzero, grouped by column on M_n; ``middle_index(terms)`` maps (k1, k2) to
the terms (p, c) with k1 p k2 maybe nonzero (on M_n, E[j,k] for E[i,j], E[k,l]).
An index may list a term whose product is zero, never leave out one that is not.
``products`` walks a product through the index, and ``scalars._accumulate``
adds a stream of terms into one sparse map (``scalars._combined`` adds two):
sums and products of elements go through these, and so do the key-level
checkers, which never build an element per term.  Every other linear or
bilinear map of the package (the coproducts, D, endomorphisms, bimodule
actions, counit contractions, |>) is a rule on keys extended by
``linear_extend`` or, on key pairs, ``bilinear_extend``; a coproduct rule
returns the plain sparse map (k1, k2) -> coefficient of a key.

The tensor square A (x) A is an (A,A)-bimodule via

    a . (b (x) c) = ab (x) c        (``act_left``)
    (b (x) c) . a = b (x) ca        (``act_right``)
"""

from __future__ import annotations

import itertools

from .errors import DimensionMismatch, KindMismatch
from .scalars import (
    SCALAR_TYPES, _accumulate, _combined, _monomial_text, poly_text, scalar, scalar_items,
)


# ---------------------------------------------------------------------------
# basis keys
# ---------------------------------------------------------------------------

def EMatrix(i: int, j: int, n: int) -> tuple:
    """The key (i, j) of the elementary matrix E[i,j] of M_n (1-based)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DimensionMismatch(f"E[{i},{j}] out of range for dimension {n}")
    return (i, j)


# ---------------------------------------------------------------------------
# kinds: the underlying algebras
# ---------------------------------------------------------------------------

def _itself(key):
    return key


class MatrixKind:
    """The matrix algebra M_n over Q[L], in the elementary-matrix basis."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise DimensionMismatch(f"matrix dimension must be >= 1, got {n}")
        self.n = n

    def __eq__(self, other):
        return isinstance(other, MatrixKind) and self.n == other.n

    def __hash__(self):
        return hash(("matrix", self.n))

    def selector(self) -> str:
        return f"matrix:{self.n}"

    def mismatch(self, other):
        """The error for mixing with an unequal kind: DimensionMismatch with another M_n."""
        if isinstance(other, MatrixKind):
            return DimensionMismatch(f"mixed matrix dimensions {self.n} and {other.n}")
        return None

    @staticmethod
    def key_mul(p, q):
        """Delta rule: E[i,j]E[k,l] = E[i,l] if j = k, else zero (None)."""
        return (p[0], q[1]) if p[1] == q[0] else None

    def product_index(self, terms):
        """Right-hand terms grouped by row: E[i,j] meets only the terms E[j,l]."""
        rows = {}
        for q, c in terms.items():
            rows.setdefault(q[0], []).append((q, c))
        return lambda p: rows.get(p[1], ())

    def left_index(self, terms):
        """Left-hand terms grouped by column: E[k,l] is met only by the terms E[i,k]."""
        columns = {}
        for p, c in terms.items():
            columns.setdefault(p[1], []).append((p, c))
        return lambda q: columns.get(q[0], ())

    def middle_index(self, terms):
        """E[i,j] p E[k,l] vanishes unless p = E[j,k]: at most one term."""
        return lambda k1, k2: ((m, terms[m]),) if (m := (k1[1], k2[0])) in terms else ()

    def factor(self, key):
        """(x, rest) with key = x.rest, x a generator (see ``matrices``); None on M_1."""
        (i, j), n = key, self.n
        k = i + 1 if i < j or i == j < n else i - 1
        return None if n == 1 else ((i, k), (k, j))

    def unit_terms(self):
        # the identity matrix, expanded eagerly into basis terms
        return {(i, i): 1 for i in range(1, self.n + 1)}

    def validate_key(self, key):
        if not (
            type(key) is tuple and len(key) == 2
            and all(type(x) is int and 1 <= x <= self.n for x in key)
        ):
            raise KindMismatch(f"{key!r} is not a basis key of {self.selector()}")

    def key_text(self, key) -> str:
        return f"E[{key[0]},{key[1]}]"

    # row-major order
    sort_key = staticmethod(_itself)

    # elementary matrices carry no size: every key has size 0
    key_size_name = "size"

    def key_size(self, key) -> int:
        return 0

    finite_basis = True

    def count_keys(self, bound=None) -> int:
        return self.n * self.n

    def basis_keys(self, bound=None):
        return itertools.product(range(1, self.n + 1), repeat=2)


def ensure_same_kind(a, b):
    """Raise the most specific mismatch error unless a and b share a kind: the
    one a kind's ``mismatch`` names (two dimensions, two alphabets), else KindMismatch."""
    if a.kind is b.kind or a.kind == b.kind:
        return
    mismatch = getattr(a.kind, "mismatch", None)  # declared by kinds of unequal instances
    error = mismatch(b.kind) if mismatch else None
    raise error or KindMismatch(f"mixed algebra kinds {a.kind.selector()} and {b.kind.selector()}")


# ---------------------------------------------------------------------------
# sparse maps
# ---------------------------------------------------------------------------

def linear_extend(terms: dict, rule) -> dict:
    """The sparse map sum c * rule(key) over the terms (key, c) of ``terms``.

    ``rule(key)`` gives the image of a basis key as (key, coefficient) pairs;
    the map is filled in the order of ``terms``, then of each image.  A rule
    yields only nonzero coefficients, so no zero is ever stored: Q[L] has no
    zero divisors, so each c * d is nonzero, and ``_accumulate`` drops a sum
    that cancels.
    """
    out = {}
    _accumulate(out, ((k, c * d) for key, c in terms.items() for k, d in rule(key)))
    return out


def bilinear_extend(left: dict, right: dict, rule) -> dict:
    """The sparse map sum cp * cq * rule(p, q) over the terms (p, cp) of ``left``
    and (q, cq) of ``right``: the linear extension of ``rule`` over left (x) right."""
    pairs = {(p, q): cp * cq for p, cp in left.items() for q, cq in right.items()}
    return linear_extend(pairs, lambda pq: rule(*pq))


def products(kind, left: dict, right: dict):
    """Each nonzero (key, coeff) of the product of two term maps, pair by pair.

    Pairs come in the order of ``left``, then of ``right``; the kind's
    product index skips the right-hand terms a left key cannot meet.
    """
    key_mul = kind.key_mul
    meets = kind.product_index(right)
    for p, cp in left.items():
        for q, cq in meets(p):
            key = key_mul(p, q)
            if key is not None:
                yield key, cp * cq


class Element:
    """A finitely supported linear combination of basis keys over Q[L]."""

    __slots__ = ("kind", "terms")

    def __init__(self, kind, terms=None):
        self.kind = kind
        clean = {}
        if terms:
            for key, c in terms.items():
                kind.validate_key(key)
                c = scalar(c)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _make(cls, kind, terms):
        # internal: terms already normalized and validated
        out = cls.__new__(cls)
        out.kind = kind
        out.terms = terms
        return out

    @classmethod
    def zero(cls, kind):
        return cls._make(kind, {})

    @classmethod
    def from_key(cls, kind, key, coeff=1):
        kind.validate_key(key)
        coeff = scalar(coeff)
        return cls._make(kind, {key: coeff} if coeff else {})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.kind == other.kind and self.terms == other.terms

    def __hash__(self):
        return hash((self.kind, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        ensure_same_kind(self, other)
        return Element._make(self.kind, _combined(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element._make(self.kind, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "Element":
        c = scalar(c)
        if not c:
            return Element.zero(self.kind)
        return Element._make(self.kind, {k: scalar(v * c) for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            ensure_same_kind(self, other)
            terms = {}
            _accumulate(terms, products(self.kind, self.terms, other.terms))
            return Element._make(self.kind, terms)
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        return NotImplemented

    def sorted_terms(self):
        sort_key = self.kind.sort_key
        return sorted(self.terms.items(), key=lambda kv: sort_key(kv[0]))

    def __str__(self):
        return _combo_text(self.kind, self.sorted_terms(), single_leg=True)

    def __repr__(self):
        return f"<Element {self.kind.selector()}: {self}>"


class TensorElement:
    """A linear combination of k-tuples of basis keys (k >= 2 tensor legs)."""

    __slots__ = ("kind", "legs", "terms")

    def __init__(self, kind, legs, terms=None):
        if legs < 2:
            raise KindMismatch(f"tensor must have at least 2 legs, got {legs}")
        self.kind = kind
        self.legs = legs
        clean = {}
        if terms:
            for keys, c in terms.items():
                if len(keys) != legs:
                    raise KindMismatch(f"tuple {keys!r} does not have {legs} legs")
                for key in keys:
                    kind.validate_key(key)
                c = scalar(c)
                if c:
                    clean[tuple(keys)] = c
        self.terms = clean

    @classmethod
    def _make(cls, kind, legs, terms):
        out = cls.__new__(cls)
        out.kind = kind
        out.legs = legs
        out.terms = terms
        return out

    @classmethod
    def zero(cls, kind, legs=2):
        return cls._make(kind, legs, {})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.legs == other.legs
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.kind, self.legs, frozenset(self.terms.items())))

    def _check_compatible(self, other):
        ensure_same_kind(self, other)
        if self.legs != other.legs:
            raise KindMismatch(f"mixed leg counts {self.legs} and {other.legs}")

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check_compatible(other)
        return TensorElement._make(self.kind, self.legs, _combined(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TensorElement._make(
            self.kind, self.legs, {k: -c for k, c in self.terms.items()}
        )

    def scale(self, c) -> "TensorElement":
        c = scalar(c)
        if not c:
            return TensorElement.zero(self.kind, self.legs)
        terms = {k: scalar(v * c) for k, v in self.terms.items()}
        return TensorElement._make(self.kind, self.legs, terms)

    def __mul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def sorted_terms(self):
        sort_key = self.kind.sort_key
        return sorted(self.terms.items(), key=lambda kv: tuple(map(sort_key, kv[0])))

    def __str__(self):
        return _combo_text(self.kind, self.sorted_terms(), single_leg=False)

    def __repr__(self):
        return f"<TensorElement {self.kind.selector()} legs={self.legs}: {self}>"


# ---------------------------------------------------------------------------
# tensor product and bimodule actions
# ---------------------------------------------------------------------------

def _as_tuples(v):
    """View an Element or TensorElement as (legs, {key-tuple: coeff})."""
    if isinstance(v, Element):
        return 1, {(k,): c for k, c in v.terms.items()}
    return v.legs, v.terms


def tensor(u, v) -> TensorElement:
    """Bilinear tensor product; legs concatenate."""
    ensure_same_kind(u, v)
    lu, tu = _as_tuples(u)
    lv, tv = _as_tuples(v)
    # Q[L] has no zero divisors, so no product of stored coefficients is zero
    terms = {ku + kv: scalar(cu * cv) for ku, cu in tu.items() for kv, cv in tv.items()}
    return TensorElement._make(u.kind, lu + lv, terms)


def act_left(a: Element, t: TensorElement) -> TensorElement:
    """Left bimodule action a.(b (x) c) = ab (x) c, extended bilinearly."""
    ensure_same_kind(a, t)
    if t.legs != 2:
        raise KindMismatch(f"bimodule action needs 2 legs, got {t.legs}")
    key_mul = a.kind.key_mul
    return TensorElement._make(a.kind, 2, linear_extend(a.terms, lambda p: (
        ((key, k2), ct) for (k1, k2), ct in t.terms.items()
        if (key := key_mul(p, k1)) is not None
    )))


def act_right(t: TensorElement, a: Element) -> TensorElement:
    """Right bimodule action (b (x) c).a = b (x) ca, extended bilinearly."""
    ensure_same_kind(t, a)
    if t.legs != 2:
        raise KindMismatch(f"bimodule action needs 2 legs, got {t.legs}")
    key_mul = a.kind.key_mul
    return TensorElement._make(t.kind, 2, linear_extend(t.terms, lambda keys: (
        ((keys[0], key), cq) for q, cq in a.terms.items()
        if (key := key_mul(keys[1], q)) is not None
    )))


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def _coeff_prefix(c):
    """Render a coefficient as (sign, prefix-text); prefix '' means coefficient 1."""
    items = list(scalar_items(c))
    if len(items) == 1:
        (deg, q), = items
        text = "" if (deg, abs(q)) == (0, 1) else _monomial_text(deg, abs(q))
        return ("-" if q < 0 else "+"), text
    return "+", f"({poly_text(c)})"


def _combo_text(kind, sorted_terms, single_leg):
    parts = []
    for key, c in sorted_terms:
        if single_leg:
            body = kind.key_text(key)
        else:
            body = " (x) ".join(kind.key_text(k) for k in key)
        sign, prefix = _coeff_prefix(c)
        if prefix:
            body = f"{prefix} * {body}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" + {body}" if sign == "+" else f" - {body}")
    return "".join(parts) if parts else "0"
