"""The law checkers of an ``AlgebraInstance``, and the types they return.

Only ``verify`` imports this module, and the three pre-Lie checkers of
``prelie`` read ``LawReport`` from it inside their bodies: a command that
computes one value, such as a ``coproduct``, an ``antipode`` or a
``bracket`` on ``matrix:N``, never compiles it.

Checkers return a ``LawReport`` rather than raising: a failing law is a
result, not an error.  Reports carry the first failing ``Witness`` so that a
broken instance reproduces deterministically.

The two coalgebra law checkers work at key level on L-graded keys: each
builds the two sides of its law, read from the coproducts split by power of
L (``graded_coproduct``), as two sparse maps on (legs..., degree) keys, and
compares them with ``==``.  Degrees add and the rational parts multiply as
ints or Fractions, so a passing check does no ``LambdaPoly`` arithmetic; two
sides in Q[L] agree iff each degree's parts do.  Only on a failure is the
difference left - right taken and folded back into Q[L] (``_fold``), for the
witness.  The element-level forms of the laws are oracles in
``tests/support.py``, as are convolutions.

The antipode checkers work at key level too.  They read S through
``antipode_endo``, the series ``core.antipode`` as a ``LinearEndomorphism``
memoized on the instance.  Each side of a law is one sparse map, built from
the terms of its inputs, their S images and their coproducts by a builder
that the ``verify`` sweep shares; S is evaluated on keys in the order of
the law's terms, so a series that does not truncate is named by the same
key as the element-level forms would name.  Those forms, which add whole
elements and tensors term by term, are the test oracles
``element_antipode_axiom_oracle`` and ``element_antipode_properties_oracle``
in ``tests/support.py``.
"""

from .core import AlgebraInstance, antipode
from .lincomb import Element, TensorElement, linear_extend, products
from .scalars import LambdaPoly, _accumulate, _combined, scalar


class Witness:
    """The offending inputs (already rendered to text) and the nonzero difference, or None."""

    __slots__ = ("inputs", "difference")

    def __init__(self, inputs, difference):
        self.inputs = inputs
        self.difference = difference

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.inputs, self.difference) == (other.inputs, other.difference)

    def __str__(self):
        ins = ", ".join(self.inputs)
        if self.difference is None:
            return f"inputs ({ins})"
        return f"inputs ({ins}): difference = {self.difference}"


class LawReport:
    """Whether one law held and, if it failed, the first failing ``Witness``.

    A plain class, not a dataclass: importing ``dataclasses`` costs each CLI
    process about 10 ms, more than a short command's own work."""

    __slots__ = ("law", "passed", "witness")

    def __init__(self, law, passed, witness=None):
        self.law = law
        self.passed = passed
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.law, self.passed, self.witness) == (other.law, other.passed, other.witness)

    def __bool__(self):
        return self.passed

    @classmethod
    def ok(cls, law):
        return cls(law, True, None)

    @classmethod
    def fail(cls, law, inputs, difference):
        return cls(law, False, Witness(tuple(str(x) for x in inputs), difference))


class LinearEndomorphism:
    """A linear map A -> A given by a rule on basis keys, memoized.

    The memo is a plain dict: the rule is pure, so concurrent evaluation can
    at worst recompute an identical value (recomputation-tolerant).
    """

    def __init__(self, algebra: AlgebraInstance, rule, name="f"):
        self.algebra = algebra
        self.name = name
        self._rule = rule
        self._memo = {}

    def on_key(self, key) -> Element:
        e = self._memo.get(key)
        if e is None:
            e = self._rule(key)
            self._memo[key] = e
        return e

    def __call__(self, v: Element) -> Element:
        self.algebra._own(v)
        on_key = self.on_key
        return Element._make(v.kind, linear_extend(v.terms, lambda key: on_key(key).terms.items()))


def antipode_endo(A: AlgebraInstance) -> LinearEndomorphism:
    """The antipode series as an endomorphism, one per instance.

    The checkers share it, so S is evaluated once per basis key.  A key whose
    series does not truncate raises on every call and is never memoized."""
    if A._antipode is None:
        A._antipode = LinearEndomorphism(A, lambda key: antipode(A, A.element(key)), "S")
    return A._antipode


def _fold(graded: dict) -> dict:
    """The sparse map legs -> coefficient in Q[L] of a map (legs..., degree) -> rational."""
    coeffs = {}
    for keys, q in graded.items():
        coeffs.setdefault(keys[:-1], {})[keys[-1]] = q
    return {legs: scalar(LambdaPoly(c)) for legs, c in coeffs.items()}


def check_cocycle(A: AlgebraInstance, p, q) -> LawReport:
    """The weighted-derivation law on a basis pair:

    Delta(ab) == a.Delta(b) + Delta(a).b + weight * (a (x) b) in Q[L];
    the witness is the difference of the two sides.
    """
    kind = A.kind
    kind.validate_key(p)
    kind.validate_key(q)
    key_mul = kind.key_mul
    delta = A.graded_coproduct
    pq = key_mul(p, q)
    left = {} if pq is None else delta(pq)  # Delta(pq), the memo itself
    right = {}
    _accumulate(  # p.Delta(q)
        right,
        (((pk, k2, e), c) for (k1, k2, e), c in delta(q).items()
         if (pk := key_mul(p, k1)) is not None),
    )
    _accumulate(  # + Delta(p).q
        right,
        (((k1, kq, e), c) for (k1, k2, e), c in delta(p).items()
         if (kq := key_mul(k2, q)) is not None),
    )
    _accumulate(right, (((p, q, e), c) for e, c in A._weight_items))  # + weight * (p (x) q)
    if left == right:
        return LawReport.ok("cocycle")
    diff = _combined(left, right, True)  # left - right, for the witness
    return LawReport.fail(
        "cocycle", (kind.key_text(p), kind.key_text(q)), TensorElement._make(kind, 2, _fold(diff))
    )


def check_coassoc(A: AlgebraInstance, key) -> LawReport:
    """(Delta (x) id) Delta == (id (x) Delta) Delta on a basis key; the witness
    is the difference of the two sides."""
    A.kind.validate_key(key)
    delta = A.graded_coproduct
    terms = delta(key).items()
    # Delta(k1) (x) k2 and k1 (x) Delta(k2), over the terms of Delta(key);
    # the powers of L multiply, so their degrees add
    left, right = {}, {}
    _accumulate(left, (
        ((u, v, k2, e + f), c * d)
        for (k1, k2, e), c in terms for (u, v, f), d in delta(k1).items()
    ))
    _accumulate(right, (
        ((k1, u, v, e + f), c * d)
        for (k1, k2, e), c in terms for (u, v, f), d in delta(k2).items()
    ))
    if left == right:
        return LawReport.ok("coassoc")
    _accumulate(left, right.items(), negate=True)  # left - right, for the witness
    return LawReport.fail(
        "coassoc", (A.kind.key_text(key),), TensorElement._make(A.kind, 3, _fold(left))
    )


def _axiom_sides(A: AlgebraInstance, s, terms, s_terms, delta_terms) -> tuple:
    """The two sides of the axiom on a, 0 where it holds, from the terms of a, S(a), Delta(a)."""
    key_mul = A.kind.key_mul
    left = _combined(s_terms, terms)
    right = dict(left)
    # S on the legs of Delta(a), term by term: k1 then k2
    legs = [(k1, k2, c, s.on_key(k1).terms, s.on_key(k2).terms)
            for (k1, k2), c in delta_terms.items()]
    _accumulate(left, (  # + S(k1) k2
        (k, d * c) for k1, k2, c, s1, _ in legs for u, d in s1.items()
        if (k := key_mul(u, k2)) is not None
    ))
    _accumulate(right, (  # + k1 S(k2)
        (k, d * c) for k1, k2, c, _, s2 in legs for v, d in s2.items()
        if (k := key_mul(k1, v)) is not None
    ))
    return left, right


def _multiplicativity_difference(kind, s_xy, sx, sy) -> dict:
    """S(xy) + S(x)S(y) from the terms of S(xy), S(x) and S(y)."""
    diff = dict(s_xy)
    _accumulate(diff, products(kind, sx, sy))
    return diff


def _comultiplicativity_difference(A: AlgebraInstance, s, sx, delta_terms) -> dict:
    """Delta(S(x)) + (S (x) S) Delta(x) from the terms of S(x) and Delta(x)."""
    both = linear_extend(sx, lambda key: A.basis_coproduct(key).items())
    legs = [(c, s.on_key(k1).terms, s.on_key(k2).terms) for (k1, k2), c in delta_terms.items()]
    _accumulate(both, (  # + S(k1) (x) S(k2)
        ((u, v), d * e * c) for c, s1, s2 in legs for u, d in s1.items() for v, e in s2.items()
    ))
    return both


def check_antipode_axiom(A: AlgebraInstance, a: Element) -> LawReport:
    """sum S(a_(1)) a_(2) + S(a) + a == 0 == sum a_(1) S(a_(2)) + a + S(a)."""
    s = antipode_endo(A)
    sides = _axiom_sides(A, s, a.terms, s(a).terms, A.coproduct(a).terms)
    for side, value in zip(("left", "right"), sides):
        if value:
            difference = Element._make(A.kind, value)
            return LawReport.fail(f"antipode-axiom-{side}", (str(a),), difference)
    return LawReport.ok("antipode-axiom")


def check_antipode_properties(A: AlgebraInstance, x: Element, y: Element) -> LawReport:
    """S(xy) = -S(x)S(y), and Delta(S(x)) = -(S (x) S) Delta(x)."""
    s = antipode_endo(A)
    s_xy = s(x * y).terms
    sx = s(x).terms
    diff = _multiplicativity_difference(A.kind, s_xy, sx, s(y).terms)
    if diff:
        return LawReport.fail(
            "antipode-multiplicativity", (str(x), str(y)), Element._make(A.kind, diff)
        )
    both = _comultiplicativity_difference(A, s, sx, A.coproduct(x).terms)
    if both:
        return LawReport.fail(
            "antipode-comultiplicativity", (str(x),), TensorElement._make(A.kind, 2, both)
        )
    return LawReport.ok("antipode-properties")
