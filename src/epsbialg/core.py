"""Generic machinery over a bundled algebra-with-coproduct instance.

An ``AlgebraInstance`` packages one coalgebra structure sitting on top of a
``Kind``: the kind's product and unit, a basis coproduct rule, and a weight
in Q[L].  The rule maps a basis key to its coproduct as the plain sparse map
(k1, k2) -> coefficient.  Everything downstream is generic in the instance:

* linear extension (``lincomb.linear_extend``) of the coproduct and its
  iterates, as of every linear map below: D and endomorphisms;
* D = m Delta, local nilpotency detection, and the antipode series
      S = -sum_{t>=0} (1/t!) (-D)^t
  which truncates exactly at the least k with D^k(a) = 0;
* the derived coproduct  Delta_r(a) = a.r - r.a - weight * (a (x) 1)
  attached to an element r of the tensor square.

The law checkers (the weighted-derivation law, coassociativity and the
antipode laws) live in ``laws``, which only ``verify`` imports; the
``LawReport`` and ``Witness`` they return are defined here, as the pre-Lie
checkers of ``prelie`` return them too.  They are plain classes with value
``==``, not dataclasses, so that no CLI process pays for importing
``dataclasses``.
"""

from __future__ import annotations

from itertools import count

from .errors import KindMismatch, NotNilpotentWithinCap, TooManyTerms, WeightNotZero
from .lincomb import Element, TensorElement, act_left, act_right, linear_extend, tensor
from .scalars import MAX_TERMS, _accumulate, scalar, scalar_items


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


class AlgebraInstance:
    """One weighted unital algebra-and-coproduct bundle over Q[L].

    The coproduct of a basis key has two views, each memoized per instance:
    ``basis_coproduct``, the rule's map (k1, k2) -> coefficient, and
    ``graded_coproduct``, the map (k1, k2, degree) -> rational that the
    coalgebra checkers read.  Each is built from the rule, not from the
    other, so a sweep reading one view holds one copy of each coproduct:
    grading the plain memo instead raised the peak RSS of ``verify --suite
    all -a word:xy --max-len 9`` from 21.3 to 22.6 MB.  Construction does no
    work that grows with the basis: that the kind's product is associative
    and its unit two-sided is checked by the ``algebra`` verify suite.
    ``tags`` are capabilities the instance declares, such as ``telescoping``
    for M_n with the telescoping coproduct.
    """

    def __init__(self, kind, weight, basis_coproduct, selector=None, tags=()):
        self.kind = kind
        self.weight = scalar(weight)
        self._weight_items = tuple(scalar_items(self.weight))  # (degree, rational) pairs
        self._rule = basis_coproduct
        self.selector = selector or kind.selector()
        self.tags = frozenset(tags)
        self.unit = Element._make(kind, kind.unit_terms())
        self._memo = {}  # key -> {(k1, k2): coeff}, filled by basis_coproduct
        self._graded = {}  # key -> {(k1, k2, degree): rational}, filled by graded_coproduct
        self._prelie_table = {}  # (key, key) -> {key: coeff}, filled by prelie
        self._prelie_entries = {}  # tuple of keys -> [(i, j)] with a nonzero row, filled by prelie
        self._antipode = None  # the LinearEndomorphism S, filled by antipode_endo
        # max_len -> relabel verdicts, filled by verify on words.  An image is read
        # from slices of the word where every generic leg is a run, else through
        # the letter map, summed where that merges terms.  Only the generic
        # instance's verdicts are kept: swept words are checked once, unmemoized
        self._relabel = {}
        self._prelie_law = {}  # max_len -> (pre-Lie law values, reached triples), filled by verify
        self._associative = {}  # max_len -> whether the algebra suite passed, filled by verify

    def basis_keys(self, bound=6):
        return self.kind.basis_keys(bound)

    def element(self, key, coeff=1) -> Element:
        return Element.from_key(self.kind, key, coeff)

    def require_weight_zero(self, what: str):
        """Raise WeightNotZero, saying that ``what`` needs weight 0, unless it is 0."""
        if self.weight:
            raise WeightNotZero(f"{what} needs weight 0, instance has weight {self.weight}")

    def _own(self, v):
        if v.kind is not self.kind and v.kind != self.kind:
            raise KindMismatch(
                f"{self.selector} cannot operate on a value of kind {v.kind.selector()}"
            )

    def multiply(self, a: Element, b: Element) -> Element:
        self._own(a)
        self._own(b)
        return a * b

    def basis_coproduct(self, key) -> dict:
        """The coproduct of a basis key as the sparse map (k1, k2) -> coefficient."""
        t = self._memo.get(key)
        if t is None:
            t = self._rule(key)
            self._memo[key] = t
        return t

    def graded_coproduct(self, key) -> dict:
        """The coproduct of a basis key split by power of L, as the sparse map
        (k1, k2, degree) -> rational (an int, or a Fraction that is not integral)."""
        g = self._graded.get(key)
        if g is None:
            g = {
                (k1, k2, e): q
                for (k1, k2), c in self._rule(key).items() for e, q in scalar_items(c)
            }
            self._graded[key] = g
        return g

    def coproduct(self, a: Element) -> TensorElement:
        """Linear extension of the basis coproduct; Delta(0) = 0."""
        self._own(a)
        delta = self.basis_coproduct
        return TensorElement._make(
            self.kind, 2, linear_extend(a.terms, lambda key: delta(key).items())
        )

    def _expand_leg(self, t: TensorElement, pos: int) -> TensorElement:
        """Apply the coproduct to leg ``pos``, yielding one more leg."""
        delta = self.basis_coproduct

        def rule(keys):
            head, tail = keys[:pos], keys[pos + 1 :]
            return ((head + uv + tail, d) for uv, d in delta(keys[pos]).items())

        return TensorElement._make(self.kind, t.legs + 1, linear_extend(t.terms, rule))

    def iterated_coproduct(self, a: Element, k: int) -> TensorElement:
        """Delta applied k times (k >= 1), always expanding the leftmost leg.

        By coassociativity the expansion position is immaterial; fixing the
        leftmost leg makes the output deterministic even on instances that
        fail coassociativity.
        """
        if k < 1:
            raise ValueError(f"iterated coproduct needs k >= 1, got {k}")
        t = self.coproduct(a)
        for _ in range(k - 1):
            t = self._expand_leg(t, 0)
        return t

    def __repr__(self):
        return f"<AlgebraInstance {self.selector} weight={self.weight}>"


# ---------------------------------------------------------------------------
# linear endomorphisms, antipode
# ---------------------------------------------------------------------------

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


def d_map(A: AlgebraInstance, a: Element) -> Element:
    """D(a) = m Delta(a) = sum a_(1) a_(2)."""
    A._own(a)
    key_mul = A.kind.key_mul
    return Element._make(A.kind, linear_extend(a.terms, lambda key: (
        (k, d) for (k1, k2), d in A.basis_coproduct(key).items()
        if (k := key_mul(k1, k2)) is not None
    )))


# The coproduct terms D may visit over one antipode series.  The complete
# series of x^1000, the largest monomial the parser accepts, visits 500,500;
# x*y and (x+y)^2 on words at weight 0 reach step SERIES_CAP after 91,520 and
# 187,328, where x*y*x would go on to 2.3 million.
MAX_SERIES_WORK = 2 ** 19
SERIES_CAP = 64  # where a series on an infinite basis ends, unless its degree falls


def _d_powers(A: AlgebraInstance, a: Element) -> list:
    """[D(a), D^2(a), ..., D^(k-1)(a)] for the least k with D^k(a) = 0.

    NotNilpotentWithinCap is raised at the first step k >= N (the number of
    keys on a finite basis, else SERIES_CAP) where D^k(a) != 0 and its largest
    key size did not fall below that of D^(k-1)(a).  On a finite basis this is
    exact: the D-orbit of a spans at most N dimensions over Q(L), so D^N(a) = 0
    if D is nilpotent there; M_n keys all have size 0, so it stops at N.  A
    series whose largest size falls at every step reaches size 0, so it is
    never cut off: on univar at weight 0, D(x^n) = n x^(n-1).  Words at weight
    0 grow at every step: SERIES_CAP alone decides.  TooManyTerms is raised
    once a power has more than MAX_TERMS terms or, before it is computed, once
    the series would visit more than MAX_SERIES_WORK coproduct terms."""
    size, delta = A.kind.key_size, A.basis_coproduct
    basis = A.kind.count_keys() if A.kind.finite_basis else None
    powers, cur, work = [], a, 0
    top = max(map(size, a.terms), default=0)  # the largest key size of D^(k-1)(a)
    for k in count(1):
        work += sum(len(delta(key)) for key in cur.terms)
        if work > MAX_SERIES_WORK:
            raise TooManyTerms(
                f"antipode series: computing D^{k}(a) would visit {work} coproduct "
                f"terms in all, more than the limit {MAX_SERIES_WORK}"
            )
        cur = d_map(A, cur)
        if cur.is_zero():
            return powers
        if len(cur.terms) > MAX_TERMS:
            raise TooManyTerms(
                f"antipode series: D^{k}(a) has {len(cur.terms)} terms, "
                f"more than the limit {MAX_TERMS}"
            )
        below, top = top, max(map(size, cur.terms))
        if k >= (basis or SERIES_CAP) and top >= below:
            raise NotNilpotentWithinCap(k, element=a, basis=basis)
        powers.append(cur)


def antipode(A: AlgebraInstance, a: Element) -> Element:
    """The antipode series S(a) = -sum_{t>=0} (1/t!) (-D)^t (a).

    Defined for weight-zero instances only; the series is truncated at the
    nilpotency index of a, where it is exact, and D^t(a) is computed once.
    ``_d_powers`` decides where no such index exists: see there.
    """
    A.require_weight_zero("antipode")
    A._own(a)
    out = {}
    _accumulate(out, a.terms.items(), negate=True)
    factorial = 1
    for t, cur in enumerate(_d_powers(A, a), start=1):
        from fractions import Fraction  # only a series that does not end at once builds one
        factorial *= t
        # -(1/t!)(-1)^t = (-1)^(t+1)/t!
        coeff = scalar(Fraction(1 if t % 2 else -1, factorial))
        _accumulate(out, ((k, c * coeff) for k, c in cur.terms.items()))
    return Element._make(A.kind, out)


def antipode_endo(A: AlgebraInstance) -> LinearEndomorphism:
    """The antipode series as an endomorphism, one per instance.

    The checkers share it, so S is evaluated once per basis key.  A key whose
    series does not truncate raises on every call and is never memoized."""
    if A._antipode is None:
        A._antipode = LinearEndomorphism(A, lambda key: antipode(A, A.element(key)), "S")
    return A._antipode


# ---------------------------------------------------------------------------
# coproducts derived from a tensor element
# ---------------------------------------------------------------------------

def coproduct_from_r(A: AlgebraInstance, r: TensorElement, weight, selector=None) -> AlgebraInstance:
    """The derived coproduct Delta_r(a) = a.r - r.a - weight * (a (x) 1).

    Shares A's product and unit.  Delta_r always satisfies the weighted
    derivation law; coassociativity is NOT guaranteed and must be checked
    per instance.
    """
    if not isinstance(r, TensorElement) or r.legs != 2:
        raise KindMismatch("r must be a 2-leg tensor element")
    if r.kind != A.kind:
        raise KindMismatch(
            f"r has kind {r.kind.selector()}, algebra is {A.kind.selector()}"
        )
    weight = scalar(weight)
    unit = A.unit

    def rule(key):
        e = Element.from_key(A.kind, key)
        t = act_left(e, r) - act_right(r, e)
        if weight:
            t = t - tensor(e, unit).scale(weight)
        return t.terms

    return AlgebraInstance(
        A.kind,
        weight,
        rule,
        selector=selector or f"{A.kind.selector()}:r-coproduct",
    )


# The benchmark's tracer (``bench/tracer.py``) names these four checkers as
# ``core.*``.  They are read from ``laws`` on each lookup and never bound here,
# so ``core`` does not import ``laws`` and a wrapper the tracer puts on
# ``laws`` is the one found.  This hook goes once the tracer names ``laws``.
_IN_LAWS = frozenset(
    ("check_cocycle", "check_coassoc", "check_antipode_axiom", "check_antipode_properties")
)


def __getattr__(name):
    if name not in _IN_LAWS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import laws

    return getattr(laws, name)
