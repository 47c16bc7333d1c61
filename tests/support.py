"""Shared test helpers: independent oracles and hypothesis strategies."""

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from epsbialg import (
    AlgebraInstance,
    Element,
    KindMismatch,
    LambdaPoly,
    LawReport,
    LinearEndomorphism,
    MatrixKind,
    NotNilpotentWithinCap,
    TensorElement,
    UnivarKind,
    Word,
    WordKind,
    act_left,
    act_right,
    antipode,
    antipode_endo,
    check_antipode_axiom,
    check_antipode_properties,
    check_cocycle,
    check_jacobi,
    check_left_representation,
    check_prelie_identity,
    classical_counit,
    d_map,
    linear_extend,
    tensor,
)
from epsbialg import matrix_algebra, matrix_from_rows, univar_algebra, word_algebra
from epsbialg.cli import build_algebra
from epsbialg.core import _d_powers
from epsbialg.prelie import _prelie_on_keys
from epsbialg.scalars import scalar_items
from epsbialg.verify import _cocycle_pairs, _failed, _passed, _triple_keys


def random_integer_matrix(n, rng):
    """A dense matrix with entries drawn from rng.randint(-9, 9)."""
    return matrix_from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


# -- independent dense-matrix oracle ----------------------------------------
# Classical row-by-column multiplication over Q[L]; knows nothing about the
# delta rule on elementary matrices.


def dense_from_element(e, n):
    rows = [[LambdaPoly() for _ in range(n)] for _ in range(n)]
    for (i, j), c in e.terms.items():
        rows[i - 1][j - 1] = rows[i - 1][j - 1] + c
    return rows


def dense_mul(a, b):
    n = len(a)
    out = [[LambdaPoly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = LambdaPoly()
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def element_from_dense(rows):
    n = len(rows)
    kind = MatrixKind(n)
    terms = {}
    for i in range(n):
        for j in range(n):
            if rows[i][j]:
                terms[(i + 1, j + 1)] = rows[i][j]
    return Element(kind, terms)


# -- the classical commutator --------------------------------------------------
# [E[i,j], E[k,l]] = delta_jk E[i,l] - delta_li E[k,j], the bracket of the
# associative product on M_n, for contrast with the paper's bracket.


def classical_matrix_bracket(kind, p, q):
    (i, j), (k, l) = p, q
    out = Element.zero(kind)
    if j == k:
        out = out + Element.from_key(kind, (i, l))
    if l == i:
        out = out - Element.from_key(kind, (k, j))
    return out


# -- Sweedler oracle for the pre-Lie product ----------------------------------
# The per-call sandwich sum b_(1) a b_(2) over the coproduct of b, with fresh
# basis elements; knows nothing of the basis-pair table in ``prelie``.


def sweedler_prelie_product(A, a, b):
    out = Element.zero(A.kind)
    for (k1, k2), c in A.coproduct(b).terms.items():
        out = out + (A.element(k1) * a * A.element(k2)).scale(c)
    return out


# -- closed form of the pre-Lie table on M_n -----------------------------------
# E[i,j] |> E[k,l] on the telescoping matrix instance, from the index pattern
# alone; knows nothing of the coproduct terms that ``prelie`` fills it from.


def matrix_prelie_table(p, q) -> dict:
    """E[k,l] if k < j = i+1 <= l;  -E[k,l] if l < j = i+1 <= k;  else 0."""
    (i, j), (k, l) = p, q
    if j == i + 1 and k < j <= l:
        return {q: 1}
    if j == i + 1 and l < j <= k:
        return {q: -1}
    return {}


# -- counit contractions ------------------------------------------------------
# (eps (x) id) and (id (x) eps) of the classical comatrix counit, linear maps
# on the tensor square extended from a rule on basis pairs by
# ``linear_extend``; no command applies them.


def counit_contract_left(t, counit=classical_counit):
    """(eps (x) id) applied to a 2-leg tensor."""
    return Element._make(t.kind, linear_extend(
        t.terms, lambda keys: ((keys[1], e),) if (e := counit(keys[0])) else ()
    ))


def counit_contract_right(t, counit=classical_counit):
    """(id (x) eps) applied to a 2-leg tensor."""
    return Element._make(t.kind, linear_extend(
        t.terms, lambda keys: ((keys[0], e),) if (e := counit(keys[1])) else ()
    ))


# -- termwise oracle for linear maps ---------------------------------------------
# A linear map on v as the sum of the images of its terms, each image built
# as a whole Element or TensorElement and scaled by its coefficient; knows
# nothing of ``lincomb.linear_extend``.


def termwise_oracle(v, image, zero):
    out = zero
    for key, c in v.terms.items():
        out = out + image(key).scale(c)
    return out


# -- convolution of linear endomorphisms ---------------------------------------
# f * g = m (f (x) g) Delta, one whole product per Sweedler term, and circular
# convolution f (*) g = f * g + f + g, whose two-sided unit is the zero map;
# with the convolution-power notion of local nilpotency, a cross-check of the
# D-power criterion that truncates the antipode series in ``core``.


def identity_endo(A):
    return LinearEndomorphism(A, lambda key: A.element(key), "id")


def zero_endo(A):
    return LinearEndomorphism(A, lambda key: Element.zero(A.kind), "0")


def convolution(A, f, g):
    """f * g, i.e. (f*g)(a) = sum f(a_(1)) g(a_(2))."""

    def rule(key):
        out = Element.zero(A.kind)
        for (k1, k2), c in A.basis_coproduct(key).items():
            out = out + (f.on_key(k1) * g.on_key(k2)).scale(c)
        return out

    return LinearEndomorphism(A, rule, f"({f.name} * {g.name})")


def circular_convolution(A, f, g):
    """f (*) g = f * g + f + g."""
    conv = convolution(A, f, g)
    return LinearEndomorphism(
        A, lambda key: conv.on_key(key) + f.on_key(key) + g.on_key(key),
        f"({f.name} (*) {g.name})",
    )


def convolution_power_vanishes(A, f, a, n):
    """Whether f^{*(n)}(a) = sum f(a_(1)) ... f(a_(n+1)) vanishes, from the
    (n+1)-leg Sweedler expansion of a."""

    def rule(keys):
        prod = f.on_key(keys[0])
        for key in keys[1:]:
            if prod.is_zero():
                break
            prod = prod * f.on_key(key)
        return prod.terms.items()

    return not linear_extend(A.iterated_coproduct(a, n).terms, rule)


def table_algebra(table, n=2):
    """M_n at weight 0 with the coproduct table {key: {(k1, k2): coeff}}."""
    kind = MatrixKind(n)
    return AlgebraInstance(
        kind, 0, lambda key: TensorElement(kind, 2, table.get(key, {})).terms,
        selector="table",
    )


# derived r-coproducts at weight 0 that break a law early (negative controls)
RMATRIX_CONTROLS = (
    "rmatrix:2:E[1,1] (x) E[1,1]:0",
    "rmatrix:3:E[1,1] (x) E[2,2]:0",
    "rmatrix:3:E[1,1] (x) E[3,2]:0",
)


# -- element-level oracles for the coalgebra law checkers ---------------------
# Each side of the law built as a whole Element or TensorElement through the
# linear coproduct, the bimodule actions and tensor subtraction; knows nothing
# of the key-level accumulation in ``laws.check_cocycle``/``check_coassoc``.


def tensor_cocycle_oracle(A, p, q):
    a = A.element(p)
    b = A.element(q)
    diff = A.coproduct(a * b) - act_left(a, A.coproduct(b)) - act_right(A.coproduct(a), b)
    if A.weight:
        diff = diff - tensor(a, b).scale(A.weight)
    if diff.is_zero():
        return LawReport.ok("cocycle")
    return LawReport.fail("cocycle", (A.kind.key_text(p), A.kind.key_text(q)), diff)


def tensor_coassoc_oracle(A, key):
    t = A.coproduct(A.element(key))
    diff = A._expand_leg(t, 0) - A._expand_leg(t, 1)
    if diff.is_zero():
        return LawReport.ok("coassoc")
    return LawReport.fail("coassoc", (A.kind.key_text(key),), diff)


# -- element-level oracles for the antipode checkers ---------------------------
# Each side of the law built as a whole Element or TensorElement, adding one
# product or tensor per Sweedler term; knows nothing of the key-level sparse
# maps in ``laws.check_antipode_axiom``/``check_antipode_properties``.  S is
# evaluated on keys in the order of the law's terms, as there.


def element_antipode_axiom_oracle(A, a):
    s = antipode_endo(A)
    sa = s(a)
    left = sa + a
    right = sa + a
    for (k1, k2), c in A.coproduct(a).terms.items():
        left = left + (s.on_key(k1) * A.element(k2)).scale(c)
        right = right + (A.element(k1) * s.on_key(k2)).scale(c)
    for side, value in (("left", left), ("right", right)):
        if not value.is_zero():
            return LawReport.fail(f"antipode-axiom-{side}", (str(a),), value)
    return LawReport.ok("antipode-axiom")


def element_antipode_properties_oracle(A, x, y):
    s = antipode_endo(A)
    diff = s(x * y) + s(x) * s(y)
    if not diff.is_zero():
        return LawReport.fail("antipode-multiplicativity", (str(x), str(y)), diff)
    both = A.coproduct(s(x))
    for (k1, k2), c in A.coproduct(x).terms.items():
        both = both + tensor(s.on_key(k1), s.on_key(k2)).scale(c)
    if not both.is_zero():
        return LawReport.fail("antipode-comultiplicativity", (str(x),), both)
    return LawReport.ok("antipode-properties")


def nilpotency_index(A, a):
    """Least k with D^k(a) = 0; raises NotNilpotentWithinCap where ``_d_powers`` does."""
    return len(_d_powers(A, a)) + 1


def iterated_nilpotency(A, a, steps):
    """Least k <= steps with D^k(a) = 0, or None: ``d_map`` iterated alone,
    with no bound, size or basis argument."""
    for k in range(1, steps + 1):
        a = d_map(A, a)
        if a.is_zero():
            return k
    return None


# -- oracle for the antipode suite ---------------------------------------------
# The element-level checkers run on every swept key and every ordered pair of
# them, S and the coproducts evaluated again for every check; knows nothing of
# the values ``sweeps._antipode_sweep`` shares or of the pairs it skips.  On
# M_n, 100 seeded random matrices follow, an independent cross-check of the
# checks the suite decides by linearity.  A series that does not truncate
# fails after the checks before it, as in that sweep.


def dense_antipode_sweep(A, max_len, seed=0):
    checks = 0
    try:
        s = antipode_endo(A)
        if s(A.unit) != -A.unit:
            return _failed(
                "antipode", "S(unit) != -unit",
                LawReport.fail("antipode-unit", ("unit",), s(A.unit) + A.unit),
                checks,
            )
        keys = list(A.basis_keys(max_len))
        d_vanishes = True
        for key in keys:
            e = A.element(key)
            if not d_map(A, e).is_zero():
                d_vanishes = False
            report = check_antipode_axiom(A, e)
            if not report:
                return _failed("antipode", f"axiom failure after {checks} checks", report, checks)
            checks += 1
        for p, q in itertools.product(keys, repeat=2):
            report = check_antipode_properties(A, A.element(p), A.element(q))
            if not report:
                return _failed(
                    "antipode", f"property failure after {checks} checks", report, checks
                )
            checks += 1
        if d_vanishes:
            # with D = 0 on the basis the series collapses to S = -id, so the
            # involution S(S(a)) = a is an exact bijectivity witness
            for key in keys:
                e = A.element(key)
                back = antipode(A, s(e))
                if back != e:
                    return _failed(
                        "antipode", "S(S(a)) != a",
                        LawReport.fail("antipode-involution", (str(e),), back - e),
                        checks,
                    )
                checks += 1
        if isinstance(A.kind, MatrixKind):
            rng = random.Random(seed)
            previous = None
            for _ in range(100):
                m = random_integer_matrix(A.kind.n, rng)
                report = check_antipode_axiom(A, m)
                if not report:
                    return _failed("antipode", "axiom failure on a random matrix", report, checks)
                partner = previous if previous is not None else m
                report = check_antipode_properties(A, m, partner)
                if not report:
                    return _failed(
                        "antipode", "property failure on a random matrix", report, checks
                    )
                if d_vanishes and s(m) != -m:
                    return _failed(
                        "antipode", "S != -id on a random matrix",
                        LawReport.fail("antipode-negation", (str(m),), s(m) + m),
                        checks,
                    )
                previous = m
                checks += 2
        return _passed("antipode", f"{checks} checks", checks)
    except NotNilpotentWithinCap as exc:
        if exc.basis is None:
            detail = f"series of {exc.element} does not truncate within cap {exc.cap}"
        else:
            detail = (
                f"series of {exc.element} never truncates: D^{exc.basis} of it is nonzero "
                f"on a basis of {exc.basis} keys"
            )
        return _failed("antipode", detail, None, checks)


# -- oracle for the cocycle sweep ----------------------------------------------
# The checker on every swept pair in canonical order; knows nothing of the
# generators or the factorizations that ``verify`` reduces the law to.


def dense_cocycle_sweep(A, max_len):
    count = 0
    for p, q in _cocycle_pairs(A, max_len):
        report = check_cocycle(A, p, q)
        if not report:
            return _failed("cocycle", f"failure after {count} pairs", report, count)
        count += 1
    return _passed("cocycle", f"{count} pairs checked", count)


# -- oracles for the triple-law sweeps -----------------------------------------
# The element-level checker run in canonical order on every basis triple
# (dense), or on every triple where some pair of entries touches under |>
# (touch); both know nothing of the term paths that ``verify`` follows.

_LAW_CHECKERS = {
    "prelie": check_prelie_identity,
    "jacobi": check_jacobi,
    "representation": check_left_representation,
}


def dense_law_sweep(A, max_len, which):
    A.require_weight_zero(f"suite {which!r}")
    keys = _triple_keys(A, max_len)
    checker = _LAW_CHECKERS[which]
    elements = [A.element(key) for key in keys]
    count = 0
    for a, b, c in itertools.product(elements, repeat=3):
        report = checker(A, a, b, c)
        if not report:
            return _failed(which, f"failure after {count} triples", report, count)
        count += 1
    return _passed(which, f"{count} triples checked", count)


def prelie_support(A, keys) -> list:
    """Which pairs of ``keys`` touch: ``touch[i][j]`` is whether keys[i] |> keys[j]
    or keys[j] |> keys[i] is nonzero.  Fills the table on every pair of ``keys``.

    The laws on a basis triple (a, b, c) nest |> only on pairs of entries at
    distinct positions: pre-Lie on (a,b), (b,c), (b,a), (a,c); Jacobi, through
    [a,b], [b,c], [c,a], on all six; representation [a,b] |> x on (a,b), (b,a),
    (b,x), (a,x).  If none of the three position pairs touches, every inner
    product is 0, so by bilinearity every term is 0 and the law holds as 0 = 0.
    """
    A.require_weight_zero("pre-Lie structure")
    n = len(keys)
    touch = [[False] * n for _ in range(n)]
    for i, p in enumerate(keys):
        for j, q in enumerate(keys):
            if _prelie_on_keys(A, p, q):
                touch[i][j] = touch[j][i] = True
    return touch


def touch_law_sweep(A, max_len, which):
    A.require_weight_zero(f"suite {which!r}")
    keys = _triple_keys(A, max_len)
    checker = _LAW_CHECKERS[which]
    elements = [A.element(key) for key in keys]
    touch = prelie_support(A, keys)
    count = evaluated = 0
    for i, j, k in itertools.product(range(len(keys)), repeat=3):
        if touch[i][j] or touch[j][k] or touch[i][k]:
            evaluated += 1
            report = checker(A, elements[i], elements[j], elements[k])
            if not report:
                return _failed(which, f"failure after {count} triples", report, count, evaluated)
        count += 1
    return _passed(which, f"{count} triples checked", count, evaluated)


# -- oracle for the letter-blind relabel check ---------------------------------
# The relabel conditions of the ``words`` docstring on every swept word, each
# image through the letter map chr(i) -> w[i] with its terms summed, and the
# rule called afresh every time; knows nothing of the slice templates or the
# memo of ``relabel._Relabel``.


def relabel_oracle(A, max_len):
    """(swept, rejected): whether the relabel conditions hold on every word of
    A up to ``max_len``, and the first word where they fail, or None."""
    rule = A._rule
    for w in A.basis_keys(max_len):
        n = len(w)
        try:
            generic = rule("".join(chr(i) for i in range(n)))
        except KindMismatch:  # a rule bound to A's alphabet refuses g_n
            return False, w
        legs = [k for pair in generic for k in pair]
        if any(len(k) > max_len or any(ord(letter) >= n for letter in k) for k in legs):
            return False, w
        image = {}
        for (u, v), c in generic.items():
            pair = ("".join(w[ord(a)] for a in u), "".join(w[ord(a)] for a in v))
            image[pair] = image.get(pair, 0) + c
        if {pair: c for pair, c in image.items() if c} != rule(w):
            return False, w
    return True, None


# -- oracle for the algebra suite ----------------------------------------------
# The unit checked by whole-element products, and associativity on every basis
# triple in canonical order; knows nothing of the product indexes that
# ``verify._associativity_walk`` follows.


def _key_element(kind, key):
    return Element.zero(kind) if key is None else Element.from_key(kind, key)


def dense_associativity_oracle(A, max_len):
    kind = A.kind
    keys = _triple_keys(A, max_len)
    key_mul = kind.key_mul
    for count, p in enumerate(keys):
        e = Element.from_key(kind, p)
        for side in (A.unit * e, e * A.unit):
            if side != e:
                report = LawReport.fail("unit", (kind.key_text(p),), side - e)
                return _failed("algebra", f"unit failure after {count} keys", report, count)
    count = 0
    for p in keys:
        for q in keys:
            pq = key_mul(p, q)
            for r in keys:
                qr = key_mul(q, r)
                left = key_mul(pq, r) if pq is not None else None
                right = key_mul(p, qr) if qr is not None else None
                if left != right:
                    report = LawReport.fail(
                        "associativity",
                        tuple(kind.key_text(k) for k in (p, q, r)),
                        _key_element(kind, left) - _key_element(kind, right),
                    )
                    return _failed("algebra", f"failure after {count} triples", report, count)
                count += 1
    return _passed("algebra", f"{count} triples checked", count)


def nonzero_associativity_sides(A, max_len):
    """{canonical index: ((pq)r, p(qr))} over every triple with a nonzero side."""
    keys = _triple_keys(A, max_len)
    key_mul = A.kind.key_mul
    sides = {}
    for index, (p, q, r) in enumerate(itertools.product(keys, repeat=3)):
        pq, qr = key_mul(p, q), key_mul(q, r)
        left = key_mul(pq, r) if pq is not None else None
        right = key_mul(p, qr) if qr is not None else None
        if left is not None or right is not None:
            sides[index] = (left, right)
    return sides


# -- the canonical coefficient form --------------------------------------------


def is_canonical(c):
    """Whether c is a coefficient in canonical form: an int, a Fraction that is
    not integral, or a LambdaPoly of positive degree whose coefficients are
    ints when integral and Fractions otherwise."""
    if type(c) is int:
        return True
    if type(c) is Fraction:
        return c.denominator != 1
    return (
        type(c) is LambdaPoly
        and c.degree() > 0
        and all(type(q) is (int if q.denominator == 1 else Fraction) and q for _, q in c.items())
    )


def specialize(c, value):
    """The coefficient c, in any form, evaluated at L = value: a Fraction (the
    ring homomorphism Q[L] -> Q)."""
    v = Fraction(value)
    return sum((q * v**deg for deg, q in scalar_items(c)), Fraction(0))


# -- hypothesis strategies ----------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)

lambda_polys = st.dictionaries(
    st.integers(min_value=0, max_value=3), small_fractions, max_size=3
).map(LambdaPoly)

nonzero_polys = lambda_polys.filter(bool)


def matrix_elements(n, max_terms=3):
    kind = MatrixKind(n)
    idx = st.integers(min_value=1, max_value=n)
    keys = st.tuples(idx, idx)
    return st.dictionaries(keys, lambda_polys, max_size=max_terms).map(
        lambda terms: Element(kind, terms)
    )


def word_elements(alphabet="xy", max_len=3, max_terms=3):
    kind = WordKind(alphabet)
    letters = st.integers(min_value=0, max_value=len(kind.alphabet) - 1)
    keys = st.lists(letters, max_size=max_len).map(Word)
    return st.dictionaries(keys, lambda_polys, max_size=max_terms).map(
        lambda terms: Element(kind, terms)
    )


def univar_elements(max_degree=4, max_terms=3):
    kind = UnivarKind()
    keys = st.integers(min_value=0, max_value=max_degree)
    return st.dictionaries(keys, lambda_polys, max_size=max_terms).map(
        lambda terms: Element(kind, terms)
    )


def linear_map_cases():
    """{name: (instance, its elements)} on which the linear maps are checked:
    M_3, words and univar at weight L, and the rmatrix controls, whose
    coproduct images cancel across keys (Delta_r(1) = 0 at weight 0)."""
    cases = {
        "matrix3": (matrix_algebra(3), matrix_elements(3)),
        "word-L": (word_algebra("xy"), word_elements()),
        "univar-L": (univar_algebra(), univar_elements()),
    }
    for i, selector in enumerate(RMATRIX_CONTROLS, start=1):
        n = int(selector.split(":")[1])
        cases[f"rmatrix{i}"] = (build_algebra(selector, None), matrix_elements(n))
    return cases
