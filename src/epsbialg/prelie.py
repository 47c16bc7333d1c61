"""Pre-Lie product and Lie bracket induced by a weight-zero instance.

For a weight-zero unitary instance the Sweedler sandwich

    a |> b = sum b_(1) a b_(2)

is a (left) pre-Lie product, and [a, b] = a |> b - b |> a is a Lie bracket.
(Aguiar, "Infinitesimal Hopf algebras", Contemp. Math. 267, 2000.)

``prelie_product`` is the bilinear extension (``lincomb.bilinear_extend``)
of a structure-constant table: p |> q on each ordered pair of basis keys,
kept per ``AlgebraInstance`` as a sparse map key -> coefficient and filled
lazily at key level, with no ``Element`` built per Sweedler term.  This is
the idiom of GAP's ``LieAlgebraByStructureConstants``.  The per-call
Sweedler sum sum A.element(k1) * a * A.element(k2) lives on as the test
oracle ``sweedler_prelie_product`` in ``tests/support.py``.

The table is sparse (40 of 625 pairs are nonzero on M_5): ``_prelie_entries``
finds its entries on a set of keys from the coproduct terms, and the ``verify``
sweeps compute the laws along them at key level.  The checkers below are their
oracles, run by ``dense_law_sweep`` and ``touch_law_sweep`` in ``tests/support.py``.

On the telescoping matrix instance the bracket admits two closed forms on
elementary matrices, implemented as independent code paths:

* ``matrix_bracket_closed_form`` -- the summarised sign form with exact
  half-integer sign conditions such as (i - k + 1/2)(i - l + 1/2) < 0,
  evaluated in integers, scaled by 4: (2(i - k) + 1)(2(i - l) + 1) < 0;
* ``matrix_bracket_table`` -- the five-case table it sums up.

These return the sparse map key -> coefficient of one pair of basis keys and
need no kind, as the |> table; ``bilinear_from_pairs`` extends such a rule to
elements.  Both bracket forms vanish outside ``matrix_bracket_support``.  The
closed form of |> itself on M_n, which no command reads, is the test oracle
``matrix_prelie_table`` in ``tests/support.py``.

The table is the oracle and the sign form the formula under test: any
disagreement between the paths is a finding to report, never to patch over.
Both differ from the classical commutator delta_jk E[i,l] - delta_li E[k,j]
(the test oracle ``classical_matrix_bracket`` in ``tests/support.py``).
"""

from __future__ import annotations

from .core import AlgebraInstance, LawReport
from .lincomb import Element, bilinear_extend, ensure_same_kind
from .matrices import sgn
from .scalars import _accumulate


def _prelie_entries(A: AlgebraInstance, keys) -> list:
    """The pairs (i, j) with keys[i] |> keys[j] != 0, in order, memoized on A,
    their rows put in A's table.  A term (k1, k2) of Delta(q) meets only the p
    that the kind's middle index lists: on M_n one, so O(nnz Delta) products."""
    keys = tuple(keys)
    if keys not in A._prelie_entries:
        key_mul, middle = A.kind.key_mul, A.kind.middle_index(dict(zip(keys, range(len(keys)))))
        rows = {}  # (i, j) -> keys[i] |> keys[j]
        for j, q in enumerate(keys):
            for (k1, k2), c in A.basis_coproduct(q).items():
                for p, i in middle(k1, k2):
                    if (left := key_mul(k1, p)) is not None and (key := key_mul(left, k2)) is not None:
                        _accumulate(rows.setdefault((i, j), {}), ((key, c),))
        A._prelie_table.update(((keys[i], keys[j]), row) for (i, j), row in rows.items())
        A._prelie_entries[keys] = sorted(pair for pair, row in rows.items() if row)
    return A._prelie_entries[keys]


def _prelie_on_keys(A: AlgebraInstance, p, q) -> dict:
    """p |> q on basis keys as a sparse map key -> coefficient, tabulated on A.

    Filled on first use: each term (k1, k2), c of Delta(q) contributes
    c * k1 p k2 unless the product of keys vanishes.
    """
    row = A._prelie_table.get((p, q))
    if row is None:
        key_mul = A.kind.key_mul
        row = {}
        _accumulate(row, (
            (key, c) for (k1, k2), c in A.basis_coproduct(q).items()
            if (left := key_mul(k1, p)) is not None and (key := key_mul(left, k2)) is not None
        ))
        A._prelie_table[(p, q)] = row
    return row


def prelie_product(A: AlgebraInstance, a: Element, b: Element) -> Element:
    """a |> b = sum b_(1) a b_(2), the bilinear extension of the basis-pair table."""
    A.require_weight_zero("pre-Lie structure")
    A._own(a)
    A._own(b)
    return Element._make(
        A.kind, bilinear_extend(a.terms, b.terms, lambda p, q: _prelie_on_keys(A, p, q).items())
    )


def commutator_bracket(A: AlgebraInstance, a: Element, b: Element) -> Element:
    """[a, b] = a |> b - b |> a."""
    return prelie_product(A, a, b) - prelie_product(A, b, a)


def matrix_bracket_table(p, q) -> dict:
    """Five-case table for [E[i,j], E[k,l]] on the telescoping matrix instance."""
    (i, j), (k, l) = p, q
    if j == i + 1 and l == k + 1 and j == l:
        return {}  # E[k,l] - E[i,j], where j = l forces i = k
    if k < j == i + 1 <= l and l != k + 1:
        return {q: 1}
    if l < j == i + 1 <= k:
        return {q: -1}
    if i < l == k + 1 <= j and j != i + 1:
        return {p: -1}
    if j < l == k + 1 <= i:
        return {p: 1}
    return {}


def matrix_bracket_closed_form(p, q) -> dict:
    """Summarised sign form of the same bracket, with half-integer conditions."""
    (i, j), (k, l) = p, q
    # (i - k + 1/2)(i - l + 1/2) < 0 scaled by 4, and so on: no factor is 0
    if j == i + 1 and l != k + 1 and (2 * (i - k) + 1) * (2 * (i - l) + 1) < 0:
        return {q: sgn(l - k)}
    if j != i + 1 and l == k + 1 and (2 * (k - i) + 1) * (2 * (k - j) + 1) < 0:
        return {p: sgn(i - j)}
    return {}


def matrix_bracket_support(keys) -> set:
    """The canonical indices i * len(keys) + j of the pairs (keys[i], keys[j])
    outside which both bracket closed forms vanish: those with a key E[i,i+1]
    in either place (j = i+1 or l = k+1)."""
    m = len(keys)
    lead = [s for s, (i, j) in enumerate(keys) if j == i + 1]
    return {t for s in lead for k in range(m) for t in (s * m + k, k * m + s)}


def bilinear_from_pairs(a: Element, b: Element, rule) -> Element:
    """Extend a basis-pair rule (key, key) -> {key: coeff}, such as the
    closed forms above, bilinearly to elements through ``bilinear_extend``."""
    ensure_same_kind(a, b)
    return Element._make(
        a.kind, bilinear_extend(a.terms, b.terms, lambda p, q: rule(p, q).items())
    )


# ---------------------------------------------------------------------------
# law checkers
# ---------------------------------------------------------------------------

def check_prelie_identity(A, a: Element, b: Element, c: Element) -> LawReport:
    """(a|>b)|>c - a|>(b|>c) == (b|>a)|>c - b|>(a|>c)."""
    rhd = lambda u, v: prelie_product(A, u, v)
    diff = rhd(rhd(a, b), c) - rhd(a, rhd(b, c)) - rhd(rhd(b, a), c) + rhd(b, rhd(a, c))
    if diff.is_zero():
        return LawReport.ok("prelie")
    return LawReport.fail("prelie", (str(a), str(b), str(c)), diff)


def check_jacobi(A, a: Element, b: Element, c: Element) -> LawReport:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] == 0."""
    br = lambda u, v: commutator_bracket(A, u, v)
    total = br(br(a, b), c) + br(br(b, c), a) + br(br(c, a), b)
    if total.is_zero():
        return LawReport.ok("jacobi")
    return LawReport.fail("jacobi", (str(a), str(b), str(c)), total)


def check_left_representation(A, a: Element, b: Element, x: Element) -> LawReport:
    """[a,b]|>x == a|>(b|>x) - b|>(a|>x)."""
    rhd = lambda u, v: prelie_product(A, u, v)
    diff = rhd(commutator_bracket(A, a, b), x) - rhd(a, rhd(b, x)) + rhd(b, rhd(a, x))
    if diff.is_zero():
        return LawReport.ok("representation")
    return LawReport.fail("representation", (str(a), str(b), str(x)), diff)
