"""The suites of ``verify`` on the structures derived from the coproduct: the
antipode, the pre-Lie family (pre-Lie, Jacobi, representation) and the
bracket conformance sweep.  Each needs weight 0, and ``run_suite`` imports
this module only when one of them runs.

The pre-Lie, representation and Jacobi sweeps read one pass.  Write P(a, b,
c) = (a|>b)|>c - a|>(b|>c) - (b|>a)|>c + b|>(a|>c) for the pre-Lie law.  For
any bilinear |>, expanding [a,b] = a|>b - b|>a turns the representation law
[a,b]|>x - a|>(b|>x) + b|>(a|>x) into P(a, b, x), term for term, and the
Jacobi sum [[a,b],c] + [[b,c],a] + [[c,a],b] is P(a,b,c) + P(b,c,a) +
P(c,a,b).  So the pass (``_prelie_pass``) computes P alone, on the |> table
T, once per instance and max-len.  Each term of P is T(T(x, y), z) or
T(z, T(x, y)) over the positions of the triple, nonzero only along a path in
the table: T(x, y) != 0, and T nonzero on some key k of it and the entry at
z.  The pass takes every nonzero T entry on the swept keys, as the table fill
finds them (``prelie._prelie_entries``), follows the out- or in-neighbours of
each of its keys, and adds each step into the value of the triple it
reaches, at key level.  A nonzero value is confirmed, and its witness built,
by the element-level checker.  On a triple the pass did not reach, P holds
as 0 = 0 by bilinearity, as does Jacobi where no rotation was reached; such
a triple counts as checked.  ``evaluated`` counts the triples reached, for
Jacobi those with a reached rotation (on M_1, none: the first triple is
evaluated all the same).  A failing triple has a nonzero value, so it is
always evaluated: counts, ``failure after N triples`` (N is the triple's
canonical index) and first witnesses are those of the walk over every
triple.  Its oracles in ``tests/support.py`` run the element-level checker
on every triple (``dense_law_sweep``) and where some pair of entries touches
under |> (``touch_law_sweep``).

The bracket conformance sweep compares three code paths on the basis pairs
at key level, each value a sparse map key -> coefficient: the case table,
the sign form, and the commutator T(p, q) - T(q, p) of the |> table; then
the table's own antisymmetry.  All are 0 outside the closed forms' declared
support (``prelie.matrix_bracket_support``) where T(p, q) = 0 = T(q, p), so
only the other pairs are evaluated (184 of 625 on M_5), in canonical order,
as a walk over every pair would find a failure; its witness is the one Element.
T is read from the rows the table fill stored for its entries; on every other
swept pair it is 0, so no row is built for it.
"""

from .errors import NotNilpotentWithinCap
from .laws import (
    LawReport,
    _axiom_sides,
    _comultiplicativity_difference,
    _multiplicativity_difference,
    antipode_endo,
    check_antipode_axiom,
    check_antipode_properties,
)
from .lincomb import Element, MatrixKind
from .prelie import (
    _prelie_entries,
    _prelie_on_keys,
    check_jacobi,
    check_left_representation,
    check_prelie_identity,
    matrix_bracket_closed_form,
    matrix_bracket_support,
    matrix_bracket_table,
)
from .scalars import _accumulate, _combined
from .verify import _failed, _passed, _triple_keys


def _antipode_sweep(A, max_len):
    """The antipode laws; a series that does not truncate is a failure, not an
    error, after the checks that passed before it.

    S is evaluated on the unit's keys, then on the swept keys in canonical
    order, then on products of swept pairs beyond the sweep, so the key named
    is the first whose series does not truncate.  Each law value is built once
    per input, by the checkers' own builders (S(p) and Delta(p) read from
    their memos); only a nonzero value runs the checker, for the witness.

    Multiplicativity S(pq) = -S(p)S(q) is checked on every ordered pair of
    swept keys.  Where a finite basis is swept whole with S = -id on it
    (telescoping M_n) and every key is comultiplicative, as Delta(-a) = -(S (x)
    S) Delta(a) says, no pair is evaluated: pq is 0 or a swept key, so S(pq) =
    -pq = -S(p)S(q).  Elsewhere the pairs evaluated are those with pq != 0 or
    S(p)S(q) != 0, found through the product index and walked in canonical
    order, so the first failure, and the count before it, are those of a walk
    over every pair; a key whose comultiplicativity fails is reported at its
    first pair (p, keys[0]), as in that walk.

    Where S = -id on every swept key, the involution S(S(a)) = a on each is
    counted too: it holds by linearity.  On M_n so are 200 random-matrix
    checks (the axiom, and the properties with another matrix as partner, on
    100 matrices), drawing nothing: S is linear, the product bilinear and every
    key swept, so the basis checks decide them."""
    checks = evaluated = 0  # inputs counted, and inputs evaluated, before the current one
    try:
        s = antipode_endo(A)
        on_key, delta, kind = s.on_key, A.basis_coproduct, A.kind
        if s(A.unit) != -A.unit:
            report = LawReport.fail("antipode-unit", ("unit",), s(A.unit) + A.unit)
            return _failed("antipode", "S(unit) != -unit", report, checks)
        keys = list(A.basis_keys(max_len))
        comultiplicative = {}  # key -> whether comultiplicativity holds on it
        for key in keys:
            e = A.element(key)
            sa, delta_a = on_key(key).terms, delta(key)
            if any(_axiom_sides(A, s, e.terms, sa, delta_a)):
                report = check_antipode_axiom(A, e)
                return _failed("antipode", f"axiom failure after {checks} checks", report, checks)
            comultiplicative[key] = not _comultiplicativity_difference(A, s, sa, delta_a)
            checks = evaluated = checks + 1
        m = len(keys)
        # S(a) + a = U(D(a)) with U = sum_t (-D)^t/(t+1)! unipotent, so D = 0 on the
        # basis iff S = -id there; then the involution holds by linearity (see above)
        minus_id = all(on_key(key).terms == {key: -1} for key in keys)
        if not (minus_id and kind.finite_basis and all(comultiplicative.values())):
            images = {}  # v -> the indices j with v in S(keys[j])
            for j, key in enumerate(keys):
                for v in on_key(key).terms:
                    images.setdefault(v, []).append(j)
            meets = kind.product_index(dict(zip(keys, range(m))))
            meets_image = kind.product_index(images)
            for i, p in enumerate(keys):
                sp = on_key(p).terms
                if comultiplicative[p]:
                    partners = {j for _, j in meets(p)}
                    partners.update(j for u in sp for _, js in meets_image(u) for j in js)
                else:
                    partners = (0,)  # reported at its first pair
                for j in sorted(partners):
                    q, checks = keys[j], m + i * m + j
                    s_pq = {} if (pq := kind.key_mul(p, q)) is None else on_key(pq).terms
                    if (_multiplicativity_difference(kind, s_pq, sp, on_key(q).terms)
                            or not comultiplicative[p]):
                        report = check_antipode_properties(A, A.element(p), A.element(q))
                        detail = f"property failure after {checks} checks"
                        return _failed("antipode", detail, report, checks, evaluated + 1)
                    evaluated += 1
        checks = m + m * m
        if minus_id:
            checks += m
        if isinstance(kind, MatrixKind):
            checks += 200  # the random-matrix checks, decided (see above)
        return _passed("antipode", f"{checks} checks", checks, evaluated)
    except NotNilpotentWithinCap as exc:
        detail = f"series of {exc.element} {exc.verdict}"
        return _failed("antipode", detail, None, checks, evaluated + 1)


# The pre-Lie law P(a, b, c) = (a|>b)|>c - a|>(b|>c) - (b|>a)|>c + b|>(a|>c) as
# four terms over the triple's positions 0, 1, 2: a row (negate, x, y,
# inner_on_left, z) is the term +-(x|>y)|>z, or +-z|>(x|>y) when the inner
# value is not on the left.
_PRELIE_TERMS = (
    (False, 0, 1, True, 2),
    (True, 1, 2, False, 0),
    (True, 1, 0, True, 2),
    (False, 0, 2, False, 1),
)


def _prelie_pass(A, keys):
    """P on the triples of ``keys``, by the term paths of the |> table (see
    the module docstring): a map canonical index -> nonzero value, a sparse
    map key -> coefficient, and the set of indices some path reached.

    ``neighbours(k, k_first)`` lists the indices r of swept keys with
    k|>keys[r] != 0, or with keys[r]|>k != 0 when not ``k_first``, from the
    entries; a key outside the sweep (a longer word) gets them on demand.
    """
    n = len(keys)
    rhd = lambda p, q: _prelie_on_keys(A, p, q)
    entries = _prelie_entries(A, keys)
    lists = {(k, k_first): [] for k in keys for k_first in (True, False)}
    for i, j in entries:  # in order, so each list is too
        lists[(keys[i], True)].append(j)
        lists[(keys[j], False)].append(i)

    def neighbours(k, k_first):
        found = lists.get((k, k_first))
        if found is None:
            found = lists[(k, k_first)] = [
                r for r in range(n) if (rhd(k, keys[r]) if k_first else rhd(keys[r], k))
            ]
        return found

    inner = [(i, j, rhd(keys[i], keys[j])) for i, j in entries]
    values = {}  # index -> P so far, for every index reached
    for negate, x, y, inner_on_left, z in _PRELIE_TERMS:
        wx, wy, wz = (n ** (2 - position) for position in (x, y, z))
        for i, j, row in inner:
            for k, c in row.items():
                for r in neighbours(k, inner_on_left):
                    index = i * wx + j * wy + r * wz
                    out = values.get(index)
                    if out is None:
                        out = values[index] = {}
                    value = rhd(k, keys[r]) if inner_on_left else rhd(keys[r], k)
                    _accumulate(out, ((key, c * d) for key, d in value.items()), negate)
    return {t: v for t, v in values.items() if v}, set(values)


def _law_values(A, max_len, which):
    """The law ``which`` on the swept triples: a map canonical index ->
    nonzero value, and the set of indices evaluated.  The pass runs once per
    instance and max-len, memoized on A; the three laws read it."""
    law = A._prelie_law.get(max_len)
    if law is None:
        law = A._prelie_law[max_len] = _prelie_pass(A, _triple_keys(A, max_len))
    values, reached = law
    if which != "jacobi":
        return values, reached  # representation on (a, b, x) is P(a, b, x)
    n = len(_triple_keys(A, max_len))

    def orbit(t):
        # (a, b, c) -> (b, c, a) maps the index t to (t mod n^2) n + t div n^2
        u = t % (n * n) * n + t // (n * n)
        return t, u, u % (n * n) * n + u // (n * n)

    jacobi = {}
    for t in {u for t in values for u in orbit(t)}:
        out = {}
        for u in orbit(t):
            _accumulate(out, values.get(u, {}).items())
        if out:
            jacobi[t] = out
    return jacobi, {u for t in reached for u in orbit(t)}


def _suite_prelie(A, max_len, which):
    keys = _triple_keys(A, max_len)
    n = len(keys)
    checker = {  # looked up when the suite runs, so that a wrapped checker is the one called
        "prelie": check_prelie_identity,
        "jacobi": check_jacobi,
        "representation": check_left_representation,
    }[which]
    values, evaluated = _law_values(A, max_len, which)
    if not evaluated:  # no path reached a triple: the first is checked all the same,
        values = evaluated = {0}  # so that a pass does not rest on no evaluation
    for index in sorted(values):
        # the element-level checker confirms the failure and builds its witness
        triple = (keys[index // (n * n)], keys[index // n % n], keys[index % n])
        report = checker(A, *(A.element(key) for key in triple))
        if not report:
            before = sum(t <= index for t in evaluated)
            return _failed(which, f"failure after {index} triples", report, index, before)
    return _passed(which, f"{n ** 3} triples checked", n ** 3, len(evaluated))


def _suite_bracket_closed_form(A, max_len):
    """The comparisons, of maps by ``==``, on the pairs of the support and of
    the table's entries in canonical order (see the module docstring); on
    M_1, which has neither, on its one pair."""
    kind = A.kind
    keys = list(A.basis_keys(max_len))
    m, pairs = len(keys), matrix_bracket_support(keys)
    entries = set(_prelie_entries(A, keys))
    for i, j in entries:
        pairs.update((i * m + j, j * m + i))
    # the fill stored the row of every entry, T is 0 on every other swept pair
    rhd = lambda i, j: _prelie_on_keys(A, keys[i], keys[j]) if (i, j) in entries else {}
    for evaluated, index in enumerate(sorted(pairs or {0}), start=1):
        i, j = divmod(index, m)
        p, q = keys[i], keys[j]
        table = matrix_bracket_table(p, q)
        commutator = _combined(rhd(i, j), rhd(j, i), True)
        for detail, law, value, want in (
            ("sign form disagrees", "closed-vs-table", matrix_bracket_closed_form(p, q), table),
            ("commutator disagrees", "commutator-vs-table", commutator, table),
            ("antisymmetry broken", "antisymmetry", _combined(matrix_bracket_table(q, p), table), {}),
        ):
            if value != want:
                pair = (kind.key_text(p), kind.key_text(q))
                difference = Element._make(kind, _combined(value, want, True))
                report = LawReport.fail(f"bracket-{law}", pair, difference)
                return _failed(
                    "bracket-closed-form", f"{detail} after {index} pairs", report, index, evaluated
                )
    detail = f"{m * m} pairs checked across 3 code paths"
    return _passed("bracket-closed-form", detail, m * m, len(pairs or {0}))
