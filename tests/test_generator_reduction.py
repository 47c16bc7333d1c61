"""The reduced matrix sweeps against the walks they replace.

On M_n the cocycle suite checks the law at the pairs (x, q) of the 2(n-1)
generators x, the |> table is filled from the coproduct terms, and the
bracket suite evaluates only the pairs of the closed forms' support and of
the table's nonzero entries.  Wherever a reduced check or a premise fails,
the suite runs the walk over every pair, so its outcome must always be the
walk's: ``dense_cocycle_sweep`` and a scan of the table on every pair are
the oracles here.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsbialg import (
    AlgebraInstance,
    MatrixKind,
    classical_comatrix_algebra,
    matrix_algebra,
    newtonian_coproduct,
    univar_algebra,
    word_algebra,
)
from epsbialg import verify
from epsbialg.cli import build_algebra
from epsbialg.matrices import TELESCOPING
from epsbialg.prelie import (
    _prelie_entries,
    _prelie_on_keys,
    matrix_bracket_closed_form,
    matrix_bracket_support,
    matrix_bracket_table,
)
from epsbialg.scalars import _combined
from epsbialg.verify import _triple_keys, run_suite, run_verify

from support import RMATRIX_CONTROLS, dense_cocycle_sweep


def _outcome(o):
    return o.status, o.line(), o.checked


def _rank(key):
    i, j = key
    return 2 if i == j else abs(i - j)


@pytest.mark.parametrize("n", range(1, 9))
def test_each_key_factors_through_a_generator_of_lower_rank(n):
    kind = MatrixKind(n)
    generators = set()
    for key in kind.basis_keys():
        factors = kind.factor(key)
        if n == 1:
            assert factors is None
            continue
        x, rest = factors
        assert abs(x[0] - x[1]) == 1 and kind.key_mul(x, rest) == key
        if _rank(key) == 1:
            assert x == key  # a generator is a first argument of the checks itself
        else:
            assert _rank(rest) < _rank(key)
        generators.add(x)
    assert len(generators) == 2 * (n - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_cocycle_is_evaluated_at_the_generator_pairs(n, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "check_cocycle", lambda A, p, q: calls.append((p, q)) or True)
    A = matrix_algebra(n)
    outcome = run_suite("cocycle", A)
    firsts = max(1, 2 * (n - 1))
    assert outcome.line() == f"[PASS] cocycle: {n ** 4} pairs checked"
    assert (outcome.checked, outcome.evaluated, len(calls)) == (n ** 4, *[firsts * n * n] * 2)
    assert n == 1 or all(abs(p[0] - p[1]) == 1 for p, _ in calls)
    # run alone, the suite ran the algebra suite for its associativity premise
    assert A._associative == {6: True}


def test_cocycle_falls_back_to_the_walk_without_associativity():
    # the same coproduct, the associativity verdict taken away: every pair is walked
    A = matrix_algebra(3)
    A._associative[6] = False
    outcome = run_suite("cocycle", A)
    assert (outcome.line(), outcome.evaluated) == ("[PASS] cocycle: 81 pairs checked", 81)


class _WrongFactor(MatrixKind):
    """M_n that declares E[1,3] = E[1,2]E[2,2], which ``key_mul`` denies."""

    __slots__ = ()

    def factor(self, key):
        return ((1, 2), (2, 2)) if key == (1, 3) else MatrixKind.factor(self, key)


def test_cocycle_falls_back_to_the_walk_on_an_unconfirmed_factorization():
    outcome = run_suite("cocycle", AlgebraInstance(_WrongFactor(3), 0, newtonian_coproduct))
    assert (outcome.line(), outcome.evaluated) == ("[PASS] cocycle: 81 pairs checked", 81)


def _with_rule(n, rule, kind=None):
    return AlgebraInstance(kind or MatrixKind(n), 0, rule)


def _wrong_on(target, extra):
    """The telescoping coproduct with ``extra`` added on the key ``target`` only."""
    def rule(key):
        delta = dict(newtonian_coproduct(key))
        if key == target:
            delta.update(extra)
        return delta

    return rule


class _OnePairWrong(MatrixKind):
    """M_n whose product sends the non-generator pair E[1,3] E[3,1] to E[2,2]."""

    __slots__ = ()

    @staticmethod
    def key_mul(p, q):
        if (p, q) == ((1, 3), (3, 1)):
            return (2, 2)
        return MatrixKind.key_mul(p, q)


MUTANTS = {
    **{f"E[1,3] on M_{n}": (n, _wrong_on((1, 3), {((1, 2), (2, 3)): 2}), None) for n in (3, 4, 5)},
    **{
        f"E[{n},{n}] on M_{n}": (n, _wrong_on((n, n), {((n, n), (n, n)): 1}), None)
        for n in (2, 3, 5)
    },
    **{f"product on M_{n}": (n, newtonian_coproduct, _OnePairWrong(n)) for n in (3, 4)},
}


@pytest.mark.parametrize("case", sorted(MUTANTS))
def test_a_mutant_reports_the_walks_witness(case):
    n, rule, kind = MUTANTS[case]
    got = run_suite("cocycle", _with_rule(n, rule, kind))
    want = dense_cocycle_sweep(_with_rule(n, rule, kind), 6)
    assert _outcome(got) == _outcome(want)
    assert got.status == "fail" and got.evaluated == got.checked + 1


@st.composite
def _derived(draw):
    """An rmatrix instance on M_2..M_5 at one of the weights 0, +-1, 1/2, L,
    its r of 1-3 terms, and in 80% of cases one coproduct entry perturbed."""
    n = draw(st.integers(2, 5))
    index = st.integers(1, n)
    terms = draw(st.lists(
        st.tuples(st.sampled_from((1, -1, 2)), index, index, index, index), min_size=1, max_size=3,
    ))
    r = " + ".join(f"({c}) * E[{i},{j}] (x) E[{k},{l}]" for c, i, j, k, l in terms)
    weight = draw(st.sampled_from(("0", "1", "-1", "1/2", "L")))
    perturb = draw(st.one_of(
        st.none(), st.none(),
        *[st.tuples(*[st.tuples(index, index)] * 3, st.sampled_from((1, -1)))] * 8,
    ))
    return f"rmatrix:{n}:{r}:{weight}", perturb


def _perturbed(selector, perturb):
    A = build_algebra(selector, None)
    if perturb is None:
        return A
    target, k1, k2, c = perturb

    def rule(key):
        delta = dict(A._rule(key))
        if key == target:
            delta[(k1, k2)] = delta.get((k1, k2), 0) + c
            delta = {legs: d for legs, d in delta.items() if d}
        return delta

    return AlgebraInstance(A.kind, A.weight, rule, selector=selector)


@settings(max_examples=60, deadline=None)
@given(_derived())
def test_reduced_cocycle_matches_the_walk_on_random_derived_coproducts(case):
    selector, perturb = case
    got = run_suite("cocycle", _perturbed(selector, perturb))
    want = dense_cocycle_sweep(_perturbed(selector, perturb), 6)
    assert _outcome(got) == _outcome(want)


# -- the bracket's declared support ---------------------------------------------


def _outside_support(rule, n):
    """The pairs of M_n outside ``matrix_bracket_support`` where ``rule`` is nonzero."""
    keys = list(MatrixKind(n).basis_keys())
    support = matrix_bracket_support(keys)
    pairs = enumerate((p, q) for p in keys for q in keys)
    return [(p, q) for index, (p, q) in pairs if index not in support and rule(p, q)]


@pytest.mark.parametrize("n", range(2, 9))
def test_both_closed_forms_vanish_outside_their_declared_support(n):
    assert _outside_support(matrix_bracket_table, n) == []
    assert _outside_support(matrix_bracket_closed_form, n) == []


def test_a_spurious_closed_form_entry_outside_the_support_is_found():
    def spurious(p, q):
        return {p: 1} if (p, q) == ((1, 3), (2, 1)) else matrix_bracket_closed_form(p, q)

    assert _outside_support(spurious, 3) == [((1, 3), (2, 1))]


@pytest.mark.parametrize("n", range(1, 7))
def test_bracket_is_evaluated_on_its_support(n):
    outcome = run_suite("bracket-closed-form", matrix_algebra(n))
    support = 2 * (n - 1) * n * n - (n - 1) ** 2
    detail = f"{n ** 4} pairs checked across 3 code paths"
    assert outcome.line() == f"[PASS] bracket-closed-form: {detail}"
    # M_1 has no pair in the support: its one pair is walked
    assert outcome.evaluated == (support or 1)
    if n == 5:
        assert support == 184


def _scanned_before(A, index):
    """How many pairs of the support and of the table's entries the bracket
    suite evaluates up to the canonical ``index``, that one included."""
    keys = list(A.basis_keys())
    m = len(keys)
    pairs = matrix_bracket_support(keys)
    pairs.update(t for i, j in _prelie_entries(A, keys) for t in (i * m + j, j * m + i))
    return sum(t <= index for t in pairs)


def test_a_failure_inside_the_support_is_the_walks():
    # T wrong only on the entry E[2,3] |> E[1,3] = E[1,3], which the commutators
    # of the pairs (E[1,3], E[2,3]) (index 23) and (E[2,3], E[1,3]) (index 47)
    # read: the scan in canonical order names the first, as the walk would
    def wrong(A, p, q):
        row = _prelie_on_keys(A, p, q)
        return {} if (p, q) == ((2, 3), (1, 3)) else row

    A = matrix_algebra(3)
    with mock.patch("epsbialg.sweeps._prelie_on_keys", wrong):
        outcome = run_suite("bracket-closed-form", A)
    assert outcome.line() == (
        "[FAIL] bracket-closed-form: commutator disagrees after 23 pairs\n"
        "       witness inputs (E[1,3], E[2,3]): difference = E[1,3]"
    )
    assert (outcome.checked, outcome.evaluated) == (23, _scanned_before(A, 23))
    assert outcome.evaluated < 24


def test_a_table_entry_outside_the_support_is_evaluated():
    # an extra term E[1,1] (x) E[1,1] in Delta(E[3,1]) gives the entry
    # E[1,1] |> E[3,1] = E[1,1], on a pair outside the closed forms' support:
    # the pairs of the table's entries are evaluated too, and the suite names
    # the first failing pair, found here by a walk over every pair in order
    A = AlgebraInstance(
        MatrixKind(3), 0, _wrong_on((3, 1), {((1, 1), (1, 1)): 1}), tags=(TELESCOPING,)
    )
    keys = list(A.basis_keys())
    first = next(
        index for index, (p, q) in enumerate((p, q) for p in keys for q in keys)
        if _combined(_prelie_on_keys(A, p, q), _prelie_on_keys(A, q, p), True)
        != matrix_bracket_table(p, q)
    )
    assert (keys[first // 9], keys[first % 9]) == ((1, 1), (3, 1))
    outcome = run_suite("bracket-closed-form", A)
    assert (outcome.status, outcome.checked) == ("fail", first)
    assert outcome.evaluated == _scanned_before(A, first) < first + 1
    assert outcome.detail == f"commutator disagrees after {first} pairs"


# -- the |> table filled from coproduct terms ------------------------------------


FILL_CASES = {
    **{f"matrix:{n}": (lambda n=n: matrix_algebra(n), 6) for n in range(1, 6)},
    **{sel: (lambda sel=sel: build_algebra(sel, None), 6) for sel in RMATRIX_CONTROLS},
    "lmatrix:3:E[1,2]": (lambda: build_algebra("lmatrix:3:E[1,2]", None), 6),
    "comatrix:3": (lambda: classical_comatrix_algebra(3), 6),
    "word:xy weight 0": (lambda: word_algebra("xy", 0), 6),
    "univar weight 0": (lambda: univar_algebra(0), 9),
}


@pytest.mark.parametrize("case", sorted(FILL_CASES))
def test_the_term_driven_fill_finds_every_nonzero_entry(case):
    make, max_len = FILL_CASES[case]
    A, B = make(), make()
    keys = _triple_keys(A, max_len)
    entries = _prelie_entries(A, keys)
    scanned = [
        (i, j) for i, p in enumerate(keys) for j, q in enumerate(keys) if _prelie_on_keys(B, p, q)
    ]
    assert entries == scanned
    for p in keys:
        for q in keys:
            assert _prelie_on_keys(A, p, q) == _prelie_on_keys(B, p, q)


def test_the_fill_meets_one_middle_key_per_term_and_runs_once(monkeypatch):
    # on M_n a term (k1, k2) of Delta(q) meets only p = E[j,k] between k1 = E[i,j]
    # and k2 = E[k,l]: at most two products per term; ``all`` fills once
    A = matrix_algebra(6)
    keys = list(A.basis_keys())
    terms = sum(len(A.basis_coproduct(q)) for q in keys)
    products, middles = [], []
    real_mul, real_middle = MatrixKind.key_mul, MatrixKind.middle_index
    monkeypatch.setattr(
        MatrixKind, "key_mul", staticmethod(lambda p, q: products.append(1) or real_mul(p, q))
    )
    monkeypatch.setattr(
        MatrixKind, "middle_index", lambda kind, t: middles.append(1) or real_middle(kind, t)
    )
    _prelie_entries(A, keys)
    assert 0 < len(products) <= 2 * terms
    run_verify("all", A)
    assert len(middles) == 1
