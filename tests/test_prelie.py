"""Pre-Lie product, the induced bracket, and the closed-form conformance sweeps."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsbialg import (
    LAMBDA,
    AlgebraInstance,
    Element,
    EMatrix,
    DimensionMismatch,
    KindMismatch,
    MatrixKind,
    WeightNotZero,
    bilinear_from_pairs,
    check_jacobi,
    check_left_representation,
    check_prelie_identity,
    classical_comatrix_algebra,
    commutator_bracket,
    coproduct_from_r,
    matrix_algebra,
    matrix_bracket_closed_form,
    matrix_bracket_table,
    newtonian_coproduct,
    parse_expression,
    parse_value,
    prelie_product,
    univar_algebra,
    word_algebra,
)
from epsbialg import prelie, verify
from epsbialg.cli import build_algebra
from epsbialg.matrices import TELESCOPING
from epsbialg.verify import (
    _applicable,
    _law_values,
    _triple_keys,
    run_suite,
    run_verify,
)

from support import (
    RMATRIX_CONTROLS,
    classical_matrix_bracket,
    dense_law_sweep,
    matrix_elements,
    matrix_prelie_table,
    prelie_support,
    sweedler_prelie_product,
    touch_law_sweep,
    univar_elements,
    word_elements,
)

M2 = matrix_algebra(2)
W0 = word_algebra("xy", 0)
M3 = matrix_algebra(3)


def e(i, j, n):
    return Element.from_key(MatrixKind(n), EMatrix(i, j, n))


def test_prelie_examples():
    assert prelie_product(M3, e(1, 2, 3), e(1, 3, 3)) == e(1, 3, 3)
    assert prelie_product(M3, e(2, 3, 3), e(3, 1, 3)) == -e(3, 1, 3)
    for key in M3.basis_keys():
        assert prelie_product(M3, M3.element(key), e(1, 1, 3)).is_zero()


def test_prelie_requires_weight_zero():
    W = word_algebra("xy")
    with pytest.raises(WeightNotZero):
        prelie_product(W, parse_expression("x", W), parse_expression("y", W))


def test_bracket_worked_example():
    m = parse_expression("E[1,1] + E[2,1]", M2)
    n = parse_expression("E[1,2] + E[2,2]", M2)
    assert commutator_bracket(M2, m, n) == e(2, 1, 2)


def test_bracket_antisymmetric_on_self():
    a = parse_expression("E[1,2] + 2 * E[2,1]", M2)
    assert commutator_bracket(M2, a, a).is_zero()


def test_bracket_e21_e12():
    assert commutator_bracket(M2, e(2, 1, 2), e(1, 2, 2)) == e(2, 1, 2)


def _negated(terms):
    return {key: -c for key, c in terms.items()}


def test_closed_form_values():
    # a closed form is a rule on one basis pair: the sparse map of its value
    assert matrix_bracket_closed_form((2, 1), (1, 2)) == {(2, 1): 1}
    assert matrix_bracket_closed_form((1, 1), (2, 2)) == {}
    assert matrix_bracket_closed_form((1, 2), (2, 1)) == {(2, 1): -1}
    assert matrix_bracket_table((1, 2), (2, 1)) == {(2, 1): -1}
    assert matrix_prelie_table((1, 2), (1, 2)) == {(1, 2): 1}


def test_closed_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bilinear_from_pairs(e(1, 2, 2), e(1, 2, 3), matrix_bracket_closed_form)


NOT_TELESCOPING = {
    "rmatrix": lambda: build_algebra(RMATRIX_CONTROLS[0], None),
    "lmatrix": lambda: build_algebra("lmatrix:3:E[1,3]", None),
    "comatrix": lambda: classical_comatrix_algebra(3),
    # its default selector, matrix:2:r-coproduct, does not make it telescoping
    "r-coproduct": lambda: coproduct_from_r(M2, parse_value("E[1,1] (x) E[1,1]", M2), 0),
}


@pytest.mark.parametrize("case", NOT_TELESCOPING)
def test_bracket_closed_form_applies_to_the_telescoping_tag_only(case):
    A = NOT_TELESCOPING[case]()
    reason = "telescoping matrix instances only"
    assert _applicable("bracket-closed-form", A) == (KindMismatch, reason)
    with pytest.raises(KindMismatch) as info:
        run_suite("bracket-closed-form", A)
    assert str(info.value) == f"suite 'bracket-closed-form' does not apply to {A.selector}: {reason}"
    assert _applicable("bracket-closed-form", M2) is None


def test_telescoping_instance_of_nonzero_weight_skips_the_bracket_suite():
    # the tag alone does not decide: the sweep's commutator needs weight 0, and
    # under ``all`` the other outcomes, a cocycle failure among them, survive
    A = AlgebraInstance(MatrixKind(2), LAMBDA, newtonian_coproduct, tags=(TELESCOPING,))
    assert _applicable("bracket-closed-form", A) == (WeightNotZero, "weight L != 0")
    passed, outcomes = run_verify("all", A)
    lines = [o.line() for o in outcomes]
    assert not passed
    assert "[SKIP] bracket-closed-form: weight L != 0" in lines
    assert lines[2].startswith("[FAIL] cocycle: failure after 0 pairs")
    with pytest.raises(WeightNotZero) as info:
        run_suite("bracket-closed-form", A)
    assert str(info.value) == (
        f"suite 'bracket-closed-form' does not apply to {A.selector}: weight L != 0"
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_three_bracket_paths_agree(n):
    A = matrix_algebra(n)
    keys = list(A.basis_keys())
    for p in keys:
        for q in keys:
            table = matrix_bracket_table(p, q)
            assert matrix_bracket_closed_form(p, q) == table, (p, q)
            assert commutator_bracket(A, A.element(p), A.element(q)).terms == table, (p, q)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bracket_antisymmetry_all_paths(n):
    A = matrix_algebra(n)
    keys = list(A.basis_keys())
    for p in keys:
        for q in keys:
            assert matrix_bracket_table(q, p) == _negated(matrix_bracket_table(p, q))
            assert matrix_bracket_closed_form(q, p) == _negated(matrix_bracket_closed_form(p, q))
            assert commutator_bracket(A, A.element(q), A.element(p)) == -commutator_bracket(
                A, A.element(p), A.element(q)
            )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_prelie_closed_form_table(n):
    A = matrix_algebra(n)
    keys = list(A.basis_keys())
    for p in keys:
        for q in keys:
            closed = matrix_prelie_table(p, q)
            assert prelie_product(A, A.element(p), A.element(q)).terms == closed


def _assert_table_matches_oracle(A, keys):
    for p in keys:
        for q in keys:
            a, b = A.element(p), A.element(q)
            assert prelie_product(A, a, b) == sweedler_prelie_product(A, a, b), (p, q)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_table_matches_sweedler_oracle_on_matrix_pairs(n):
    A = matrix_algebra(n)
    _assert_table_matches_oracle(A, list(A.basis_keys()))


@pytest.mark.parametrize("selector", RMATRIX_CONTROLS)
def test_table_matches_sweedler_oracle_on_rmatrix_pairs(selector):
    A = build_algebra(selector, None)
    _assert_table_matches_oracle(A, list(A.basis_keys()))


def test_table_matches_sweedler_oracle_on_weight_zero_words():
    _assert_table_matches_oracle(W0, list(W0.basis_keys(3)))


@given(matrix_elements(4), matrix_elements(4))
def test_table_matches_sweedler_oracle_on_matrix_elements(a, b):
    A = matrix_algebra(4)
    assert prelie_product(A, a, b) == sweedler_prelie_product(A, a, b)


@pytest.mark.parametrize(
    "A, elements",
    [(W0, word_elements()), (univar_algebra(0), univar_elements())],
    ids=["word", "univar"],
)
@given(data=st.data())
def test_table_matches_sweedler_oracle_on_word_and_univar_elements(A, elements, data):
    a, b = data.draw(elements, label="a"), data.draw(elements, label="b")
    assert prelie_product(A, a, b) == sweedler_prelie_product(A, a, b)


@pytest.mark.parametrize("selector", RMATRIX_CONTROLS)
@pytest.mark.parametrize("suite", ["prelie", "jacobi", "representation"])
def test_first_witness_matches_sweedler_oracle(selector, suite, monkeypatch):
    A = build_algebra(selector, None)
    fast = run_suite(suite, A)
    # the checkers look prelie_product up in their module, so this reroutes
    # every |> of the element-level oracle sweep through the Sweedler oracle
    monkeypatch.setattr(prelie, "prelie_product", sweedler_prelie_product)
    slow = touch_law_sweep(build_algebra(selector, None), 6, suite)
    assert fast.line() == slow.line()
    assert (fast.status, fast.detail) == (slow.status, slow.detail)


LAW_SUITES = ("prelie", "jacobi", "representation")
# On M_n every |> of keys is a multiple of its right entry, so some term
# paths reach the same triples as others there; on this instance each of the
# ten paths reaches a triple that no other path of its law reaches.
PATH_WITNESS = "rmatrix:3:-E[3,1] (x) E[2,3] + E[3,2] (x) E[2,2]:0"
SPARSE_WALK_CASES = {
    **{f"matrix:{n}": (lambda n=n: matrix_algebra(n)) for n in (1, 2, 3, 4, 5)},
    **{sel: (lambda sel=sel: build_algebra(sel, None)) for sel in RMATRIX_CONTROLS},
    "lmatrix:3:E[1,3]": lambda: build_algebra("lmatrix:3:E[1,3]", None),
    PATH_WITNESS: lambda: build_algebra(PATH_WITNESS, None),
    "word:xy weight 0": lambda: word_algebra("xy", 0),
    "univar weight 0": lambda: univar_algebra(0),
}


def _assert_same_outcome(fast, oracle):
    assert fast.line() == oracle.line()
    assert (fast.status, fast.detail) == (oracle.status, oracle.detail)
    assert fast.failure == oracle.failure  # law, inputs and difference


@pytest.mark.parametrize("case", SPARSE_WALK_CASES)
@pytest.mark.parametrize("suite", LAW_SUITES)
def test_sparse_walk_matches_dense_oracle(case, suite):
    make = SPARSE_WALK_CASES[case]
    engine = run_suite(suite, make())
    _assert_same_outcome(engine, dense_law_sweep(make(), 6, suite))
    _assert_same_outcome(engine, touch_law_sweep(make(), 6, suite))


@pytest.mark.parametrize("suite", LAW_SUITES)
def test_sparse_walk_counts_every_triple(suite):
    engine = run_suite(suite, matrix_algebra(6))
    assert engine.line() == f"[PASS] {suite}: 46656 triples checked"
    _assert_same_outcome(engine, touch_law_sweep(matrix_algebra(6), 6, suite))


_R_TERMS = st.lists(
    st.tuples(st.sampled_from([1, -1, 2, -3]), *[st.integers(1, 3)] * 4),
    min_size=1, max_size=3,
)


@settings(max_examples=15, deadline=None)
@given(_R_TERMS, st.sampled_from(LAW_SUITES))
def test_engine_matches_both_oracles_on_random_rmatrix(terms, suite):
    r = " + ".join(f"({c}) * E[{i},{j}] (x) E[{k},{l}]" for c, i, j, k, l in terms)
    selector = f"rmatrix:3:{r}:0"
    engine = run_suite(suite, build_algebra(selector, None))
    _assert_same_outcome(engine, dense_law_sweep(build_algebra(selector, None), 6, suite))
    _assert_same_outcome(engine, touch_law_sweep(build_algebra(selector, None), 6, suite))


def _element_term_paths(A, a, b, c):
    """Each term of the pre-Lie law on (a, b, c) as (inner value, outer map),
    built at element level: the term is outer(inner), and it has a path when
    outer is nonzero on some key of inner."""
    rhd = lambda u, v: prelie_product(A, u, v)
    return [(rhd(a, b), lambda k: rhd(k, c)), (rhd(b, c), lambda k: rhd(a, k)),
            (rhd(b, a), lambda k: rhd(k, c)), (rhd(a, c), lambda k: rhd(b, k))]


ZERO_TERM_CASES = {
    "matrix:3": lambda: matrix_algebra(3),
    **{sel: (lambda sel=sel: build_algebra(sel, None)) for sel in RMATRIX_CONTROLS},
    PATH_WITNESS: lambda: build_algebra(PATH_WITNESS, None),
    "lmatrix:3:E[1,3]": lambda: build_algebra("lmatrix:3:E[1,3]", None),
    "word:xy weight 0": lambda: word_algebra("xy", 0),
}


def _assert_law_values_are_the_differences(A, suite):
    # representation is the pre-Lie law P(a, b, x) and Jacobi its sum over
    # the rotations: every value read off the pass is the element-level
    # checker's difference, and 0 where the checker passes
    checker = {"prelie": check_prelie_identity, "jacobi": check_jacobi,
               "representation": check_left_representation}[suite]
    elements = [A.element(key) for key in _triple_keys(A, 6)]
    values, _ = _law_values(A, 6, suite)
    for index, triple in enumerate(itertools.product(elements, repeat=3)):
        report = checker(A, *triple)
        want = {} if report else report.witness.difference.terms
        assert values.get(index, {}) == want, (suite, index, triple)


@pytest.mark.parametrize("case", ZERO_TERM_CASES)
@pytest.mark.parametrize("suite", LAW_SUITES)
def test_candidates_are_the_triples_with_a_term_path(case, suite):
    # the 0 = 0 argument itself: the pass reaches exactly the triples on
    # which some term of the pre-Lie law has a path, and a term without a
    # path is zero; Jacobi is evaluated where some rotation was reached
    A = ZERO_TERM_CASES[case]()
    keys = _triple_keys(A, 6)
    m = len(keys)
    elements = [A.element(key) for key in keys]
    with_path = set()
    for index, (a, b, c) in enumerate(itertools.product(elements, repeat=3)):
        for inner, outer in _element_term_paths(A, a, b, c):
            if any(not outer(A.element(k)).is_zero() for k in inner.terms):
                with_path.add(index)
            else:
                assert outer(inner).is_zero(), (index, a, b, c)
    if suite == "jacobi":
        rotations = lambda i, j, k: ((i, j, k), (j, k, i), (k, i, j))
        with_path = {
            (i * m + j) * m + k for i, j, k in itertools.product(range(m), repeat=3)
            if any((x * m + y) * m + z in with_path for x, y, z in rotations(i, j, k))
        }
    _, candidates = _law_values(A, 6, suite)
    assert candidates == with_path
    assert len(candidates) < m ** 3
    if suite != "prelie":
        _assert_law_values_are_the_differences(A, suite)


@pytest.mark.parametrize(
    "A", [word_algebra("xy", 0), univar_algebra(0)], ids=["word:xy weight 0", "univar weight 0"]
)
@pytest.mark.parametrize("suite", LAW_SUITES)
def test_law_values_are_the_checkers_differences(A, suite):
    _assert_law_values_are_the_differences(A, suite)


@settings(max_examples=15, deadline=None)
@given(_R_TERMS, st.sampled_from(LAW_SUITES))
def test_law_values_are_the_checkers_differences_on_random_rmatrix(terms, suite):
    r = " + ".join(f"({c}) * E[{i},{j}] (x) E[{k},{l}]" for c, i, j, k, l in terms)
    _assert_law_values_are_the_differences(build_algebra(f"rmatrix:3:{r}:0", None), suite)


@pytest.mark.parametrize(
    # M_1 has no |> entry, so no path: its one triple is evaluated all the same
    "n, evaluated", [(1, (1, 1, 1)), (5, (100, 292, 100))]
)
def test_evaluated_candidates_on_matrices(n, evaluated):
    for suite, count in zip(LAW_SUITES, evaluated):
        outcome = run_suite(suite, matrix_algebra(n))
        assert (outcome.status, outcome.checked) == ("pass", n ** 6)
        assert outcome.evaluated == count, suite


def test_one_pass_serves_the_three_laws(monkeypatch):
    # the pre-Lie pass runs once per instance and max-len, whatever the suites
    A = matrix_algebra(3)
    passes = []
    monkeypatch.setattr(verify, "_prelie_pass", lambda *args: passes.append(args) or ({}, set()))
    run_verify("all", A)
    for suite in LAW_SUITES:
        run_suite(suite, A)
    run_suite("prelie", A, max_len=9)
    assert [len(keys) for _, keys in passes] == [9, 9]


@pytest.mark.parametrize("selector", RMATRIX_CONTROLS)
@pytest.mark.parametrize("suite", LAW_SUITES)
def test_control_witness_is_an_evaluated_candidate(selector, suite):
    A = build_algebra(selector, None)
    outcome = run_suite(suite, A)
    candidates = sorted(_law_values(A, 6, suite)[1])
    if outcome.status == "pass":
        assert outcome.evaluated == len(candidates) > 0
        return
    # the witness sits at canonical index `checked`; it is the last candidate run
    assert outcome.checked in candidates
    assert outcome.evaluated == candidates.index(outcome.checked) + 1
    assert outcome.detail == f"failure after {outcome.checked} triples"


def test_prelie_support_is_the_symmetric_nonzero_pattern():
    # the touch pattern behind the ``touch_law_sweep`` oracle
    A = matrix_algebra(4)
    keys = list(A.basis_keys())
    touch = prelie_support(A, keys)
    for i, p in enumerate(keys):
        for j, q in enumerate(keys):
            nonzero = bool(matrix_prelie_table(p, q))
            mirror = bool(matrix_prelie_table(q, p))
            assert touch[i][j] == (nonzero or mirror), (p, q)
    with pytest.raises(WeightNotZero):
        prelie_support(word_algebra("xy"), [()])


def test_overlap_case_vanishes():
    # j = i+1 and l = k+1 at once: the sign form matches the table's
    # difference case, which collapses to zero unless the pairs coincide
    for n in (2, 3, 4):
        for i in range(1, n):
            for k in range(1, n):
                p, q = (i, i + 1), (k, k + 1)
                assert matrix_bracket_closed_form(p, q) == {}
                assert matrix_bracket_table(p, q) == {}


def test_differs_from_classical_bracket():
    for n in range(2, 7):
        kind, p, q = MatrixKind(n), (1, 2), (2, 1)
        classical = classical_matrix_bracket(kind, p, q)
        assert classical == e(1, 1, n) - e(2, 2, n)
        eps = Element(kind, matrix_bracket_table(p, q))
        assert eps == -e(2, 1, n)
        assert classical != eps


@pytest.mark.parametrize("n", [2, 3])
def test_identities_on_all_basis_triples(n):
    A = matrix_algebra(n)
    keys = list(A.basis_keys())
    for p, q, r in itertools.product(keys, repeat=3):
        a, b, c = A.element(p), A.element(q), A.element(r)
        assert check_prelie_identity(A, a, b, c).passed
        assert check_jacobi(A, a, b, c).passed
        assert check_left_representation(A, a, b, c).passed


def test_identity_trivial_cases():
    a = parse_expression("E[1,2] + 3 * E[2,1]", M2)
    assert check_prelie_identity(M2, a, a, a).passed
    assert check_jacobi(M2, a, a, M2.unit).passed
    assert check_left_representation(M2, a, a, M2.element(EMatrix(1, 1, 2))).passed


def test_representation_explicit_pair():
    a, b, x = e(2, 1, 2), e(1, 2, 2), e(2, 2, 2)
    lhs = prelie_product(M2, commutator_bracket(M2, a, b), x)
    rhs = prelie_product(M2, a, prelie_product(M2, b, x)) - prelie_product(
        M2, b, prelie_product(M2, a, x)
    )
    assert lhs == rhs
    assert check_left_representation(M2, a, b, x).passed


def test_prelie_identity_on_weight_zero_words():
    keys = list(W0.basis_keys(2))
    for p, q, r in itertools.product(keys[:5], repeat=3):
        a, b, c = W0.element(p), W0.element(q), W0.element(r)
        assert check_prelie_identity(W0, a, b, c).passed


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bilinear_from_pairs_matches_commutator(data):
    m = parse_expression("E[1,1] + E[2,1]", M2)
    n = parse_expression("E[1,2] + E[2,2]", M2)
    assert bilinear_from_pairs(m, n, matrix_bracket_table) == e(2, 1, 2)
    assert bilinear_from_pairs(m, n, matrix_bracket_closed_form) == e(2, 1, 2)
    # on elements of M_2..M_4, against the Sweedler commutator
    size = data.draw(st.integers(min_value=2, max_value=4), label="n")
    A = matrix_algebra(size)
    a, b = data.draw(matrix_elements(size), label="a"), data.draw(matrix_elements(size), label="b")
    want = sweedler_prelie_product(A, a, b) - sweedler_prelie_product(A, b, a)
    for rule in (matrix_bracket_table, matrix_bracket_closed_form):
        assert bilinear_from_pairs(a, b, rule) == want
