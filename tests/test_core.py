"""Generic instance machinery: coproducts, law checkers, convolution, antipode."""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from epsbialg import (
    AlgebraInstance,
    Element,
    EMatrix,
    KindMismatch,
    LAMBDA,
    MatrixKind,
    NotNilpotentWithinCap,
    WeightNotZero,
    Word,
    WordKind,
    antipode,
    antipode_endo,
    check_antipode_axiom,
    check_antipode_properties,
    check_coassoc,
    check_cocycle,
    classical_comatrix_algebra,
    coproduct_from_r,
    d_map,
    deconcat_algebra,
    l_coproduct_instance,
    matrix_algebra,
    matrix_from_rows,
    parse_expression,
    TensorElement,
    tensor,
    univar_algebra,
    word_algebra,
)
from epsbialg import core, laws, sweeps, verify
from epsbialg.cli import build_algebra
from epsbialg.laws import LinearEndomorphism
from epsbialg.scalars import scalar_items
from epsbialg.verify import run_verify
from epsbialg.words import weighted_word_coproduct

from support import (
    RMATRIX_CONTROLS,
    circular_convolution,
    convolution,
    convolution_power_vanishes,
    dense_antipode_sweep,
    element_antipode_axiom_oracle,
    element_antipode_properties_oracle,
    identity_endo,
    is_canonical,
    iterated_nilpotency,
    linear_map_cases,
    matrix_elements,
    nilpotency_index,
    random_integer_matrix,
    table_algebra,
    tensor_coassoc_oracle,
    tensor_cocycle_oracle,
    termwise_oracle,
    univar_elements,
    zero_endo,
)

M2 = matrix_algebra(2)
M3 = matrix_algebra(3)
W = word_algebra("xy")
W0 = word_algebra("xy", 0)
U = univar_algebra()


def m_el(A, text):
    return parse_expression(text, A)


def small_integer_matrix(n, rng):
    """A dense matrix with entries drawn from rng.randint(-2, 2)."""
    return matrix_from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])


# -- multiplication ----------------------------------------------------------

def test_multiply_delta_rule():
    assert M3.multiply(m_el(M3, "E[1,2]"), m_el(M3, "E[2,3]")) == m_el(M3, "E[1,3]")
    assert M3.multiply(m_el(M3, "E[1,2]"), m_el(M3, "E[1,2]")).is_zero()


def test_multiply_concatenates_words():
    assert W.multiply(m_el(W, "x*y"), m_el(W, "y*x*y")) == m_el(W, "x*y*y*x*y")


def test_multiply_mixes_separately_built_instances():
    # equal kinds built apart compare equal, not only identical
    A, B = matrix_algebra(3), matrix_algebra(3)
    assert A.kind is not B.kind
    a, b = m_el(A, "E[1,2] + E[2,2]"), m_el(B, "E[2,3]")
    assert A.multiply(a, b) == m_el(A, "E[1,3] + E[2,3]")
    assert b * a == B.multiply(b, a) == Element.zero(B.kind)


def test_multiply_rejects_foreign_elements():
    with pytest.raises(KindMismatch):
        M2.multiply(m_el(M2, "E[1,1]"), m_el(M3, "E[1,1]"))


# -- coproducts ---------------------------------------------------------------

def test_word_coproduct_of_unit():
    assert W.coproduct(W.unit) == tensor(W.unit, W.unit).scale(-LAMBDA)


def test_matrix_coproduct_of_sum():
    got = M2.coproduct(m_el(M2, "E[1,1] + E[2,1]"))
    e21 = m_el(M2, "E[2,1]")
    assert got == tensor(e21, e21).scale(-1)


def test_coproduct_of_zero():
    assert M2.coproduct(Element.zero(M2.kind)).is_zero()


def test_iterated_coproduct_m3():
    got = M3.iterated_coproduct(m_el(M3, "E[1,3]"), 2)
    want = tensor(tensor(m_el(M3, "E[1,1]"), m_el(M3, "E[2,2]")), m_el(M3, "E[3,3]"))
    assert got == want


def test_iterated_coproduct_word_weight_zero():
    xy = m_el(W0, "x*y")
    x, y = m_el(W0, "x"), m_el(W0, "y")
    got = W0.iterated_coproduct(xy, 2)
    want = (
        tensor(tensor(x, x), xy)
        + tensor(tensor(x, xy), y)
        + tensor(tensor(xy, y), y)
    )
    assert got == want


def test_iterated_coproduct_word_generic():
    # expanding the left leg of Delta(xy) at generic weight: five terms
    xy = m_el(W, "x*y")
    x, y = m_el(W, "x"), m_el(W, "y")
    got = W.iterated_coproduct(xy, 2)
    want = (
        tensor(tensor(xy, y), y)
        + tensor(tensor(x, xy), y)
        + tensor(tensor(x, y), y).scale(LAMBDA)
        + tensor(tensor(x, x), xy)
        + tensor(tensor(x, x), y).scale(LAMBDA)
    )
    assert got == want


def test_iterated_coproduct_vanishes_on_diagonal():
    assert M2.iterated_coproduct(m_el(M2, "E[1,1]"), 2).is_zero()


def test_iterated_coproduct_rejects_zero_steps():
    with pytest.raises(ValueError):
        M2.iterated_coproduct(M2.unit, 0)


# -- the weighted derivation law and coassociativity -------------------------

def test_cocycle_worked_pair():
    report = check_cocycle(M2, EMatrix(2, 1, 2), EMatrix(1, 2, 2))
    assert report.passed


def test_cocycle_unit_pair_in_words():
    report = check_cocycle(W, Word(()), Word(()))
    assert report.passed


def test_cocycle_word_pair():
    assert check_cocycle(W, Word((0, 1)), Word((1, 0, 1))).passed


def test_failing_cocycle_leaves_the_coproduct_memo_alone():
    # the witness is Delta(pq) - right, and Delta(pq) is the memo itself
    A = classical_comatrix_algebra(2)
    p, q = EMatrix(1, 1, 2), EMatrix(1, 2, 2)
    memo = A.graded_coproduct(A.kind.key_mul(p, q))
    before = dict(memo)
    first, second = check_cocycle(A, p, q), check_cocycle(A, p, q)
    assert not first.passed
    assert A.graded_coproduct(A.kind.key_mul(p, q)) is memo and memo == before
    assert first == second


def test_coassoc_examples():
    assert check_coassoc(M2, EMatrix(2, 1, 2)).passed
    assert check_coassoc(M2, EMatrix(1, 1, 2)).passed
    assert check_coassoc(W, Word((0, 1))).passed


@pytest.mark.parametrize(
    "algebra,bound",
    [
        (matrix_algebra(2), None),
        (matrix_algebra(3), None),
        (word_algebra("xy"), 4),
        (deconcat_algebra("xy"), 4),
        (univar_algebra(), 8),
        (l_coproduct_instance(2, parse_expression("E[1,2]", matrix_algebra(2))), None),
    ],
    ids=["matrix2", "matrix3", "word", "deconcat", "univar", "lmatrix"],
)
def test_shipped_instances_satisfy_both_laws(algebra, bound):
    keys = list(algebra.basis_keys(bound) if bound else algebra.basis_keys())
    for key in keys:
        assert check_coassoc(algebra, key).passed, key
    for p in keys:
        for q in keys:
            assert check_cocycle(algebra, p, q).passed, (p, q)


def test_failing_law_returns_witness():
    bad = coproduct_from_r(M2, tensor(m_el(M2, "E[1,1]"), m_el(M2, "E[1,1]")), 0)
    report = check_coassoc(bad, EMatrix(1, 2, 2))
    assert not report.passed
    assert report.witness is not None
    assert not report.witness.difference.is_zero()


# -- convolution --------------------------------------------------------------

def test_convolution_id_star_id():
    f = convolution(M2, identity_endo(M2), identity_endo(M2))
    assert f(m_el(M2, "E[1,2]")).is_zero()
    assert f(m_el(M2, "E[1,1]")).is_zero()


def test_convolution_linear_in_first_argument():
    neg_id = LinearEndomorphism(M2, lambda k: -M2.element(k), "-id")
    f = convolution(M2, neg_id, identity_endo(M2))
    g = convolution(M2, identity_endo(M2), identity_endo(M2))
    for key in M2.basis_keys():
        assert f.on_key(key) == -g.on_key(key)


def test_circular_convolution_zero_unit():
    f = identity_endo(M3)
    left = circular_convolution(M3, f, zero_endo(M3))
    right = circular_convolution(M3, zero_endo(M3), f)
    for key in M3.basis_keys():
        assert left.on_key(key) == f.on_key(key) == right.on_key(key)


def test_circular_convolution_neg_id():
    f = LinearEndomorphism(M2, lambda k: -M2.element(k), "-id")
    g = circular_convolution(M2, f, identity_endo(M2))
    assert g(m_el(M2, "E[1,2]")).is_zero()


def test_circular_convolution_zero_zero():
    z = circular_convolution(M2, zero_endo(M2), zero_endo(M2))
    for key in M2.basis_keys():
        assert z.on_key(key).is_zero()


def test_circular_unit_on_twenty_random_endomorphisms():
    rng = random.Random(7)
    keys = list(M3.basis_keys())
    for _ in range(20):
        table = {k: small_integer_matrix(3, rng) for k in keys}
        f = LinearEndomorphism(M3, table.__getitem__, "rand")
        left = circular_convolution(M3, f, zero_endo(M3))
        right = circular_convolution(M3, zero_endo(M3), f)
        for key in keys:
            assert left.on_key(key) == f.on_key(key) == right.on_key(key)


def test_endomorphism_memo_is_stable():
    calls = []

    def rule(key):
        calls.append(key)
        return M2.element(key)

    f = LinearEndomorphism(M2, rule)
    k = EMatrix(1, 2, 2)
    assert f.on_key(k) == f.on_key(k)
    assert calls == [k]


# -- D = m Delta, nilpotency, antipode ---------------------------------------

def test_d_vanishes_on_elementary_matrices():
    for n in range(2, 7):
        A = matrix_algebra(n)
        for key in A.basis_keys():
            assert d_map(A, A.element(key)).is_zero()


def test_d_on_word_unit():
    assert d_map(W, W.unit) == W.unit.scale(-LAMBDA)


def test_d_on_word_weight_zero():
    assert d_map(W0, m_el(W0, "x*y")) == m_el(W0, "x*x*y + x*y*y")


def test_nilpotency_index_matrix():
    for key in M3.basis_keys():
        assert nilpotency_index(M3, M3.element(key)) == 1


def test_nilpotency_index_zero_element():
    assert nilpotency_index(M2, Element.zero(M2.kind)) == 1


def test_nilpotency_cap_exceeded_on_words():
    # words at weight 0 grow in size at every step: the 64-step bound decides
    with pytest.raises(NotNilpotentWithinCap) as exc:
        nilpotency_index(W0, m_el(W0, "x*y"))
    assert (exc.value.cap, exc.value.basis) == (64, None)


def test_the_longest_monomial_series_is_within_the_work_bound():
    # D(x^n) = n x^(n-1): the series of x^1000, the largest monomial the
    # parser accepts, visits 1000 + 999 + ... + 1 = 500,500 coproduct terms
    U0 = univar_algebra(0)
    assert nilpotency_index(U0, m_el(U0, "x^1000")) == 1001


def test_a_nilpotent_series_past_64_steps_is_found_on_m33():
    # r = J (x) 1 with J = E[1,2] + ... + E[32,33] gives D = -ad_J, whose
    # index is 2n - 1 = 65 on M_33: the 1,089 keys bound the series, not 64
    jordan = " + ".join(f"E[{i},{i + 1}]" for i in range(1, 33))
    A = build_algebra(f"rmatrix:33:({jordan}) (x) E:0", None)
    a = m_el(A, "E[33,1]")
    assert nilpotency_index(A, a) == 65
    assert iterated_nilpotency(A, a, 65) == 65


def test_a_finite_basis_decides_after_as_many_steps_as_keys(monkeypatch):
    # on the 4 keys of M_2, D^4(E[1,2]) != 0 proves that the series never
    # truncates: 4 D steps, not 64
    A = build_algebra(RMATRIX_CONTROLS[0], None)
    calls = []

    def counting(algebra, a):
        calls.append(a)
        return d_map(algebra, a)

    monkeypatch.setattr(core, "d_map", counting)
    with pytest.raises(NotNilpotentWithinCap) as exc:
        antipode(A, m_el(A, "E[1,2]"))
    assert (exc.value.cap, exc.value.basis, len(calls)) == (4, 4, 4)
    assert str(exc.value) == (
        "element never annihilated by D: D^4 of it is nonzero on a basis of 4 keys"
    )


_COEFFS = ("1", "(-1)", "1/2")


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_series_verdict_is_the_iterated_d_map_one_on_random_rmatrix(data):
    # D^k on a basis of N keys is 0 for some k only if D^N is: d_map run for
    # 4N steps decides each series, and the verdict must come at N exactly
    n = data.draw(st.sampled_from([2, 3]), label="n")
    key = st.builds("E[{},{}]".format, st.integers(1, n), st.integers(1, n))
    terms = st.lists(st.tuples(st.sampled_from(_COEFFS), key, key), min_size=1, max_size=3)
    r = " + ".join(f"{c} * {u} (x) {v}" for c, u, v in data.draw(terms, label="r"))
    A = build_algebra(f"rmatrix:{n}:{r}:0", None)
    a = m_el(A, " + ".join(data.draw(st.lists(key, min_size=1, max_size=3), label="a")))
    want = iterated_nilpotency(A, a, 4 * n * n)
    event("never truncates" if want is None else f"index {want}")
    if want is None:
        with pytest.raises(NotNilpotentWithinCap) as exc:
            nilpotency_index(A, a)
        assert (exc.value.cap, exc.value.basis) == (n * n, n * n)
    else:
        assert nilpotency_index(A, a) == want


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(0, 100), st.sampled_from(_COEFFS), min_size=1))
def test_the_series_verdict_is_the_iterated_d_map_one_on_random_univar(poly):
    # D(x^n) = n x^(n-1) lowers the degree: every series truncates, within
    # degree + 1 steps, also past the 64 steps that bound a series on words
    U0 = univar_algebra(0)
    a = m_el(U0, " + ".join(f"{c} * x^{e}" for e, c in poly.items()))
    want = iterated_nilpotency(U0, a, max(poly) + 2)
    assert want is not None
    assert nilpotency_index(U0, a) == want


def test_antipode_is_negation_on_matrices():
    assert antipode(M2, m_el(M2, "E[1,2]")) == m_el(M2, "-E[1,2]")
    assert antipode(M2, M2.unit) == -M2.unit
    assert antipode(M2, Element.zero(M2.kind)).is_zero()


def test_antipode_requires_weight_zero():
    with pytest.raises(WeightNotZero):
        antipode(W, m_el(W, "x"))


def test_antipode_axiom_examples():
    assert check_antipode_axiom(M2, m_el(M2, "E[1,2]")).passed
    assert check_antipode_axiom(M2, M2.unit).passed
    rng = random.Random(3)
    for _ in range(5):
        assert check_antipode_axiom(M3, random_integer_matrix(3, rng)).passed


def test_antipode_properties_examples():
    assert check_antipode_properties(M3, m_el(M3, "E[1,2]"), m_el(M3, "E[2,3]")).passed
    assert check_antipode_properties(M3, M3.unit, M3.unit).passed
    assert check_antipode_properties(M3, Element.zero(M3.kind), m_el(M3, "E[1,1]")).passed


def test_antipode_involution():
    s = antipode_endo(M3)
    for key in M3.basis_keys():
        e = M3.element(key)
        assert antipode(M3, s(e)) == e


def test_antipode_endo_is_memoized_per_instance():
    A = matrix_algebra(3)
    s = antipode_endo(A)
    assert antipode_endo(A) is s
    assert antipode_endo(matrix_algebra(3)) is not s


def test_antipode_checkers_share_one_endomorphism(monkeypatch):
    A = matrix_algebra(3)
    calls = []

    def counting(algebra, a):
        calls.append(a)
        return antipode(algebra, a)

    monkeypatch.setattr(laws, "antipode", counting)
    keys = list(A.basis_keys())
    for p in keys:
        assert check_antipode_axiom(A, A.element(p)).passed
        for q in keys:
            assert check_antipode_properties(A, A.element(p), A.element(q)).passed
    assert len(calls) == len(keys)


def test_antipode_endo_does_not_memoize_a_failing_series():
    A = word_algebra("xy", 0)
    s = antipode_endo(A)
    x = m_el(A, "x")
    for _ in range(2):
        with pytest.raises(NotNilpotentWithinCap) as exc:
            s(x)
        assert exc.value.cap == 64
    assert antipode_endo(A) is s
    assert s._memo == {}


def test_convolution_power_conformance():
    # the convolution-power route agrees with the D-power truncation argument
    idm = identity_endo(M3)
    for key in M3.basis_keys():
        e = M3.element(key)
        for n in (1, 2, 3):
            assert convolution_power_vanishes(M3, idm, e, n)
    dmap = LinearEndomorphism(M3, lambda k: d_map(M3, M3.element(k)), "D")
    assert convolution_power_vanishes(M3, dmap, m_el(M3, "E[1,3]"), 1)


# -- derived coproducts -------------------------------------------------------

def test_derived_coproduct_matches_l_form():
    r = tensor(m_el(M2, "E[1,2]"), m_el(M2, "E[1,2]"))
    inst = coproduct_from_r(M2, r, 0)
    L = m_el(M2, "E[1,2]")
    for key in inst.basis_keys():
        m = inst.element(key)
        assert inst.coproduct(m) == tensor(m * L, L) - tensor(L, L * m)


def test_derived_coproduct_unit_case():
    r = tensor(m_el(M2, "E[1,2]"), m_el(M2, "E[1,2]"))
    inst = coproduct_from_r(M2, r, LAMBDA)
    assert inst.coproduct(inst.unit) == tensor(inst.unit, inst.unit).scale(-LAMBDA)


def test_derived_coproduct_on_e21():
    r = tensor(m_el(M2, "E[1,2]"), m_el(M2, "E[1,2]"))
    inst = coproduct_from_r(M2, r, 0)
    got = inst.coproduct(m_el(M2, "E[2,1]"))
    want = tensor(m_el(M2, "E[2,2]"), m_el(M2, "E[1,2]")) - tensor(
        m_el(M2, "E[1,2]"), m_el(M2, "E[1,1]")
    )
    assert got == want


def test_derived_coproduct_always_a_weighted_derivation():
    rng = random.Random(11)
    for _ in range(5):
        r = tensor(small_integer_matrix(2, rng), small_integer_matrix(2, rng))
        inst = coproduct_from_r(M2, r, LAMBDA)
        for p in inst.basis_keys():
            for q in inst.basis_keys():
                assert check_cocycle(inst, p, q).passed


def test_derived_coproduct_coassociativity_depends_on_l_square():
    good = coproduct_from_r(M2, tensor(m_el(M2, "E[1,2]"), m_el(M2, "E[1,2]")), 0)
    bad = coproduct_from_r(M2, tensor(m_el(M2, "E[1,1]"), m_el(M2, "E[1,1]")), 0)
    assert all(check_coassoc(good, k).passed for k in good.basis_keys())
    results = [check_coassoc(bad, k).passed for k in bad.basis_keys()]
    assert not all(results)
    for p in bad.basis_keys():
        for q in bad.basis_keys():
            assert check_cocycle(bad, p, q).passed


def test_derived_coproduct_rejects_foreign_r():
    r = tensor(m_el(M3, "E[1,1]"), m_el(M3, "E[1,1]"))
    with pytest.raises(KindMismatch):
        coproduct_from_r(M2, r, 0)


# -- key-level law checkers against the element-level oracles -----------------


def assert_same_report(fast, slow):
    assert (fast.passed, fast.law) == (slow.passed, slow.law)
    if not slow.passed:
        assert fast.witness.inputs == slow.witness.inputs
        assert fast.witness.difference == slow.witness.difference
    assert str(fast.witness) == str(slow.witness)


def _graded_table_algebra():
    """Words on x, y at weight L with an arbitrary coproduct table whose
    coefficients have several powers of L, so both coalgebra laws fail with
    differences whose coefficients are folded from two or more degrees."""
    kind = WordKind("xy")
    L = LAMBDA
    one, x, y, xy = Word(()), Word((0,)), Word((1,)), Word((0, 1))
    table = {
        one: {(one, one): Fraction(1, 2) * L - 3},
        x: {(one, x): L, (x, one): L * L + 1},
        xy: {(x, y): Fraction(-2, 3) * L * L + L, (xy, one): 2},
    }
    return AlgebraInstance(
        kind, L, lambda key: TensorElement(kind, 2, table.get(key, {})).terms,
        selector="graded-table",
    )


@pytest.mark.parametrize(
    "make, bound, failing",
    [
        (lambda: matrix_algebra(2), None, set()),
        (lambda: matrix_algebra(3), None, set()),
        (lambda: matrix_algebra(4), None, set()),
        *[(lambda s=s: build_algebra(s, None), None, {"coassoc"}) for s in RMATRIX_CONTROLS],
        (lambda: build_algebra("lmatrix:3:E[1,3]", None), None, set()),
        (lambda: classical_comatrix_algebra(3), None, {"cocycle"}),
        (lambda: deconcat_algebra("xy"), 4, set()),
        (lambda: word_algebra("xy"), 4, set()),
        (lambda: word_algebra("xy", 0), 4, set()),
        (lambda: word_algebra("xy", Fraction(1, 2)), 4, set()),
        (lambda: univar_algebra(), 6, set()),
        (_graded_table_algebra, 2, {"coassoc", "cocycle"}),
    ],
    ids=[
        "matrix2", "matrix3", "matrix4", "rmatrix1", "rmatrix2", "rmatrix3", "lmatrix3",
        "classical3", "deconcat", "word-L", "word-0", "word-half", "univar", "graded-table",
    ],
)
def test_key_level_checkers_match_the_element_level_oracles(make, bound, failing):
    A = make()
    keys = list(A.basis_keys(bound))  # a matrix basis ignores the bound
    failed = set()
    for key in keys:
        slow = tensor_coassoc_oracle(A, key)
        assert_same_report(check_coassoc(A, key), slow)
        if not slow:
            failed.add("coassoc")
    for p in keys:
        for q in keys:
            slow = tensor_cocycle_oracle(A, p, q)
            assert_same_report(check_cocycle(A, p, q), slow)
            if not slow:
                failed.add("cocycle")
    # the laws that fail somewhere on the sweep, so witnesses were compared
    assert failed == failing


def test_a_failing_difference_is_folded_across_powers_of_l():
    # the first witness of each law has a coefficient with two nonzero
    # powers of L, rebuilt from the graded map exactly as the oracle has it
    A = _graded_table_algebra()
    x = Word((0,))
    for fast, slow in (
        (check_coassoc(A, x), tensor_coassoc_oracle(A, x)),
        (check_cocycle(A, x, x), tensor_cocycle_oracle(A, x, x)),
    ):
        assert not slow
        assert_same_report(fast, slow)
        assert max(len(scalar_items(c)) for c in fast.witness.difference.terms.values()) >= 2


def _broken_word_algebra():
    """The weight-L word coproduct declared at weight 0: cocycle fails on most pairs."""
    A = word_algebra("xy")
    return AlgebraInstance(
        A.kind, 0, lambda key: weighted_word_coproduct(key, LAMBDA), selector="broken"
    )


ORACLE_WORD_INSTANCES = (
    word_algebra("xy"),
    word_algebra("xy", 0),
    word_algebra("xy", Fraction(1, 2)),
    deconcat_algebra("xy"),
    _broken_word_algebra(),
)
random_words = st.lists(st.integers(min_value=0, max_value=1), max_size=6).map(Word)


@given(st.sampled_from(ORACLE_WORD_INSTANCES), random_words, random_words)
def test_key_level_checkers_match_the_oracles_on_random_words(A, p, q):
    assert_same_report(check_cocycle(A, p, q), tensor_cocycle_oracle(A, p, q))
    assert_same_report(check_coassoc(A, p), tensor_coassoc_oracle(A, p))


# -- linear maps extended from key rules against the termwise oracle -----------

LINEAR_MAP_CASES = linear_map_cases()


@pytest.mark.parametrize("case", sorted(LINEAR_MAP_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_linear_maps_match_the_termwise_oracle(case, data):
    # the coproduct, _expand_leg, D = m Delta, an endomorphism and the
    # convolution id * id = D, each against the sum of its images on terms
    A, elements = LINEAR_MAP_CASES[case]
    a = data.draw(elements, label="a")
    e, zero = A.element, Element.zero(A.kind)
    basis_tensor = lambda key: TensorElement(A.kind, 2, A.basis_coproduct(key))
    delta = termwise_oracle(a, basis_tensor, TensorElement.zero(A.kind))
    assert A.coproduct(a) == delta
    assert A.iterated_coproduct(a, 2) == termwise_oracle(
        delta, lambda k: tensor(basis_tensor(k[0]), e(k[1])), TensorElement.zero(A.kind, 3)
    )
    d = termwise_oracle(delta, lambda k: e(k[0]) * e(k[1]), zero)
    assert d_map(A, a) == d
    ident = identity_endo(A)
    assert convolution(A, ident, ident)(a) == d
    assert LinearEndomorphism(A, lambda key: d_map(A, e(key)))(a) == d


# -- the basis coproduct is the rule's plain sparse map --------------------------

BASIS_COPRODUCT_CASES = {
    **{s: build_algebra(s, None) for s in (
        "matrix:1", "matrix:2", "matrix:3", "matrix:4", "lmatrix:3:E[1,3]", *RMATRIX_CONTROLS,
    )},
    **{f"word:xy weight {w}": build_algebra("word:xy", w) for w in ("L", "0", "1", "2")},
    **{f"univar weight {w}": build_algebra("univar", w) for w in ("L", "0")},
    "comatrix:3": classical_comatrix_algebra(3),
    "deconcat:xy": deconcat_algebra("xy"),
}


def _typed(terms):
    """A term map with each coefficient's type, since LambdaPoly.const(1) == 1."""
    return {keys: (type(c), c) for keys, c in terms.items()}


@pytest.mark.parametrize("case", sorted(BASIS_COPRODUCT_CASES))
def test_basis_coproduct_is_the_rules_canonical_sparse_map(case):
    # each rule returns {(k1, k2): coeff} with every coefficient nonzero and
    # canonical, so the validating constructor keeps it term for term; the
    # element-level coproduct and the graded view, folded back, agree with it
    A = BASIS_COPRODUCT_CASES[case]
    for key in A.basis_keys(4):
        m = A.basis_coproduct(key)
        assert type(m) is dict, key
        assert _typed(TensorElement(A.kind, 2, m).terms) == _typed(m), key
        assert A.coproduct(A.element(key)).terms == m, key
        assert _typed(laws._fold(A.graded_coproduct(key))) == _typed(m), key


_KEYED_INSTANCES = {
    "matrix:2": M2, "word:xy": W, "deconcat:xy": deconcat_algebra("xy"), "univar": U,
}


@pytest.mark.parametrize("selector, key", [
    ("matrix:2", EMatrix(3, 1, 3)),
    ("matrix:2", (3, 3)),
    ("matrix:2", (1,)),
    ("matrix:2", Word((0,))),
    ("deconcat:xy", Word((5,))),
    ("word:xy", Word((2,))),
    ("word:xy", Word((0, 2))),
    ("word:xy", (0,)),  # a word spelled as letter indices, not as its str key
    ("word:xy", ()),
    ("univar", -1),
    ("univar", (1,)),
    ("univar", Word((1,))),
])
def test_key_level_checkers_validate_their_keys(selector, key):
    # an invalid key is refused before any coproduct is read, never reported as PASS
    A = _KEYED_INSTANCES[selector]
    valid = next(iter(A.basis_keys(1)))
    with pytest.raises(KindMismatch):
        check_coassoc(A, key)
    with pytest.raises(KindMismatch):
        check_cocycle(A, key, valid)
    with pytest.raises(KindMismatch):
        check_cocycle(A, valid, key)


# -- key-level antipode checkers against the element-level oracles -------------

# the two weight-0 r-coproducts whose antipode failures `verify` pins
RMATRIX_PROPERTY = "rmatrix:2:E[1,1] (x) E[1,2]:0"
RMATRIX_AXIOM = "rmatrix:2:E[1,1] (x) E[1,2] + E[1,1] (x) E[2,2]:0"


def _e(i, j, n=2):
    return EMatrix(i, j, n)


def _coproduct_table_algebra():
    """M_2 at weight 0 with an arbitrary coproduct table, not a derivation.

    D is nilpotent on it, and the antipode axiom (right side), multiplicativity
    and comultiplicativity fail on basis keys, so every witness path is reached.
    """
    return table_algebra({
        _e(1, 1): {(_e(2, 1), _e(1, 1)): -1, (_e(1, 2), _e(1, 1)): -1},
        _e(2, 2): {(_e(1, 2), _e(2, 2)): -1},
    })


# case -> (instance factory, its elements, what fails on its basis: the antipode
# laws, and the keys whose series does not truncate)
ANTIPODE_CASES = {
    "matrix:2": (lambda: matrix_algebra(2), matrix_elements(2), set()),
    "matrix:3": (lambda: matrix_algebra(3), matrix_elements(3), set()),
    "matrix:4": (lambda: matrix_algebra(4), matrix_elements(4, max_terms=6), set()),
    "rmatrix-property": (
        lambda: build_algebra(RMATRIX_PROPERTY, None), matrix_elements(2),
        {"antipode-comultiplicativity"},
    ),
    "rmatrix-axiom": (
        lambda: build_algebra(RMATRIX_AXIOM, None), matrix_elements(2),
        {"antipode-axiom-left", "antipode-comultiplicativity"},
    ),
    "rmatrix-no-truncation": (
        lambda: build_algebra(RMATRIX_CONTROLS[0], None), matrix_elements(2),
        {"E[1,2]", "E[2,1]"},
    ),
    "table": (
        _coproduct_table_algebra, matrix_elements(2),
        {"antipode-axiom-right", "antipode-multiplicativity", "antipode-comultiplicativity"},
    ),
    "univar-0": (lambda: univar_algebra(0), univar_elements(), set()),
}


def _antipode_outcome(check, A, *args):
    """The report of ``check`` (or the key whose series does not truncate),
    with the keys S was evaluated on, in order, starting from an empty memo."""
    order = []

    def recording(algebra, a):
        order.append(tuple(a.terms))
        return antipode(algebra, a)

    A._antipode = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "antipode", recording)
        try:
            result = check(A, *args)
        except NotNilpotentWithinCap as exc:
            result = ("does not truncate", str(exc.element), exc.cap, exc.basis)
    return result, order


def _same_antipode_outcomes(A, x, y):
    """Both key-level checkers against their oracles; returns the two results."""
    results = []
    for fast, slow, args in (
        (check_antipode_axiom, element_antipode_axiom_oracle, (x,)),
        (check_antipode_properties, element_antipode_properties_oracle, (x, y)),
    ):
        got = _antipode_outcome(fast, A, *args)
        assert got == _antipode_outcome(slow, A, *args)
        results.append(got[0])
    return results


@pytest.mark.parametrize("case", sorted(ANTIPODE_CASES))
def test_key_level_antipode_checkers_match_the_oracles_on_the_basis(case):
    make, _, failing = ANTIPODE_CASES[case]
    A = make()
    elements = [A.element(key) for key in A.basis_keys(4)]
    seen = set()
    for x in elements:
        for y in elements:
            for result in _same_antipode_outcomes(A, x, y):
                if isinstance(result, tuple):
                    seen.add(result[1])
                elif not result:
                    seen.add(result.law)
    # the failures met on the basis, so witnesses were compared
    assert seen == failing


@pytest.mark.parametrize("case", sorted(ANTIPODE_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_key_level_antipode_checkers_match_the_oracles_on_random_elements(case, data):
    make, elements, _ = ANTIPODE_CASES[case]
    _same_antipode_outcomes(make(), data.draw(elements), data.draw(elements))


# After a full sweep, every coefficient the instance memoized is canonical: in
# particular none is a constant LambdaPoly, which would put LambdaPoly
# arithmetic back on the hot path of the next sweep.  The graded coproducts
# hold each power of L apart: a degree >= 0 and a nonzero int, or a Fraction
# that is not integral.
CANONICAL_GUARD_CASES = {
    "matrix4": lambda: matrix_algebra(4),
    "word-L": lambda: word_algebra("xy"),
    "word-0": lambda: word_algebra("xy", 0),
    "univar-L": lambda: univar_algebra(),
    "univar-0": lambda: univar_algebra(0),
}


@pytest.mark.parametrize("case", sorted(CANONICAL_GUARD_CASES))
def test_memoized_coefficients_are_canonical_after_a_sweep(case):
    A = CANONICAL_GUARD_CASES[case]()
    run_verify("all", A)
    stored = [c for t in A._memo.values() for c in t.values()]
    if A._antipode is not None:
        stored += [c for e in A._antipode._memo.values() for c in e.terms.values()]
    stored += [c for row in A._prelie_table.values() for c in row.values()]
    # a letter-blind word sweep memoizes on the generic instance too
    generic = [relabel.G for relabel in A._relabel.values()]
    stored += [c for G in generic for t in G._memo.values() for c in t.values()]
    # the coalgebra checkers' view: (k1, k2, degree) -> rational
    graded = [
        (e, q) for B in (A, *generic) for g in B._graded.values() for (_, _, e), q in g.items()
    ]
    assert graded
    assert stored or A.weight  # at weight L a univar sweep reads only the graded view
    assert [c for c in stored if not is_canonical(c)] == []
    assert [
        (e, q) for e, q in graded
        if not (type(e) is int and e >= 0 and type(q) in (int, Fraction) and q and is_canonical(q))
    ] == []


# -- the antipode suite against the sweep that runs the checkers on every input --

# M_n tables whose first antipode failure comes after passing pairs, with the
# detail the suite reports; the M_8 mutant fails on a pair with pq = 0, which
# the pair walk reaches through S(p)S(q)
MUTANT_TABLES = {
    "mutant-E21": (2, {_e(2, 1): {(_e(2, 1), _e(1, 2)): -1}}, "property failure after 10 checks"),
    "mutant-E12": (2, {_e(1, 2): {(_e(1, 1), _e(1, 1)): -1}}, "property failure after 8 checks"),
    "mutant-M8": (
        8, {_e(2, 3, 8): {(_e(1, 3, 8), _e(3, 3, 8)): -1}}, "property failure after 74 checks"
    ),
}

# Two r-coproducts on M_8, past 50 keys: D != 0, so S is not -id, and the
# first passes while the second fails comultiplicativity at E[1,1]
RMATRIX_D8 = "rmatrix:8:E[1,2] (x) E[2,3]:0"
RMATRIX_COMULT8 = "rmatrix:8:E[1,1] (x) E[1,2]:0"

# case -> (instance factory, max_len).  On M_n, D = 0, and the pair walk
# evaluates n^3 of the n^4 pairs.  The failing cases reach each failure the
# sweep reports: S(unit), the axiom, multiplicativity, comultiplicativity and
# a series that does not truncate, proved on a finite basis (rmatrix) or at
# the step bound (words).  On univar the pairs reach products beyond the sweep.
ANTIPODE_SUITE_CASES = {
    **{f"matrix:{n}": (lambda n=n: matrix_algebra(n), 6) for n in (*range(1, 11), 12, 16)},
    **{
        sel: (lambda sel=sel: build_algebra(sel, None), 6)
        for sel in (
            *RMATRIX_CONTROLS, RMATRIX_PROPERTY, RMATRIX_AXIOM, RMATRIX_D8, RMATRIX_COMULT8
        )
    },
    "table": (_coproduct_table_algebra, 6),
    "lmatrix:3:E[1,2]": (lambda: build_algebra("lmatrix:3:E[1,2]", None), 6),
    "univar-0:4": (lambda: univar_algebra(0), 4),
    "univar-0:6": (lambda: univar_algebra(0), 6),
    "word:xy-0": (lambda: word_algebra("xy", 0), 6),
    **{
        name: (lambda n=n, t=t: table_algebra(t, n), 6)
        for name, (n, t, _) in MUTANT_TABLES.items()
    },
}


def _suite_with(sweep):
    """The antipode suite's outcome by ``sweep``, as a check for ``_antipode_outcome``."""
    def run(A, max_len):
        o = sweep(A, max_len)
        return o.status, o.line(), o.failure, o.checked, o.evaluated

    return run


@pytest.mark.parametrize("case", sorted(ANTIPODE_SUITE_CASES))
def test_antipode_suite_matches_the_dense_sweep(case):
    # status, text with witness, report, checked and S evaluation order are
    # those of the sweep that runs the checkers on every pair
    make, max_len = ANTIPODE_SUITE_CASES[case]
    fast, slow = _suite_with(sweeps._antipode_sweep), _suite_with(dense_antipode_sweep)
    got, order = _antipode_outcome(fast, make(), max_len)
    want, want_order = _antipode_outcome(slow, make(), max_len)
    assert (got[:4], order) == (want[:4], want_order)
    if case in MUTANT_TABLES:
        assert got[1].startswith(f"[FAIL] antipode: {MUTANT_TABLES[case][2]}\n")



def test_antipode_pairs_are_decided_only_where_the_whole_basis_is_swept():
    # S = -id on the swept words 1 and x, but Delta(xx) = 1 (x) 1 gives
    # S(xx) = -xx + 1/2: the pair (x, x), whose product lies beyond the sweep
    # of an infinite basis, is evaluated and fails, as in the dense sweep
    def make():
        return AlgebraInstance(WordKind("x"), 0, lambda w: {("", ""): 1} if len(w) == 2 else {})

    got = verify.run_suite("antipode", make(), 1)
    want = dense_antipode_sweep(make(), 1)
    assert got.status == "fail" and (got.line(), got.checked) == (want.line(), want.checked)


_M8_KEYS = [(i, j) for i in range(1, 9) for j in range(1, 9)]


@settings(max_examples=20, deadline=None)
@given(st.lists(
    st.tuples(*[st.sampled_from(_M8_KEYS)] * 3, st.sampled_from((1, -1))), min_size=1, max_size=3,
))
def test_antipode_suite_matches_the_dense_sweep_on_random_m8_tables(entries):
    # a coproduct table on M_8 of 1-3 entries of +-1, key -> {(k1, k2): c}
    table = {}
    for key, k1, k2, c in entries:
        row = table.setdefault(key, {})
        row[(k1, k2)] = row.get((k1, k2), 0) + c
    fast, slow = _suite_with(sweeps._antipode_sweep), _suite_with(dense_antipode_sweep)
    got, _ = _antipode_outcome(fast, table_algebra(table, 8), 6)
    want, _ = _antipode_outcome(slow, table_algebra(table, 8), 6)
    assert (got[0], got[1], got[3]) == (want[0], want[1], want[3])


def test_antipode_sweep_computes_each_value_once(monkeypatch):
    images, coproducts, multiplicativity, comultiplicativity = [], [], [], []
    records = (images, coproducts, multiplicativity, comultiplicativity)

    def recording(record, fn):
        def wrapper(*args):
            record.append(args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(LinearEndomorphism, "__call__", recording(images, LinearEndomorphism.__call__))
    monkeypatch.setattr(AlgebraInstance, "coproduct", recording(coproducts, AlgebraInstance.coproduct))
    monkeypatch.setattr(sweeps, "_multiplicativity_difference", recording(
        multiplicativity, sweeps._multiplicativity_difference,
    ))
    monkeypatch.setattr(sweeps, "_comultiplicativity_difference", recording(
        comultiplicativity, sweeps._comultiplicativity_difference,
    ))
    # on M_3, D = 0 and S = -id: comultiplicativity once per swept key, at its
    # S image, and no multiplicativity: S = -id on the whole basis decides every pair
    A = matrix_algebra(3)
    keys = list(A.basis_keys())
    assert verify.run_suite("antipode", A).line() == "[PASS] antipode: 299 checks"
    assert coproducts == [] and multiplicativity == []
    s = antipode_endo(A)
    assert len(comultiplicativity) == len(keys)
    assert all(args[2] is s.on_key(key).terms for args, key in zip(comultiplicativity, keys))
    # D != 0, so S is not -id and no involution runs: each walked pair has its
    # multiplicativity evaluated once, and no element is built but the unit
    B = build_algebra(RMATRIX_D8, None)
    keys = list(B.basis_keys())
    for record in records:
        record.clear()
    outcome = verify.run_suite("antipode", B)
    assert outcome.line() == "[PASS] antipode: 4360 checks"
    assert coproducts == [] and [args[1] for args in images] == [B.unit]
    assert len(comultiplicativity) == len(keys)
    assert len(multiplicativity) == outcome.evaluated - len(keys) < len(keys) ** 2
    s = antipode_endo(B)
    images_of = {id(s.on_key(key).terms): key for key in keys}
    walked = [(images_of[id(args[2])], images_of[id(args[3])]) for args in multiplicativity]
    assert walked == sorted(set(walked))


def test_telescoping_antipode_suite_counts_every_pair():
    # D = 0 on M_n: the axiom on n^2 keys, every one of the n^4 pairs, and the
    # involution on n^2 keys and 200 random-matrix checks.  S = -id on every key
    # decides the pairs, the involution and the random matrices: only the n^2
    # keys are evaluated
    for n, checks in ((5, 875), (16, 66248)):
        assert n * n + n ** 4 + n * n + 200 == checks
        outcome = verify.run_suite("antipode", matrix_algebra(n))
        assert outcome.line() == f"[PASS] antipode: {checks} checks"
        assert outcome.evaluated == n * n


def test_a_key_failing_comultiplicativity_under_minus_id_is_reported(monkeypatch):
    # S = -id on M_3 decides the pairs only while every key is comultiplicative:
    # a False there (here from a faulty difference on E[2,2], index 4) still
    # reaches the pair walk, which reports the key at its first pair
    real = sweeps._comultiplicativity_difference

    def wrong(A, s, sx, delta_terms):
        return {((2, 2), (2, 2)): 1} if sx == {(2, 2): -1} else real(A, s, sx, delta_terms)

    monkeypatch.setattr(sweeps, "_comultiplicativity_difference", wrong)
    outcome = verify.run_suite("antipode", matrix_algebra(3))
    assert (outcome.status, outcome.checked) == ("fail", 9 + 4 * 9)
    assert outcome.detail == "property failure after 45 checks"
