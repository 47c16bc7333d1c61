"""Letter-blind word sweeps: the relabel certificate against the dense sweep.

On a word instance of two or more letters the coassoc and cocycle suites
first try a certificate (a relabel check on every swept key and one generic
check per length); when any check fails they run the dense sweep.  Either way
the outcome must be the one the dense sweep gives alone, which ``_dense``
gets by turning the certificate off.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsbialg import (
    LAMBDA,
    AlgebraInstance,
    WordKind,
    check_coassoc,
    check_cocycle,
    coproduct_from_r,
    deconcat_algebra,
    deconcat_coproduct,
    matrix_algebra,
    parse_tensor,
    scalar,
    univar_algebra,
    weighted_word_coproduct,
    word_algebra,
)
from epsbialg.verify import _distinct, _letter_blind, _Relabel, run_suite, run_verify

from support import lambda_polys, nonzero_polys, relabel_oracle

COALGEBRA_SUITES = ("coassoc", "cocycle")


def _pair(rule, alphabet, weight):
    """Two instances of one rule: one to certify, one for the dense reference."""
    kind = WordKind(alphabet)
    return AlgebraInstance(kind, weight, rule), AlgebraInstance(kind, weight, rule)


def _outcomes(A, max_len):
    return [
        (o.line(), o.checked)
        for o in (run_suite(suite, A, max_len=max_len) for suite in COALGEBRA_SUITES)
    ]


def _dense(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with no certificate tried: the dense sweep alone."""
    with mock.patch("epsbialg.verify._letter_blind", return_value=None):
        return run(*args, **kwargs)


def test_only_word_instances_of_two_or_more_letters_try_the_certificate():
    assert [_letter_blind(A, 3) is None for A in (
        word_algebra("xy"), deconcat_algebra("xyz"), word_algebra("x"), univar_algebra(),
        matrix_algebra(2),
    )] == [False, False, True, True, True]


@pytest.mark.parametrize("r,max_len,swept", [
    ("x (x) y", 4, False),  # Delta(x) has the leg y, a letter x lacks
    ("1 (x) 1", 4, False),  # letter-blind, but the rule refuses g_3: its kind has 2 letters
    ("1 (x) 1", 2, True),
])
def test_r_coproducts_on_words_agree_with_the_dense_sweep(r, max_len, swept):
    W = word_algebra("xy", 0)
    A, B = (coproduct_from_r(W, parse_tensor(r, W), 0) for _ in range(2))
    assert _outcomes(A, max_len) == _dense(_outcomes, B, max_len)
    assert _letter_blind(A, max_len).swept == swept


def test_certified_sweeps_keep_the_dense_counts_and_evaluate_far_fewer():
    _, outcomes = run_verify("all", word_algebra("xy"), max_len=9)
    got = {o.suite: (o.line(), o.checked, o.evaluated) for o in outcomes}
    # 1023 relabel checks, then 10 coassoc checks with 82 relabel checks at
    # their legs, and 55 cocycle checks with one relabel check each
    assert got["coassoc"] == ("[PASS] coassoc: 1023 keys checked", 1023, 1023 + 82 + 10)
    assert got["cocycle"] == ("[PASS] cocycle: 9217 pairs checked", 9217, 1023 + 55 + 55)


@pytest.mark.parametrize("make", [
    lambda: word_algebra("xy"),
    lambda: word_algebra("xy", 0),
    lambda: word_algebra("xy", 1),
    lambda: word_algebra("xy", 2 * LAMBDA - 1),
    lambda: word_algebra(["x1", "x2", "x3"]),
    lambda: deconcat_algebra("xy"),
])
def test_shipped_instances_agree_with_the_dense_sweep(make):
    A = make()
    B = AlgebraInstance(A.kind, A.weight, A._rule)
    assert _letter_blind(A, 5).swept
    assert _outcomes(A, 5) == _dense(_outcomes, B, 5)


def _yx_mutant(w):
    """The weighted word rule of word:xy, but the weight term of Delta(y*x) is 2."""
    terms = weighted_word_coproduct(w)
    return {**terms, ("\x01", "\x00"): 2} if w == "\x01\x00" else terms


def test_a_rule_that_reads_letters_falls_back_to_the_dense_witness():
    # the mutant passes every generic check; the relabel check on y*x, the
    # sixth swept key, rejects it, and the dense sweep names the failure
    A, B = _pair(_yx_mutant, "xy", LAMBDA)
    line = run_suite("cocycle", A, max_len=9).line()
    assert line == (
        "[FAIL] cocycle: failure after 1028 pairs\n"
        "       witness inputs (x, y*x): difference = (L - 2) * x*y (x) x"
    )
    assert line == _dense(run_suite, "cocycle", B, max_len=9).line()
    relabel = _letter_blind(A, 9)
    assert not relabel.swept
    assert relabel.rejected == "\x01\x00"


def _long_diagonal(w):
    """The weight-0 word rule plus w (x) w on words of length 3: letter-blind,
    and the cocycle law fails exactly where a length-3 word is involved."""
    terms = dict(weighted_word_coproduct(w, 0))
    if len(w) == 3:
        terms[(w, w)] = 1
    return terms


def _cocycle_defect(rule, p, q):
    """Delta(pq) - p.Delta(q) - Delta(p).q at weight 0, as a sparse map."""
    out = dict(rule(p + q))
    for (u, v), c in rule(q).items():
        out[(p + u, v)] = out.get((p + u, v), 0) - c
    for (u, v), c in rule(p).items():
        out[(u, v + q)] = out.get((u, v + q), 0) - c
    return {legs: c for legs, c in out.items() if c}


def _shift(w):
    """a if w is the shifted word s_a g_b, a >= 1, with a letter outside x, y
    (so no key of word:xy); else 0."""
    a = ord(w[0]) if w else 0
    return a if a and ord(max(w)) >= 2 and w == _distinct(len(w), a) else 0


def _shift_compensated(w):
    """``_long_diagonal``, but on each ``_shift`` word s_a g_b a term E with
    g_a.E the cocycle defect at (g_a, s_a g_b): every generic cocycle check
    holds, although the law fails on word:xy, and only the relabel check at
    s_a g_b sees it."""
    terms = _long_diagonal(w)
    if a := _shift(w):
        for (u, v), c in _cocycle_defect(_long_diagonal, _distinct(a), w).items():
            terms[(u[a:], v)] = terms.get((u[a:], v), 0) + c
    return {legs: c for legs, c in terms.items() if c}


def test_the_relabel_check_in_the_generic_instance_is_needed():
    A, B = _pair(_shift_compensated, "xy", 0)
    relabel = _letter_blind(A, 4)
    assert relabel.swept
    assert relabel.cocycle() is None
    # the generic cocycle checks alone would pass
    G = relabel.G
    pairs = [(a, b) for a in range(5) for b in range(5 - a)]
    assert all(check_cocycle(G, _distinct(a), _distinct(b, a)) for a, b in pairs)
    line = run_suite("cocycle", A, max_len=4).line()
    assert line.startswith("[FAIL] cocycle: failure after ")
    assert line == _dense(run_suite, "cocycle", B, max_len=4).line()


def _coassoc_defect(rule, w):
    """(Delta (x) id) Delta(w) - (id (x) Delta) Delta(w), as a sparse map."""
    out = {}
    for (u, v), c in rule(w).items():
        for (x, y), d in rule(u).items():
            out[(x, y, v)] = out.get((x, y, v), 0) + c * d
        for (x, y), d in rule(v).items():
            out[(u, x, y)] = out.get((u, x, y), 0) - c * d
    return {legs: c for legs, c in out.items() if c}


def _leg_compensated(w):
    """``_long_diagonal``, but on each ``_shift`` word s_a g_b, a leg of
    Delta(g_n), a term E with g_(a+1) (x) E the part of the coassoc defect at
    g_n whose first leg is g_(a+1): every generic coassoc check holds,
    although the law fails on word:xy, and only the relabel checks at the
    legs see it."""
    terms = _long_diagonal(w)
    if a := _shift(w):
        g = _distinct(a + len(w))
        for (u, x, y), c in _coassoc_defect(_long_diagonal, g).items():
            if u == g[: a + 1]:
                terms[(x, y)] = terms.get((x, y), 0) + c
    return {legs: c for legs, c in terms.items() if c}


def test_the_relabel_check_at_generic_legs_is_needed():
    A, B = _pair(_leg_compensated, "xy", 0)
    relabel = _letter_blind(A, 4)
    assert relabel.swept
    assert relabel.coassoc() is None
    # the generic coassoc checks alone would pass
    G = relabel.G
    assert all(check_coassoc(G, _distinct(n)) for n in range(5))
    line = run_suite("coassoc", A, max_len=4).line()
    assert line.startswith("[FAIL] coassoc: failure after ")
    assert line == _dense(run_suite, "coassoc", B, max_len=4).line()


def _constant_letter(w):
    """Deconcatenation, plus x (x) w: a leg in the letter x whatever w is."""
    return {**deconcat_coproduct(w), ("\x00", w): 1}


def test_a_generic_leg_outside_its_input_gets_no_certificate():
    # Delta(g_0) has the leg g0, a letter that g_0 = 1 does not have, so no
    # phi maps it: the relabel check fails on the empty word
    A, B = _pair(_constant_letter, "xy", -1)
    relabel = _letter_blind(A, 4)
    assert not relabel.swept
    assert relabel.rejected == ""
    assert relabel._legal(0) is None
    assert _outcomes(A, 4) == _dense(_outcomes, B, 4)


def _long_leg(w):
    """w*w (x) 1 on words of length 3, w (x) w on words of length 6 over x
    and y, and 0 elsewhere.  It reads letters only on words of length 6."""
    if len(w) == 3:
        return {(w + w, ""): 1}
    if len(w) == 6 and ord(max(w)) < 2:
        return {(w, w): 1}
    return {}


def test_a_generic_leg_longer_than_max_len_gets_no_certificate():
    # at max-len 4 the relabel conditions of the words docstring hold on
    # every key of word:xy, and in G at the legs g_3*g_3 and 1 of Delta(g_3),
    # since g_3*g_3 has the letter g2; coassoc holds at g_3, as
    # Delta(g_3*g_3) = 0.  But on x*x*x, (Delta (x) id) Delta = x^6 (x) x^6
    # (x) 1, and no relabel check reaches x^6: only the bound on leg length
    # keeps the certificate from a false pass
    A, B = _pair(_long_leg, "xy", 0)
    relabel = _letter_blind(A, 4)
    assert relabel._legal(3) is None
    assert not relabel.swept
    assert relabel.coassoc() is None
    G = relabel.G
    assert check_coassoc(G, _distinct(3))
    assert not check_coassoc(A, "\x00" * 3)
    assert _outcomes(A, 4)[0][0].startswith("[FAIL] coassoc: failure after 7 keys\n")
    assert _outcomes(A, 4) == _dense(_outcomes, B, 4)


def _reversal(w):
    """w (x) 1 + reverse(w) (x) 1: letter-blind, and the terms meet on a palindrome."""
    terms = {}
    for legs in ((w, ""), (w[::-1], "")):
        terms[legs] = terms.get(legs, 0) + 1
    return terms


def test_terms_that_a_relabelling_merges_are_summed():
    # on x*x or x*y*x the two generic terms of Delta(g_n) have one image,
    # whose coefficient is their sum, 2, as the rule gives it
    A, B = _pair(_reversal, "xy", 0)
    assert _letter_blind(A, 4).swept
    assert _outcomes(A, 4) == _dense(_outcomes, B, 4)


def _two_heads(w):
    """w[:1] (x) 1 + w[1:2] (x) 1 on words of length >= 2, 0 elsewhere: every
    generic leg is a run, and the two terms meet where w starts with a repeated
    letter."""
    terms = {}
    if len(w) >= 2:
        for legs in ((w[:1], ""), (w[1:2], "")):
            terms[legs] = terms.get(legs, 0) + 1
    return terms


def _two_heads_unsummed(w):
    """``_two_heads``, but a merged term keeps the coefficient 1."""
    return {(w[:1], ""): 1, (w[1:2], ""): 1} if len(w) >= 2 else {}


def test_sliced_images_that_merge_are_summed():
    # the slice route reads x (x) 1 twice from x*x; the merged image goes
    # through the letter map, whose sum 2 is the rule's coefficient
    A, B = _pair(_two_heads, "xy", 0)
    relabel = _letter_blind(A, 4)
    assert relabel._image("\x00\x00") == {("\x00", ""): 2} == _two_heads("\x00\x00")
    assert relabel.swept and relabel.rejected is None
    assert relabel.coassoc() is not None
    assert _outcomes(A, 4) == _dense(_outcomes, B, 4)


def test_a_merged_term_left_unsummed_fails_the_relabel_check():
    A, B = _pair(_two_heads_unsummed, "xy", 0)
    relabel = _letter_blind(A, 4)
    assert relabel.rejected == "\x00\x00"
    assert not relabel.swept
    assert relabel.coassoc() is None and relabel.cocycle() is None
    outcomes = _outcomes(A, 4)
    assert outcomes == _dense(_outcomes, B, 4)
    # the dense witness names the unsummed coefficient, which the summed rule
    # does not give
    assert outcomes[1][0] == (
        "[FAIL] cocycle: failure after 32 pairs\n"
        "       witness inputs (x, x): difference = x (x) 1"
    )
    assert outcomes != _outcomes(_pair(_two_heads, "xy", 0)[0], 4)


def test_one_letter_alphabets_run_the_dense_sweep():
    # over one letter every word is g_n renamed: the generic checks would be
    # the dense sweep itself
    A = word_algebra("x")
    assert _letter_blind(A, 6) is None
    assert [o.evaluated for o in (run_suite(s, A) for s in COALGEBRA_SUITES)] == [7, 28]


@st.composite
def _rules(draw):
    """A weighted word or deconcatenation rule at a random weight, on x, xy or
    xyz, perhaps changed at one random key by one random term."""
    alphabet = draw(st.sampled_from(["x", "xy", "xyz"]), label="alphabet")
    max_len = draw(st.integers(min_value=1, max_value=5), label="max_len")
    weight = draw(lambda_polys.map(scalar), label="weight")
    word = st.text(alphabet=_distinct(len(alphabet)), max_size=max_len)
    if draw(st.booleans(), label="deconcat"):
        base = deconcat_coproduct
    else:
        base = lambda w: weighted_word_coproduct(w, weight)
    rule = base
    if draw(st.booleans(), label="perturbed"):
        key, legs, c = draw(word), draw(st.tuples(word, word)), draw(nonzero_polys)

        def rule(w):
            terms = base(w)
            if w != key:
                return terms
            terms = dict(terms)
            terms[legs] = terms.get(legs, 0) + c
            if not terms[legs]:
                del terms[legs]
            return terms

    return alphabet, max_len, weight, rule


@settings(max_examples=150, deadline=None)
@given(_rules())
def test_certificate_and_dense_sweep_agree(case):
    alphabet, max_len, weight, rule = case
    A, B = _pair(rule, alphabet, weight)
    assert _outcomes(A, max_len) == _dense(_outcomes, B, max_len)


@settings(max_examples=150, deadline=None)
@given(_rules())
def test_relabel_checks_agree_with_the_letter_map_oracle(case):
    # on one letter no certificate is tried, but the relabel check is defined
    alphabet, max_len, weight, rule = case
    A, B = _pair(rule, alphabet, weight)
    relabel = _letter_blind(A, max_len) or _Relabel(A, max_len)
    assert (relabel.swept, relabel.rejected) == relabel_oracle(B, max_len)


def _inner_factors(w):
    """The sum of w[i:j] (x) 1 over 0 < i < j < l(w): letter-blind, with a run
    at every inner offset, and terms that meet where w repeats a factor."""
    terms = {}
    for i in range(1, len(w)):
        for j in range(i + 1, len(w)):
            terms[(w[i:j], "")] = terms.get((w[i:j], ""), 0) + 1
    return terms


@pytest.mark.parametrize("rule, weight", [
    (_yx_mutant, LAMBDA), (_shift_compensated, 0), (_leg_compensated, 0),
    (_constant_letter, -1), (_long_leg, 0), (_reversal, 0), (_two_heads, 0),
    (_two_heads_unsummed, 0), (_inner_factors, 0),
])
def test_the_relabel_checks_of_each_rule_above_agree_with_the_oracle(rule, weight):
    for alphabet in ("xy", "xyz"):
        for max_len in range(1, 6):
            A = AlgebraInstance(WordKind(alphabet), weight, rule)
            relabel = _Relabel(A, max_len)
            assert (relabel.swept, relabel.rejected) == relabel_oracle(A, max_len)
