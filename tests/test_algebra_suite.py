"""The ``algebra`` verify suite: the unit and associativity of the kind's product."""

import pytest

from epsbialg import (
    AlgebraInstance,
    MatrixKind,
    ONE,
    ZERO,
    classical_comatrix_algebra,
    deconcat_algebra,
    matrix_algebra,
    newtonian_coproduct,
    univar_algebra,
    word_algebra,
)
from epsbialg.cli import build_algebra
from epsbialg.verify import _associativity_walk, _triple_keys, run_suite, run_verify

from support import RMATRIX_CONTROLS, dense_associativity_oracle, nonzero_associativity_sides


class ZeroedPairKind(MatrixKind):
    """M_n with E[1,2]E[2,1] set to 0.  Both product indexes stay true to the
    product and the unit stays two-sided, so only associativity breaks."""

    def key_mul(self, p, q):
        if (p, q) == ((1, 2), (2, 1)):
            return None
        return super().key_mul(p, q)


class ShortUnitKind(MatrixKind):
    """M_n whose unit is E[1,1] alone: a left identity on row 1 only."""

    def unit_terms(self):
        return {(1, 1): ONE}


def broken(kind):
    return AlgebraInstance(kind, ZERO, newtonian_coproduct)


CASES = {
    **{f"matrix:{n}": (lambda n=n: matrix_algebra(n), 6) for n in range(1, 6)},
    "comatrix:3": (lambda: classical_comatrix_algebra(3), 6),
    "word:xy": (lambda: word_algebra("xy"), 6),
    "word:xy max-len 9": (lambda: word_algebra("xy"), 9),
    "deconcat:xy": (lambda: deconcat_algebra("xy"), 6),
    "univar max-len 12": (lambda: univar_algebra(), 12),
    **{sel: (lambda sel=sel: build_algebra(sel, None), 6) for sel in RMATRIX_CONTROLS},
    "zeroed E[1,2]E[2,1] on M_2": (lambda: broken(ZeroedPairKind(2)), 6),
    "zeroed E[1,2]E[2,1] on M_3": (lambda: broken(ZeroedPairKind(3)), 6),
    "unit E[1,1] on M_2": (lambda: broken(ShortUnitKind(2)), 6),
}


@pytest.mark.parametrize("case", CASES)
def test_walk_reaches_exactly_the_triples_with_a_nonzero_side(case):
    # the 0 = 0 argument itself: every triple the walk skips has both sides zero
    make, max_len = CASES[case]
    A = make()
    walk = [(index, (left, right)) for index, left, right in
            _associativity_walk(A.kind, _triple_keys(A, max_len))]
    assert dict(walk) == nonzero_associativity_sides(A, max_len)
    assert len(walk) == len(dict(walk))  # each triple once


@pytest.mark.parametrize("case", CASES)
def test_suite_matches_the_dense_oracle(case):
    make, max_len = CASES[case]
    suite, oracle = run_suite("algebra", make(), max_len), dense_associativity_oracle(make(), max_len)
    assert suite.line() == oracle.line()
    assert (suite.status, suite.detail, suite.checked) == (oracle.status, oracle.detail, oracle.checked)
    assert suite.failure == oracle.failure  # law, inputs and difference


@pytest.mark.parametrize("n", [1, 2, 5])
def test_matrix_sweep_evaluates_n_to_the_fourth_triples(n):
    outcome = run_suite("algebra", matrix_algebra(n))
    assert outcome.line() == f"[PASS] algebra: {n ** 6} triples checked"
    assert (outcome.checked, outcome.evaluated) == (n ** 6, n ** 4)


def test_broken_associativity_gives_the_first_witness():
    outcome = run_suite("algebra", broken(ZeroedPairKind(2)))
    assert outcome.line() == (
        "[FAIL] algebra: failure after 25 triples\n"
        "       witness inputs (E[1,2], E[2,1], E[1,2]): difference = -E[1,2]"
    )
    assert outcome.failure.law == "associativity"
    # the walk is not in canonical order, so it evaluates every candidate
    assert outcome.evaluated == len(nonzero_associativity_sides(broken(ZeroedPairKind(2)), 6))


def test_broken_unit_gives_the_first_witness():
    outcome = run_suite("algebra", broken(ShortUnitKind(2)))
    assert outcome.line() == (
        "[FAIL] algebra: unit failure after 1 keys\n"
        "       witness inputs (E[1,2]): difference = -E[1,2]"
    )
    assert outcome.failure.law == "unit"


def test_algebra_runs_first_under_all_and_is_never_skipped():
    for A in (matrix_algebra(2), word_algebra("xy"), univar_algebra(),
              build_algebra(RMATRIX_CONTROLS[0], None)):
        _, outcomes = run_verify("all", A)
        assert outcomes[0].suite == "algebra"
        assert outcomes[0].status == "pass"
    passed, outcomes = run_verify("all", broken(ZeroedPairKind(2)))
    assert not passed
    assert outcomes[0].status == "fail"

