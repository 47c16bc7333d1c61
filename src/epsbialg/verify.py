"""Verification suites orchestrating the law checkers.

Each suite sweeps a deterministic, canonically ordered set of inputs and
stops at the first failing law, so a broken instance always reproduces the
same witness.  ``run_verify`` maps a suite name (or ``all``) to outcomes;
``verify_command``, the CLI's ``verify``, turns them into text or JSON and
an exit status.

The ``algebra`` suite runs first under ``all`` and is never skipped: the
other suites take the kind's product and unit on trust.  It checks 1.e = e
= e.1 on every swept key, then (pq)r = p(qr) on every triple of them.  A
triple with (pq)r = 0 and p(qr) = 0 holds as 0 = 0, so only the triples
with a nonzero side are evaluated: the kind's product index lists, for a
left key, every right key whose product with it may be nonzero, and its left
index does the same the other way round, so the walk from p to q to r after
pq and the walk from q to r to p before qr reach every such triple
(``_associativity_walk``).  On M_n that is n^4 of the n^6 triples.  The
walk runs to its end, so every candidate is evaluated, and the failure
reported is the one at the least canonical index, as in a walk over every
triple in order; ``tests/support.py::dense_associativity_oracle`` is that
walk.

The coassoc and cocycle sweeps first try a certificate, and walk every key
or pair only where it fails.  On a word instance over two or more letters
that is the letter-blind certificate of ``relabel``, which ``_letter_blind``
imports only there.

On M_n the cocycle sweep checks generators.  With K(a, b) = Delta(ab) -
a.Delta(b) - Delta(a).b - weight * (a (x) b), an associative product gives
K(ab, c) + K(a, b).c = K(a, bc) + a.K(b, c).  ``MatrixKind.factor`` writes
each key but the 2(n-1) generators x as x.a', a' of lower rank, so by
induction K vanishes once it does on the pairs (x, q), and on M_1 (no
factorization) on its one pair: 200 of 625 pairs on M_5.  The premises are
each factorization, checked through ``key_mul``, and the ``algebra`` suite's
verdict, memoized on A (run if absent).  If one or a check fails, the walk
over every pair runs.

The antipode, pre-Lie, Jacobi, representation and bracket sweeps are in
``sweeps``, which ``run_suite`` imports only when one of them runs.

Applicability is decided in one place, ``_applicable``: the antipode, the
pre-Lie family and the bracket sweep need weight 0, and the bracket sweep
compares against closed forms specific to the telescoping matrix instance
(the instances tagged ``telescoping``).  Under ``all`` a suite that does
not apply is skipped with the printed reason; ``run_suite`` refuses it
before it runs, with ``WeightNotZero`` or ``KindMismatch``, which the CLI
reports as a usage error.
"""

from .core import AlgebraInstance
from .errors import SUITE_NAMES, KindMismatch, UnknownSuite, WeightNotZero
from .laws import LawReport, check_coassoc, check_cocycle
from .lincomb import Element, EMatrix, MatrixKind, act_left, act_right
from .matrices import TELESCOPING, matrix_algebra, matrix_from_rows
from .prelie import (
    bilinear_from_pairs,
    commutator_bracket,
    matrix_bracket_closed_form,
    matrix_bracket_table,
    prelie_product,
)
from .scalars import _accumulate
from .words import Word, WordKind, subword, word_algebra

_RUNNABLE = SUITE_NAMES[:-1]  # every suite but "all", which only run_verify accepts
_WEIGHT_ZERO_SUITES = ("antipode", "prelie", "jacobi", "representation", "bracket-closed-form")

# The most basis pairs one verify run may sweep.  The cocycle pairs are its
# largest keyed sweep (the coassoc keys are the pairs with the size-0 key);
# ``run_verify`` counts them before any suite runs and refuses a run past this
# bound, which words reach quickly: there are |alphabet|^max-len of each length.
MAX_SWEEP = 2 ** 17


class SuiteOutcome:
    """One suite's result.  ``checked`` is the count the detail reports (for a
    failure, the inputs before the failing one); ``evaluated`` is how many
    inputs a law was evaluated on, the failing one included (for a
    certificate or a reduced check, the checks it rests on; for Jacobi, the
    triples with a rotation the pre-Lie pass reached).  It leaves out checks
    that an argument decides: bilinearity (0 = 0), a lemma, linearity.
    ``status`` is "pass", "fail" or "skip"; ``failure`` the failing ``LawReport``.

    A plain class, not a dataclass: importing ``dataclasses`` costs each CLI
    process about 10 ms, more than a short command's own work."""

    __slots__ = ("suite", "status", "detail", "failure", "checked", "evaluated")

    def __init__(self, suite, status, detail, failure=None, checked=0, evaluated=0):
        self.suite = suite
        self.status = status
        self.detail = detail
        self.failure = failure
        self.checked = checked
        self.evaluated = evaluated

    def line(self) -> str:
        tag = {"pass": "[PASS]", "fail": "[FAIL]", "skip": "[SKIP]"}[self.status]
        text = f"{tag} {self.suite}: {self.detail}"
        if self.failure is not None and self.failure.witness is not None:
            text += f"\n       witness {self.failure.witness}"
        return text


def _passed(suite, detail, checked, evaluated=None):
    """A pass; one on zero inputs would assert nothing, so it is refused."""
    if checked == 0:
        raise ValueError(f"suite {suite!r} checked no input, so it cannot pass")
    return SuiteOutcome(
        suite, "pass", detail, None, checked, checked if evaluated is None else evaluated
    )


def _failed(suite, detail, report, checked, evaluated=None):
    return SuiteOutcome(
        suite, "fail", detail, report, checked, checked + 1 if evaluated is None else evaluated
    )


def _skipped(suite, reason):
    return SuiteOutcome(suite, "skip", reason)


# ---------------------------------------------------------------------------
# input enumeration
# ---------------------------------------------------------------------------

def _cocycle_pairs(A: AlgebraInstance, max_len: int):
    """Ordered basis pairs of total size at most ``max_len``: every pair on M_n,
    whose keys all have size 0 and whose ``basis_keys`` ignores its bound."""
    size = A.kind.key_size
    return [(p, q) for p in A.basis_keys(max_len) for q in A.basis_keys(max_len - size(p))]


def _cocycle_pair_count(kind, max_len: int) -> int:
    """How many pairs ``_cocycle_pairs`` sweeps, in closed form from the kind's
    ``count_keys``: the sum over sizes t of (keys of size t) * (keys of size
    <= max_len - t).

    A kind's key sizes run from 0 without a gap (on M_n every key has size
    0), so once a size adds no key, no larger size does.  Every basis has a
    key of size 0, so once the keys of size <= t number more than MAX_SWEEP,
    so do the pairs: that count, a lower bound, is returned at once.
    """
    upto = []  # upto[t]: the keys of size <= t, until a size adds none
    for t in range(max_len + 1):
        upto.append(kind.count_keys(t))
        if upto[t] > MAX_SWEEP:
            return upto[t]
        if t and upto[t] == upto[t - 1]:
            break
    top = len(upto) - 1
    return sum(
        (upto[t] - (upto[t - 1] if t else 0)) * upto[min(max_len - t, top)]
        for t in range(top + 1)
    )


def _triple_keys(A: AlgebraInstance, max_len: int):
    return list(A.basis_keys(max(1, max_len // 3)))


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _associativity_walk(kind, keys):
    """Each triple of ``keys`` with a nonzero side of (pq)r = p(qr), once, as
    (canonical index, (pq)r, p(qr)), a side that is zero being None.

    The nonzero products of pairs of keys are tabulated first, through the
    product index.  The triples with (pq)r != 0 follow from them through the
    product index (p, then q, then r after pq); those with p(qr) != 0 but
    (pq)r = 0 through the left index (q, then r, then p before qr).  Neither
    walk is in canonical order.
    """
    m = len(keys)
    mul = kind.key_mul
    positions = {key: i for i, key in enumerate(keys)}
    right, left = kind.product_index(positions), kind.left_index(positions)
    pairs = {}  # i * m + j -> keys[i] keys[j], for the nonzero products
    for i, p in enumerate(keys):
        for q, j in right(p):
            pq = mul(p, q)
            if pq is not None:
                pairs[i * m + j] = pq
    for ij, pq in pairs.items():
        p, j = keys[ij // m], ij % m
        for r, k in right(pq):
            pq_r = mul(pq, r)
            if pq_r is not None:
                qr = pairs.get(j * m + k)
                yield ij * m + k, pq_r, None if qr is None else mul(p, qr)
    for jk, qr in pairs.items():
        j, r = jk // m, keys[jk % m]
        for p, i in left(qr):
            pq = pairs.get(i * m + j)
            if pq is not None and mul(pq, r) is not None:
                continue  # (pq)r != 0: the first walk yielded it
            p_qr = mul(p, qr)
            if p_qr is not None:
                yield i * m * m + jk, None, p_qr


def _suite_algebra(A, max_len):
    """The unit on both sides of every swept key, then associativity on every
    triple of them; see the module docstring for the triples it skips."""
    kind = A.kind
    mul = kind.key_mul
    keys = _triple_keys(A, max_len)
    left_unit, right_unit = kind.left_index(A.unit.terms), kind.product_index(A.unit.terms)
    for count, p in enumerate(keys):
        for side in (  # 1.p, then p.1
            ((k, c) for u, c in left_unit(p) if (k := mul(u, p)) is not None),
            ((k, c) for u, c in right_unit(p) if (k := mul(p, u)) is not None),
        ):
            diff = {p: -1}
            _accumulate(diff, side)
            if diff:
                report = LawReport.fail("unit", (kind.key_text(p),), Element._make(kind, diff))
                return _failed("algebra", f"unit failure after {count} keys", report, count)
    # the walk is not in canonical order: it runs to the end, keeping the
    # least failing index
    m = len(keys)
    first, evaluated = None, 0
    for index, pq_r, p_qr in _associativity_walk(kind, keys):
        evaluated += 1
        if pq_r != p_qr and (first is None or index < first[0]):
            first = (index, pq_r, p_qr)
    if first is None:
        return _passed("algebra", f"{m ** 3} triples checked", m ** 3, evaluated)
    index, pq_r, p_qr = first
    # the two sides differ, so they are two distinct keys or one key and zero
    diff = {k: c for k, c in ((pq_r, 1), (p_qr, -1)) if k is not None}
    triple = (keys[index // (m * m)], keys[index // m % m], keys[index % m])
    report = LawReport.fail(
        "associativity", tuple(kind.key_text(k) for k in triple), Element._make(kind, diff)
    )
    return _failed("algebra", f"failure after {index} triples", report, index, evaluated)


def _suite_coassoc(A, max_len):
    relabel = _letter_blind(A, max_len)
    if relabel is not None and (certified := relabel.coassoc()) is not None:
        count, evaluated = certified
        return _passed("coassoc", f"{count} keys checked", count, evaluated)
    count = 0
    for key in A.basis_keys(max_len):
        report = check_coassoc(A, key)
        if not report:
            return _failed("coassoc", f"failure after {count} keys", report, count)
        count += 1
    return _passed("coassoc", f"{count} keys checked", count)


def _generator_cocycle(A, max_len):
    """(pairs certified, checks run) on M_n, or None if a premise or a check
    at a pair (x, q) fails (see the module docstring)."""
    if not isinstance(kind := A.kind, MatrixKind):
        return None
    if max_len not in A._associative:
        run_suite("algebra", A, max_len)
    keys = list(A.basis_keys(max_len))
    factors = {key: kind.factor(key) for key in keys}
    firsts = {key if f is None else f[0] for key, f in factors.items()}  # x, or unfactored
    if (A._associative[max_len]
            and all(f is None or kind.key_mul(*f) == key for key, f in factors.items())
            and all(check_cocycle(A, x, q) for x in firsts for q in keys)):
        return len(keys) ** 2, len(firsts) * len(keys)
    return None


def _suite_cocycle(A, max_len):
    relabel = _letter_blind(A, max_len)
    certified = _generator_cocycle(A, max_len) if relabel is None else relabel.cocycle()
    if certified is not None:
        count, evaluated = certified
        return _passed("cocycle", f"{count} pairs checked", count, evaluated)
    count = 0
    for p, q in _cocycle_pairs(A, max_len):
        report = check_cocycle(A, p, q)
        if not report:
            return _failed("cocycle", f"failure after {count} pairs", report, count)
        count += 1
    return _passed("cocycle", f"{count} pairs checked", count)


def _letter_blind(A, max_len):
    """The relabel verdicts of A at ``max_len``, memoized on A, when A is a
    word instance on two or more letters; else None.  On one letter each word
    is g_n renamed, so the generic checks would be the sweep itself."""
    kind = A.kind
    if not isinstance(kind, WordKind) or len(kind.alphabet) < 2:
        return None
    relabel = A._relabel.get(max_len)
    if relabel is None:
        from .relabel import _Relabel
        relabel = A._relabel[max_len] = _Relabel(A, max_len)
    return relabel


def _suite_worked_examples(_A, _max_len):
    """Golden worked examples, fixed regardless of the selected algebra: rows
    (label, computed value, expected), built when the suite runs, so that they
    read this module's bindings then.  The expected value is the computed one's
    canonical text, or a second computation of it; a row fails when the texts
    differ.  Canonical text is as strict as the element, and cheaper: parsing
    these texts back into elements takes about 2 ms, several times the suite.
    So x*y and y*x*y are built from their keys too, and the suite parses no text."""
    m2 = matrix_algebra(2)
    m = matrix_from_rows([[1, 0], [1, 0]])  # E[1,1] + E[2,1]
    n = matrix_from_rows([[0, 1], [0, 1]])  # E[1,2] + E[2,2]
    e21, e12 = (m2.element(EMatrix(i, j, 2)) for i, j in ((2, 1), (1, 2)))
    display = act_right(m2.coproduct(m), n) + act_left(m, m2.coproduct(n))
    w = word_algebra("xy")
    xy, yxy = w.element(Word((0, 1))), w.element(Word((1, 0, 1)))
    big = Word((0, 0, 1, 0, 1))  # xxyxy
    rows = (
        ("coproduct of [[1,0],[1,0]]", m2.coproduct(m), "-E[2,1] (x) E[2,1]"),
        ("coproduct of [[0,1],[0,1]]", m2.coproduct(n), "E[1,1] (x) E[2,2]"),
        ("iterated coproduct of [[1,0],[1,0]]", m2.iterated_coproduct(m, 2),
         "E[2,1] (x) E[2,1] (x) E[2,1]"),
        ("iterated coproduct, both expansion orders", m2._expand_leg(m2.coproduct(m), 0),
         m2._expand_leg(m2.coproduct(m), 1)),
        ("iterated coproduct of [[0,1],[0,1]]", m2.iterated_coproduct(n, 2).is_zero(), True),
        ("derivation display", display, m2.coproduct(m * n)),
        ("derivation display value", display, "E[1,1] (x) E[2,2]"),
        ("word coproduct of xy", w.coproduct(xy), "L * x (x) y + x (x) x*y + x*y (x) y"),
        ("word coproduct of yxy", w.coproduct(yxy),
         "L * y (x) x*y + y (x) y*x*y + L * y*x (x) y + y*x (x) x*y + y*x*y (x) y"),
        ("word product xy.yxy", xy * yxy, "x*y*y*x*y"),
        ("word coproduct of xyyxy", w.coproduct(xy * yxy),
         "L * x (x) y*y*x*y + x (x) x*y*y*x*y + L * x*y (x) y*x*y + x*y (x) y*y*x*y"
         " + L * x*y*y (x) x*y + x*y*y (x) y*x*y + L * x*y*y*x (x) y + x*y*y*x (x) x*y"
         " + x*y*y*x*y (x) y"),
        ("word coproduct of xyyxy has 9 terms", len(w.coproduct(xy * yxy).terms), 9),
        ("subword [1,4]", w.kind.key_text(subword(big, 1, 4)), "x*x*y*x"),
        ("subword [3,3]", w.kind.key_text(subword(big, 3, 3)), "y"),
        ("subword [2,3]", w.kind.key_text(subword(big, 2, 3)), "x*y"),
        ("bracket [M,N] via Sweedler commutator", commutator_bracket(m2, m, n), "E[2,1]"),
        ("bracket [M,N] via case table", bilinear_from_pairs(m, n, matrix_bracket_table),
         "E[2,1]"),
        ("bracket [M,N] via sign form", bilinear_from_pairs(m, n, matrix_bracket_closed_form),
         "E[2,1]"),
        ("bracket sandwich display", prelie_product(m2, m, n) - prelie_product(m2, n, m),
         "E[2,1]"),
        ("bracket [E21,E12]", commutator_bracket(m2, e21, e12), "E[2,1]"),
    )
    failures = [(label, got, want) for label, got, want in rows if str(got) != str(want)]
    if not failures:
        return _passed("paper-examples", f"{len(rows)} golden examples checked", len(rows))
    label, got, want = failures[0]
    return _failed(
        "paper-examples",
        f"{len(failures)} of {len(rows)} golden examples mismatched, the first: {label}",
        LawReport.fail(label, (f"got {got}", f"want {want}"), None), len(rows), len(rows),
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _applicable(suite, A):
    """None if ``suite`` applies to ``A``; else the error class that a request
    for it raises and the reason, which ``all`` prints as a skip."""
    if suite == "bracket-closed-form" and TELESCOPING not in A.tags:
        return KindMismatch, "telescoping matrix instances only"
    if suite in _WEIGHT_ZERO_SUITES and A.weight:
        return WeightNotZero, f"weight {A.weight} != 0"
    return None


def run_suite(suite, A, max_len=6):
    """Run one suite.  A ``max_len`` below 1 would sweep no key: as the CLI's
    --max-len does, it is refused with ``ValueError``."""
    if max_len < 1:
        raise ValueError(f"max-len must be >= 1, got {max_len}")
    refusal = _applicable(suite, A)
    if refusal is not None:
        error, reason = refusal
        raise error(f"suite {suite!r} does not apply to {A.selector}: {reason}")
    if suite == "algebra":
        outcome = _suite_algebra(A, max_len)
        A._associative[max_len] = outcome.status == "pass"
        return outcome
    if suite == "coassoc":
        return _suite_coassoc(A, max_len)
    if suite == "cocycle":
        return _suite_cocycle(A, max_len)
    if suite == "antipode":
        from .sweeps import _antipode_sweep
        return _antipode_sweep(A, max_len)
    if suite in ("prelie", "jacobi", "representation"):
        from .sweeps import _suite_prelie
        return _suite_prelie(A, max_len, suite)
    if suite == "bracket-closed-form":
        from .sweeps import _suite_bracket_closed_form
        return _suite_bracket_closed_form(A, max_len)
    if suite == "paper-examples":
        return _suite_worked_examples(A, max_len)
    raise UnknownSuite(f"unknown suite {suite!r}; choose from {', '.join(_RUNNABLE)}")


def run_verify(suite, A, max_len=6):
    """Run one suite (or ``all``); returns (passed, [SuiteOutcome]).

    A run whose cocycle sweep has more than MAX_SWEEP pairs is refused with
    ``ValueError`` before any suite runs, and so, by ``run_suite``, is a
    ``max_len`` below 1.
    """
    if suite not in SUITE_NAMES:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    pairs = _cocycle_pair_count(A.kind, max_len)
    if pairs > MAX_SWEEP:
        where = A.selector if A.kind.finite_basis else f"{A.selector} at max-len {max_len}"
        raise ValueError(
            f"verify on {where} sweeps at least {pairs} cocycle pairs, "
            f"more than MAX_SWEEP = {MAX_SWEEP}"
        )
    outcomes = [
        _skipped(name, refusal[1]) if (refusal := _applicable(name, A))
        else run_suite(name, A, max_len=max_len)
        for name in _RUNNABLE
    ] if suite == "all" else [run_suite(suite, A, max_len=max_len)]
    return all(o.status != "fail" for o in outcomes), outcomes


def verify_command(args, algebra):
    """The ``verify`` command: run ``args.suite`` on ``algebra``, print the
    outcomes as text or, with --json, as one JSON object, and return the exit
    status, 1 on a law violation."""
    passed, outcomes = run_verify(args.suite, algebra, max_len=args.max_len)
    if args.json:
        import json

        payload = {
            "algebra": algebra.selector,
            "suites": [
                {
                    "suite": o.suite,
                    "status": o.status,
                    "detail": o.detail,
                    "checked": o.checked,
                    "evaluated": o.evaluated,
                    "witness": str(o.failure.witness)
                    if o.failure is not None and o.failure.witness is not None
                    else None,
                }
                for o in outcomes
            ],
            "passed": passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for outcome in outcomes:
            print(outcome.line())
        print("result: " + ("ok" if passed else "LAW VIOLATION"))
    return 0 if passed else 1
