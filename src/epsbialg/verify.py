"""Verification suites orchestrating the law checkers.

Each suite sweeps a deterministic, canonically ordered set of inputs and
stops at the first failing law, so a broken instance always reproduces the
same witness.  ``run_verify`` maps a suite name (or ``all``) to outcomes;
the caller turns them into text and an exit status.

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

The coassoc and cocycle sweeps are letter-blind on a word instance over two
or more letters (see the ``words`` docstring for the lemma).  They first try
a certificate: the relabel conditions on every swept key, and in the generic
instance G (the same rule and weight over max_len letters) coassociativity
at each g_n, with the relabel conditions at the legs of its coproduct, and
the cocycle law at each (g_a, s_a g_b) with a + b <= max_len, with the
relabel conditions at s_a g_b.  At max-len 9 on word:xy that is 1,023
relabel checks and 10 and 55 law checks, for 1,023 keys and 9,217 pairs.
If they all hold, the lemma gives the law on every swept key and pair, and
each counts as checked; ``evaluated`` counts the relabel and law checks the
certificate rests on.  A rule that reads letters fails a relabel check, and
a rule that refuses the letters of G (an r-coproduct's, bound to its own
alphabet) gets no certificate; then, as whenever a check fails, the dense
sweep runs, so a failure and its witness are always the dense sweep's.

A relabel check compares the rule's coproduct of a word w with the image of
Delta_G(g_|w|) under the letter map phi_w: chr(i) -> w[i].  Where every leg
of Delta_G(g_n) is a run chr(a)...chr(a+l-1), phi_w maps it to the slice
w[a:a+l], so the image is read from slices of w, by one ``itemgetter`` per
length n.  Where a leg is not a run, the image goes through the letter map;
where phi_w merges terms, their coefficients are summed, through the letter
map too.  The swept keys are checked once, in one loop against the rule:
their verdicts and coproducts are not memoized, as nothing reads them again.
The generic coproducts and the verdicts in G, which both certificates read,
are memoized on the instance, so ``all`` computes each once.

On M_n the cocycle sweep checks generators.  With K(a, b) = Delta(ab) -
a.Delta(b) - Delta(a).b - weight * (a (x) b), an associative product gives
K(ab, c) + K(a, b).c = K(a, bc) + a.K(b, c).  ``MatrixKind.factor`` writes
each key but the 2(n-1) generators x as x.a', a' of lower rank, so by
induction K vanishes once it does on the pairs (x, q), and on M_1 (no
factorization) on its one pair: 200 of 625 pairs on M_5.  The premises are
each factorization, checked through ``key_mul``, and the ``algebra`` suite's
verdict, memoized on A (run if absent).  If one or a check fails, the walk
over every pair runs.

The bracket conformance sweep compares three code paths on the basis pairs
at key level, each value a sparse map key -> coefficient: the case table,
the sign form, and the commutator T(p, q) - T(q, p) of the |> table; then
the table's own antisymmetry.  All are 0 outside the closed forms' declared
support (``prelie.matrix_bracket_support``) where T(p, q) = 0 = T(q, p), so
only the other pairs are evaluated (184 of 625 on M_5), in canonical order,
as a walk over every pair would find a failure; its witness is the one Element.
T is read from the rows the table fill stored for its entries; on every other
swept pair it is 0, so no row is built for it.

Applicability is decided in one place, ``_applicable``: the antipode, the
pre-Lie family and the bracket sweep need weight 0, and the bracket sweep
compares against closed forms specific to the telescoping matrix instance
(the instances tagged ``telescoping``).  Under ``all`` a suite that does
not apply is skipped with the printed reason; ``run_suite`` refuses it
before it runs, with ``WeightNotZero`` or ``KindMismatch``, which the CLI
reports as a usage error.
"""

from __future__ import annotations

from operator import itemgetter

from .core import AlgebraInstance, LawReport, antipode_endo
from .errors import (
    SUITE_NAMES,
    KindMismatch,
    NotNilpotentWithinCap,
    UnknownSuite,
    WeightNotZero,
)
from .laws import (
    _axiom_sides,
    _comultiplicativity_difference,
    _multiplicativity_difference,
    check_antipode_axiom,
    check_antipode_properties,
    check_coassoc,
    check_cocycle,
)
from .lincomb import Element, EMatrix, MatrixKind, act_left, act_right
from .matrices import TELESCOPING, matrix_algebra, matrix_from_rows
from .parser import parse_expression
from .prelie import (
    _prelie_entries,
    _prelie_on_keys,
    bilinear_from_pairs,
    check_jacobi,
    check_left_representation,
    check_prelie_identity,
    commutator_bracket,
    matrix_bracket_closed_form,
    matrix_bracket_support,
    matrix_bracket_table,
    prelie_product,
)
from .scalars import _accumulate, _combined
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


# ---------------------------------------------------------------------------
# letter-blind certificates
# ---------------------------------------------------------------------------

def _distinct(n, start=0) -> str:
    """The word chr(start)...chr(start + n - 1) of n distinct letters."""
    return "".join(map(chr, range(start, start + n)))


def _slice_template(generic):
    """(an ``itemgetter`` of the slices w[a:a+l], the coefficients) for
    Delta_G(g_n) = ``generic``, if each of its legs is a run
    chr(a)...chr(a+l-1), which phi_w maps to w[a:a+l], and each coefficient
    is nonzero; else None.  The getter lists the legs term by term."""
    slices = []
    for k in (k for legs in generic for k in legs):
        a = ord(k[0]) if k else 0
        if k != _distinct(len(k), a):
            return None
        slices.append(slice(a, a + len(k)))
    if not slices or not all(generic.values()):
        return None
    return itemgetter(*slices), tuple(generic.values())


class _Relabel:
    """The relabel verdicts of one word instance A at one ``max_len``, and
    the generic instance G: A's rule and weight over max_len letters, where
    the distinct-letter words g_n live.  The generic coproducts and the
    verdicts in G are memoized, so the two suites share them.

    An image phi_w(Delta_G(g_n)) is read from slices of w where every leg of
    Delta_G(g_n) is a run, else through the letter map, summed where phi_w
    merges terms (see the module docstring).

    ``keys`` is the number of swept keys of A, each checked once against A's
    rule, with neither its verdict nor its coproduct stored.  ``rejected`` is
    the first swept key whose relabel conditions fail, or None; ``swept``
    says that there is none, which both certificates need.
    """

    def __init__(self, A, max_len):
        self.max_len = max_len
        self.G = AlgebraInstance(WordKind([f"g{i}" for i in range(max_len)]), A.weight, A._rule)
        self._generic = {}  # n -> Delta_G(g_n), or None where a leg breaks the conditions
        self._slices = {}  # n -> (itemgetter of leg slices, coefficients), where legs are runs
        self._verdicts = {}  # key of G -> bool
        self.letters = len(A.kind.alphabet)
        self.keys = A.kind.count_keys(max_len)
        rule, image = A._rule, self._image
        self.rejected = next((w for w in A.basis_keys(max_len) if image(w) != rule(w)), None)
        self.swept = self.rejected is None

    def _legal(self, n):
        """Delta_G(g_n) if the rule accepts g_n and its legs use letters of g_n
        alone and, as phi keeps lengths, are no longer than max_len; else None."""
        if n not in self._generic:
            try:
                g = self.G.basis_coproduct(_distinct(n))
            except KindMismatch:  # a rule bound to A's alphabet refuses g_n
                g = None
            legal = g is not None and all(
                len(k) <= self.max_len and (not k or ord(max(k)) < n) for legs in g for k in legs
            )
            self._generic[n] = g if legal else None
            self._slices[n] = _slice_template(g) if legal else None
        return self._generic[n]

    def _image(self, w):
        """phi_w(Delta_G(g_|w|)), phi_w being chr(i) -> w[i], or None where
        Delta_G(g_|w|) breaks the relabel conditions."""
        generic = self._legal(len(w))
        if generic is None:
            return None
        template = self._slices[len(w)]
        if template is not None:
            get, coeffs = template
            legs = iter(get(w))
            image = dict(zip(zip(legs, legs), coeffs))
            if len(image) == len(coeffs):
                return image
        phi = dict(enumerate(w))
        image = {}  # phi may merge terms: their coefficients are summed
        _accumulate(image, (
            ((u.translate(phi), v.translate(phi)), c) for (u, v), c in generic.items()
        ))
        return image

    def holds(self, w):
        """The relabel conditions at the key ``w`` of G: Delta_G(w) is the
        image of Delta_G(g_|w|) under chr(i) -> w[i]."""
        verdict = self._verdicts.get(w)
        if verdict is None:
            image = self._image(w)
            verdict = self._verdicts[w] = image is not None and image == self.G.basis_coproduct(w)
        return verdict

    def coassoc(self):
        """(keys certified, checks run), or None if a check failed: per
        length n, the relabel conditions in G at each leg of Delta_G(g_n),
        then coassociativity at g_n."""
        if not self.swept:
            return None
        G, evaluated = self.G, self.keys
        for n in range(self.max_len + 1):
            g = _distinct(n)
            legs = {k for pair in G.basis_coproduct(g) for k in pair}
            evaluated += len(legs) + 1
            if not (all(self.holds(k) for k in legs) and check_coassoc(G, g)):
                return None
        return self.keys, evaluated

    def cocycle(self):
        """(pairs certified, checks run), or None if a check failed: per pair
        of lengths a + b <= max_len, the relabel conditions in G at the
        shifted word s_a g_b, then the cocycle law at (g_a, s_a g_b)."""
        if not self.swept:
            return None
        G, evaluated, pairs = self.G, self.keys, 0
        for a in range(self.max_len + 1):
            for b in range(self.max_len - a + 1):
                q = _distinct(b, a)
                evaluated += 2
                if not (self.holds(q) and check_cocycle(G, _distinct(a), q)):
                    return None
                pairs += self.letters ** (a + b)
        return pairs, evaluated


def _letter_blind(A, max_len):
    """The relabel verdicts of A at ``max_len``, memoized on A, when A is a
    word instance on two or more letters; else None.  On one letter each word
    is g_n renamed, so the generic checks would be the sweep itself."""
    kind = A.kind
    if not isinstance(kind, WordKind) or len(kind.alphabet) < 2:
        return None
    relabel = A._relabel.get(max_len)
    if relabel is None:
        relabel = A._relabel[max_len] = _Relabel(A, max_len)
    return relabel


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


def _suite_worked_examples(_A, _max_len):
    """Golden worked examples, fixed regardless of the selected algebra: rows
    (label, computed value, expected), built when the suite runs, so that they
    read this module's bindings then.  The expected value is the computed one's
    canonical text, or a second computation of it; a row fails when the texts
    differ.  Canonical text is as strict as the element, and cheaper: parsing
    these texts back into elements takes about 2 ms, several times the suite."""
    m2 = matrix_algebra(2)
    m = matrix_from_rows([[1, 0], [1, 0]])  # E[1,1] + E[2,1]
    n = matrix_from_rows([[0, 1], [0, 1]])  # E[1,2] + E[2,2]
    e21, e12 = (m2.element(EMatrix(i, j, 2)) for i, j in ((2, 1), (1, 2)))
    display = act_right(m2.coproduct(m), n) + act_left(m, m2.coproduct(n))
    w = word_algebra("xy")
    xy, yxy = (parse_expression(text, w) for text in ("x*y", "y*x*y"))
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
        return _antipode_sweep(A, max_len)
    if suite in ("prelie", "jacobi", "representation"):
        return _suite_prelie(A, max_len, suite)
    if suite == "bracket-closed-form":
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
