"""The letter-blind certificate of the coassoc and cocycle sweeps on words.

The coassoc and cocycle sweeps of ``verify`` are letter-blind on a word
instance over two or more letters (see the ``words`` docstring for the
lemma), and only there import this module.  They first try a certificate:
the relabel conditions on every swept key, and in the generic instance G
(the same rule and weight over max_len letters) coassociativity at each
g_n, with the relabel conditions at the legs of its coproduct, and the
cocycle law at each (g_a, s_a g_b) with a + b <= max_len, with the relabel
conditions at s_a g_b.  At max-len 9 on word:xy that is 1,023
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
"""

from operator import itemgetter

from .core import AlgebraInstance
from .errors import KindMismatch
from .laws import check_coassoc, check_cocycle
from .scalars import _accumulate
from .words import WordKind


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
