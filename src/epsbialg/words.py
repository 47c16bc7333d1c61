"""Free-algebra instances on words, and the one-variable polynomial algebra.

Words over a finite alphabet multiply by concatenation; w[i,j] selects the
contiguous letters i through j, 1-indexed inclusive, so that w[1,i] and
w[i,n] share letter i.  Three coalgebra structures are provided:

* ``word_algebra`` -- the weighted coproduct on words, for l(w) = n > 0

      Delta(w) = sum_{i=1}^{n} w[1,i] (x) w[i,n]
               + weight * sum_{i=1}^{n-1} w[1,i] (x) w[i+1,n]

  with Delta(1) = -weight * (1 (x) 1); the generic weight L by default;

* ``deconcat_algebra`` -- the prefix/suffix splitting
  Delta(v_1...v_n) = sum_{i=0}^{n} v_1...v_i (x) v_{i+1}...v_n, a weight -1
  instance;

* ``univar_algebra`` -- Q[L][x] with Delta(1) = -weight * (1 (x) 1) and

      Delta(x^n) = sum_{i=0}^{n-1} x^i (x) x^(n-1-i)
                 + weight * sum_{i=1}^{n-1} x^i (x) x^(n-i).

Each rule returns the sparse map (k1, k2) -> coefficient of one basis key.

The kinds these instances sit on are defined here too: ``WordKind`` and
``UnivarKind``, with the key constructors ``Word`` and ``UnivarMonomial``.
Only a word or univar call, and ``verify``, loads this module, so a call on
``matrix:N`` does not compile them.  Each kind declares what the rest of the
package would otherwise test its class for: the parser's atoms
(``atom_key``, ``atom_noun``) and, for words, the ``AlphabetMismatch`` that
``lincomb.ensure_same_kind`` raises between two alphabets (``mismatch``).

The single-letter word coproduct (Delta(x) = x (x) x) and the univariate one
(Delta(x) = 1 (x) 1) are different coalgebras; they are deliberately kept as
distinct instances.

The word and deconcatenation coproducts split a word by position, never by
letter.  Write g_n for the word of n distinct letters chr(0)...chr(n-1), and
phi_w for the letter map chr(i) -> w[i] extended to words, a monoid map.
The relabel conditions on a word w of length n are: every leg of Delta(g_n)
uses only letters of g_n, and Delta(w) = (phi_w (x) phi_w) Delta(g_n), the
images summed.  Lemma: where they hold on every word involved, each
coalgebra law holds on all words of given lengths once it holds on the
distinct-letter words of those lengths:

    coassoc(w) = phi_w^(x)3 coassoc(g_n),
    cocycle(p, q) = phi_pq^(x)2 cocycle(g_a, s_a g_b),  a = l(p), b = l(q),

where s_a shifts every letter up by a.  No rule is taken on trust:
``verify`` tries the lemma on every word instance of two or more letters,
and runs the relabel conditions on every key it sweeps before it relies on
the lemma.  A leg of Delta(g_n) that is a run chr(a)...chr(a+l-1) maps to
the slice w[a:a+l], so where every leg is a run the image is read from
slices of w; otherwise it goes through the letter map, and where phi_w
merges terms their coefficients are summed.  Each swept word is checked
once, and its coproduct is not memoized.  As it sweeps words up to max_len,
it also needs every leg of Delta(g_n) to be no longer than max_len: a
longer leg maps to a word whose coproduct it never checks.
"""

import itertools
import operator

from .core import AlgebraInstance
from .errors import AlphabetMismatch, IndexOutOfRange, KindMismatch
from .lincomb import _itself
from .scalars import LAMBDA, scalar


# ---------------------------------------------------------------------------
# kinds: the free algebra on words, and Q[L][x]
# ---------------------------------------------------------------------------

def Word(letters=()) -> str:
    """The key of a word: the str of chr(i) per 0-based letter index i, whose hash is cached."""
    return "".join(map(chr, letters))


def UnivarMonomial(exponent: int) -> int:
    """The key of the monomial x^exponent: the exponent itself."""
    if exponent < 0:
        raise ValueError(f"negative exponent {exponent}")
    return exponent


def _single_bucket(terms):
    """The product index, right, left or middle, of a kind whose keys never multiply to zero."""
    items = terms.items()
    return lambda *_: items


class WordKind:
    """The free algebra on a finite ordered alphabet, in the word basis."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet):
        letters = tuple(alphabet)
        if not letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(letters)) != len(letters) or any(not s for s in letters):
            raise ValueError(f"letter names must be distinct and nonempty: {letters!r}")
        for s in letters:
            if not (s.isascii() and s.isidentifier()):
                raise ValueError(f"letter name {s!r} is not a name the expression parser reads")
            if s.lower() in ("l", "lambda"):
                raise ValueError(f"letter name {s!r} collides with the weight literal")
        self.alphabet = letters

    def __eq__(self, other):
        return isinstance(other, WordKind) and self.alphabet == other.alphabet

    def __hash__(self):
        return hash(("word", self.alphabet))

    def selector(self) -> str:
        if all(len(s) == 1 for s in self.alphabet):
            return "word:" + "".join(self.alphabet)
        return "word:" + ",".join(self.alphabet)

    def mismatch(self, other):
        """The error for mixing with an unequal kind: AlphabetMismatch with another alphabet."""
        if isinstance(other, WordKind):
            return AlphabetMismatch(f"mixed alphabets {self.alphabet} and {other.alphabet}")
        return None

    # the parser's atoms: each letter, its key the one-letter word
    atom_noun = "letter"

    def atom_key(self, name):
        return chr(self.alphabet.index(name)) if name in self.alphabet else None

    # concatenation
    key_mul = staticmethod(operator.add)

    product_index = left_index = middle_index = staticmethod(_single_bucket)

    def unit_terms(self):
        return {"": 1}

    def validate_key(self, key):
        if type(key) is not str or key and ord(max(key)) >= len(self.alphabet):
            raise KindMismatch(f"{key!r} is not a basis key of {self.selector()}")

    def key_text(self, key) -> str:
        if not key:
            return "1"
        return "*".join(self.alphabet[ord(a)] for a in key)

    @staticmethod
    def sort_key(key):
        """Words sort by length, then letters: code-point order is alphabet order."""
        return (len(key), key)

    key_size_name = "word length"

    key_size = staticmethod(len)

    finite_basis = False

    def count_keys(self, bound=6) -> int:
        """The number of words of length <= bound."""
        m = len(self.alphabet)
        return bound + 1 if m == 1 else (m ** (bound + 1) - 1) // (m - 1)

    def basis_keys(self, bound=6):
        """All words of length <= bound, in length-then-lexicographic order."""
        letters = [chr(i) for i in range(len(self.alphabet))]
        for length in range(bound + 1):
            yield from map("".join, itertools.product(letters, repeat=length))


class UnivarKind:
    """The one-variable polynomial algebra Q[L][x], in the monomial basis."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, UnivarKind)

    def __hash__(self):
        return hash("univar")

    def selector(self) -> str:
        return "univar"

    # the parser's one atom: x, the key 1
    atom_noun = "atom"

    @staticmethod
    def atom_key(name):
        return 1 if name == "x" else None

    # exponents add
    key_mul = staticmethod(operator.add)

    product_index = left_index = middle_index = staticmethod(_single_bucket)

    def unit_terms(self):
        return {0: 1}

    def validate_key(self, key):
        if type(key) is not int or key < 0:
            raise KindMismatch(f"{key!r} is not a basis key of univar")

    def key_text(self, key) -> str:
        if key == 0:
            return "1"
        if key == 1:
            return "x"
        return f"x^{key}"

    sort_key = staticmethod(_itself)

    key_size_name = "degree in x"

    key_size = staticmethod(_itself)

    finite_basis = False

    def count_keys(self, bound=6) -> int:
        return bound + 1

    def basis_keys(self, bound=6):
        return range(bound + 1)


# ---------------------------------------------------------------------------
# coproduct rules and instances
# ---------------------------------------------------------------------------


def subword(w: str, i: int, j: int) -> str:
    """w[i,j]: letters i through j, 1-indexed inclusive; requires 1 <= i <= j <= l(w)."""
    if not (1 <= i <= j <= len(w)):
        raise IndexOutOfRange(f"w[{i},{j}] undefined for a word of length {len(w)}")
    return w[i - 1 : j]


def weighted_word_coproduct(w: str, weight=LAMBDA) -> dict:
    """The weighted splitting with shared letters; see the module docstring."""
    n = len(w)
    if n == 0:
        return {(w, w): -weight} if weight else {}
    terms = {(w[:i], w[i - 1 :]): 1 for i in range(1, n + 1)}
    if weight:
        for i in range(1, n):
            terms[(w[:i], w[i:])] = weight
    return terms


def deconcat_coproduct(w: str) -> dict:
    """All prefix/suffix splits, including the two trivial ones."""
    return {(w[:i], w[i:]): 1 for i in range(len(w) + 1)}


def univar_coproduct(n: int, weight=LAMBDA) -> dict:
    """The one-variable coproduct of x^n; see the module docstring."""
    if n == 0:
        return {(0, 0): -weight} if weight else {}
    terms = {(i, n - 1 - i): 1 for i in range(n)}
    if weight:
        for i in range(1, n):
            terms[(i, n - i)] = weight
    return terms


def word_algebra(alphabet, weight=None) -> AlgebraInstance:
    """The free algebra on the alphabet with the weighted word coproduct."""
    w = LAMBDA if weight is None else scalar(weight)
    return AlgebraInstance(WordKind(alphabet), w, lambda key: weighted_word_coproduct(key, w))


def deconcat_algebra(alphabet) -> AlgebraInstance:
    """The free algebra with the deconcatenation coproduct (weight -1)."""
    kind = WordKind(alphabet)
    return AlgebraInstance(
        kind, -1, deconcat_coproduct, selector="deconcat:" + kind.selector().split(":", 1)[1]
    )


def univar_algebra(weight=None) -> AlgebraInstance:
    """Q[L][x] with the weighted one-variable coproduct."""
    w = LAMBDA if weight is None else scalar(weight)
    return AlgebraInstance(UnivarKind(), w, lambda key: univar_coproduct(key, w))
