"""Exception types shared across the package, the verification suites'
names, and the default of verify's --seed."""


class EpsBialgError(Exception):
    """Base class for all errors raised by this package."""


class KindMismatch(EpsBialgError):
    """Operands belong to different algebras or have different tensor leg counts."""


class DimensionMismatch(KindMismatch):
    """Matrix operands with different dimensions, or indices outside 1..n."""


class AlphabetMismatch(KindMismatch):
    """Word operands over different alphabets."""


class IndexOutOfRange(EpsBialgError):
    """Subword selector violates 1 <= i <= j <= len(word)."""


class LSquareNotZero(EpsBialgError):
    """The matrix L of an L-coproduct must square to zero."""


class WeightNotZero(EpsBialgError):
    """Operation defined only for weight-zero instances."""


class NotNilpotentWithinCap(EpsBialgError):
    """D^k(a) != 0 at the step ``cap`` = k where the antipode series stopped; ``basis``
    is N when N basis keys prove it never truncates (k = N), else None."""

    def __init__(self, step, element=None, basis=None):
        self.cap, self.element, self.basis = step, element, basis  # element: whose series it is
        proof = f"D^{step} of it is nonzero on a basis of {basis} keys"
        self.verdict = (f"never truncates: {proof}" if basis
                        else f"does not truncate within cap {step}")
        super().__init__(f"element never annihilated by D: {proof}" if basis
                         else f"element not annihilated by D within {step} iterations")


class TooManyTerms(EpsBialgError):
    """A computed value has more terms than the bound MAX_TERMS."""


class ParseError(EpsBialgError):
    """Expression text violates the grammar or a size bound; carries the
    offending position, or None when the bound is on a command's operands."""

    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message if position is None else f"{message} (at position {position})")


class UnknownAtom(ParseError):
    """Atom name not resolvable in the selected algebra."""


class UnknownSuite(EpsBialgError):
    """Verification suite name not recognised."""


# The suites ``verify`` runs, ``all`` last, and the default of --seed, which no
# check reads.  Every CLI call reads them for its help text and loads this
# module, while only a ``verify`` call loads ``verify``, which re-exports the
# suite names.
SUITE_NAMES = (
    "algebra",
    "coassoc",
    "cocycle",
    "antipode",
    "prelie",
    "jacobi",
    "representation",
    "bracket-closed-form",
    "paper-examples",
    "all",
)

DEFAULT_SEED = 12345
