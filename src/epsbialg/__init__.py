"""Exact-arithmetic toolkit for weighted infinitesimal-bialgebra structures.

Everything is computed over Q[L], the rationals with the weight symbol L
adjoined, so every verified identity holds for all weights at once.
"""

from .core import (
    AlgebraInstance,
    LawReport,
    LinearEndomorphism,
    Witness,
    antipode,
    antipode_endo,
    check_antipode_axiom,
    check_antipode_properties,
    check_coassoc,
    check_cocycle,
    coproduct_from_r,
    d_map,
    nilpotency_index,
)
from .errors import (
    AlphabetMismatch,
    DimensionMismatch,
    EpsBialgError,
    IndexOutOfRange,
    KindMismatch,
    LSquareNotZero,
    NotNilpotentWithinCap,
    ParseError,
    TooManyTerms,
    UnknownAtom,
    UnknownSuite,
    WeightNotZero,
)
from .lincomb import (
    Element,
    EMatrix,
    MatrixKind,
    TensorElement,
    UnivarKind,
    UnivarMonomial,
    Word,
    WordKind,
    act_left,
    act_right,
    bilinear_extend,
    ensure_same_kind,
    linear_extend,
    tensor,
)
from .matrices import (
    classical_comatrix_algebra,
    classical_comatrix_coproduct,
    classical_counit,
    counit_contract_left,
    counit_contract_right,
    l_coproduct_instance,
    matrix_algebra,
    matrix_from_rows,
    newtonian_coproduct,
    random_integer_matrix,
    sgn,
)
from .parser import emit, parse_expression, parse_scalar, parse_tensor, parse_value
from .prelie import (
    bilinear_from_pairs,
    check_jacobi,
    check_left_representation,
    check_prelie_identity,
    commutator_bracket,
    matrix_bracket_closed_form,
    matrix_bracket_table,
    matrix_prelie_table,
    prelie_product,
)
from .scalars import LAMBDA, MINUS_ONE, ONE, ZERO, LambdaPoly, poly_text, scalar
from .verify import SUITE_NAMES, SuiteOutcome, run_suite, run_verify
from .words import (
    deconcat_algebra,
    deconcat_coproduct,
    subword,
    univar_algebra,
    univar_coproduct,
    weighted_word_coproduct,
    word_algebra,
)

__version__ = "0.1.0"
