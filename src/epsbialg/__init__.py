"""Exact-arithmetic toolkit for weighted infinitesimal-bialgebra structures.

Everything is computed over Q[L], the rationals with the weight symbol L
adjoined, so every verified identity holds for all weights at once.

The public names in ``_SOURCE`` resolve on first use (``epsbialg.matrix_algebra``
imports ``epsbialg.matrices``), not at ``import epsbialg``: each
``python -m epsbialg`` process then compiles and runs only the modules its
command needs.  Where no bytecode cache exists (a fresh checkout, or
``PYTHONDONTWRITEBYTECODE=1`` as the benchmark runs every call), compiling
is most of a short call's own start-up.  So a ``coproduct``, ``multiply``
or ``antipode`` on ``matrix:N`` loads ``cli``, ``core``, ``errors``,
``grammar``, ``lincomb``, ``matrices``, ``parser`` and ``scalars``, and a
``prelie`` or ``bracket`` adds ``prelie``.  None of them loads:

* ``verify`` with its ``relabel`` and ``sweeps``, and the checkers of ``laws``;
* ``words``, the word and univar kinds of ``word:`` and ``univar``;
* ``derived``, the derived coproducts of ``rmatrix:`` and ``lmatrix:``;
* ``usage``, the argparse parser of ``--help`` and of a malformed argv.
"""

# public name -> the module that defines it, listed by module
_SOURCE = {
    name: module
    for module, names in {
        "core": "AlgebraInstance antipode d_map",
        "derived": "coproduct_from_r l_coproduct_instance",
        "errors": """AlphabetMismatch DimensionMismatch EpsBialgError IndexOutOfRange
            KindMismatch LSquareNotZero NotNilpotentWithinCap ParseError SUITE_NAMES
            TooManyTerms UnknownAtom UnknownSuite WeightNotZero""",
        "laws": """LawReport LinearEndomorphism Witness antipode_endo check_antipode_axiom
            check_antipode_properties check_coassoc check_cocycle""",
        "lincomb": """Element EMatrix MatrixKind TensorElement act_left act_right bilinear_extend
            ensure_same_kind linear_extend tensor""",
        "matrices": """classical_comatrix_algebra classical_comatrix_coproduct classical_counit
            matrix_algebra matrix_from_rows newtonian_coproduct sgn""",
        "parser": "emit parse_expression parse_scalar parse_tensor parse_value",
        "prelie": """bilinear_from_pairs check_jacobi check_left_representation
            check_prelie_identity commutator_bracket matrix_bracket_closed_form
            matrix_bracket_table prelie_product""",
        "scalars": "LAMBDA MINUS_ONE ONE ZERO LambdaPoly poly_text scalar",
        "verify": "SuiteOutcome run_suite run_verify",
        "words": """UnivarKind UnivarMonomial Word WordKind deconcat_algebra deconcat_coproduct
            subword univar_algebra univar_coproduct weighted_word_coproduct word_algebra""",
    }.items()
    for name in names.split()
}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
