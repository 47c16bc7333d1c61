"""The entry points of the expression parser, and canonical emission.  The
parser itself, in ``grammar``, is imported on the first parse: a call that
reads no text, as ``verify`` on ``matrix:N``, never compiles it."""

from .errors import ParseError
from .lincomb import Element, TensorElement
from .scalars import MAX_TERMS, SCALAR_TYPES, poly_json, poly_text, scalar_items


def check_product(m: int, n: int, pos=None):
    """Refuse, before it is computed, a product of m by n terms (monomials)
    whose term pairs are more than MAX_TERMS."""
    if m * n > MAX_TERMS:
        raise ParseError(
            f"product of {m} by {n} terms exceeds the limit of {MAX_TERMS} term pairs", pos
        )


def monomials(v) -> int:
    """The number of (key, power of L) monomials of a value."""
    if isinstance(v, SCALAR_TYPES):
        return len(scalar_items(v))
    return sum(len(scalar_items(c)) for c in v.terms.values())


def parse_scalar(text: str):
    """Parse scalar syntax: integers ``3``, rationals ``3/2``, the weight
    literal ``L`` (alias ``lambda``, case-insensitive), and their sums,
    products and powers, e.g. ``2*L - 1/3``.  The value is in canonical
    form: an int, a Fraction, or a LambdaPoly of positive degree."""
    from .grammar import _ExprParser
    return _ExprParser(text).parse()


def parse_value(text: str, algebra):
    """Parse to an Element or TensorElement (scalars promote via the unit)."""
    from .grammar import _ExprParser
    return _ExprParser(text, algebra).parse()


def parse_expression(text: str, algebra) -> Element:
    """Parse to an Element in canonical form; tensors are rejected."""
    value = parse_value(text, algebra)
    if isinstance(value, TensorElement):
        raise ParseError("expected an element, got a tensor expression", 0)
    return value


def parse_tensor(text: str, algebra) -> TensorElement:
    """Parse to a 2-leg TensorElement, as required for a derived coproduct.

    The canonical text of every zero tensor is ``0``, which carries no leg
    count; a value that evaluates to zero (``0``, ``0 * E[1,1]``) is read as
    the zero 2-leg tensor.  A non-zero element is rejected.
    """
    value = parse_value(text, algebra)
    if isinstance(value, Element) and value.is_zero():
        return TensorElement.zero(algebra.kind, 2)
    if not isinstance(value, TensorElement) or value.legs != 2:
        raise ParseError("expected a 2-leg tensor expression", 0)
    return value


# ---------------------------------------------------------------------------
# canonical emission
# ---------------------------------------------------------------------------

def _value_json(value, algebra=None):
    kind = value.kind
    if isinstance(value, Element):
        rows = [
            {"coeff": poly_json(c), "legs": [kind.key_text(key)]}
            for key, c in value.sorted_terms()
        ]
    else:
        rows = [
            {"coeff": poly_json(c), "legs": [kind.key_text(k) for k in keys]}
            for keys, c in value.sorted_terms()
        ]
    return {
        "algebra": algebra.selector if algebra is not None else kind.selector(),
        "weight": poly_text(algebra.weight) if algebra is not None else None,
        "terms": rows,
    }


def emit(value, fmt: str = "text", algebra=None) -> str:
    """Canonical text or JSON for an Element or TensorElement."""
    if fmt == "text":
        return str(value)
    if fmt == "json":
        import json

        return json.dumps(_value_json(value, algebra), indent=2)
    raise ValueError(f"unknown format {fmt!r}")
