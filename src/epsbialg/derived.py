"""Coproducts derived from an element of the tensor square.

For an element r of A (x) A and a weight w, the derived coproduct is

    Delta_r(a) = a.r - r.a - w * (a (x) 1)

(Aguiar, "On the associative analog of Lie bialgebras", J. Algebra 244,
2001), computed through the bimodule actions ``lincomb.act_left`` and
``act_right``.

``coproduct_from_r`` builds Delta_r for any r; ``l_coproduct_instance`` is
the case r = L (x) L on M_n at weight 0, for a fixed L with L^2 = 0,
computed from its closed form on each basis key.  Only the ``rmatrix:`` and
``lmatrix:`` selectors build them, so ``cli.build_algebra`` imports this
module for those alone: a call on ``matrix:N`` never compiles it.
"""

from .core import AlgebraInstance
from .errors import DimensionMismatch, KindMismatch, LSquareNotZero
from .lincomb import Element, MatrixKind, TensorElement, act_left, act_right, tensor
from .scalars import scalar


def coproduct_from_r(A: AlgebraInstance, r: TensorElement, weight, selector=None) -> AlgebraInstance:
    """The derived coproduct Delta_r(a) = a.r - r.a - weight * (a (x) 1).

    Shares A's product and unit.  Delta_r always satisfies the weighted
    derivation law; coassociativity is NOT guaranteed and must be checked
    per instance.
    """
    if not isinstance(r, TensorElement) or r.legs != 2:
        raise KindMismatch("r must be a 2-leg tensor element")
    if r.kind != A.kind:
        raise KindMismatch(
            f"r has kind {r.kind.selector()}, algebra is {A.kind.selector()}"
        )
    weight = scalar(weight)
    unit = A.unit

    def rule(key):
        e = Element.from_key(A.kind, key)
        t = act_left(e, r) - act_right(r, e)
        if weight:
            t = t - tensor(e, unit).scale(weight)
        return t.terms

    return AlgebraInstance(
        A.kind,
        weight,
        rule,
        selector=selector or f"{A.kind.selector()}:r-coproduct",
    )


def l_coproduct_instance(n: int, L: Element) -> AlgebraInstance:
    """M_n with Delta(M) = ML (x) L - L (x) LM for a fixed L with L^2 = 0.

    This is the derived coproduct M.r - r.M of r = L (x) L at weight 0, as
    M.(L (x) L) = ML (x) L and (L (x) L).M = L (x) LM by the definition of the
    bimodule actions.  It is computed in that closed form, key by key, never
    through the nnz(L)^2 terms of r; construction checks only n and L^2 = 0.
    """
    if not isinstance(L, Element) or not isinstance(L.kind, MatrixKind) or L.kind.n != n:
        raise DimensionMismatch(f"L must be an element of matrix:{n}")
    if not (L * L).is_zero():
        raise LSquareNotZero(f"L^2 != 0 for L = {L}")
    kind = L.kind

    def rule(key):
        m = Element._make(kind, {key: 1})
        return (tensor(m * L, L) - tensor(L, L * m)).terms

    return AlgebraInstance(kind, 0, rule, selector=f"lmatrix:{n}:{L}")
