"""The matrix-algebra instances.

M_n carries several coalgebra structures on the elementary-matrix basis
E[i,j] (product rule E[i,j]E[k,l] = delta_jk E[i,l]):

* the signed telescoping coproduct

      Delta(E[i,j]) =  sum_{s=i}^{j-1} E[i,s] (x) E[s+1,j]   if i < j
                       0                                     if i = j
                      -sum_{s=j}^{i-1} E[i,s] (x) E[s+1,j]   if i > j

  which makes M_n a weight-zero unitary instance (``matrix_algebra``);

* the classical comatrix coproduct Delta(E[i,j]) = sum_s E[i,s] (x) E[s,j]
  with counit eps(E[i,j]) = delta_ij, shipped for contrast
  (``classical_comatrix_algebra``) -- it is coassociative and counital but
  is NOT a weighted derivation;

* the L-coproduct Delta(M) = ML (x) L - L (x) LM for a fixed L with L^2 = 0
  (``l_coproduct_instance``), the derived coproduct attached to r = L (x) L
  at weight 0, computed from its closed form on each basis key.

Each coproduct rule returns the sparse map (k1, k2) -> coefficient of one
key; only the classical rule needs n, so only it takes the kind.

The counit contractions (eps (x) id) and (id (x) eps) are linear maps on the
tensor square, extended from a rule on basis pairs by ``linear_extend``.
"""

from __future__ import annotations

from .core import AlgebraInstance
from .errors import DimensionMismatch, LSquareNotZero
from .lincomb import Element, MatrixKind, TensorElement, linear_extend, tensor
from .scalars import scalar


def sgn(x: int) -> int:
    """Sign of an integer: 1, 0 or -1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def newtonian_coproduct(key) -> dict:
    """The signed telescoping coproduct of the elementary matrix ``key``, as the
    sparse map (k1, k2) -> coefficient; it is empty on the diagonal."""
    i, j = key
    if i <= j:
        sign, lo, hi = 1, i, j - 1
    else:
        sign, lo, hi = -1, j, i - 1
    return {((i, s), (s + 1, j)): sign for s in range(lo, hi + 1)}


# The tag ``matrix_algebra`` declares: the paper's closed forms for the
# bracket hold on such an instance.
TELESCOPING = "telescoping"


def matrix_algebra(n: int) -> AlgebraInstance:
    """M_n with the telescoping coproduct; a weight-zero unitary instance."""
    return AlgebraInstance(MatrixKind(n), 0, newtonian_coproduct, tags=(TELESCOPING,))


def classical_comatrix_coproduct(key, kind: MatrixKind) -> dict:
    """Delta(E[i,j]) = sum_{s=1}^{n} E[i,s] (x) E[s,j], as a sparse map."""
    i, j = key
    return {((i, s), (s, j)): 1 for s in range(1, kind.n + 1)}


def classical_counit(key) -> int:
    """eps(E[i,j]) = delta_ij."""
    return 1 if key[0] == key[1] else 0


def classical_comatrix_algebra(n: int) -> AlgebraInstance:
    """M_n with the classical comatrix coproduct, for contrast.

    Coassociative and counital, but not a weighted derivation for any
    weight; only the coalgebra-side checkers are meaningful on it.
    """
    kind = MatrixKind(n)
    return AlgebraInstance(
        kind, 0, lambda key: classical_comatrix_coproduct(key, kind), selector=f"comatrix:{n}"
    )


def counit_contract_left(t: TensorElement, counit=classical_counit) -> Element:
    """(eps (x) id) applied to a 2-leg tensor."""
    return Element._make(t.kind, linear_extend(
        t.terms, lambda keys: ((keys[1], e),) if (e := counit(keys[0])) else ()
    ))


def counit_contract_right(t: TensorElement, counit=classical_counit) -> Element:
    """(id (x) eps) applied to a 2-leg tensor."""
    return Element._make(t.kind, linear_extend(
        t.terms, lambda keys: ((keys[0], e),) if (e := counit(keys[1])) else ()
    ))


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


def matrix_from_rows(rows) -> Element:
    """Convert dense integer rows [[1,0],[1,0]] into the E-basis."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DimensionMismatch(f"expected a square matrix, got rows {rows!r}")
    kind = MatrixKind(n)
    terms = {}
    for i, row in enumerate(rows, start=1):
        for j, value in enumerate(row, start=1):
            c = scalar(value)
            if c:
                terms[(i, j)] = c
    return Element._make(kind, terms)
