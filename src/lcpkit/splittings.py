"""Matrix splittings A = M - N for the projected iteration family.

Four named kinds (npj, npgs, npsor, npaor) plus a custom escape hatch.
Every named kind is assembled by the same accelerated-overrelaxation
recipe with pinned parameters, so the classical reductions

    npaor(alpha, alpha) == npsor(alpha)
    npaor(1, 1)         == npgs
    npaor(1, 0)         == npj

hold bitwise, not just within rounding.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from .matrix_core import _NOT_FINITE, SparseMatrix, _m_probe, _record, comparison_matrix

_TAGS = ("npj", "npgs", "npsor", "npaor", "custom")

# entrywise equality tolerance, relative to the largest entry magnitude
EQ_TOL = 1e-12


class SplittingKind(_record("SplittingKind", [("tag", str), ("alpha1", Optional[float]),
                                              ("beta1", Optional[float])])):
    """Named member of the splitting family with its parameters.

    alpha1 is the relaxation parameter (npsor, npaor); beta1 the
    acceleration parameter (npaor only).  Both are ignored for npj/npgs.
    """

    __slots__ = ()

    def __new__(cls, tag, alpha1=None, beta1=None):
        if tag not in _TAGS:
            raise ValueError(f"unknown splitting tag {tag!r}")
        if tag in ("npsor", "npaor"):
            if alpha1 is None or not 0.0 < alpha1 < math.inf:
                raise ValueError(f"{tag} requires a finite alpha1 > 0")
        if tag == "npaor" and (beta1 is None or not math.isfinite(beta1)):
            raise ValueError("npaor requires a finite beta1")
        return super().__new__(cls, tag, alpha1, beta1)

    @classmethod
    def npj(cls):
        return cls("npj")

    @classmethod
    def npgs(cls):
        return cls("npgs")

    @classmethod
    def npsor(cls, alpha1):
        return cls("npsor", alpha1=float(alpha1))

    @classmethod
    def npaor(cls, alpha1, beta1):
        return cls("npaor", alpha1=float(alpha1), beta1=float(beta1))

    def effective_parameters(self):
        """The (alpha, beta) pair fed to the shared assembly."""
        if self.tag == "npj":
            return 1.0, 0.0
        if self.tag == "npgs":
            return 1.0, 1.0
        if self.tag == "npsor":
            return float(self.alpha1), float(self.alpha1)
        if self.tag == "npaor":
            return float(self.alpha1), float(self.beta1)
        raise ValueError("custom kinds carry no assembly parameters")


class Splitting(NamedTuple):
    """A pair (M, N) with M - N equal to the generating matrix."""

    m: SparseMatrix
    n_part: SparseMatrix
    kind: SplittingKind


class SplittingAnalysis(NamedTuple):
    is_valid: bool
    is_m_splitting: bool
    is_h_compatible: bool


def _family_parts(alpha, beta):
    """M = (1/a)(D - bL), N = (1/a)[(1-a)D + (a-b)L + aU] from A = D - L - U,
    as the (diagonal, lower, upper) arguments of
    ``SparseMatrix._scaled_triangles`` that build M and N from A: each
    a coefficient on A's own entries of that triangle.

    Zero coefficients drop their terms entirely (construction discards
    exact zeros), which is what makes the pinned-parameter reductions
    reproduce npj/npgs/npsor storage exactly.  L and U are the negated
    strict triangles of A, so a coefficient c on L or U is -c on A's own
    entries: (-x) c = x (-c) exactly.
    """
    inv = 1.0 / alpha
    return (inv, beta * inv, 0.0), ((1.0 - alpha) * inv, -((alpha - beta) * inv), -(alpha * inv))


def make_splitting(a, kind):
    """Construct the named splitting of a.

    The matrices always come from the splitting definitions (the M - N = A
    identity is checked on every construction, and parameters under which
    rounding breaks it raise ValueError); parameterized display shortcuts
    are never used.  The check is ``_entrywise_close``'s, made on A's own
    pattern, where M and N are built with the zeros they drop: M - N, and
    then A subtracted, one subtraction per entry each, are bitwise what
    the merges of M - N and then of A give.
    """
    if not isinstance(a, SparseMatrix):
        raise ValueError("expected a SparseMatrix")
    if kind.tag == "custom":
        raise ValueError("use custom_splitting for caller-provided pairs")
    alpha, beta = kind.effective_parameters()
    m_parts, n_parts = _family_parts(alpha, beta)
    # an entry of M or N that overflows (a tiny alpha) is refused by the
    # build; their values are finite then, and only an overflow of M - N or
    # of M - N - A leaves an error that is not
    with np.errstate(over="ignore"):
        (m, mv), (n_part, x) = a._scaled_triangles(*m_parts), a._scaled_triangles(*n_parts)
        np.subtract(mv, x, out=x)  # M - N, in N's values on A's pattern
        scale = max(1.0, float(x.max(initial=0.0)), -float(x.min(initial=0.0)), a.max_abs())
        error = float(np.abs(np.subtract(x, a.values, out=x), out=x).max(initial=0.0))
    if not math.isfinite(error):
        raise ValueError(_NOT_FINITE)
    if not error <= EQ_TOL * scale:
        raise ValueError(f"{kind.tag} splitting with alpha = {alpha:g}, beta = {beta:g}"
                         " fails M - N = A within tolerance")
    return Splitting(m=m, n_part=n_part, kind=kind)


def custom_splitting(a, m, n_part):
    """Wrap a caller-provided (M, N) pair, validating M - N = A."""
    if m.n != a.n or n_part.n != a.n:
        raise ValueError("dimension mismatch")
    if not _entrywise_close(m.subtract(n_part), a):
        raise ValueError("M - N does not reproduce A within tolerance")
    return Splitting(m=m, n_part=n_part, kind=SplittingKind("custom"))


def _entrywise_close(x, y, tol=EQ_TOL):
    scale = max(1.0, x.max_abs(), y.max_abs())
    return x.subtract(y).max_abs() <= tol * scale


def is_h_compatible(a, m, n_part):
    """<M> - |N| equals <A> entrywise, within EQ_TOL."""
    return _entrywise_close(comparison_matrix(m).subtract(n_part.abs_entrywise()),
                            comparison_matrix(a))


def analyze_splitting(a, s):
    """Check validity, the M-splitting property, and H-compatibility.

    M-splitting: M is a nonsingular M-matrix and N >= 0 entrywise.
    H-compatible: <M> - |N| equals <A> entrywise.
    """
    if s.m.n != a.n:
        raise ValueError("dimension mismatch")
    is_valid = _entrywise_close(s.m.subtract(s.n_part), a)
    n_nonneg = bool((s.n_part.values >= 0.0).all()) if s.n_part.nnz else True
    # the verdict only: classify would also solve for a witness
    is_m_splitting = n_nonneg and _m_probe(s.m)
    return SplittingAnalysis(
        is_valid=is_valid,
        is_m_splitting=is_m_splitting,
        is_h_compatible=is_h_compatible(a, s.m, s.n_part),
    )
