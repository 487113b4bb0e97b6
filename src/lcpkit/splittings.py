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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrix_core import SparseMatrix, _m_probe, comparison_matrix

_TAGS = ("npj", "npgs", "npsor", "npaor", "custom")

# entrywise equality tolerance, relative to the largest entry magnitude
EQ_TOL = 1e-12


@dataclass(frozen=True)
class SplittingKind:
    """Named member of the splitting family with its parameters.

    alpha1 is the relaxation parameter (npsor, npaor); beta1 the
    acceleration parameter (npaor only).  Both are ignored for npj/npgs.
    """

    tag: str
    alpha1: Optional[float] = None
    beta1: Optional[float] = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown splitting tag {self.tag!r}")
        if self.tag in ("npsor", "npaor"):
            if self.alpha1 is None or not 0.0 < self.alpha1 < math.inf:
                raise ValueError(f"{self.tag} requires a finite alpha1 > 0")
        if self.tag == "npaor" and (self.beta1 is None or not math.isfinite(self.beta1)):
            raise ValueError("npaor requires a finite beta1")

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


@dataclass(frozen=True)
class Splitting:
    """A pair (M, N) with M - N equal to the generating matrix."""

    m: SparseMatrix
    n_part: SparseMatrix
    kind: SplittingKind


@dataclass(frozen=True)
class SplittingAnalysis:
    is_valid: bool
    is_m_splitting: bool
    is_h_compatible: bool


def _family_parts(a, alpha, beta):
    """M = (1/a)(D - bL), N = (1/a)[(1-a)D + (a-b)L + aU] from A = D - L - U,
    as the (diagonal, lower, upper) arguments of ``SparseMatrix._by_triangle``
    that build M and N from A.

    Zero coefficients drop their terms entirely (construction discards
    exact zeros), which is what makes the pinned-parameter reductions
    reproduce npj/npgs/npsor storage exactly.  L and U are the negated
    strict triangles of A, so a coefficient c on L or U is -c on A's own
    entries: (-x) c = x (-c) exactly.
    """
    d = a.diagonal_vector()
    inv = 1.0 / alpha
    # an entry that overflows (a tiny alpha), or a nan from 0 * inf on a
    # missing diagonal, is refused by the build
    with np.errstate(over="ignore", invalid="ignore"):
        return ((d * inv, beta * inv, 0.0),
                (d * ((1.0 - alpha) * inv), -((alpha - beta) * inv), -(alpha * inv)))


def make_splitting(a, kind):
    """Construct the named splitting of a.

    The matrices always come from the splitting definitions (the M - N = A
    identity is checked on every construction, and parameters under which
    rounding breaks it raise ValueError); parameterized display shortcuts
    are never used.
    """
    if not isinstance(a, SparseMatrix):
        raise ValueError("expected a SparseMatrix")
    if kind.tag == "custom":
        raise ValueError("use custom_splitting for caller-provided pairs")
    alpha, beta = kind.effective_parameters()
    m_parts, n_parts = _family_parts(a, alpha, beta)
    m, n_part = a._by_triangle(*m_parts), a._by_triangle(*n_parts)
    if not _entrywise_close(m.subtract(n_part), a):
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
