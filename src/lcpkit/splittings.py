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

from .matrix_core import SparseMatrix, _is_z, _m_probe

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
    """M = (1/a)(D - bL), N = (1/a)[(1-a)D + (a-b)L + aU] from A = D - L - U.

    Zero coefficients drop their terms entirely (construction discards
    exact zeros), which is what makes the pinned-parameter reductions
    reproduce npj/npgs/npsor storage exactly.  L and U are the negated
    strict triangles of A, so a coefficient c on L or U is -c on A's own
    entries: (-x) c = x (-c) exactly.
    """
    d = a.diagonal_vector()
    inv = 1.0 / alpha
    m = a._by_triangle(d * inv, beta * inv, 0.0)
    n = a._by_triangle(d * ((1.0 - alpha) * inv), -((alpha - beta) * inv), -(alpha * inv))
    return m, n


def make_splitting(a, kind):
    """Construct the named splitting of a.

    The matrices always come from the splitting definitions (the M - N = A
    identity is checked on every construction); parameterized display
    shortcuts are never used.
    """
    if not isinstance(a, SparseMatrix):
        raise ValueError("expected a SparseMatrix")
    if kind.tag == "custom":
        raise ValueError("use custom_splitting for caller-provided pairs")
    alpha, beta = kind.effective_parameters()
    m, n = _family_parts(a, alpha, beta)
    s = Splitting(m=m, n_part=n, kind=kind)
    if not _entrywise_close(m.subtract(n), a):
        raise AssertionError("splitting failed the M - N = A identity")
    return s


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
    return _h_compatible(a, m, n_part, 0.0)


def _h_compatible(a, m, n_part, shift):
    """``is_h_compatible`` of a and M + diag(shift), N + diag(shift),
    shift a scalar or a length-n vector, with no matrix built.

    The entries of M, N and A are laid out on the union of their
    patterns and the diagonal, where each entry of <M'> - |N'| and of
    its difference with <A> is the one rounded operation that the
    chain of ``add_diagonal``, ``comparison_matrix``, ``abs_entrywise``
    and ``subtract`` makes, so the verdict is bitwise that chain's.
    Like that chain, an entry that overflows raises ValueError.
    """
    n = a.n
    keys = [np.repeat(np.arange(n, dtype=np.int64), np.diff(x.row_starts)) * n + x.col_indices
            for x in (m, n_part, a)]
    diagonal = np.arange(n, dtype=np.int64) * (n + 1)
    # sorted and deduplicated by hand: np.unique hashes, several times slower
    union = np.sort(np.concatenate([*keys, diagonal]))
    union = union[np.append(True, union[1:] != union[:-1])]
    mv, nv, av = (np.zeros(union.size) for _ in range(3))
    for v, x, key in zip((mv, nv, av), (m, n_part, a), keys):
        v[np.searchsorted(union, key)] = x.values
    on_diagonal = np.searchsorted(union, diagonal)
    sign = np.full(union.size, -1.0)  # turns |.| into the comparison matrix
    sign[on_diagonal] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        mv[on_diagonal] += shift
        nv[on_diagonal] += shift
        x = sign * np.abs(mv) - np.abs(nv)
        diff = x - sign * np.abs(av)
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(diff)):
        raise ValueError("matrix entry is not finite (nan/inf input or overflow)")
    scale = max(1.0, float(np.abs(x).max()), a.max_abs())
    return float(np.abs(diff).max()) <= EQ_TOL * scale


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
    is_m_splitting = n_nonneg and _is_z(s.m) and _m_probe(s.m)[0]
    return SplittingAnalysis(
        is_valid=is_valid,
        is_m_splitting=is_m_splitting,
        is_h_compatible=is_h_compatible(a, s.m, s.n_part),
    )
