"""Sparse CSR primitives, matrix classification, and spectral-radius estimation.

The one module that calls scipy's compiled code: the CSR kernels
(``_kernels``, ``scipy.sparse._sparsetools``) at import and LAPACK
(``_lapack``, ``scipy.linalg._flapack``) on first dense use, each loaded
from its file in scipy's install by ``_load_extension``.  A matrix is
stored once, as its own read-only CSR arrays with scipy's index dtype;
every operation is numpy or the kernels, in the order scipy's sparse
layer calls them, so the results are bitwise scipy's, and
``scipy.sparse`` itself is imported only by ``to_scipy`` and the
witness solve.  lcpkit keeps the invariants (square, sorted columns, no
stored zeros, finite values, immutable arrays) and every reduction in a
fixed order: a row sum, in the matrix-vector product and in forward
substitution alike, adds the row's rounded products left to right in
storage order, in ``csr_matvec``.  One function answers each dense or
M-matrix question: ``_dense_lu`` (the one LU, behind ``_dense_solver``
and ``_dense_inverse``) and ``_m_probe`` (the Z test, ``_m_verdict``,
then the witness solve), which ``check`` asks about the comparison
matrix <A> and the coupling matrix.  ``classify`` takes the probe's
steps on A itself, so as to keep the v of its one solve as the witness.

A matrix holds its sparsity pattern as a ``_Pattern``, which every
matrix built on the same index arrays shares, and which keeps what
depends on the pattern alone: the entries' triangles, the sub-patterns
on some of the triangles, and the forward-substitution cut.  The
matrices a build from a problem matrix makes are built on the
sub-pattern of the triangles they keep, so that those with the same
triangles share one: the lower-triangular system matrices of the
built-in splittings, and the N of each kind of splitting.

Forward substitution follows one of three plans, each a cut, the rows
cut into blocks, and a schedule, which adds a matrix's values to its
cut: the level cut (``_LevelCut``, ``_LevelSchedule``) takes the rows
level by level and serves a matrix with enough rows per level; the row
cut (``_RowCut``, ``_RowSchedule``) takes them in order, 16 at a time;
and a diagonal matrix's (``_DiagonalCut``, ``_DiagonalSchedule``) is
one divide by its diagonal, all its schedule holds.  A schedule is
built on the first solve and cached on the (immutable) matrix, the
level schedule with its solves' work areas; its cut is made once per
pattern and kept with it.  The dense inverse and LU
serve certification and custom splittings on small matrices, never the
built-in solvers; their callers cap n at DENSE_LIMIT.
"""

import functools
import importlib.machinery
import importlib.util
import itertools
import os
import re
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

DENSE_LIMIT = 2000


def _load_extension(name):
    """The compiled extension module of scipy's called name (such as
    ``scipy.sparse._sparsetools``), loaded from its file in scipy's
    install: importing it by name would run the costly import of its
    package first.  Without the file, it is imported by name.

    The load leaves no entry in ``sys.modules``, so that a later import
    of the package loads the submodule itself and binds it as the
    package's attribute (an entry found there would not be bound); that
    load reuses the library and the module state this one made."""
    if name in sys.modules:
        return sys.modules[name]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    *packages, stem = name.split(".")[1:]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, *packages, stem + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            # a single-phase extension module enters itself there as it loads
            sys.modules.pop(name, None)
            return module
    return importlib.import_module(name)


@functools.cache
def _lapack():
    """LAPACK (``scipy.linalg._flapack``), loaded by ``_load_extension``
    on first use and kept, as an import keeps a module: a load per call
    would make the module anew each time, copying its 600-odd entries."""
    return _load_extension("scipy.linalg._flapack")


_kernels = _load_extension("scipy.sparse._sparsetools")
_csr_matvec = _kernels.csr_matvec


class SingularMatrixError(ValueError):
    """A triangular or diagonal system has a zero (or missing) pivot."""


def _integers(x, what):
    """x, a number or array, as int64; a fraction, which a cast would
    truncate, raises ValueError naming what.  2.0 is taken as 2."""
    x = np.asarray(x)
    kind = x.dtype.kind
    if kind not in "biu" and not (kind == "f" and np.all(np.isfinite(x) & (np.trunc(x) == x))):
        raise ValueError(f"{what} must be integral")
    return x.astype(np.int64, copy=False)


def _index_dtype(maxval):
    """scipy's index dtype for indices up to maxval: int32 while it fits."""
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


def _product(m, values, x):
    """(m's pattern with these values) @ x in a fresh vector, each row
    summed onto 0.0 by ``csr_matvec``, as scipy's product sums it."""
    y = np.zeros(m.n)
    _csr_matvec(m.n, m.n, m.row_starts, m.col_indices, values, x, y)
    return y


class _Pattern:
    """The sparsity pattern of a square CSR matrix: ``n`` and the
    read-only ``row_starts`` and ``col_indices``, held by every matrix
    with these arrays.  What depends on the pattern alone is found on
    first use and kept here, so that the matrices that share a pattern
    share it too, and it dies with the last of them: the entries'
    triangles (``triangle``), its sub-patterns on some of the triangles
    (``sub``) and the forward-substitution cut (``cut``)."""

    __slots__ = ("n", "row_starts", "col_indices", "_tri", "_subs", "_cut")

    def __init__(self, n, row_starts, col_indices, tri=None):
        for arr in (row_starts, col_indices, tri):
            if arr is not None:
                arr.setflags(write=False)
        self.n, self.row_starts, self.col_indices = n, row_starts, col_indices
        self._tri, self._subs, self._cut = tri, {}, None

    def triangle(self):
        """Each stored entry's triangle, in storage order: -1 below the
        diagonal, 0 on it and 1 above it."""
        if self._tri is None:
            rows = np.repeat(np.arange(self.n, dtype=self.col_indices.dtype),
                             np.diff(self.row_starts))
            self._tri = np.sign(self.col_indices - rows).astype(np.int8)
            self._tri.setflags(write=False)
        return self._tri

    def sub(self, lower, diagonal, upper):
        """(the pattern of the entries in the triangles kept, the mask of
        those entries here), in storage order and this index dtype: the
        strict lower triangle when lower is true, the diagonal when
        diagonal is and the strict upper triangle when upper is.  It is
        (this pattern, None) when it has no entry in a triangle dropped."""
        key = (lower, diagonal, upper)
        if key not in self._subs:
            tri = self.triangle()
            kept = np.array(key)[tri + 1]
            sub = None  # this pattern itself, to which self._subs must not refer
            if not kept.all():
                kept.setflags(write=False)
                sub = (self.select(kept), kept)
            self._subs[key] = sub
        return self._subs[key] or (self, None)

    def select(self, keep):
        """A new pattern, in this index dtype, of the entries a mask in
        storage order keeps, with their triangles when found here."""
        before = np.zeros(keep.size + 1, dtype=self.row_starts.dtype)
        np.cumsum(keep, out=before[1:])
        return _Pattern(self.n, before[self.row_starts], self.col_indices[keep],
                        None if self._tri is None else self._tri[keep])

    def cut(self):
        """The cut of this lower-triangular pattern with a full diagonal
        (``_choose_cut``)."""
        if self._cut is None:
            self._cut = _choose_cut(self)
        return self._cut


class SparseMatrix:
    """Square real matrix in compressed sparse row form.

    ``row_starts``, ``col_indices`` and ``values`` are the matrix's own
    read-only arrays, with scipy's index dtype (int32 while it fits); a
    matrix built on another one's pattern shares its ``_Pattern``.
    This type keeps lcpkit's invariants: column indices are strictly
    increasing within each row, no stored value is exactly zero and
    every stored value is finite; every construction checks them.
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("_pattern", "_values", "_schedule")

    def __init__(self, n, row_starts, col_indices, values):
        n = int(_integers(n, "dimension"))
        if n <= 0:
            raise ValueError("dimension must be positive")
        row_starts = _integers(row_starts, "row_starts")
        col_indices = _integers(col_indices, "col_indices")
        values = np.array(values, dtype=np.float64)
        if row_starts.shape != (n + 1,):
            raise ValueError("row_starts must have length n + 1")
        if col_indices.ndim != 1 or col_indices.shape != values.shape:
            raise ValueError("col_indices and values length mismatch")
        if row_starts[0] != 0 or row_starts[-1] != values.size:
            raise ValueError("row_starts must span [0, nnz]")
        if np.any(values == 0.0):
            raise ValueError("explicit zero entries are not allowed")
        if np.any(np.diff(row_starts) < 0):
            raise ValueError("row_starts must be nondecreasing")
        if values.size and (col_indices.min() < 0 or col_indices.max() >= n):
            raise ValueError("column index out of range")
        first = np.zeros(values.size + 1, dtype=bool)  # a row's first entry may take any column
        first[row_starts] = True
        if np.any((np.diff(col_indices) <= 0) & ~first[1:-1]):
            raise ValueError("column indices must be strictly increasing per row")
        idx = _index_dtype(max(n, values.size))
        self._own(_Pattern(n, row_starts.astype(idx), col_indices.astype(idx)), values)

    def _own(self, pattern, values):
        """Take values, on pattern, as storage: the entries that are zero
        dropped onto a new pattern (``_Pattern.select``), as scipy's
        ``eliminate_zeros`` drops them, values checked finite and made
        read-only."""
        keep = values != 0.0
        if not keep.all():
            pattern, values = pattern.select(keep), values[keep]
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entry is not finite (nan/inf input or overflow)")
        values.setflags(write=False)
        self._pattern, self._values, self._schedule = pattern, values, None
        return self

    @classmethod
    def _made(cls, pattern, values):
        return cls.__new__(cls)._own(pattern, values)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from triplets; duplicates summed by the kernels of scipy's
        ``tocsr``, exact zeros dropped as ``eliminate_zeros`` drops them."""
        n = int(_integers(n, "dimension"))
        if n <= 0:
            raise ValueError("dimension must be positive")
        rows = _integers(rows, "entry indices")
        cols = _integers(cols, "entry indices")
        vals = np.asarray(vals, dtype=np.float64)
        if rows.ndim != 1 or not rows.shape == cols.shape == vals.shape:
            raise ValueError("entry indices and values must be 1-D, of one length")
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("entry index out of range")
        nnz = vals.size
        idx = _index_dtype(max(n, nnz))
        row_starts, col_indices, values = np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz)
        _kernels.coo_tocsr(n, n, nnz, rows.astype(idx), cols.astype(idx), vals,
                           row_starts, col_indices, values)
        if not _kernels.csr_has_canonical_format(n, row_starts, col_indices):
            if not _kernels.csr_has_sorted_indices(n, row_starts, col_indices):
                _kernels.csr_sort_indices(n, row_starts, col_indices, values)
            _kernels.csr_sum_duplicates(n, n, row_starts, col_indices, values)
            nnz = row_starts[-1]
            col_indices, values = col_indices[:nnz].copy(), values[:nnz].copy()
        return cls._made(_Pattern(n, row_starts, col_indices), values)

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square 2-D array")
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], rows, cols, arr[rows, cols])

    @classmethod
    def identity(cls, n):
        return cls.diagonal(np.ones(n))

    @classmethod
    def diagonal(cls, d):
        d = np.asarray(d, dtype=np.float64)
        idx = np.arange(d.size)
        return cls.from_coo(d.size, idx, idx, d)

    @classmethod
    def zeros(cls, n):
        return cls.from_coo(n, [], [], [])

    # ------------------------------------------------------------------
    # basic queries

    n = property(lambda self: self._pattern.n)
    row_starts = property(lambda self: self._pattern.row_starts)
    col_indices = property(lambda self: self._pattern.col_indices)
    values = property(lambda self: self._values)
    nnz = property(lambda self: self._values.size)

    def __repr__(self):
        return f"SparseMatrix(n={self.n}, nnz={self.nnz})"

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.row_starts, other.row_starts)
            and np.array_equal(self.col_indices, other.col_indices)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None

    def _triangle(self):
        """Each stored entry's triangle (``_Pattern.triangle``)."""
        return self._pattern.triangle()

    def to_dense(self):
        out = np.zeros((self.n, self.n))
        _kernels.csr_todense(self.n, self.n, self.row_starts, self.col_indices, self.values, out)
        return out

    def to_scipy(self):
        """This matrix as a new scipy ``csr_matrix`` sharing its read-only
        arrays: no copy is made, and rebinding the handle's attributes
        cannot reach the matrix."""
        import scipy.sparse

        return scipy.sparse.csr_matrix((self.values, self.col_indices, self.row_starts),
                                       shape=(self.n, self.n))

    def diagonal_vector(self):
        """Diagonal entries as a dense vector (zeros where unstored)."""
        d = np.empty(self.n)
        _kernels.csr_diagonal(0, self.n, self.n, self.row_starts, self.col_indices, self.values, d)
        return d

    def max_abs(self):
        return float(np.abs(self.values).max()) if self.nnz else 0.0

    def is_lower_triangular(self):
        return not np.any(self._triangle() > 0)

    def is_diagonal(self):
        return not np.any(self._triangle())

    # ------------------------------------------------------------------
    # algebra (all out-of-place; results share only read-only arrays)

    def matvec(self, x, out=None):
        """Deterministic y = A @ x: ``csr_matvec`` sums each row left to
        right in storage order onto 0.0, as scipy's product does.  With
        out, a float64 vector of length n that does not overlap x, y is
        written there and out returned: out is zeroed first, so the bits
        are the same."""
        x = np.asarray(x, dtype=np.float64)
        n = self.n
        if x.shape != (n,) or out is not None and (
                not isinstance(out, np.ndarray) or out.shape != (n,) or out.dtype != np.float64):
            raise ValueError(f"matvec needs x and out of shape ({n},), out float64")
        if out is None:
            return _product(self, self._values, x)
        if np.may_share_memory(x, out):
            raise ValueError("matvec out must not overlap x")
        out.fill(0.0)
        _csr_matvec(n, n, self.row_starts, self.col_indices, self._values, x, out)
        return out

    def _with_values(self, values):
        """This pattern, shared, with new values; a zero drops its entry."""
        return SparseMatrix._made(self._pattern, values)

    def scaled(self, c):
        return self._with_values(self.values * float(c))

    def add(self, other):
        return _merged(_kernels.csr_plus_csr, self._pattern, self.values, other)

    def subtract(self, other):
        return _merged(_kernels.csr_minus_csr, self._pattern, self.values, other)

    def add_diagonal(self, d):
        """Return self + diag(d); d may be a scalar or a length-n vector."""
        d = np.broadcast_to(np.asarray(d, dtype=np.float64), (self.n,))
        return _plus_diagonal(self._pattern, self.values.copy(), d)

    def abs_entrywise(self):
        return self._with_values(np.abs(self.values))

    def strict_lower(self):
        return self._by_triangle(0.0, 1.0, 0.0)

    def strict_upper(self):
        return self._by_triangle(0.0, 0.0, 1.0)

    def _by_triangle(self, diag, lower, upper):
        """diag(diag) + lower * (strict lower part) + upper * (strict upper
        part), diag a scalar or a length-n vector, in one build: one product
        per stored entry, bitwise what scipy's ``tril``, ``triu``, scaling
        and ``+`` give, since those adds meet no common entry.  It is built
        on the pattern's sub-pattern without the triangles whose entries
        would all be dropped as zeros (``_Pattern.sub``): a triangle with a
        zero coefficient, and the diagonal when diag has no nonzero entry."""
        diag = np.broadcast_to(np.asarray(diag, dtype=np.float64), (self.n,))
        pattern, kept = self._pattern.sub(bool(lower != 0.0), bool(diag.any()),
                                          bool(upper != 0.0))
        values = self.values if kept is None else self.values[kept]
        coefficient = np.array([lower, 0.0, upper])[pattern.triangle() + 1]
        return _plus_diagonal(pattern, values * coefficient, diag)


def _merged(kernel, pattern, values, other):
    """kernel, ``csr_plus_csr`` or ``csr_minus_csr``, on pattern with
    values and on other, as scipy's ``_binopt`` calls it."""
    if not isinstance(other, SparseMatrix) or other.n != pattern.n:
        raise ValueError("dimension mismatch in matrix addition")
    n, most = pattern.n, values.size + other.nnz
    idx = _index_dtype(max(n, most))
    out = (np.empty(n + 1, idx), np.empty(most, idx), np.empty(most))
    kernel(n, n, pattern.row_starts, pattern.col_indices, values,
           other.row_starts, other.col_indices, other.values, *out)
    nnz = out[0][-1]  # the kernel leaves out results that are zero
    return SparseMatrix._made(_Pattern(n, out[0], out[1][:nnz].copy()), out[2][:nnz].copy())


def _plus_diagonal(pattern, values, d):
    """The matrix on pattern with values, plus diag(d) (length n) as
    scipy's ``+ diags(d)``, the pattern shared where it can be: with no
    nonzero d_i there is nothing to add, with the whole diagonal stored
    only values change, else ``csr_plus_csr`` merges in the nonzero d_i,
    which diags keeps."""
    if not d.any():
        # the merge of an empty diag(d) would give each nonzero x as x + 0.0
        return SparseMatrix._made(pattern, values)
    at = np.flatnonzero(pattern.triangle() == 0)
    if at.size == pattern.n:
        # where d_i is a signed zero the kernel adds 0.0, which differs
        # only on a zero x, an entry dropped either way
        values[at] += d
        return SparseMatrix._made(pattern, values)
    stored = d != 0.0
    starts = np.zeros(pattern.n + 1, dtype=pattern.row_starts.dtype)
    np.cumsum(stored, dtype=starts.dtype, out=starts[1:])
    cols = np.flatnonzero(stored).astype(starts.dtype)
    return _merged(_kernels.csr_plus_csr, pattern, values,
                   SparseMatrix._made(_Pattern(pattern.n, starts, cols), d[cols]))


@dataclass(frozen=True)
class DluParts:
    """Diagonal / negated-strict-lower / negated-strict-upper decomposition.

    Reassembling diag(d) - l - u reproduces the source matrix bitwise, since
    entries are copied and negated, never recomputed.
    """

    d: np.ndarray
    l: SparseMatrix
    u: SparseMatrix

    def reassemble(self):
        return SparseMatrix.diagonal(self.d).add(self.l.scaled(-1)).add(self.u.scaled(-1))


def dlu_split(a):
    """Split a square matrix as A = diag(d) - L - U.

    L and U are the negated strict triangles, so both are entrywise
    nonnegative whenever the off-diagonal of A is nonpositive.  Missing
    diagonal entries yield d[i] = 0.
    """
    d = a.diagonal_vector()
    d.setflags(write=False)
    return DluParts(d=d, l=a._by_triangle(0.0, -1.0, 0.0), u=a._by_triangle(0.0, 0.0, -1.0))


def comparison_matrix(a):
    """Entrywise comparison matrix: |diagonal| kept, off-diagonals to -|.|."""
    values = np.abs(a.values)
    values[a._triangle() != 0] *= -1.0
    return a._with_values(values)


_TINY = np.finfo(np.float64).smallest_subnormal

# Jacobi passes before the bracket leaves the M test to the solve
_JACOBI_PASSES = 16


def _gamma(k):
    """Higham's gamma_2k = 2k u / (1 - 2k u) (*Accuracy and Stability of
    Numerical Algorithms*, section 3.1), u the unit roundoff and k the
    most entries in a row.  A row sum of k products is off by at most
    gamma_k times the sum of their magnitudes; gamma_2k bounds
    gamma_k / (1 - gamma_k), which covers the rounding of that sum of
    magnitudes too, with room for the rounding of gamma and of its
    product with the sum."""
    ku = 2 * k * (np.finfo(np.float64).eps / 2)
    return ku / (1.0 - ku)


def _verified_positive(terms, u):
    """True only if u > 0 and sum_j s_j P_j u > 0 hold exactly for the
    float vector u, terms a list of (s_j = 1 or -1, SparseMatrix P_j),
    each applied on its own.  Each computed row is off from the exact one
    by at most gamma_k times that row of sum_j |P_j| u (k the most
    products in a row over all terms), plus a smallest subnormal per
    underflowing product; the check passes when every row exceeds that
    bound, taken with gamma_2k (``_gamma``) on the computed sum.  This is
    the positive-vector check of Rump, "Verification methods", *Acta
    Numerica* 2010: [(1, z)] proves a Z-matrix z a nonsingular M-matrix."""
    if u.shape != (terms[0][1].n,) or not np.all(u > 0.0) or not np.all(np.isfinite(u)):
        return False
    per_row = sum(np.diff(p.row_starts) for _, p in terms)
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(s * p.matvec(u) for s, p in terms)
        magnitude = sum(_product(p, np.abs(p.values), u) for _, p in terms)
        bound = _gamma(int(per_row.max())) * magnitude + per_row * _TINY
    return bool(np.all(total > bound))


def _jacobi_verdict(z):
    """Whether the Z-matrix z is a nonsingular M-matrix, decided by a
    Collatz-Wielandt bracket on the Jacobi operator J = inv(D) B, where
    z = D - B with D its diagonal and B >= 0; None when it does not decide.

    A nonpositive diagonal entry rules an M-matrix out.  Otherwise z is
    one exactly when rho(J) < 1 (Berman & Plemmons, ch. 6), and the
    bracket comes from ``spectral_radius_nonneg`` with threshold 1 and
    at most _JACOBI_PASSES passes.  An upper end below 1 is a pass's
    vector u with J u < u, that is z u > 0, which ``_verified_positive``
    then checks against rounding: only a verified u gives True.  A lower
    end at or above 1 + gamma_2k, past the rounding of the pass's ratios,
    gives False.  Anything else (an unverified u, a bracket that still
    straddles 1, an overflowed pass) is None."""
    d = z.diagonal_vector()
    if not np.all(d > 0.0):
        return False
    b = np.where(z._triangle() != 0, -z.values, 0.0)
    est = spectral_radius_nonneg(lambda x: _product(z, b, x) / d, n=z.n, max_iters=_JACOBI_PASSES,
                                 threshold=1.0)
    if est.upper < 1.0:
        # the bracket stops at the first pass whose upper end is below 1,
        # so the last vector applied is the one that decided
        return _verified_positive([(1, z)], est.vector) or None
    if est.lower >= 1.0 + _gamma(int(np.diff(z.row_starts).max())):
        return False
    return None


def _m_matrix_witness(a):
    """Positive v with A v = ones, verified by ``_verified_positive``, or
    None.

    For a Z-matrix, existence of such v is equivalent to A being a
    nonsingular M-matrix, so one sparse solve settles the question
    whenever the solution it gives passes the check.
    """
    import scipy.sparse.linalg

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.sparse.linalg.MatrixRankWarning)
            v = scipy.sparse.linalg.spsolve(a.to_scipy().tocsc(), np.ones(a.n))
    except Exception:
        return None
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    v.setflags(write=False)
    return v if _verified_positive([(1, a)], v) else None


def _is_z(a):
    """Whether every off-diagonal entry of a is <= 0."""
    return bool(np.all(a.values[a._triangle() != 0] <= 0.0))


def _is_triangular(a):
    """Whether a has no entry above, or none below, its diagonal."""
    return a.is_lower_triangular() or not np.any(a._triangle() < 0)


def _m_verdict(z):
    """Whether the Z-matrix z is a nonsingular M-matrix, when that is
    decided without a solve; None when it is not.

    A triangular Z-matrix is one exactly when its diagonal, which holds
    its eigenvalues, is positive; that is read off without a solve, since
    the solution of z v = ones can overflow there (it grows like 24^i for
    diagonal 0.5 and subdiagonal -12).  Any other Z-matrix goes to the
    verified Jacobi bracket (``_jacobi_verdict``)."""
    if _is_triangular(z):
        return bool(np.all(z.diagonal_vector() > 0.0))
    return _jacobi_verdict(z)


def _m_probe(z):
    """Whether z is a nonsingular M-matrix, the one M test behind
    ``check``: a matrix that is not a Z-matrix is not; a Z-matrix gets
    ``_m_verdict``, or, only when that does not decide, the sparse solve
    (``_m_matrix_witness``).  ``classify`` takes the same steps on A
    itself, to keep the v of the solve."""
    if not _is_z(z):
        return False
    is_m = _m_verdict(z)
    return _m_matrix_witness(z) is not None if is_m is None else is_m


def _principal_minors_positive(a, limit):
    """Whether every principal minor of a is positive, that is, whether a
    is a P-matrix; None when n > limit.  There are 2^n - 1 minors, so
    limit is capped at 20, and a larger one raises before any work."""
    if limit > 20:
        raise ValueError("p_matrix_limit must be at most 20")
    if a.n > limit:
        return None
    dense = a.to_dense()
    for size in range(1, a.n + 1):
        for subset in itertools.combinations(range(a.n), size):
            idx = np.asarray(subset)
            if np.linalg.det(dense[np.ix_(idx, idx)]) <= 0.0:
                return False
    return True


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the Z/M/H/H+/P classification scans."""

    is_z: bool
    is_m: bool
    is_h: bool
    is_h_plus: bool
    is_p: Optional[bool] = None
    # the positive v with A v = ones that classify solved for, verified;
    # None when A is not an M-matrix, is triangular (decided without a
    # solve) or the solve's v did not verify
    witness_v: Optional[np.ndarray] = None


def classify(a, p_matrix_limit=12):
    """Classify a square matrix as Z / M / H / H+ and, when small, P.

    The M test takes ``_m_probe``'s steps on A: the Z test, then
    ``_m_verdict``.  A non-triangular Z-matrix that the verdict does not
    rule out is solved once for the witness, a positive v with A v = ones
    verified against rounding, and that solve decides the M test when the
    verdict did not.  The H test runs the probe on the comparison matrix,
    except on a Z-matrix with nonnegative diagonal, which is its own
    comparison matrix.  is_p is ``_principal_minors_positive``'s, for
    n <= p_matrix_limit (at most 20).
    """
    if not isinstance(a, SparseMatrix):
        raise ValueError("expected a SparseMatrix")
    is_p = _principal_minors_positive(a, p_matrix_limit)
    is_z = _is_z(a)
    is_m = is_z and _m_verdict(a)
    # a triangular Z-matrix is decided without a solve, which can overflow
    witness_v = None if is_m is False or _is_triangular(a) else _m_matrix_witness(a)
    if is_m is None:
        is_m = witness_v is not None
    diag = a.diagonal_vector()
    is_h = is_m if is_z and np.all(diag >= 0.0) else _m_probe(comparison_matrix(a))
    is_h_plus = is_h and bool(np.all(diag > 0.0))
    return ClassificationReport(is_z=is_z, is_m=is_m, is_h=is_h, is_h_plus=is_h_plus, is_p=is_p,
                                witness_v=witness_v)


class RadiusEstimate(NamedTuple):
    """Power-iteration output.

    value is the last Rayleigh-style ratio, a point estimate; [lower,
    upper] is the Collatz-Wielandt bracket, which contains rho whatever
    value says.  The defaults are the bracket before any pass, and stay
    when no bracket was asked for.  overflowed says that the iteration
    stopped at a pass whose T v was not finite.  vector is the read-only
    v of the last pass applied: when the bracket decided, the v of the
    deciding pass.
    """

    value: float
    converged: bool
    iterations: int
    lower: float = 0.0
    upper: float = float("inf")
    overflowed: bool = False
    vector: Optional[np.ndarray] = None


def _as_apply(t, n=None):
    if isinstance(t, SparseMatrix):
        return t.matvec, t.n
    if isinstance(t, np.ndarray):
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("operator array must be square")
        return (lambda x: t @ x), t.shape[0]
    if callable(t):
        if n is None:
            raise ValueError("callable operators need an explicit dimension")
        return t, int(_integers(n, "dimension"))
    raise ValueError("unsupported operator type")


def spectral_radius_nonneg(t, n=None, tol=1e-10, max_iters=None, threshold=None):
    """Estimate the spectral radius of an entrywise-nonnegative operator.

    Power iteration started from the all-ones vector; stops when successive
    estimates agree to a relative tol.  Nonnegativity is the caller's
    responsibility; it is what makes the ones start vector safe, and it is
    also what lets the iteration run on T + I instead of T: the Perron root
    shifts by exactly one, while the shift breaks the periodicity that
    would otherwise make norm ratios oscillate (e.g. on permutations).

    With a threshold, every pass also narrows a Collatz-Wielandt bracket:
    for nonnegative T and v >= 0, v != 0, min over v_i > 0 of
    (Tv)_i / v_i <= rho(T), and for v > 0, rho(T) <= max_i (Tv)_i / v_i
    (Berman & Plemmons, ch. 2).  Each pass's bound holds on its own, so the
    bracket keeps the largest lower and the smallest upper end seen; a pass
    in which some v_i has underflowed to 0 gives no upper end.  The
    iteration then also stops as soon as the bracket lies wholly below the
    threshold or wholly at or above it, which decides rho < threshold
    soundly.  The bracket is sound up to the rounding of T v and of the
    division, a few units in the last place.  Without a threshold no
    bracket is kept (lower and upper stay 0 and inf) and the iteration
    refines to a point value.

    A pass whose T v or its norm is not finite (it overflowed, or T holds
    inf) gives no bracket end and no estimate: the iteration stops there,
    undecided, with ``overflowed`` set.

    Returns a RadiusEstimate; ``converged`` is False when max_iters ran out
    or T v overflowed before either stop rule held, in which case
    ``value`` is the best estimate so far (inf before any finite pass).
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    apply_t, dim = _as_apply(t, n)
    if dim < 1:
        raise ValueError("dimension must be positive")
    max_iters = 10 * dim + 1000 if max_iters is None else int(_integers(max_iters, "max_iters"))
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    w, norm = np.ones(dim), np.sqrt(dim)
    est, lower, upper = np.inf, 0.0, np.inf
    for k in range(1, max_iters + 1):
        v = w / norm
        v.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            tv = apply_t(v)
            w = tv + v
            norm = float(np.linalg.norm(w))
        if not np.isfinite(norm):  # some (Tv)_i, or the norm, is not finite
            return RadiusEstimate(est, False, k, lower, upper, overflowed=True, vector=v)
        if threshold is not None:
            pass_lower, pass_upper = _collatz_wielandt(tv, v)
            lower, upper = max(lower, pass_lower), min(upper, pass_upper)
        if norm == 0.0:  # unreachable for nonnegative t, kept as a guard
            return RadiusEstimate(0.0, True, k, lower, upper, vector=v)
        prev, est = est, norm - 1.0
        decided = threshold is not None and (upper < threshold or lower >= threshold)
        if decided or abs(est - prev) <= tol * max(1.0, abs(est)):
            return RadiusEstimate(est, True, k, lower, upper, vector=v)
    return RadiusEstimate(est, False, max_iters, lower, upper, vector=v)


def _collatz_wielandt(tv, v):
    """One pass's (lower, upper) bounds on rho from T v and v >= 0: the
    upper end is inf when some v_i is 0."""
    positive = v > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = tv / v
    lower = float(np.min(ratio, where=positive, initial=np.inf))
    return lower, float(ratio.max()) if positive.all() else np.inf


def _pivots(m):
    """The diagonal of m; SingularMatrixError names the first zero pivot."""
    d = m.diagonal_vector()
    if not d.all():
        raise SingularMatrixError(f"zero diagonal in row {int(np.argmin(d != 0.0))}")
    return d


# A level of the level cut costs about 1.1 us of kernel and numpy calls and
# a row of the row cut about 0.5 us of Python.  On banded n = 2400 triangles
# the level cut is faster from 3 rows per level on, with one band
# (level/row 0.87-0.89) and with three (0.74-0.76); at 2 the row cut is
# faster with both (1.43 and 1.05).
_ROWS_PER_LEVEL = 3

# rows per block of the row cut
_BLOCK = 16


def _ranges(starts, counts):
    """The runs starts[i], starts[i] + 1, ... of counts[i] indices each,
    one after another (starts is not empty)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])


def _take_rows(indptr, rows, dtype):
    """The given rows (not empty) of a CSR pattern with row pointer
    indptr, in that order: their row pointer, of dtype, and the indices
    of their entries."""
    count = indptr[rows + 1] - indptr[rows]
    starts = np.zeros(rows.size + 1, dtype=dtype)
    np.cumsum(count, out=starts[1:])
    return starts, _ranges(indptr[rows], count)


class _LevelCut(NamedTuple):
    """The level cut of a lower-triangular CSR pattern with a full
    diagonal: its rows level by level, so that no row refers to a row of
    its own level.

    It is the pattern half of the schedule (``_LevelSchedule``) of every
    matrix with that pattern, made once for all of them: ``order``, the
    rows level by level, ascending within a level, and ``rank``, the
    position of each row in it; ``starts`` and ``cols``, the row pointer
    and the columns, renamed to positions, of the rows in the order, each
    row's diagonal slot moved to column n + i; ``entries``, the index of
    each of those entries in a matrix's ``data``; and ``levels``, one
    tuple (lo, hi, starts[lo:hi + 1]) per level, the views made once.
    The arrays are read-only, and the index arrays use the pattern's
    index dtype, widened when 2n does not fit in it."""

    order: np.ndarray
    rank: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    entries: np.ndarray
    levels: tuple

    @classmethod
    def make(cls, m, order, block_starts):
        """The level cut of the CSR pattern of m, level k at positions
        block_starts[k]:block_starts[k + 1] of order."""
        # a work vector of a solve has 2n entries, so its positions must fit
        n = m.n
        idx = np.promote_types(m.col_indices.dtype, np.min_scalar_type(2 * n))
        rank = np.empty(n, dtype=idx)
        rank[order] = np.arange(n, dtype=idx)
        starts, entries = _take_rows(m.row_starts, order, idx)
        entries = entries.astype(idx)
        cols = rank[m.col_indices[entries]]
        # each row's diagonal is its last stored entry, on column rank = i
        cols[starts[1:] - 1] += n
        for arr in (order, rank, starts, cols, entries):
            arr.setflags(write=False)
        at = block_starts.tolist()
        levels = tuple((lo, hi, starts[lo:hi + 1]) for lo, hi in zip(at, at[1:]))
        return cls(order, rank, starts, cols, entries, levels)

    def schedule(self, data, pivots):
        """The schedule of a matrix with this pattern, data and pivots."""
        vals = np.negative(data[self.entries])
        # each row's diagonal, its last entry, becomes the entry 1.0 on b_i
        vals[self.starts[1:] - 1] = 1.0
        pivots = pivots[self.order]
        for arr in (vals, pivots):
            arr.setflags(write=False)
        return _LevelSchedule(self, vals, tuple(pivots[lo:hi] for lo, hi, _ in self.levels), [])


class _LevelSchedule(NamedTuple):
    """Forward substitution on a lower-triangular matrix, a level of its
    ``_LevelCut`` (``cut``) at a time.  ``vals`` holds the matrix in the
    cut's order, on the cut's ``starts`` and ``cols``: the off-diagonal
    entries negated, then coefficient 1.0 on column n + i, where b_i
    waits in a solve's work vector (x in the cut's order, then b in it).
    ``pivots`` holds one read-only view per level of the pivots in the
    cut's order.  A schedule holds 8 bytes per stored entry and 8 per row
    of its own, plus a view per level; the rest is the cut's.

    ``areas`` is the free list of the schedule's work areas
    (``work_area``), per-matrix scratch that lives as long as the matrix:
    a solve takes one and gives it back when done, and makes a new one
    when every area is in use by another thread, so a matrix can be
    shared across threads with no lock.  An area holds 16 bytes per row
    and about 280 per level.  A copy or a pickle of the schedule starts
    with no area: an area's views of its work vector would come back as
    arrays of their own, which the kernel would write into in vain."""

    cut: _LevelCut
    vals: np.ndarray
    pivots: tuple
    areas: list

    def __reduce__(self):
        return _LevelSchedule, (self.cut, self.vals, self.pivots, [])

    def work_area(self):
        """A work area (xe, steps): xe, a work vector of 2n floats, and
        per level one tuple (args, xv, pivots) bound to it, args the
        kernel's arguments, which write the level's sums into xv, the
        level's entries of xe, and pivots the level's pivots."""
        cut = self.cut
        size = 2 * cut.order.size
        xe = np.empty(size)
        steps = []
        for (lo, hi, starts), pivots in zip(cut.levels, self.pivots):
            xv = xe[lo:hi]
            steps.append(((hi - lo, size, starts, cut.cols, self.vals, xe, xv), xv, pivots))
        return xe, tuple(steps)

    def solve(self, b):
        """x with m x = b: per level, one kernel call and one divide, on a
        work area's bound arguments.  No row refers to a row of its own
        level, so the kernel writes each level's sums straight into that
        level's 0.0 entries of the vector it reads: +0.0 + sum(-m_ij x_j)
        + b_i, which is b_i - s_i bitwise for every b_i but -0.0, which
        the end of the solve mends.  x is a fresh vector."""
        n = b.size
        cut, vals, areas = self.cut, self.vals, self.areas
        cols = cut.cols
        try:
            xe, steps = area = areas.pop()
        except IndexError:  # none made yet, or each in use by another thread
            xe, steps = area = self.work_area()
        try:
            # the solution in the cut's order, 0.0 until solved, then b
            xs, bs = xe[:n], xe[n:]
            xs.fill(0.0)
            np.take(b, cut.order, out=bs, mode="clip")
            for args, xv, pivots in steps:
                # the kernel SparseMatrix.matvec runs adds each row's
                # products left to right in storage order onto its 0.0 in xv
                _csr_matvec(*args)
                np.divide(xv, pivots, xv)
            # where b_i is -0.0 and the sum is zero, the row gave +0.0 +
            # -0.0, which is +0.0, where b_i - s_i is -0.0: sum those rows
            # once more and negate x_i where the sum is zero
            signed = np.flatnonzero(bs == 0.0)
            signed = signed[np.signbit(bs[signed])]
            if signed.size:
                starts, entries = _take_rows(cut.starts, signed, cols.dtype)
                sums = np.zeros(signed.size)
                _csr_matvec(signed.size, 2 * n, starts, cols[entries], vals[entries], xe, sums)
                signed = signed[sums == 0.0]
                xs[signed] = np.negative(xs[signed])
            return np.take(xs, cut.rank, mode="clip")
        finally:
            areas.append(area)


class _DiagonalCut(NamedTuple):
    """The cut of a diagonal pattern: one level, whose rows refer to no
    row and keep their order, so it holds nothing."""

    def schedule(self, data, pivots):
        """The schedule of a matrix with this pattern and pivots."""
        pivots.setflags(write=False)
        return _DiagonalSchedule(self, pivots)


class _DiagonalSchedule(NamedTuple):
    """Forward substitution on a diagonal matrix: the one divide b / d by
    its diagonal, ``pivots``, which is all it holds."""

    cut: _DiagonalCut
    pivots: np.ndarray

    def solve(self, b):
        """x with m x = b."""
        return b / self.pivots


class _RowCut(NamedTuple):
    """The row cut of a lower-triangular CSR pattern with a full diagonal:
    its rows in storage order, _BLOCK at a time, ``blocks`` holding one
    tuple (lo, hi, row_starts[lo:hi + 1]) per block, on the pattern's
    own row pointer and columns (``cols``).  It is the pattern half of
    the schedule (``_RowSchedule``) of every matrix with that pattern.

    An entry is inner when it refers to an earlier row of its own block.
    Row i's inner entries are ``inner_starts[i]:inner_starts[i + 1]`` of
    ``inner_cols`` (a row of the block, from 0) and of ``inner_entries``
    (their indices in a matrix's ``data``), in storage order; the first
    two are tuples of Python ints, which a solve need not convert."""

    blocks: tuple
    cols: np.ndarray
    inner_starts: tuple
    inner_cols: tuple
    inner_entries: np.ndarray

    @classmethod
    def make(cls, m):
        """The row cut of the CSR pattern of m."""
        n, indptr, indices = m.n, m.row_starts, m.col_indices
        idx = indices.dtype
        rows = np.arange(n, dtype=idx)
        first = rows - rows % _BLOCK  # the first row of each row's block
        # columns are sorted and distinct, so a row's inner entries are
        # among its last i - first[i] off-diagonal entries
        count = np.minimum(rows - first, np.diff(indptr) - 1)
        entries = _ranges(indptr[1:] - 1 - count, count)
        row = np.repeat(rows, count)
        inner = indices[entries] >= first[row]
        entries, row = entries[inner].astype(idx), row[inner]
        entries.setflags(write=False)
        inner_starts = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(row, minlength=n), out=inner_starts[1:])
        at = list(range(0, n, _BLOCK)) + [n]
        blocks = tuple((lo, hi, indptr[lo:hi + 1]) for lo, hi in zip(at, at[1:]))
        return cls(blocks, indices, tuple(inner_starts.tolist()),
                   tuple((indices[entries] - first[row]).tolist()), entries)

    def schedule(self, data, pivots):
        """The schedule of a matrix with this pattern, data and pivots."""
        return _RowSchedule(self, data, tuple(pivots.tolist()),
                            tuple(data[self.inner_entries].tolist()))


class _RowSchedule(NamedTuple):
    """Forward substitution on a lower-triangular matrix, a block of its
    ``_RowCut`` (``cut``) at a time.  ``vals`` is the matrix's ``data``;
    ``pivots``, its diagonal, and ``inner_vals``, the values of the cut's
    inner entries, are tuples of Python floats."""

    cut: _RowCut
    vals: np.ndarray
    pivots: tuple
    inner_vals: tuple

    def solve(self, b):
        """x with m x = b.  A block is summed while its own solution is
        still 0.0: an inner entry or the diagonal adds a product with
        0.0, which leaves a sum started from +0.0 as it is.  Each row then
        finishes its sum over its inner entries in Python floats (the same
        double arithmetic), subtracts it from b_i and divides."""
        n = b.size
        cut, vals, pivots, inner_vals = self.cut, self.vals, self.pivots, self.inner_vals
        cols, starts, inner_cols = cut.cols, cut.inner_starts, cut.inner_cols
        xs = np.zeros(n)  # the solution, 0.0 until solved
        sums = np.zeros(n)
        bl = b.tolist()
        for lo, hi, row_starts in cut.blocks:
            s = sums[lo:hi]
            _csr_matvec(hi - lo, n, row_starts, cols, vals, xs, s)
            xb = []  # the block's solution so far
            for i, acc in enumerate(s.tolist(), lo):
                for j in range(starts[i], starts[i + 1]):
                    acc += inner_vals[j] * xb[inner_cols[j]]
                xb.append((bl[i] - acc) / pivots[i])
            xs[lo:hi] = xb
        return xs


def _chain_length(m, per_row):
    """Length of the longest run of consecutive rows each of which refers
    to the row just above it: a lower bound on the number of levels."""
    n = per_row.size
    refers = np.flatnonzero(per_row)
    # the diagonal is a row's last stored entry, so its last reference is
    # the entry before it
    on_prev = np.zeros(n, dtype=bool)
    on_prev[refers] = m.col_indices[m.row_starts[refers + 1] - 2] == refers - 1
    return int(np.diff(np.flatnonzero(~on_prev), append=n).max())


def _level_cut(m, max_depth):
    """The levels of the lower-triangular matrix m with a full diagonal:
    (order, block_starts) with the rows level by level, ascending within
    a level, level k at positions block_starts[k]:block_starts[k + 1], or
    None when there are more than max_depth levels.  A row's level is one
    more than the highest level among the rows it refers to (0 when it
    has none), found by one pass over the rows in storage order."""
    n, idx = m.n, m.col_indices.dtype
    cols = memoryview(m.col_indices)
    level = [-1] * n
    get = level.__getitem__
    lo = 0
    for i, hi in enumerate(memoryview(m.row_starts)[1:]):
        # the row's own diagonal entry reads the -1 it still holds, below
        # every level, so a row with no other entry gets level 0
        level[i] = max(map(get, cols[lo:hi])) + 1
        lo = hi
    level = np.array(level, dtype=idx)
    depth = int(level.max()) + 1
    if depth > max_depth:
        return None
    block_starts = np.zeros(depth + 1, dtype=idx)
    np.cumsum(np.bincount(level, minlength=depth), out=block_starts[1:])
    return np.argsort(level, kind="stable").astype(idx), block_starts


def _choose_cut(m):
    """The cut of the lower-triangular pattern m with a full diagonal:
    the diagonal cut when m has no other entry, the level cut when m has
    at least _ROWS_PER_LEVEL rows per level, else the row cut.  The
    levels come from ``_level_cut``'s pass over the rows, which is made
    only when the chain test (``_chain_length``) leaves the level cut
    possible."""
    per_row = np.diff(m.row_starts) - 1
    if not per_row.any():
        return _DiagonalCut()
    max_depth = m.n // _ROWS_PER_LEVEL
    levels = None
    # a long chain of rows rules the level cut out before its pass
    if _chain_length(m, per_row) <= max_depth:
        levels = _level_cut(m, max_depth)
    return _RowCut.make(m) if levels is None else _LevelCut.make(m, *levels)


def _schedule(m):
    """m's forward-substitution schedule, built once after checking that
    m is lower triangular with a nonzero diagonal (a failed check caches
    nothing) and kept with m.  Its cut is m's pattern's, cut on first
    use, so the matrices that share a pattern make one cut."""
    if m._schedule is None:
        if not m.is_lower_triangular():
            raise ValueError("matrix has entries above the diagonal")
        pivots = _pivots(m)
        m._schedule = m._pattern.cut().schedule(m.values, pivots)
    return m._schedule


def lower_triangular_solve(m, b):
    """Solve m x = b by forward substitution.

    m must be lower triangular: an entry above the diagonal raises
    ValueError, and a zero or missing diagonal entry raises
    SingularMatrixError naming the first such row.  Row i gives
    x_i = (b_i - s_i) / m_ii, where s_i sums the rounded products
    m_ij x_j of the row's off-diagonal entries left to right in storage
    order, starting from 0.0, as ``SparseMatrix.matvec`` sums a row.
    The first call checks m and caches its schedule on m: for a diagonal
    m a ``_DiagonalSchedule``, the one divide b / d; with at least
    ``_ROWS_PER_LEVEL`` rows per dependency level a ``_LevelSchedule``,
    one call of the matrix-vector product's CSR row kernel and one divide
    per level, on the arguments a work area of the schedule binds once;
    otherwise a ``_RowSchedule``, one kernel call per ``_BLOCK`` rows.
    None changes a row's arithmetic, so x is bitwise the row-by-row
    result, signed zeros included.  The schedule's pattern half, its
    cut, is kept with m's sparsity pattern (``_Pattern.cut``) and shared
    by every matrix on that pattern.  x is a fresh vector, and threads
    may solve with one m at once: each solve takes a work area of its
    own.
    """
    schedule = _schedule(m)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m.n,):
        raise ValueError("right-hand side length mismatch")
    return schedule.solve(b)


# the fewest rows per block of _dense_inverse: a diagonal matrix takes
# n / 32 blocks, not n
_INVERSE_BLOCK = 32


def _dense_lu(m):
    """LAPACK's dense LU factors (lu, piv) of m, by ``dgetrf`` as
    scipy.linalg's lu_factor calls it; SingularMatrixError names the
    first zero pivot of U, which dgetrf reports in its info."""
    lu, piv, info = _lapack().dgetrf(m.to_dense())
    if info > 0:
        raise SingularMatrixError(f"singular system matrix (pivot {info - 1})")
    return lu, piv


def _dense_solver(m):
    """The solve b -> inv(m) b on m's dense LU (``_dense_lu``), by
    ``dgetrs`` as scipy.linalg's lu_solve calls it."""
    lu, piv = _dense_lu(m)
    dgetrs = _lapack().dgetrs
    return lambda b: dgetrs(lu, piv, b)[0]


def _dense_inverse(m):
    """inv(m) as a dense array.  A lower-triangular m = L is inverted by
    block rows of B >= w rows, w the most any entry lies left of the
    diagonal, into the one n x n array X it returns: X_kk = inv(L_kk) by
    LAPACK's ``dtrtri``, then X_k,:lo = -(X_kk L_k,band) X_band,:lo, about
    w n^2 + n B^2 flops, or one whole ``dtrtri`` (n^3 / 3) when 6w >= n.
    Any other m is inverted from its dense LU (``_dense_lu``) by
    ``dgetri``, in the factors' array."""
    if not m.is_lower_triangular():
        return _lapack().dgetri(*_dense_lu(m), overwrite_lu=1)[0]
    _pivots(m)  # names the first zero pivot, dtrtri's one failure
    dtrtri = _lapack().dtrtri
    n, starts = m.n, m.row_starts
    # each row's first entry is its leftmost, and every row has its diagonal
    w = int(np.max(np.arange(n) - m.col_indices[starts[:-1]]))
    # one block once the block rows' w n^2 flops come within half of the
    # whole dtrtri's n^3 / 3, which runs at a higher rate
    size = n if 6 * w >= n else max(w, _INVERSE_BLOCK)
    x = np.zeros((n, n))
    # an inverse past the float range overflows here, which the power
    # iteration reports as an overflowed T v
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, size):
            hi, band = min(lo + size, n), max(lo - w, 0)
            rows = x[lo:hi]
            _kernels.csr_todense(hi - lo, n, starts[lo:hi + 1], m.col_indices, m.values, rows)
            # rows is C-ordered, so the transpose of L_kk is a Fortran-ordered
            # upper triangle, whose inverse is inv(L_kk).T; dtrtri inverts it
            # in place when it is contiguous (the one block), and the
            # assignment of an array to itself copies nothing
            rows[:, lo:hi] = dtrtri(rows[:, lo:hi].T, lower=0, overwrite_c=1)[0].T
            # rows[:, band:lo] is still L_k,band, and x[band:lo, :lo] is final
            rows[:, :lo] = np.negative(rows[:, lo:hi] @ rows[:, band:lo]) @ x[band:lo, :lo]
    return x


# ----------------------------------------------------------------------
# MatrixMarket coordinate I/O (real, general, 1-based ASCII)

_MM_HEADER = "%%MatrixMarket matrix coordinate real general"


# entries per write call: bounds the text a writer holds in memory
_WRITE_CHUNK = 1 << 12


def write_matrix_market(a, path):
    """Write a as 1-based coordinate entries in storage order, each value
    as its shortest round-trip repr."""
    rows = np.repeat(np.arange(1, a.n + 1), np.diff(a.row_starts))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_MM_HEADER}\n{a.n} {a.n} {a.nnz}\n")
        for lo in range(0, a.nnz, _WRITE_CHUNK):
            part = slice(lo, lo + _WRITE_CHUNK)
            fh.write("".join(f"{i} {j} {v!r}\n" for i, j, v in zip(
                rows[part].tolist(), (a.col_indices[part] + 1).tolist(), a.values[part].tolist())))


def _read_lines(path):
    """The lines of path, read in one call and split at its line ends
    (universal newlines: \\n, \\r\\n and a lone \\r).  A byte that is not
    ASCII, on any line, comments included, raises ValueError naming its
    line and column: read with errors="surrogateescape", byte b is the
    lone surrogate U+DC00 + b."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    lines = text.split("\n")
    if not text.isascii():
        number, line = next((k, line) for k, line in enumerate(lines, 1) if not line.isascii())
        column = next(k for k, c in enumerate(line) if not c.isascii())
        raise ValueError(f"{path}:{number}: byte 0x{ord(line[column]) - 0xDC00:02x} "
                         f"is not ASCII (column {column + 1})")
    return lines


def _is_data(line):
    """Whether line is neither blank nor starts with '%' (after leading
    whitespace); a trailing '%' on a data line is not a comment."""
    return line.lstrip()[:1] not in ("", "%")


def _line_error(path, lines, k, reason):
    """The ValueError naming the file line of data line k (from 0) of
    lines, the lines of path, for reason."""
    number = [number for number, line in enumerate(lines, 1) if _is_data(line)][k]
    return ValueError(f"{path}:{number}: {reason}")


# where numpy's parse message places a bad field: "... at row 0, column 3."
_NUMPY_FIELD = re.compile(r" at row \d+, column (\d+)\.$")


def _load_records(path, lines, dtype, skip=0):
    """Parse the data lines (``_is_data``) of lines, the lines of path,
    from data line skip on, as one record of dtype per line, in one
    ``np.loadtxt`` call.

    A line with a field count other than dtype's, or a field its type
    cannot parse exactly, raises ValueError naming the file and line.
    On that error path only, the lines are parsed one at a time to find
    the first one refused; should every line parse alone, numpy's error
    passes through as it is, naming no line.
    """
    records = list(itertools.islice(filter(_is_data, lines), skip, None))
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(records, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        for k, line in enumerate(records, skip):
            found = len(line.split())
            if found != len(dtype):
                raise _line_error(path, lines, k, "wrong number of fields: "
                                  f"expected {len(dtype)}, found {found}") from None
            try:
                np.loadtxt([line], dtype=dtype, comments=None)
            except ValueError as line_exc:
                reason = _NUMPY_FIELD.sub(r" (field \1)", str(line_exc))
                raise _line_error(path, lines, k, reason) from None
        raise


def read_matrix_market(path):
    lines = _read_lines(path)
    header = lines[0].strip()
    if header.lower().split() != _MM_HEADER.lower().split():
        raise ValueError(
            f"unsupported MatrixMarket header (need coordinate real general): {header!r}"
        )
    # the header starts with '%', so the first data line is the size line;
    # no data line is blank, so "" means there is none
    size_line = next(filter(_is_data, lines), "").strip()
    if not size_line:
        raise ValueError("missing size line")
    parts = size_line.split()
    # three integers as numpy reads an entry's (int() would take 1_0)
    if len(parts) != 3 or not all(re.fullmatch(r"[+-]?[0-9]+", p) for p in parts):
        raise _line_error(path, lines, 0, f"malformed size line: {size_line!r}")
    nrows, ncols, nnz = map(int, parts)
    if nrows != ncols:
        raise ValueError("matrix must be square")
    if nrows <= 0 or not 0 <= nnz <= nrows * nrows:
        raise ValueError(f"size line out of range: {size_line!r}")
    entries = _load_records(path, lines, [("i", np.int64), ("j", np.int64), ("v", np.float64)],
                            skip=1)
    if entries.size != nnz:
        raise ValueError(f"expected {nnz} entries, found {entries.size}")
    rows, cols = entries["i"] - 1, entries["j"] - 1
    outside = np.flatnonzero((rows < 0) | (rows >= nrows) | (cols < 0) | (cols >= nrows))
    if outside.size:
        raise _line_error(path, lines, 1 + int(outside[0]), f"entry index out of range 1..{nrows}")
    del lines  # needed only to number a bad line, so freed before the matrix is built
    try:
        return SparseMatrix.from_coo(nrows, rows, cols, entries["v"])
    except MemoryError:
        # the row pointers alone take 8 (n + 1) bytes
        raise ValueError(f"declared size {nrows} x {nrows} is too large to allocate") from None


def write_vector(v, path):
    v = np.asarray(v, dtype=np.float64)
    with open(path, "w", encoding="ascii") as fh:
        for lo in range(0, v.size, _WRITE_CHUNK):
            fh.write("".join(f"{x!r}\n" for x in v[lo:lo + _WRITE_CHUNK].tolist()))


def read_vector(path):
    # one field per row, so "1 2" on a line is an error, not two values
    values = _load_records(path, _read_lines(path), [("v", np.float64)])["v"]
    if not values.size:
        raise ValueError(f"no values found in {path}")
    return values
