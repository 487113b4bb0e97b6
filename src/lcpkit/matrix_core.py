"""Sparse CSR primitives, matrix classification, and spectral-radius estimation.

A matrix is stored once, as a read-only scipy CSR handle with scipy's
index dtype; assembly, addition, triangles, densification and the
matrix-vector product all run in ``scipy.sparse``.  lcpkit adds the
invariants on top (square, sorted columns, no stored zeros, finite
values, immutable arrays) and keeps everything deterministic: every
reduction runs in a fixed order, and the only factorization on offer is
triangular substitution.  Dense fallbacks
(inverses, principal minors) are reserved for certification and tests on
small matrices, never for solver hot paths.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


class SingularMatrixError(ValueError):
    """A triangular or diagonal system has a zero (or missing) pivot."""


class SparseMatrix:
    """Square real matrix in compressed sparse row form.

    The one storage is a scipy ``csr_matrix``, built once with read-only
    arrays; ``row_starts``, ``col_indices`` and ``values`` are views onto
    it, with scipy's index dtype (int32 while it fits).  This type adds
    lcpkit's invariants: column indices are strictly increasing within
    each row, no stored value is exactly zero and every stored value is
    finite; every construction checks them.  Instances are immutable and
    safe to share across threads.
    """

    __slots__ = ("_h", "_row_index")

    def __init__(self, n, row_starts, col_indices, values):
        n = int(n)
        if n <= 0:
            raise ValueError("dimension must be positive")
        row_starts = np.asarray(row_starts)
        col_indices = np.asarray(col_indices)
        values = np.asarray(values, dtype=np.float64)
        # scipy silently prunes index and value arrays longer than the span
        if row_starts.shape != (n + 1,):
            raise ValueError("row_starts must have length n + 1")
        if col_indices.size != values.size:
            raise ValueError("col_indices and values length mismatch")
        if row_starts[0] != 0 or row_starts[-1] != values.size:
            raise ValueError("row_starts must span [0, nnz]")
        if np.any(values == 0.0):
            raise ValueError("explicit zero entries are not allowed")
        h = scipy.sparse.csr_matrix((values, col_indices, row_starts), shape=(n, n), copy=True)
        h.check_format(full_check=True)
        if not h.has_canonical_format:
            raise ValueError("column indices must be strictly increasing per row")
        self._own(h)

    def _own(self, h):
        """Make h this matrix's storage: finite values, read-only arrays."""
        if not np.all(np.isfinite(h.data)):
            raise ValueError("matrix entry is not finite (nan/inf input or overflow)")
        for arr in (h.indptr, h.indices, h.data):
            arr.setflags(write=False)
        self._h = h
        self._row_index = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _canonical(cls, h):
        """Own a fresh scipy result: CSR, duplicates summed, exact zeros dropped."""
        h = h.tocsr()
        h.sum_duplicates()
        h.eliminate_zeros()
        m = cls.__new__(cls)
        m._own(h)
        return m

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from triplets; duplicates are summed, exact zeros dropped."""
        n = int(n)
        if n <= 0:
            raise ValueError("dimension must be positive")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
                raise ValueError("entry index out of range")
        vals = np.asarray(vals, dtype=np.float64)
        return cls._canonical(scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)))

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

    # read-only views onto the handle
    n = property(lambda self: self._h.shape[0])
    row_starts = property(lambda self: self._h.indptr)
    col_indices = property(lambda self: self._h.indices)
    values = property(lambda self: self._h.data)
    nnz = property(lambda self: self._h.nnz)

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

    def _rows_expanded(self):
        if self._row_index is None:
            self._row_index = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.row_starts)
            )
            self._row_index.setflags(write=False)
        return self._row_index

    def to_dense(self):
        return self._h.toarray()

    def to_scipy(self):
        """This matrix as a new scipy ``csr_matrix`` sharing its read-only
        arrays: no copy is made, and rebinding the handle's attributes
        cannot reach the matrix."""
        h = self._h
        return scipy.sparse.csr_matrix((h.data, h.indices, h.indptr), shape=h.shape)

    def diagonal_vector(self):
        """Diagonal entries as a dense vector (zeros where unstored)."""
        return self._h.diagonal()

    def max_abs(self):
        return float(np.abs(self.values).max()) if self.nnz else 0.0

    def is_lower_triangular(self):
        return bool(np.all(self.col_indices <= self._rows_expanded()))

    def is_diagonal(self):
        return bool(np.all(self.col_indices == self._rows_expanded()))

    # ------------------------------------------------------------------
    # algebra (all out-of-place; results share no storage with inputs)

    def matvec(self, x):
        """Deterministic y = A @ x: scipy's CSR product sums each row left
        to right in storage order."""
        return self._h @ np.asarray(x, dtype=np.float64)

    def scaled(self, c):
        return SparseMatrix._canonical(self._h * float(c))

    def _operand(self, other):
        if not isinstance(other, SparseMatrix) or other.n != self.n:
            raise ValueError("dimension mismatch in matrix addition")
        return other._h

    def add(self, other):
        return SparseMatrix._canonical(self._h + self._operand(other))

    def subtract(self, other):
        return SparseMatrix._canonical(self._h - self._operand(other))

    def add_diagonal(self, d):
        """Return self + diag(d); d may be a scalar or a length-n vector."""
        d = np.broadcast_to(np.asarray(d, dtype=np.float64), (self.n,))
        return SparseMatrix._canonical(self._h + scipy.sparse.diags(d))

    def abs_entrywise(self):
        return SparseMatrix._canonical(abs(self._h))

    def strict_lower(self):
        return SparseMatrix._canonical(scipy.sparse.tril(self._h, k=-1))

    def strict_upper(self):
        return SparseMatrix._canonical(scipy.sparse.triu(self._h, k=1))


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
    return DluParts(d=d, l=a.strict_lower().scaled(-1), u=a.strict_upper().scaled(-1))


def comparison_matrix(a):
    """Entrywise comparison matrix: |diagonal| kept, off-diagonals to -|.|."""
    h = abs(a._h)
    h.data[a.col_indices != a._rows_expanded()] *= -1.0
    return SparseMatrix._canonical(h)


def _m_matrix_witness(a):
    """Positive v with A v = ones, or None.

    For a Z-matrix, existence of such v is equivalent to A being a
    nonsingular M-matrix, so one sparse solve settles the question.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.sparse.linalg.MatrixRankWarning)
            v = scipy.sparse.linalg.spsolve(a.to_scipy().tocsc(), np.ones(a.n))
    except Exception:
        return None
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if not np.all(np.isfinite(v)) or not np.all(v > 0.0):
        return None
    return v


def _principal_minors_positive(dense):
    from itertools import combinations

    n = dense.shape[0]
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
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
    witness_v: Optional[np.ndarray] = None


def classify(a, p_matrix_limit=12):
    """Classify a square matrix as Z / M / H / H+ and, when small, P.

    The M-matrix test solves A v = ones and checks v > 0, which is an exact
    characterization for Z-matrices; the witness is returned.  The H test
    runs the same probe on the comparison matrix.  Principal minors are
    enumerated only when n <= p_matrix_limit (capped at 20: there are
    2^n - 1 of them).
    """
    if not isinstance(a, SparseMatrix):
        raise ValueError("expected a SparseMatrix")
    if p_matrix_limit > 20:
        raise ValueError("p_matrix_limit must be at most 20")
    offdiag = a.col_indices != a._rows_expanded()
    is_z = bool(np.all(a.values[offdiag] <= 0.0))
    witness = _m_matrix_witness(a) if is_z else None
    is_m = witness is not None
    is_h = _m_matrix_witness(comparison_matrix(a)) is not None
    diag = a.diagonal_vector()
    is_h_plus = is_h and bool(np.all(diag > 0.0))
    is_p = None
    if a.n <= p_matrix_limit:
        is_p = _principal_minors_positive(a.to_dense())
    if witness is not None:
        witness.setflags(write=False)
    return ClassificationReport(
        is_z=is_z, is_m=is_m, is_h=is_h, is_h_plus=is_h_plus,
        is_p=is_p, witness_v=witness,
    )


class RadiusEstimate(NamedTuple):
    """Power-iteration output; value is the last Rayleigh-style ratio."""

    value: float
    converged: bool
    iterations: int


Operator = Union[SparseMatrix, np.ndarray, Callable[[np.ndarray], np.ndarray]]


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
        return t, int(n)
    raise ValueError("unsupported operator type")


def spectral_radius_nonneg(t, n=None, tol=1e-10, max_iters=None):
    """Estimate the spectral radius of an entrywise-nonnegative operator.

    Power iteration started from the all-ones vector; stops when successive
    estimates agree to a relative tol.  Nonnegativity is the caller's
    responsibility; it is what makes the ones start vector safe, and it is
    also what lets the iteration run on T + I instead of T: the Perron root
    shifts by exactly one, while the shift breaks the periodicity that
    would otherwise make norm ratios oscillate (e.g. on permutations).

    Returns a RadiusEstimate; ``converged`` is False when max_iters ran out,
    in which case ``value`` is the best estimate so far.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    apply_t, dim = _as_apply(t, n)
    if max_iters is None:
        max_iters = 10 * dim + 1000
    v = np.ones(dim) / np.sqrt(dim)
    est = np.inf
    for k in range(1, max_iters + 1):
        w = apply_t(v) + v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:  # unreachable for nonnegative t, kept as a guard
            return RadiusEstimate(0.0, True, k)
        prev, est = est, norm - 1.0
        if abs(est - prev) <= tol * max(1.0, abs(est)):
            return RadiusEstimate(est, True, k)
        v = w / norm
    return RadiusEstimate(est, False, max_iters)


def _pivots(m):
    """The diagonal of m; SingularMatrixError names the first zero pivot."""
    d = m.diagonal_vector()
    if not d.all():
        raise SingularMatrixError(f"zero diagonal in row {int(np.argmin(d != 0.0))}")
    return d


def lower_triangular_solve(m, b):
    """Solve m x = b by forward substitution in exact sequential order.

    m must be lower triangular; a zero or missing diagonal entry raises
    SingularMatrixError naming the first such row.
    """
    if not m.is_lower_triangular():
        raise ValueError("matrix has entries above the diagonal")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m.n,):
        raise ValueError("right-hand side length mismatch")
    _pivots(m)
    x = np.empty(m.n)
    starts = m.row_starts.tolist()
    cols = m.col_indices.astype(np.intp)
    vals = m.values
    for i in range(m.n):
        lo, hi = starts[i], starts[i + 1] - 1
        x[i] = (b[i] - vals[lo:hi] @ x[cols[lo:hi]]) / vals[hi]
    return x


# ----------------------------------------------------------------------
# MatrixMarket coordinate I/O (real, general, 1-based ASCII)

_MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def write_matrix_market(a, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_MM_HEADER + "\n")
        fh.write(f"{a.n} {a.n} {a.nnz}\n")
        rows = a._rows_expanded()
        for r, c, v in zip(rows, a.col_indices, a.values):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def _load_rows(fh, dtype):
    """Parse the rest of fh as one record of dtype per line.

    Lines starting with '%' (after leading whitespace) are dropped whole
    and blank lines are skipped; a trailing '%' on a data line is not a
    comment.  A row with a field count other than dtype's, or a field
    its type cannot parse exactly, raises ValueError.
    """
    lines = (line for line in fh if not line.lstrip().startswith("%"))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)


def read_matrix_market(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header.lower().split() != _MM_HEADER.lower().split():
            raise ValueError(
                f"unsupported MatrixMarket header (need coordinate real general): {header!r}"
            )
        size_line = None
        for line in fh:
            stripped = line.strip()
            if stripped and not stripped.startswith("%"):
                size_line = stripped
                break
        if size_line is None:
            raise ValueError("missing size line")
        parts = size_line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed size line: {size_line!r}")
        nrows, ncols, nnz = (int(p) for p in parts)
        if nrows != ncols:
            raise ValueError("matrix must be square")
        if nrows <= 0 or not 0 <= nnz <= nrows * nrows:
            raise ValueError(f"size line out of range: {size_line!r}")
        entries = _load_rows(fh, [("i", np.int64), ("j", np.int64), ("v", np.float64)])
    if entries.size != nnz:
        raise ValueError(f"expected {nnz} entries, found {entries.size}")
    try:
        return SparseMatrix.from_coo(nrows, entries["i"] - 1, entries["j"] - 1, entries["v"])
    except MemoryError:
        # the row pointers alone take 8 (n + 1) bytes
        raise ValueError(f"declared size {nrows} x {nrows} is too large to allocate") from None


def write_vector(v, path):
    with open(path, "w", encoding="ascii") as fh:
        for x in np.asarray(v, dtype=np.float64):
            fh.write(f"{float(x)!r}\n")


def read_vector(path):
    with open(path, "r", encoding="ascii") as fh:
        # one field per row, so "1 2" on a line is an error, not two values
        values = _load_rows(fh, [("v", np.float64)])["v"]
    if not values.size:
        raise ValueError(f"no values found in {path}")
    return values
