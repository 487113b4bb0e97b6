"""Sparse CSR primitives, matrix classification, and spectral-radius estimation.

Storage and kernels are scipy's CSR: assembly, addition, triangles,
densification and the matrix-vector product all run in ``scipy.sparse``.
lcpkit adds the invariants on top (square, sorted columns, no stored
zeros, finite values, immutable arrays) and keeps everything
deterministic: every reduction runs in a fixed order, and the only
factorization on offer is triangular substitution.  Dense fallbacks
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

    The arrays and kernels are scipy's CSR; this type enforces lcpkit's
    invariants on top of them.  Column indices are strictly increasing
    within each row and no stored value is exactly zero; constructors
    enforce both.  Every stored value is finite, which is checked on every
    construction.  Instances are immutable (backing arrays, including
    those of the cached scipy handle, are marked read-only) and safe to
    share across threads.
    """

    __slots__ = ("n", "row_starts", "col_indices", "values", "_row_index", "_scipy")

    def __init__(self, n, row_starts, col_indices, values, validate=True):
        n = int(n)
        if n <= 0:
            raise ValueError("dimension must be positive")
        row_starts = np.ascontiguousarray(row_starts, dtype=np.int64)
        col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entry is not finite (nan/inf input or overflow)")
        if validate:
            if row_starts.shape != (n + 1,):
                raise ValueError("row_starts must have length n + 1")
            if row_starts[0] != 0 or row_starts[-1] != values.size:
                raise ValueError("row_starts must span [0, nnz]")
            if np.any(np.diff(row_starts) < 0):
                raise ValueError("row_starts must be nondecreasing")
            if col_indices.size != values.size:
                raise ValueError("col_indices and values length mismatch")
            if col_indices.size:
                if col_indices.min() < 0 or col_indices.max() >= n:
                    raise ValueError("column index out of range")
                inc = col_indices[1:] > col_indices[:-1]
                # pairs straddling a row boundary are exempt from the ordering
                ends = row_starts[1:-1]
                ends = ends[(ends > 0) & (ends < values.size)]
                inc[ends - 1] = True
                if not inc.all():
                    raise ValueError("column indices must be strictly increasing per row")
            if np.any(values == 0.0):
                raise ValueError("explicit zero entries are not allowed")
        for arr in (row_starts, col_indices, values):
            arr.setflags(write=False)
        self.n = n
        self.row_starts = row_starts
        self.col_indices = col_indices
        self.values = values
        self._row_index = None
        self._scipy = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _canonical(cls, h):
        """Wrap a fresh scipy result: CSR, duplicates summed, exact zeros dropped."""
        h = h.tocsr()
        h.sum_duplicates()
        h.eliminate_zeros()
        return cls(h.shape[0], h.indptr, h.indices, h.data, validate=False)

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

    @property
    def nnz(self):
        return self.values.size

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
        return self.to_scipy().toarray()

    def to_scipy(self):
        """This matrix as a scipy ``csr_matrix``, built once and cached.

        Every call returns the same handle; its ``indptr``, ``indices`` and
        ``data`` are read-only, so it cannot be used to change the matrix.
        """
        if self._scipy is None:
            h = scipy.sparse.csr_matrix(
                (self.values, self.col_indices, self.row_starts), shape=(self.n, self.n)
            )
            for arr in (h.indptr, h.indices, h.data):
                arr.setflags(write=False)
            self._scipy = h
        return self._scipy

    def diagonal_vector(self):
        """Diagonal entries as a dense vector (zeros where unstored)."""
        return self.to_scipy().diagonal()

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
        return self.to_scipy() @ np.asarray(x, dtype=np.float64)

    def scaled(self, c):
        c = float(c)
        if c == 0.0:
            return SparseMatrix.zeros(self.n)
        return SparseMatrix(
            self.n, self.row_starts, self.col_indices, self.values * c, validate=False
        )

    def _operand(self, other):
        if not isinstance(other, SparseMatrix) or other.n != self.n:
            raise ValueError("dimension mismatch in matrix addition")
        return other.to_scipy()

    def add(self, other):
        return SparseMatrix._canonical(self.to_scipy() + self._operand(other))

    def subtract(self, other):
        return SparseMatrix._canonical(self.to_scipy() - self._operand(other))

    def add_diagonal(self, d):
        """Return self + diag(d); d may be a scalar or a length-n vector."""
        d = np.broadcast_to(np.asarray(d, dtype=np.float64), (self.n,))
        return SparseMatrix._canonical(self.to_scipy() + scipy.sparse.diags(d))

    def abs_entrywise(self):
        return SparseMatrix(
            self.n, self.row_starts, self.col_indices, np.abs(self.values),
            validate=False,
        )

    def strict_lower(self):
        return SparseMatrix._canonical(scipy.sparse.tril(self.to_scipy(), k=-1))

    def strict_upper(self):
        return SparseMatrix._canonical(scipy.sparse.triu(self.to_scipy(), k=1))


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
    diag_mask = a.col_indices == a._rows_expanded()
    vals = np.where(diag_mask, np.abs(a.values), -np.abs(a.values))
    return SparseMatrix(a.n, a.row_starts, a.col_indices, vals, validate=False)


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


def lower_triangular_solve(m, b):
    """Solve m x = b by forward substitution in exact sequential order.

    m must be lower triangular; a zero or missing diagonal entry raises
    SingularMatrixError naming the offending row.
    """
    if not m.is_lower_triangular():
        raise ValueError("matrix has entries above the diagonal")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m.n,):
        raise ValueError("right-hand side length mismatch")
    x = np.empty(m.n)
    starts, cols, vals = m.row_starts, m.col_indices, m.values
    for i in range(m.n):
        lo, hi = starts[i], starts[i + 1]
        if hi == lo or cols[hi - 1] != i or vals[hi - 1] == 0.0:
            raise SingularMatrixError(f"zero diagonal in row {i}")
        acc = b[i] - vals[lo:hi - 1] @ x[cols[lo:hi - 1]]
        x[i] = acc / vals[hi - 1]
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


def read_matrix_market(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        fields = header.lower().split()
        if (
            len(fields) != 5
            or fields[0] != "%%matrixmarket"
            or fields[1:3] != ["matrix", "coordinate"]
            or fields[3] != "real"
            or fields[4] != "general"
        ):
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
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        k = 0
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            if k >= nnz:
                raise ValueError("more entries than declared")
            i, j, v = stripped.split()
            i, j = int(i), int(j)
            if not (1 <= i <= nrows and 1 <= j <= nrows):
                raise ValueError(f"entry index out of range: {stripped!r}")
            rows[k] = i - 1
            cols[k] = j - 1
            vals[k] = float(v)
            k += 1
        if k != nnz:
            raise ValueError(f"expected {nnz} entries, found {k}")
    try:
        return SparseMatrix.from_coo(nrows, rows, cols, vals)
    except MemoryError:
        # the row pointers alone take 8 (n + 1) bytes
        raise ValueError(f"declared size {nrows} x {nrows} is too large to allocate") from None


def write_vector(v, path):
    with open(path, "w", encoding="ascii") as fh:
        for x in np.asarray(v, dtype=np.float64):
            fh.write(f"{float(x)!r}\n")


def read_vector(path):
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            out.append(float(stripped))
    if not out:
        raise ValueError(f"no values found in {path}")
    return np.asarray(out)
