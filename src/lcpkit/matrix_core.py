"""Sparse CSR primitives, matrix classification, and spectral-radius estimation.

A matrix is stored once, as a read-only scipy CSR handle with scipy's
index dtype; assembly, addition, triangles, densification and the
matrix-vector product all run in ``scipy.sparse``.  lcpkit adds the
invariants on top (square, sorted columns, no stored zeros, finite
values, immutable arrays) and keeps everything deterministic: every
reduction runs in a fixed order, and the only factorization on offer is
triangular substitution.  A row sum, in the matrix-vector product and
in forward substitution alike, adds the row's rounded products left to
right in storage order, in scipy's compiled CSR row kernel.  Forward
substitution follows one schedule, built on the first solve and cached
on the (immutable) matrix: the rows in some order, cut into blocks,
each block summed by one kernel call over its entries that refer to
earlier blocks.  The level cut (blocks are dependency levels, whose
rows depend only on earlier levels) serves a matrix with enough rows
per level; otherwise the row cut takes the rows in order, a block of 16
at a time, and finishes each row's sum over its own block in Python
floats.  The cut depends on the pattern only, so the system matrices
of one problem, which share its lower triangle's pattern, share one
cut, cached on the problem matrix.  Dense fallbacks (inverses, principal
minors) are reserved for certification and tests on small matrices,
never for solver hot paths; a dense inverse or LU needs n <= DENSE_LIMIT.
"""

import itertools
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

DENSE_LIMIT = 2000


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

    __slots__ = ("_h", "_cut", "_schedule")

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
        self._cut = None
        self._schedule = None

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

    def _triangle(self):
        """Each stored entry's triangle, in storage order: -1 below the
        diagonal, 0 on it and 1 above it."""
        rows = np.repeat(np.arange(self.n, dtype=self.col_indices.dtype), np.diff(self.row_starts))
        return np.sign(self.col_indices - rows)

    def _lower_cut(self):
        """The cut (``_Cut``) of forward substitution on this matrix's
        lower triangle with a full diagonal, made on first use and kept
        with the matrix."""
        if self._cut is None:
            self._cut = _choose_cut(self._by_triangle(1.0, 1.0, 0.0)._h)
        return self._cut

    def _share_cut(self, other):
        """Take other's lower-triangle cut as this matrix's own when this
        matrix's pattern is other's lower triangle with a full diagonal:
        the system matrices of one problem then make one cut between
        them."""
        if self._cut is None:
            cut = other._lower_cut()
            if cut.fits(self):
                self._cut = cut

    def _trisolve_schedule(self):
        """The forward-substitution schedule, built on first use and kept
        with the matrix; a matrix that cannot be solved caches nothing."""
        if self._schedule is None:
            self._schedule = _build_schedule(self)
        return self._schedule

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
        return not np.any(self._triangle() > 0)

    def is_diagonal(self):
        return not np.any(self._triangle())

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

    def _by_triangle(self, diag, lower, upper):
        """diag(diag) + lower * (strict lower part) + upper * (strict upper
        part), diag a scalar or a length-n vector, in one build: one product
        per stored entry, bitwise what the chain of ``strict_lower``,
        ``scaled`` and ``add`` gives, since its adds meet no common entry."""
        h = self._h
        coefficient = np.array([lower, 0.0, upper])[self._triangle() + 1]
        off = scipy.sparse.csr_matrix((h.data * coefficient, h.indices, h.indptr), shape=h.shape)
        return SparseMatrix._canonical(off + scipy.sparse.diags(np.broadcast_to(diag, (self.n,))))


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
    h = abs(a._h)
    h.data[a._triangle() != 0] *= -1.0
    return SparseMatrix._canonical(h)


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


def _verified_positive(z, u):
    """True only if u > 0 and z u > 0 hold exactly for the float vector u.

    Each computed (z u)_i is off from the exact one by at most
    gamma_k (|z| u)_i, plus a smallest subnormal per product where
    products underflow; the check passes when every (z u)_i exceeds that
    bound, taken with gamma_2k (``_gamma``) on the computed |z| u.  It
    costs two matvecs.  This is the positive-vector check of Rump,
    "Verification methods", *Acta Numerica* 2010: for a Z-matrix z it
    proves that z is a nonsingular M-matrix, however u was found."""
    if u.shape != (z.n,) or not np.all(u > 0.0) or not np.all(np.isfinite(u)):
        return False
    per_row = np.diff(z.row_starts)
    with np.errstate(over="ignore", invalid="ignore"):
        zu = z.matvec(u)
        bound = _gamma(int(per_row.max())) * (abs(z._h) @ u) + per_row * _TINY
    return bool(np.all(zu > bound) and np.all(np.isfinite(bound)))


def _jacobi_verdict(z, triangle):
    """Whether the Z-matrix z (whose entries lie in ``triangle``) is a
    nonsingular M-matrix, decided by a Collatz-Wielandt bracket on the
    Jacobi operator J = inv(D) B, where z = D - B with D its diagonal and
    B >= 0; None when the bracket does not decide.

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
    h = z._h
    b = scipy.sparse.csr_matrix((np.where(triangle != 0, -h.data, 0.0), h.indices, h.indptr),
                                shape=h.shape)
    est = spectral_radius_nonneg(lambda x: (b @ x) / d, n=z.n, max_iters=_JACOBI_PASSES,
                                 threshold=1.0)
    if est.upper < 1.0:
        # the bracket stops at the first pass whose upper end is below 1,
        # so the last vector applied is the one that decided
        return _verified_positive(z, est.vector) or None
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
    return v if _verified_positive(a, v) else None


def _is_z(a):
    """Whether every off-diagonal entry of a is <= 0."""
    return bool(np.all(a.values[a._triangle() != 0] <= 0.0))


def _m_probe(z, witness=False):
    """(is_m, v) for the Z-matrix z, the one M test behind ``classify``
    and ``check``.

    A triangular Z-matrix is a nonsingular M-matrix exactly when its
    diagonal, which holds its eigenvalues, is positive; that is read off
    without a solve, since the solution of z v = ones can overflow there
    (it grows like 24^i for diagonal 0.5 and subdiagonal -12), and v is
    None.  Any other Z-matrix goes to the verified Jacobi bracket
    (``_jacobi_verdict``), and only when that does not decide to the
    sparse solve (``_m_matrix_witness``).  With witness, an M-matrix also
    gets the solve's v with z v = ones (None if that v does not verify).
    """
    triangle = z._triangle()
    if np.all(triangle <= 0) or np.all(triangle >= 0):
        return bool(np.all(z.diagonal_vector() > 0.0)), None
    is_m = _jacobi_verdict(z, triangle)
    if is_m is False or (is_m and not witness):
        return is_m, None
    v = _m_matrix_witness(z)
    return bool(is_m) or v is not None, v


def _principal_minors_positive(dense):
    n = dense.shape[0]
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
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
    # the positive v with A v = ones that the M test solved for, verified;
    # None when A is not an M-matrix, is triangular (decided without a
    # solve) or the solve's v did not verify
    witness_v: Optional[np.ndarray] = None


def classify(a, p_matrix_limit=12):
    """Classify a square matrix as Z / M / H / H+ and, when small, P.

    For a Z-matrix the M test is ``_m_probe``: a triangular one is
    decided by the signs of its diagonal, any other by a verified bracket
    on its Jacobi operator, or by solving A v = ones when the bracket
    does not decide.  A positive v with A v > 0, verified against
    rounding, characterizes a nonsingular M-matrix exactly.  For a
    non-triangular M-matrix the v solved from A v = ones is returned as
    the witness.  The H test runs the same probe on the comparison
    matrix, except on a Z-matrix with nonnegative diagonal, which is its
    own comparison matrix, so that one probe settles both.  Principal
    minors are enumerated only when n <= p_matrix_limit (capped at 20:
    there are 2^n - 1 of them).
    """
    if not isinstance(a, SparseMatrix):
        raise ValueError("expected a SparseMatrix")
    if p_matrix_limit > 20:
        raise ValueError("p_matrix_limit must be at most 20")
    return _classify(a, p_matrix_limit, witness=True)


def _classify(a, p_matrix_limit, witness):
    """``classify``, with the witness solve only when witness is set."""
    is_z = _is_z(a)
    is_m, v = _m_probe(a, witness) if is_z else (False, None)
    diag = a.diagonal_vector()
    if is_z and np.all(diag >= 0.0):
        is_h = is_m
    else:
        is_h = _m_probe(comparison_matrix(a))[0]
    is_h_plus = is_h and bool(np.all(diag > 0.0))
    is_p = None
    if a.n <= p_matrix_limit:
        is_p = _principal_minors_positive(a.to_dense())
    if v is not None:
        v.setflags(write=False)
    return ClassificationReport(
        is_z=is_z, is_m=is_m, is_h=is_h, is_h_plus=is_h_plus,
        is_p=is_p, witness_v=v,
    )


class RadiusEstimate(NamedTuple):
    """Power-iteration output.

    value is the last Rayleigh-style ratio, a point estimate; [lower,
    upper] is the Collatz-Wielandt bracket, which contains rho whatever
    value says.  The defaults are the bracket before any pass, and stay
    when no bracket was asked for.  overflowed says that the iteration
    stopped at a pass whose T v was not finite.  vector is the read-only
    v of the last pass applied (None if none ran): when the bracket
    decided, the v of the deciding pass.
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
        return t, int(n)
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
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    apply_t, dim = _as_apply(t, n)
    if max_iters is None:
        max_iters = 10 * dim + 1000
    w, norm, v = np.ones(dim), np.sqrt(dim), None
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


# A level of the level cut costs about 4 us of numpy and kernel calls and a
# row of the row cut 1-2 us of Python; on banded and grid matrices the two
# cuts break even at 4 to 6 rows per level.
_ROWS_PER_LEVEL = 4

# rows per block of the row cut
_BLOCK = 16


def _ranges(starts, counts):
    """The runs starts[i], starts[i] + 1, ... of counts[i] indices each,
    one after another (starts is not empty)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])


class _Cut(NamedTuple):
    """The rows of a lower-triangular CSR pattern with a full diagonal
    (``row_starts``, ``col_indices``), taken in an order, each after
    every row it refers to, and cut into blocks: block k is positions
    ``block_starts[k]:block_starts[k + 1]`` of the order.  ``order`` is
    None for the row cut, whose rows stay in storage order; otherwise
    the blocks are dependency levels, so that no row refers to a row of
    its own block.  A cut depends on the pattern only, so every matrix
    with that pattern can take it."""

    row_starts: np.ndarray
    col_indices: np.ndarray
    order: Optional[np.ndarray]
    block_starts: np.ndarray

    def fits(self, m):
        return (np.array_equal(m.row_starts, self.row_starts)
                and np.array_equal(m.col_indices, self.col_indices))


def _chain_length(h, per_row):
    """Length of the longest run of consecutive rows each of which refers
    to the row just above it: a lower bound on the number of levels."""
    n = per_row.size
    refers = np.flatnonzero(per_row)
    # the diagonal is a row's last stored entry, so its last reference is
    # the entry before it
    on_prev = np.zeros(n, dtype=bool)
    on_prev[refers] = h.indices[h.indptr[refers + 1] - 2] == refers - 1
    return int(np.diff(np.flatnonzero(~on_prev), append=n).max())


def _level_cut(h, per_row, max_depth):
    """The level cut of the lower-triangular CSR handle h with per_row
    off-diagonal entries in each row: (order, block_starts) with the rows
    level by level, ascending within a level, or None once there would
    be more than max_depth levels.  A row's level is one more than the
    highest level among the rows it refers to (0 when it has none), found
    by a frontier sweep over the off-diagonal entries."""
    n, idx = h.shape[0], h.indices.dtype
    # columns are sorted, so each row's diagonal is its last stored entry
    rows = np.repeat(np.arange(n, dtype=idx), per_row)
    cols = np.delete(h.indices, h.indptr[1:] - 1)
    dependents = rows[np.argsort(cols, kind="stable")]
    dep_count = np.bincount(cols, minlength=n)
    dep_start = np.cumsum(dep_count) - dep_count
    pending = per_row.copy()
    level = np.empty(n, dtype=idx)
    frontier = np.flatnonzero(pending == 0)
    depth = 0
    while frontier.size:
        if depth == max_depth:
            return None
        level[frontier] = depth
        children = dependents[_ranges(dep_start[frontier], dep_count[frontier])]
        np.subtract.at(pending, children, 1)
        frontier = np.unique(children[pending[children] == 0])
        depth += 1
    block_starts = np.zeros(depth + 1, dtype=idx)
    np.cumsum(np.bincount(level, minlength=depth), out=block_starts[1:])
    return np.argsort(level, kind="stable").astype(idx), block_starts


def _row_cut(h):
    """The row cut of the CSR handle h: (None, block_starts), the rows in
    storage order, _BLOCK at a time."""
    n, idx = h.shape[0], h.indices.dtype
    return None, np.append(np.arange(0, n, _BLOCK), n).astype(idx)


def _choose_cut(h):
    """The cut of the lower-triangular CSR handle h with a full diagonal:
    the level cut when h has at least _ROWS_PER_LEVEL rows per level,
    else the row cut."""
    per_row = np.diff(h.indptr) - 1
    max_depth = h.shape[0] // _ROWS_PER_LEVEL
    cut = None
    # a long chain of rows rules the level cut out before its sweep
    if _chain_length(h, per_row) <= max_depth:
        cut = _level_cut(h, per_row, max_depth)
    order, block_starts = cut or _row_cut(h)
    for arr in (order, block_starts):
        if arr is not None:
            arr.setflags(write=False)
    return _Cut(h.indptr, h.indices, order, block_starts)


class _Schedule(NamedTuple):
    """Forward substitution on a lower-triangular matrix, a block of rows
    at a time, following a ``_Cut``.

    The schedule holds the matrix with its rows in the cut's order and
    its columns renamed to positions of that order, as CSR arrays:
    position i's entries are ``row_starts[i]:row_starts[i + 1]`` of
    ``cols`` and ``vals``, in the matrix's storage order, and ``pivots``
    is the diagonal in the order.  Under the row cut (``order`` None)
    these are the matrix's own arrays, diagonal included; under the
    level cut they are a copy of its off-diagonal entries.

    A block is summed by one call of scipy's compiled CSR row kernel
    while the block's own solution is still 0.0: an entry that refers to
    a row of the block adds a product with 0.0, which leaves a sum
    started from +0.0 as it is.  An entry is inner when it refers to an
    earlier row of its own block, which only the row cut has; a row then
    finishes its sum over its inner entries in Python floats.  The inner
    entries of position i are ``inner_starts[i]:inner_starts[i + 1]`` of
    ``inner_cols`` (a row of the block, from 0) and ``inner_vals``, in
    storage order; the three are None under the level cut.  ``blocks``
    holds one tuple (lo, hi, has_inner) per block: its positions lo:hi
    and whether any of its rows has inner entries.  The arrays are
    read-only and the index arrays use the matrix's index dtype;
    ``blocks`` is Python ints, so that a solve converts nothing on the
    way.
    """

    order: Optional[np.ndarray]
    pivots: np.ndarray
    blocks: tuple
    row_starts: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    inner_starts: Optional[np.ndarray]
    inner_cols: Optional[np.ndarray]
    inner_vals: Optional[np.ndarray]

    @classmethod
    def build(cls, h, pivots, cut):
        """The schedule of the lower-triangular CSR handle h with diagonal
        pivots under cut, a ``_Cut`` of h's pattern."""
        n, idx = h.shape[0], h.indices.dtype
        order, block_starts = cut.order, cut.block_starts
        if order is None:
            row_starts, cols, vals = h.indptr, h.indices, h.data
            first = np.repeat(block_starts[:-1], np.diff(block_starts))  # of each row's block
            # columns are sorted and distinct, so a row's inner entries are
            # among its last i - first[i] off-diagonal entries
            count = np.minimum(np.arange(n, dtype=idx) - first, np.diff(h.indptr) - 1)
            entries = _ranges(h.indptr[1:] - 1 - count, count)
            row = np.repeat(np.arange(n, dtype=idx), count)
            inner = h.indices[entries] >= first[row]
            entries, row = entries[inner], row[inner]
            inner_starts = np.zeros(n + 1, dtype=idx)
            np.cumsum(np.bincount(row, minlength=n), out=inner_starts[1:])
            inner_cols, inner_vals = h.indices[entries] - first[row], h.data[entries]
            has_inner = (np.diff(inner_starts[block_starts]) > 0).tolist()
        else:
            rank = np.empty(n, dtype=idx)  # the position of each row in the order
            rank[order] = np.arange(n, dtype=idx)
            # each row's diagonal is its last stored entry
            per_row = np.diff(h.indptr)[order] - 1
            row_starts = np.zeros(n + 1, dtype=idx)
            np.cumsum(per_row, out=row_starts[1:])
            entries = _ranges(h.indptr[order], per_row)
            cols, vals = rank[h.indices[entries]], h.data[entries]
            pivots = pivots[order]
            inner_starts = inner_cols = inner_vals = None
            has_inner = [False] * (block_starts.size - 1)
        arrays = dict(order=order, pivots=pivots, row_starts=row_starts, cols=cols, vals=vals,
                      inner_starts=inner_starts, inner_cols=inner_cols, inner_vals=inner_vals)
        for arr in arrays.values():
            if arr is not None:
                arr.setflags(write=False)
        at = block_starts.tolist()
        return cls(blocks=tuple(zip(at, at[1:], has_inner)), **arrays)

    def solve(self, b):
        n = b.size
        xs = np.zeros(n)  # the solution in schedule order, 0.0 until solved
        sums = np.zeros(n)
        bs = b if self.order is None else b[self.order]
        row_starts, cols, vals, pivots = self.row_starts, self.cols, self.vals, self.pivots
        lists = None  # the inner entries as Python lists, made once needed
        for lo, hi, has_inner in self.blocks:
            s = sums[lo:hi]
            # the kernel SparseMatrix.matvec runs adds each row's products
            # left to right in storage order onto its 0.0 in s
            _csr_matvec(hi - lo, n, row_starts[lo:hi + 1], cols, vals, xs, s)
            if not has_inner:
                np.divide(np.subtract(bs[lo:hi], s, out=s), pivots[lo:hi], out=xs[lo:hi])
                continue
            if lists is None:
                lists = (self.inner_starts.tolist(), self.inner_cols.tolist(),
                         self.inner_vals.tolist(), bs.tolist(), pivots.tolist())
            starts, inner_cols, inner_vals, bl, pl = lists
            xb = []  # the block's solution so far
            for i, acc in enumerate(s.tolist(), lo):
                # the row's sum goes on over its inner entries, one product
                # at a time in Python floats (the same double arithmetic)
                for j in range(starts[i], starts[i + 1]):
                    acc += inner_vals[j] * xb[inner_cols[j]]
                xb.append((bl[i] - acc) / pl[i])
            xs[lo:hi] = xb
        if self.order is None:
            return xs
        x = np.empty(n)
        x[self.order] = xs
        return x


def _build_schedule(m):
    """The forward-substitution schedule of m, after checking that m is
    lower triangular with a nonzero diagonal, under m's cut."""
    if not m.is_lower_triangular():
        raise ValueError("matrix has entries above the diagonal")
    return _Schedule.build(m._h, _pivots(m), m._lower_cut())


def lower_triangular_solve(m, b):
    """Solve m x = b by forward substitution.

    m must be lower triangular: an entry above the diagonal raises
    ValueError, and a zero or missing diagonal entry raises
    SingularMatrixError naming the first such row.  Row i gives
    x_i = (b_i - s_i) / m_ii, where s_i sums the rounded products
    m_ij x_j of the row's off-diagonal entries left to right in storage
    order, starting from 0.0, as ``SparseMatrix.matvec`` sums a row.
    The rows go block by block (``_Schedule``): one call of scipy's
    compiled CSR row kernel, the one ``SparseMatrix.matvec`` runs, sums
    each block's rows over the entries that refer to earlier blocks,
    and Python floats add those that refer to earlier rows of the same
    block.  With at least ``_ROWS_PER_LEVEL`` rows per dependency level
    the blocks are the levels, which have no such entries; otherwise
    they are runs of ``_BLOCK`` rows in order, and the kernel reads the
    matrix's own arrays.  Neither cut changes a row's arithmetic, so x
    is bitwise the row-by-row result.  The checks and the schedule run
    once per matrix: the first call builds the schedule and caches it on
    m.  The cut depends only on m's pattern; a system matrix that took
    its problem matrix's cut (``SparseMatrix._share_cut``) uses that.
    """
    schedule = m._trisolve_schedule()
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m.n,):
        raise ValueError("right-hand side length mismatch")
    return schedule.solve(b)


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


def _data_lines(fh, first_line, skipped):
    """Yield the lines of fh, whose first is file line first_line, that
    are neither blank nor start with '%' (after leading whitespace);
    skipped gets the number of every other line."""
    for number, line in enumerate(fh, first_line):
        text = line.lstrip()
        if text and text[0] != "%":
            yield line
        else:
            skipped.append(number)


def _file_line(first_line, skipped, k):
    """The file line of data line k (from 0) of _data_lines, given the
    numbers it skipped up to there."""
    number = first_line + k
    for s in skipped:
        if s > number:
            break
        number += 1
    return number


# where numpy's parse message places a bad field: "... at row 0, column 3."
_NUMPY_FIELD = re.compile(r" at row \d+, column (\d+)\.$")


def _parse_error(path, first_line, dtype):
    """ValueError '<path>:<line>: <reason>' for the first data line, from
    first_line on, that is not one record of dtype; None if all parse,
    as when path cannot be read a second time (a pipe, say)."""
    skipped = []
    with open(path, "r", encoding="ascii") as fh:
        lines = _data_lines(itertools.islice(fh, first_line - 1, None), first_line, skipped)
        for k, line in enumerate(lines):
            found = len(line.split())
            if found != len(dtype):
                reason = f"wrong number of fields: expected {len(dtype)}, found {found}"
            else:
                try:
                    np.loadtxt([line], dtype=dtype, comments=None)
                    continue
                except ValueError as exc:
                    reason = _NUMPY_FIELD.sub(r" (field \1)", str(exc))
            return ValueError(f"{path}:{_file_line(first_line, skipped, k)}: {reason}")
    return None


def _load_rows(fh, dtype, path, first_line):
    """Parse the rest of fh, which is path from 1-based line first_line
    on, as one record of dtype per line.  Returns the records and the
    numbers of the lines skipped, from which ``_file_line`` finds the
    line of a record.

    Lines starting with '%' (after leading whitespace) are dropped whole
    and blank lines are skipped; a trailing '%' on a data line is not a
    comment.  A row with a field count other than dtype's, or a field
    its type cannot parse exactly, raises ValueError naming the file and
    line; only then is the file read a second time, line by line.
    """
    skipped = []
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            records = np.loadtxt(_data_lines(fh, first_line, skipped), dtype=dtype,
                                 comments=None, ndmin=1)
    except ValueError as exc:
        raise _parse_error(path, first_line, dtype) or exc from None
    return records, skipped


def read_matrix_market(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header.lower().split() != _MM_HEADER.lower().split():
            raise ValueError(
                f"unsupported MatrixMarket header (need coordinate real general): {header!r}"
            )
        skipped = []
        # _data_lines yields no blank line, so "" means there was none
        size_line = next(_data_lines(fh, 2, skipped), "").strip()
        if not size_line:
            raise ValueError("missing size line")
        parts = size_line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed size line: {size_line!r}")
        nrows, ncols, nnz = (int(p) for p in parts)
        if nrows != ncols:
            raise ValueError("matrix must be square")
        if nrows <= 0 or not 0 <= nnz <= nrows * nrows:
            raise ValueError(f"size line out of range: {size_line!r}")
        # every line between the header and the size line was skipped
        first_entry = 3 + len(skipped)
        entries, skipped = _load_rows(fh, [("i", np.int64), ("j", np.int64), ("v", np.float64)],
                                      path, first_entry)
    if entries.size != nnz:
        raise ValueError(f"expected {nnz} entries, found {entries.size}")
    rows, cols = entries["i"] - 1, entries["j"] - 1
    outside = np.flatnonzero((rows < 0) | (rows >= nrows) | (cols < 0) | (cols >= nrows))
    if outside.size:
        number = _file_line(first_entry, skipped, int(outside[0]))
        raise ValueError(f"{path}:{number}: entry index out of range 1..{nrows}")
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
    with open(path, "r", encoding="ascii") as fh:
        # one field per row, so "1 2" on a line is an error, not two values
        values = _load_rows(fh, [("v", np.float64)], path, 1)[0]["v"]
    if not values.size:
        raise ValueError(f"no values found in {path}")
    return values
