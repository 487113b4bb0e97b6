import re
import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lcpkit import matrix_core, solvers
from lcpkit.convergence import check_hmatrix_conditions
from lcpkit.matrix_core import (
    SingularMatrixError,
    SparseMatrix,
    classify,
    comparison_matrix,
    dlu_split,
    lower_triangular_solve,
    read_matrix_market,
    read_vector,
    spectral_radius_nonneg,
    write_matrix_market,
    write_vector,
)
from lcpkit.problems import BenchSpec, gen_random_hplus
from lcpkit.solvers import ModulusConfig, SolverConfig, _linear_solver_for, shifted_system
from lcpkit.splittings import SplittingKind, custom_splitting, make_splitting


def _dense(rows):
    return np.asarray(rows, dtype=np.float64)


# ----------------------------------------------------------------------
# construction and storage invariants


def test_from_coo_sums_duplicates_and_drops_zeros():
    a = SparseMatrix.from_coo(2, [0, 0, 1, 1], [1, 1, 0, 0], [2.0, 3.0, 1.0, -1.0])
    npt.assert_array_equal(a.to_dense(), [[0.0, 5.0], [0.0, 0.0]])
    assert a.nnz == 1


def test_from_dense_round_trip():
    d = _dense([[4, -1, 0], [0, 0, 2], [-3, 0, 1]])
    a = SparseMatrix.from_dense(d)
    npt.assert_array_equal(a.to_dense(), d)
    assert a.nnz == 5


def test_column_indices_strictly_increasing_per_row():
    a = SparseMatrix.from_coo(3, [0, 0, 2], [2, 0, 1], [1.0, 1.0, 1.0])
    for i in range(3):
        cols = a.col_indices[a.row_starts[i]:a.row_starts[i + 1]]
        assert np.all(np.diff(cols) > 0)


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, [0], [2], [1.0])  # column out of range
    with pytest.raises(ValueError):
        SparseMatrix.from_dense(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SparseMatrix(2, [0, 1, 1], [0], [0.0])  # explicit stored zero
    with pytest.raises(ValueError):
        SparseMatrix(2, [0, 2], [0, 1], [1.0, 1.0])  # row_starts too short
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SparseMatrix(1, [0, 1], [0], [bad])
    with pytest.raises(ValueError, match="finite"):  # overflow while summing
        SparseMatrix.from_coo(1, [0, 0], [0, 0], [1e308, 1e308])


def test_constructors_reject_fractional_dimensions_and_indices():
    # a fraction is refused, not truncated; an integral float is taken
    with pytest.raises(ValueError, match="entry indices must be integral"):
        SparseMatrix.from_coo(2, [0.7, 1], [1.9, 1], [1.0, 2.0])
    for bad in ([np.nan], ["1"], [None]):
        with pytest.raises(ValueError, match="entry indices must be integral"):
            SparseMatrix.from_coo(2, bad, [0], [1.0])
    with pytest.raises(ValueError, match="row_starts must be integral"):
        SparseMatrix(2, [0.0, 1.5, 2.0], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError, match="col_indices must be integral"):
        SparseMatrix(2, [0, 1, 2], [0.5, 1], [1.0, 2.0])
    for n in (2.7, np.inf):
        with pytest.raises(ValueError, match="dimension must be integral"):
            SparseMatrix(n, [0, 1, 2], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="dimension must be integral"):
            SparseMatrix.from_coo(n, [0], [0], [1.0])
    m = SparseMatrix(2.0, [0.0, 1.0, 2.0], [0.0, 1.0], [1.0, 2.0])
    assert m == SparseMatrix.diagonal([1.0, 2.0]) and m.row_starts.dtype == np.int32
    assert SparseMatrix.from_coo(2.0, [1.0], [0.0], [3.0]).to_dense()[1, 0] == 3.0


def test_matrices_are_immutable():
    a = SparseMatrix.from_dense([[2.0, 1.0], [0.0, 3.0]])
    x = np.array([1.0, 10.0])
    before = a.matvec(x)
    with pytest.raises(ValueError):
        a.values[0] = 5.0
    h = a.to_scipy()
    assert type(h) is scipy.sparse.csr_matrix
    with pytest.raises(ValueError):
        h.indices[0] = 1
    with pytest.raises(ValueError):
        h.data[0] = 5.0
    with pytest.raises(ValueError):
        h.indptr[1] = 0
    # the handle is a new view each call: rebinding its arrays leaves a alone
    h.data = np.full(a.nnz, 5.0)
    npt.assert_array_equal(a.matvec(x), before)
    npt.assert_array_equal(a.values, [2.0, 1.0, 3.0])


@pytest.mark.parametrize("row_starts, col_indices, values, match", [
    ([0, 2, 2], [1, 0], [1.0, 1.0], "strictly increasing"),  # unsorted columns
    ([0, 2, 2], [0, 0], [1.0, 1.0], "strictly increasing"),  # duplicate column
    ([0, 1, 1], [-1], [1.0], None),  # negative column
    ([0, 1, 1], [2], [1.0], None),  # column >= n
    ([0, 2, 1], [0], [1.0], None),  # decreasing row_starts
    ([0, 1, 1], [0, 1], [1.0, 1.0], "span"),  # longer than row_starts[-1]
    ([0, 1, 1], [0, 1], [1.0], "mismatch"),  # col_indices longer than values
    ([0, 1, 1], [0], [0.0], "zero"),  # stored zero
], ids=["unsorted", "duplicate", "negative", "too-large", "decreasing-starts",
        "too-long", "cols-too-long", "stored-zero"])
def test_constructor_rejects_malformed_storage(row_starts, col_indices, values, match):
    with pytest.raises(ValueError, match=match):
        SparseMatrix(2, row_starts, col_indices, values)


def test_scaled_underflow_drops_the_entry():
    a = SparseMatrix.diagonal([1e-200, 2.0]).scaled(1e-200)
    assert a.nnz == 1
    assert _canonical(a) == a


def _canonical(m):
    """m, once the validating constructor accepts its storage."""
    return SparseMatrix(m.n, m.row_starts, m.col_indices, m.values)


_EXACT = settings(max_examples=60, deadline=None)
_ENTRY = st.floats(-8.0, 8.0)
_SPARSE_ENTRY = st.one_of(st.just(0.0), _ENTRY)
_SQUARE = st.integers(1, 8).flatmap(
    lambda n: hnp.arrays(np.float64, (n, n), elements=_SPARSE_ENTRY))
_VECTOR = hnp.arrays(np.float64, 8, elements=_ENTRY)  # sliced to n


def _seeded_matvec_examples(test):
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 9)
        d = rng.uniform(-2, 2, (n, n)) * (rng.random((n, n)) < 0.6)
        test = example(d=d, x=rng.uniform(-3, 3, n))(test)
    return test


@_EXACT
@given(d=_SQUARE, x=_VECTOR)
@_seeded_matvec_examples
def test_matvec_matches_dense(d, x):
    # bitwise equal to a left-to-right sum of each row in storage order: the
    # table's bitwise reproducibility rests on this order
    a = SparseMatrix.from_dense(d)
    x = x[:a.n]
    expected = np.zeros(a.n)
    for i in range(a.n):
        acc = 0.0
        for k in range(a.row_starts[i], a.row_starts[i + 1]):
            acc += a.values[k] * x[a.col_indices[k]]
        expected[i] = acc
    assert np.array_equal(a.matvec(x), expected)


# signed zeros, subnormals and products that overflow, besides plain values
_EDGE_ENTRY = st.one_of(_ENTRY, st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300]))


@_EXACT
@given(d=st.integers(1, 8).flatmap(lambda n: hnp.arrays(
           np.float64, (n, n), elements=st.one_of(st.just(0.0), _EDGE_ENTRY))),
       x=hnp.arrays(np.float64, 8, elements=_EDGE_ENTRY))
@example(d=np.full((2, 2), 1e300), x=np.array([1e300, -1e300] * 4))
@example(d=np.diag([5e-324, -1.0]), x=np.array([-0.0, -0.0] * 4))
def test_matvec_into_out_is_matvec(d, x):
    # out is zeroed and summed into by the kernel scipy's product runs on
    # a fresh zeroed vector, whatever out held before, NaN included
    a = SparseMatrix.from_dense(d)
    x = x[:a.n]
    buf = np.full(a.n, np.nan)
    assert a.matvec(x, out=buf) is buf
    assert np.array_equal(buf.view(np.int64), a.matvec(x).view(np.int64))


def test_matvec_rejects_an_out_that_does_not_fit():
    a = SparseMatrix.from_dense([[2.0, 1.0], [0.0, 3.0]])
    x = np.array([1.0, 10.0])
    read_only = np.zeros(2)
    read_only.setflags(write=False)
    for out in (np.zeros(3), np.zeros(1), np.zeros((2, 1)), np.zeros(2, dtype=np.float32),
                np.zeros(2, dtype=np.int64), [0.0, 0.0], x, read_only):
        before = np.array(out, copy=True)
        with pytest.raises(ValueError):
            a.matvec(x, out=out)
        assert np.array_equal(np.asarray(out), before)  # nothing half-written
    with pytest.raises(ValueError):  # x of the wrong length
        a.matvec(np.ones(3), out=np.zeros(2))
    assert np.array_equal(x, [1.0, 10.0])


def _seeded_pair():
    rng = np.random.default_rng(11)
    da = rng.uniform(-1, 1, (4, 4))
    db = rng.uniform(-1, 1, (4, 4)) * (rng.random((4, 4)) < 0.5)
    return da, db


@_EXACT
@given(pair=_SQUARE.flatmap(lambda da: st.tuples(
    st.just(da), hnp.arrays(np.float64, da.shape, elements=_SPARSE_ENTRY))),
    c=_ENTRY, dv=_VECTOR, seed=st.integers(0, 2**32 - 1))
@example(pair=_seeded_pair(), c=-2.5, dv=np.full(8, 3.0), seed=0)
def test_algebra_matches_dense(pair, c, dv, seed):
    da, db = pair
    n = da.shape[0]
    dv = dv[:n]
    a, b = SparseMatrix.from_dense(da), SparseMatrix.from_dense(db)
    for got, want in [
        (a, da),
        (a.add(b), da + db),
        (a.subtract(b), da - db),
        (a.add_diagonal(dv), da + np.diag(dv)),
        (a.add_diagonal(c), da + c * np.eye(n)),
        (a.strict_lower(), np.tril(da, -1)),
        (a.strict_upper(), np.triu(da, 1)),
    ]:
        assert np.array_equal(_canonical(got).to_dense(), want)
    assert np.array_equal(a.scaled(c).to_dense(), c * da)
    assert np.array_equal(a.abs_entrywise().to_dense(), np.abs(da))
    # shuffled triplets of a, then of b or of -a on b's pattern (which cancel
    # or store zeros): at most two per position
    (arows, acols), (brows, bcols) = np.nonzero(da), np.nonzero(db)
    rows, cols = np.concatenate([arows, brows]), np.concatenate([acols, bcols])
    order = np.random.default_rng(seed).permutation(rows.size)
    for second, want in [(db, da + db), (-da, np.where(db != 0.0, 0.0, da))]:
        vals = np.concatenate([da[arows, acols], second[brows, bcols]])
        coo = SparseMatrix.from_coo(n, rows[order], cols[order], vals[order])
        assert np.array_equal(_canonical(coo).to_dense(), want)


# entries and coefficients whose products underflow, and signed zeros
_TINY = st.floats(-1e-150, 1e-150)
_COEFFICIENT = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324]), _ENTRY)
_TRIANGLE_SQUARE = st.integers(1, 8).flatmap(lambda n: hnp.arrays(
    np.float64, (n, n), elements=st.one_of(st.just(0.0), _ENTRY, _TINY)))


@_EXACT
@given(d=_TRIANGLE_SQUARE, diag=hnp.arrays(np.float64, 8, elements=_COEFFICIENT),
       scalar=st.booleans(), lower=_COEFFICIENT, upper=_COEFFICIENT)
@example(d=np.zeros((1, 1)), diag=np.full(8, -2.0), scalar=False, lower=1.0, upper=1.0)
@example(d=_dense([[0, 3], [-2, 0]]), diag=np.full(8, 0.5), scalar=True, lower=-1.0, upper=2.0)
@example(d=_dense([[1, 2, 0], [0, 0, 0], [4, 0, 5]]), diag=np.zeros(8), scalar=False,
         lower=-0.0, upper=1e-300)
def test_by_triangle_is_the_chain_bitwise(d, diag, scalar, lower, upper):
    # n = 1, missing diagonals, empty rows, signed zero and underflowing
    # coefficients: one product per entry gives what the chain of builds
    # gives (no stored value is 0.0, so == compares bits)
    a = SparseMatrix.from_dense(d)
    diag = diag[0] if scalar else diag[:a.n]
    chain = (SparseMatrix.diagonal(np.broadcast_to(diag, (a.n,)))
             .add(a.strict_lower().scaled(lower)).add(a.strict_upper().scaled(upper)))
    assert a._by_triangle(diag, lower, upper) == chain


def test_cancellation_drops_entries():
    a = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    assert a.add(a.scaled(-1.0)).nnz == 0


# ----------------------------------------------------------------------
# every operation is bitwise scipy.sparse's

# signed zeros, values whose products underflow (1e-200 * 1e-200) and
# pairs that cancel exactly when duplicates are summed
_SCIPY_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -1.5, 1e-200, -1e-200, 5e-324, 1e200]), _ENTRY)


@st.composite
def _triplets(draw, n=None):
    """(n, rows, cols, vals): unsorted triplets with duplicates, and with
    every diagonal entry or only some."""
    n = draw(st.integers(1, 6)) if n is None else n
    k = draw(st.integers(0, 3 * n))
    index = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
    rows, cols = draw(index), draw(index)
    vals = draw(st.lists(_SCIPY_VALUE, min_size=k, max_size=k))
    if draw(st.booleans()):
        rows, cols = rows + list(range(n)), cols + list(range(n))
        vals = vals + draw(st.lists(_SCIPY_VALUE.filter(bool), min_size=n, max_size=n))
    return n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals)


def _scipy_canonical(h):
    """h as lcpkit stores a matrix: CSR, duplicates summed, zeros dropped."""
    h = h.tocsr()
    h.sum_duplicates()
    h.eliminate_zeros()
    return h


def _assert_bitwise_scipy(m, h):
    h = _scipy_canonical(h)
    assert m.n == h.shape[0] == h.shape[1]
    for mine, theirs in ((m.row_starts, h.indptr), (m.col_indices, h.indices)):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert m.values.dtype == h.data.dtype
    assert np.array_equal(m.values.view(np.int64), h.data.view(np.int64))


def _triplets_of(dense):
    """The (n, rows, cols, vals) triplets of the nonzero entries of dense."""
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return dense.shape[0], rows, cols, dense[rows, cols]


def _both(t):
    n, rows, cols, vals = t
    h = _scipy_canonical(scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)))
    return SparseMatrix.from_coo(n, rows, cols, vals), h


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _long_row(shuffled):
    """Row 0 of n = 6 as 40 triplets, in column order or shuffled, whose
    duplicates of mixed magnitude sum to other bits in another order."""
    rng = np.random.default_rng(3)
    cols = np.sort(rng.integers(0, 6, 40))
    vals = rng.choice([1e16, -1e16, 1.0, 3.0, 0.1, -0.7], 40)
    order = rng.permutation(40) if shuffled else np.arange(40)
    return 6, np.zeros(40, dtype=np.int64), cols[order], vals[order]


@_EXACT
@given(t=_triplets())
@example(t=(2, np.array([0, 1, 0]), np.array([1, 1, 1]), np.array([1.5, 2.0, -1.5])))
@example(t=(3, np.array([2, 0, 2, 2]), np.array([1, 2, 0, 1]), np.array([1.0, -0.0, 2.0, 4.0])))
@example(t=_long_row(shuffled=False))
@example(t=_long_row(shuffled=True))
def test_from_coo_is_scipy_bitwise(t):
    # a pair that cancels, a stored -0.0, an unsorted row with duplicates;
    # a sorted row's duplicates are summed unsorted, in input order
    m, h = _both(t)
    _assert_bitwise_scipy(m, h)


@_EXACT
@given(ts=st.integers(1, 6).flatmap(lambda n: st.tuples(_triplets(n), _triplets(n))))
def test_add_and_subtract_are_scipy_bitwise(ts):
    (a, ha), (b, hb) = _both(ts[0]), _both(ts[1])
    _assert_bitwise_scipy(a.add(b), ha + hb)
    _assert_bitwise_scipy(a.subtract(b), ha - hb)
    # every entry cancels
    _assert_bitwise_scipy(a.subtract(a), ha - ha)


@_EXACT
@given(t=_triplets(), d=hnp.arrays(np.float64, 6, elements=_SCIPY_VALUE),
       cancel=hnp.arrays(bool, 6), lower=_COEFFICIENT, upper=_COEFFICIENT, scalar=st.booleans())
@example(t=(2, np.array([0, 1]), np.array([0, 1]), np.array([1e-200, 2.0])),
         d=np.array([-0.0, 0.0, 0, 0, 0, 0]), cancel=np.array([False, True, 0, 0, 0, 0], bool),
         lower=1e-200, upper=1.0, scalar=False)
# _by_triangle(d, lower, 0.0), as M is built: with a full diagonal, with
# row 1's diagonal missing, and with a lower coefficient under which
# 1e-200 * a_ij underflows to zero
@example(t=_triplets_of([[2.0, -1.0, 0.5], [-1.0, 3.0, 0.0], [0.25, -1.0, 4.0]]),
         d=np.array([1.0, -0.0, 2.5, 0, 0, 0]), cancel=np.zeros(6, bool),
         lower=-0.5, upper=0.0, scalar=False)
@example(t=_triplets_of([[2.0, -1.0, 0.5], [-1.0, 0.0, -2.0], [0.25, -1.0, 4.0]]),
         d=np.array([1.0, 0.0, 2.5, 0, 0, 0]), cancel=np.zeros(6, bool),
         lower=-0.5, upper=0.0, scalar=False)
@example(t=_triplets_of([[2.0, -1.0, 0.0], [1e-200, 3.0, 7.0], [-1.0, 1e-200, 4.0]]),
         d=np.array([1.0, 1.5, 0, 0, 0, 0]), cancel=np.array([0, 0, 1, 0, 0, 0], bool),
         lower=1e-200, upper=0.0, scalar=False)
def test_diagonal_builds_are_scipy_bitwise(t, d, cancel, lower, upper, scalar):
    # d holds signed zeros, and where cancel is set -a_ii, so that the sum
    # is exactly zero; with a full diagonal the result shares a's index
    # arrays unless an entry is dropped
    a, h = _both(t)
    d = np.where(cancel[:a.n], -a.diagonal_vector(), d[:a.n])
    d = d[0] if scalar else d
    full = a.nnz and np.all(a.diagonal_vector() != 0.0)
    dh = scipy.sparse.diags(np.broadcast_to(d, (a.n,)))
    for got, want in ((a.add_diagonal(d), h + dh),
                      (a._by_triangle(d, lower, upper),
                       scipy.sparse.tril(h, -1) * lower + scipy.sparse.triu(h, 1) * upper + dh)):
        _assert_bitwise_scipy(got, want)
        if full and got.nnz == a.nnz:
            assert got.row_starts is a.row_starts and got.col_indices is a.col_indices
    # got is _by_triangle's result, the loop's last: built on the
    # sub-pattern of the triangles it keeps, unless an entry is dropped or
    # a missing diagonal entry merged in
    kept = (lower != 0.0, bool(np.any(d != 0.0)), upper != 0.0)
    sub = a._pattern.sub(*kept)[0]
    if (full or not kept[1]) and got.nnz == sub.col_indices.size:
        assert got._pattern is sub


_NONZERO_COEFFICIENT = _COEFFICIENT.filter(bool)


@_EXACT
@given(t=_triplets(), kept=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       d=hnp.arrays(np.float64, 6, elements=_SCIPY_VALUE.filter(bool)), scalar=st.booleans(),
       lower=_NONZERO_COEFFICIENT, upper=_NONZERO_COEFFICIENT, zero=st.sampled_from([0.0, -0.0]))
@example(t=_triplets_of([[2.0, -1.0, 0.5], [-1.0, 3.0, 0.0], [0.25, 0.0, 4.0]]),
         kept=(False, False, True), d=np.ones(6), scalar=False, lower=1.0, upper=-1.0, zero=-0.0)
def test_by_triangle_is_scipy_bitwise_with_any_zero_coefficient(t, kept, d, scalar, lower, upper,
                                                                zero):
    # the diagonal (a scalar or a vector), the lower and the upper
    # coefficient each zero or not, in every combination: a build drops
    # the triangles of its zero ones from its sub-pattern, and gives what
    # scipy's tril, triu, scaling and + give, bit for bit; unless an
    # entry is dropped or a missing diagonal entry merged in, it is built
    # on that sub-pattern
    a, h = _both(t)
    d = np.where(kept[1], d[:a.n], zero)
    d = d[0] if scalar else d
    lower, upper = (c if keep else zero for c, keep in ((lower, kept[0]), (upper, kept[2])))
    got = a._by_triangle(d, lower, upper)
    _assert_bitwise_scipy(got, scipy.sparse.tril(h, -1) * lower + scipy.sparse.triu(h, 1) * upper
                          + scipy.sparse.diags(np.broadcast_to(d, (a.n,))))
    sub = a._pattern.sub(*kept)[0]
    full = np.all(a.diagonal_vector() != 0.0)
    if (full or not kept[1]) and got.nnz == sub.col_indices.size:
        assert got._pattern is sub


@_EXACT
@given(t=_triplets(), c=_COEFFICIENT, x=hnp.arrays(np.float64, 6, elements=_SCIPY_VALUE))
@example(t=(1, np.array([0]), np.array([0]), np.array([1e-200])), c=1e-200,
         x=np.array([-0.0] * 6))
def test_unary_operations_are_scipy_bitwise(t, c, x):
    # c * a_ij may underflow to zero; x holds signed zeros
    a, h = _both(t)
    x = x[:a.n]
    _assert_bitwise_scipy(a.scaled(c), h * c)
    _assert_bitwise_scipy(a.abs_entrywise(), abs(h))
    d = scipy.sparse.diags(h.diagonal())
    _assert_bitwise_scipy(comparison_matrix(a), abs(d) - abs(h - d))
    assert np.array_equal(_bits(a.diagonal_vector()), _bits(h.diagonal()))
    assert np.array_equal(_bits(a.to_dense()), _bits(h.toarray()))
    assert np.array_equal(_bits(a.matvec(x)), _bits(h @ x))


def test_structure_predicates():
    low = SparseMatrix.from_dense([[2, 0], [-1, 4]])
    assert low.is_lower_triangular() and not low.is_diagonal()
    assert SparseMatrix.diagonal([1.0, 2.0]).is_diagonal()
    assert not SparseMatrix.from_dense([[0, 1], [0, 0]]).is_lower_triangular()


@_EXACT
@given(d=_SQUARE)
def test_structure_predicates_match_dense(d):
    a = SparseMatrix.from_dense(d)
    assert a.is_lower_triangular() == np.array_equal(d, np.tril(d))
    assert a.is_diagonal() == np.array_equal(d, np.diag(np.diag(d)))


# ----------------------------------------------------------------------
# D - L - U decomposition


def test_dlu_sign_convention():
    a = SparseMatrix.from_dense([[4, -1], [-2, 5]])
    parts = dlu_split(a)
    npt.assert_array_equal(parts.d, [4.0, 5.0])
    npt.assert_array_equal(parts.l.to_dense(), [[0, 0], [2, 0]])
    npt.assert_array_equal(parts.u.to_dense(), [[0, 1], [0, 0]])


def test_dlu_identity():
    parts = dlu_split(SparseMatrix.identity(3))
    npt.assert_array_equal(parts.d, np.ones(3))
    assert parts.l.nnz == 0 and parts.u.nnz == 0


def test_dlu_block_instance():
    # 4x4 block case: both triangles carry +1 at the mirrored positions
    a = SparseMatrix.from_dense(
        [[8, -1, -1, 0], [-1, 8, 0, -1], [-1, 0, 8, -1], [0, -1, -1, 8]]
    )
    parts = dlu_split(a)
    npt.assert_array_equal(parts.d, [8.0, 8.0, 8.0, 8.0])
    expected_l = np.tril(-a.to_dense(), -1)
    npt.assert_array_equal(parts.l.to_dense(), expected_l)
    npt.assert_array_equal(parts.u.to_dense(), expected_l.T)


def test_dlu_reassembles_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = rng.integers(1, 10)
        d = rng.uniform(-5, 5, (n, n)) * (rng.random((n, n)) < 0.7)
        a = SparseMatrix.from_dense(d)
        assert dlu_split(a).reassemble() == a


# ----------------------------------------------------------------------
# comparison matrix and classification


def test_comparison_matrix_examples():
    npt.assert_array_equal(
        comparison_matrix(SparseMatrix.from_dense([[4, -1], [2, 3]])).to_dense(),
        [[4, -1], [-2, 3]],
    )
    ident = SparseMatrix.identity(2)
    assert comparison_matrix(ident) == ident
    npt.assert_array_equal(
        comparison_matrix(SparseMatrix.from_dense([[-2, 1], [1, -2]])).to_dense(),
        [[2, -1], [-1, 2]],
    )


def test_classify_textbook_m_matrix():
    rep = classify(SparseMatrix.from_dense([[2, -1], [-1, 2]]), p_matrix_limit=8)
    assert rep.is_z and rep.is_m and rep.is_h and rep.is_h_plus and rep.is_p
    assert rep.witness_v is not None and np.all(rep.witness_v > 0)


def test_classify_indefinite_z_matrix():
    rep = classify(SparseMatrix.from_dense([[1, -2], [-2, 1]]), p_matrix_limit=8)
    assert rep.is_z and not rep.is_m and rep.is_p is False


def test_classify_block_instance():
    a = SparseMatrix.from_dense(
        [[8, -1, -1, 0], [-1, 8, 0, -1], [-1, 0, 8, -1], [0, -1, -1, 8]]
    )
    rep = classify(a, p_matrix_limit=8)
    assert rep.is_z and rep.is_m and rep.is_h_plus and rep.is_p


def test_classify_guards():
    a = SparseMatrix.identity(3)
    with pytest.raises(ValueError):
        classify(a, p_matrix_limit=21)
    assert classify(a, p_matrix_limit=2).is_p is None
    with pytest.raises(ValueError):
        classify(np.eye(2))


def test_comparison_matrix_is_always_z():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = rng.integers(1, 8)
        a = SparseMatrix.from_dense(rng.uniform(-2, 2, (n, n)))
        assert classify(comparison_matrix(a), p_matrix_limit=0).is_z


def _random_dominant(rng, n, signed):
    """Strictly diagonally dominant dense matrix; signed=True mixes
    off-diagonal signs (H-matrix), False keeps them nonpositive (M-matrix)."""
    off = rng.uniform(-1, 1, (n, n)) if signed else rng.uniform(-1, 0, (n, n))
    np.fill_diagonal(off, 0.0)
    d = np.abs(off).sum(axis=1) + rng.uniform(0.1, 1.5, n)
    np.fill_diagonal(off, d)
    return off


def test_h_matrix_inverse_bound():
    # |inv(A)| <= inv(<A>) entrywise for H-matrices
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        d = _random_dominant(rng, n, signed=True)
        a = SparseMatrix.from_dense(d)
        assert classify(a, p_matrix_limit=0).is_h
        lhs = np.abs(np.linalg.inv(d))
        rhs = np.linalg.inv(comparison_matrix(a).to_dense())
        assert np.all(lhs <= rhs + 1e-10)


def test_m_splitting_radius_below_one():
    # for an M-matrix, rho(inv(D) (L+U)) < 1
    rng = np.random.default_rng(29)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        d = _random_dominant(rng, n, signed=False)
        a = SparseMatrix.from_dense(d)
        parts = dlu_split(a)
        t = (parts.l.add(parts.u)).to_dense() / parts.d[:, None]
        est = spectral_radius_nonneg(t)
        assert est.converged and est.value < 1.0


def test_positive_vector_certificate_implies_radius_below_one():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        t = rng.uniform(0, 1, (n, n))
        t /= t.sum(axis=1).max() * rng.uniform(1.05, 3.0)
        assert np.all(t @ np.ones(n) < np.ones(n))
        assert spectral_radius_nonneg(t).value < 1.0 + 1e-10


def test_p_matrix_agrees_with_m_probe_on_z_matrices():
    # a Z-matrix is a nonsingular M-matrix iff it is a P-matrix
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        off = rng.uniform(-1, 0, (n, n))
        np.fill_diagonal(off, rng.uniform(0.2, 3.0, n))
        rep = classify(SparseMatrix.from_dense(off), p_matrix_limit=8)
        assert rep.is_z
        assert rep.is_m == rep.is_p


def _z_or_any(t):
    """The square array, or with its off-diagonal made nonpositive (a
    Z-matrix whose diagonal keeps its signs)."""
    d, make_z = t
    if not make_z:
        return d
    z = -np.abs(d)
    np.fill_diagonal(z, np.diag(d))
    return z


@_EXACT
@given(d=st.tuples(_SQUARE, st.booleans()).map(_z_or_any))
@example(d=_random_dominant(np.random.default_rng(53), 5, signed=False))
@example(d=_random_dominant(np.random.default_rng(53), 5, signed=False) * np.where(np.eye(5), -1.0, 1.0))
@example(d=np.array([[2.0, -1.0], [-1.0, -2.0]]))
@example(d=np.array([[2.0, 1.0], [1.0, 2.0]]))
@example(d=np.array([[2.0, 1.0], [0.0, 2.0]]))
def test_classify_h_probe_is_the_comparison_probe(d):
    # a Z-matrix with nonnegative diagonal is its own comparison matrix, and
    # classify answers is_h there from the M probe alone; the probe itself
    # says "not M" for a matrix that is not a Z-matrix, triangular or not
    a = SparseMatrix.from_dense(d)
    rep = classify(a, p_matrix_limit=0)
    assert rep.is_h is matrix_core._m_probe(comparison_matrix(a))
    assert rep.is_m is matrix_core._m_probe(a)
    assert rep.is_z or not rep.is_m


@_EXACT
@given(d=st.tuples(_SQUARE, st.booleans()).map(_z_or_any))
@example(d=_random_dominant(np.random.default_rng(53), 5, signed=False))
@example(d=np.array([[2.0, -1.0], [-1.0, -2.0]]))
@example(d=np.array([[2.0, 1.0], [0.0, 2.0]]))
def test_check_h_plus_is_classify_h_plus(d):
    # check probes <A> alone for H+, classify probes A when it is a
    # Z-matrix with nonnegative diagonal; they must agree
    a = SparseMatrix.from_dense(d)
    try:
        s = make_splitting(a, SplittingKind.npgs())
    except ValueError:
        return
    assert check_hmatrix_conditions(a, s).h_plus is classify(a, 0).is_h_plus


def test_classify_decides_triangular_z_matrices_without_a_solve(monkeypatch):
    # the solution of A v = 1 grows like 24^i here and overflows, but a
    # triangular Z-matrix is an M-matrix exactly when its diagonal is positive
    monkeypatch.setattr(matrix_core, "_m_matrix_witness", lambda m: pytest.fail("solved"))
    n = 600
    lower = SparseMatrix.from_coo(n, [*range(n), *range(1, n)], [*range(n), *range(n - 1)],
                                  [0.5] * n + [-12.0] * (n - 1))
    upper = SparseMatrix.from_coo(n, [*range(n), *range(n - 1)], [*range(n), *range(1, n)],
                                  [0.5] * n + [-12.0] * (n - 1))
    for a in (lower, upper):
        rep = classify(a, p_matrix_limit=0)
        assert rep.is_z and rep.is_m and rep.is_h and rep.is_h_plus
        assert rep.witness_v is None
    # a nonpositive pivot: not an M-matrix, but an H-matrix while no pivot is 0
    for pivots, is_h in (([0.5, -1.0, 2.0], True), ([0.5, 0.0, 2.0], False)):
        a = SparseMatrix.from_dense(np.diag(pivots) - np.eye(3, k=-1))
        rep = classify(a, p_matrix_limit=0)
        assert rep.is_z and not rep.is_m and rep.is_h is is_h and not rep.is_h_plus


def test_solve_witness_must_verify(monkeypatch):
    # singular, z @ ones = 0: the Jacobi bracket sits on 1 and leaves the
    # verdict to the solve, whose positive v must then pass z v > 0
    import scipy.sparse.linalg

    z = SparseMatrix.from_dense(3.0 * np.eye(3) - np.ones((3, 3)))
    assert matrix_core._jacobi_verdict(z) is None
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", lambda m, b: np.ones(3))
    rep = classify(z, p_matrix_limit=0)
    assert rep.is_z and not rep.is_m and rep.witness_v is None
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", lambda m, b: np.array([1.0, 1.0, 2.0]))
    assert not classify(z, p_matrix_limit=0).is_m  # z v = (-1, -1, 2)


# each case's Z-matrix, its _m_verdict and the solves classify makes for it
_SOLVE_CASES = {
    # rho(inv(D) B) = 1 / (1 + 1e-6): the Jacobi bracket does not decide in
    # its passes, so the M test solves A v = ones, and that solve's v is
    # the witness
    "undecided": (lambda: _z_matrix(6, 3, 1e-6), None, 1),
    # the bracket decides "M", and the one solve is for the witness alone
    "bracket_m": (lambda: _random_dominant(np.random.default_rng(53), 5, signed=False), True, 1),
    # the bracket decides "not M": no witness to solve for
    "bracket_not_m": (lambda: np.array([[1.0, -2.0], [-2.0, 1.0]]), False, 0),
    # a triangular Z-matrix is decided from its diagonal, without a solve
    "triangular": (lambda: np.diag([0.5, 2.0, 1.0]) - np.eye(3, k=-1), True, 0),
}


@pytest.mark.parametrize("case", _SOLVE_CASES)
def test_classify_solves_once_when_the_bracket_does_not_decide(monkeypatch, case):
    import scipy.sparse.linalg

    dense, verdict, solved = _SOLVE_CASES[case]
    z = SparseMatrix.from_dense(dense())
    assert matrix_core._m_verdict(z) is verdict
    want = matrix_core._m_matrix_witness(z) if solved else None
    solves = []
    spsolve = scipy.sparse.linalg.spsolve
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                        lambda *args, **kwargs: solves.append(args) or spsolve(*args, **kwargs))
    rep = classify(z, p_matrix_limit=0)
    assert len(solves) == solved
    assert rep.is_z and rep.is_m is (verdict is not False) and rep.is_h_plus is rep.is_m
    if solved:
        assert np.array_equal(_bits(rep.witness_v), _bits(want))
    else:
        assert rep.witness_v is None


def _z_matrix(n, seed, delta):
    """A random n x n Z-matrix; with delta, s I - B with its rows and
    columns scaled, where B >= 0 has a zero diagonal and s = rho(B)
    (1 + delta), so that rho(inv(D) B) = 1 / (1 + delta) up to rounding."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(b, 0.0)
    rho = float(np.abs(np.linalg.eigvals(b)).max())
    if delta is None or rho == 0.0:
        return np.diag(rng.uniform(0.1, 3.0, n)) - b
    z = rho * (1.0 + delta) * np.eye(n) - b
    return rng.uniform(0.5, 2.0, (n, 1)) * z * rng.uniform(0.5, 2.0, n)


_NEAR_ONE = st.one_of(st.none(), st.sampled_from([-1e-12, -1e-13, 0.0, 1e-13, 1e-12]),
                      st.floats(-1e-12, 1e-12))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), delta=_NEAR_ONE)
# a full 3 x 3 M-matrix that the Jacobi bracket decides
@example(n=3, seed=0, delta=None)
def test_verified_m_verdicts_hold_in_exact_arithmetic(n, seed, delta):
    from unittest import mock

    z = SparseMatrix.from_dense(_z_matrix(n, seed, delta))
    verified = []
    check = matrix_core._verified_positive

    def record(terms, u):
        if check(terms, u):
            verified.append((terms, u.copy()))
            return True
        return False

    # classify checks the u of its witness solve as well as the probe's;
    # the probe's own vectors are counted before classify runs
    with mock.patch.object(matrix_core, "_verified_positive", record):
        is_m = matrix_core._m_probe(z)
        probe_verified = len(verified)
        classify(z, p_matrix_limit=0)
    triangle = z._triangle()
    if is_m and not (np.all(triangle <= 0) or np.all(triangle >= 0)):
        assert probe_verified  # off the triangular path, only a verified u says M
    for terms, u in verified:
        assert all(x > 0 for x in u.tolist())
        assert all(row > 0 for row in _exact_rows(terms, u))


def _exact_rows(terms, u):
    """sum_j s_j P_j u, row by row, in exact rational arithmetic."""
    from fractions import Fraction

    exact = [Fraction(x) for x in u.tolist()]
    rows = [Fraction(0)] * u.size
    for sign, m in terms:
        for i, row in enumerate(m.to_dense().tolist()):
            rows[i] += sign * sum(Fraction(a) * x for a, x in zip(row, exact) if a)
    return rows


def _single_matrix_check(z, u):
    """The positive-vector check as it stood for one assembled matrix z,
    kept as the reference for the one-term call."""
    if u.shape != (z.n,) or not np.all(u > 0.0) or not np.all(np.isfinite(u)):
        return False
    per_row = np.diff(z.row_starts)
    with np.errstate(over="ignore", invalid="ignore"):
        zu = z.matvec(u)
        magnitude = matrix_core._product(z, np.abs(z.values), u)
        bound = matrix_core._gamma(int(per_row.max())) * magnitude + per_row * matrix_core._TINY
    return bool(np.all(zu > bound) and np.all(np.isfinite(bound)))


# u entries that underflow products, sit at the edges of the float range,
# or are not positive and finite
_U_ENTRY = st.one_of(st.just(1.0), st.floats(0.5, 2.0), st.floats(1e-320, 1e-150),
                     st.sampled_from([0.0, -1.0, np.nan, np.inf, 5e-324, 1e300]))


@st.composite
def _matrix_and_u(draw):
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        dense = _z_matrix(n, draw(st.integers(0, 2**32 - 1)), draw(_NEAR_ONE))
    else:
        entries = st.one_of(st.just(0.0), _ENTRY, _TINY)
        dense = draw(hnp.arrays(np.float64, (n, n), elements=entries))
    u = draw(st.one_of(st.just(np.ones(n)), hnp.arrays(np.float64, n, elements=_U_ENTRY)))
    return SparseMatrix.from_dense(dense), u


@settings(max_examples=200, deadline=None)
@given(case=_matrix_and_u())
@example(case=(SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]]), np.ones(2)))
# row 0 of z u is 2^-52 exactly, positive but inside the rounding bound
@example(case=(SparseMatrix.from_dense([[1.0, 2.0**-52 - 1.0], [0.0, 1.0]]), np.ones(2)))
@example(case=(SparseMatrix.from_dense([[1e-200, 0.0], [0.0, 1.0]]), np.array([1e-200, 1.0])))
def test_verified_positive_one_term_matches_the_single_matrix_check(case):
    z, u = case
    assert matrix_core._verified_positive([(1, z)], u) is _single_matrix_check(z, u)


def test_verified_positive_refuses_an_overflowing_bound():
    # 1.5 u - u > 0 holds exactly, and the computed sum is finite, but
    # 1.5 u + u overflows: an infinite rounding bound, which no row
    # exceeds; so too a sum that overflows, or that is inf - inf
    ident = SparseMatrix.identity(3)
    u = np.full(3, 1e308)
    for terms, at_ones in (([(1, ident.scaled(1.5)), (-1, ident)], True),
                           ([(1, ident.scaled(2.0))], True),
                           ([(1, ident.scaled(2.0)), (-1, ident.scaled(2.0))], False)):
        assert matrix_core._verified_positive(terms, np.ones(3)) is at_ones
        assert not matrix_core._verified_positive(terms, u)


# entries that cancel (2^53 absorbs 1), underflow, or take either sign
_SIGNED_ENTRY = st.one_of(st.just(0.0), st.floats(-2.0, 2.0), st.floats(-1e-160, 1e-160),
                          st.sampled_from([1.0, -1.0, 0.5, 2.0**53, -(2.0**53), 5e-324]))
_MIXED_SIGN_T = [[1.0, 2.0**53, -(2.0**53)], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]
_UNDERFLOWING_PRODUCTS = [[0.6, 0.6, -1.4], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@st.composite
def _signed_terms_and_u(draw):
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        # the identity; a fresh matrix; or a previous term's matrix, scaled
        # by a power of two or nudged by an ulp, so that terms nearly cancel
        options = [st.just(np.eye(n)), hnp.arrays(np.float64, (n, n), elements=_SIGNED_ENTRY)]
        if terms:
            previous = st.sampled_from([dense for _, dense in terms])
            options.append(st.builds(np.multiply, previous,
                                     st.sampled_from([1.0, 0.5, 1.0 + 2.0**-52, 1.0 - 2.0**-53])))
        terms.append((draw(st.sampled_from([1, -1])), draw(st.one_of(options))))
    u = draw(st.one_of(st.just(np.ones(n)), hnp.arrays(np.float64, n, elements=st.one_of(
        st.floats(0.5, 2.0), st.floats(1e-320, 1e-150), st.sampled_from([5e-324, 1e-323])))))
    return terms, u


@settings(max_examples=300, deadline=None)
@given(case=_signed_terms_and_u())
@example(case=([(1, np.eye(3)), (-1, np.array(_MIXED_SIGN_T))], np.ones(3)))
@example(case=([(1, np.array(_UNDERFLOWING_PRODUCTS))], np.full(3, 5e-324)))
def test_verified_positive_terms_hold_in_exact_arithmetic(case):
    # row 0 of the mixed-sign example is 1 - (1 + 2^53 - 2^53) = 0 exactly,
    # while the float sum is 1: only a bound on |T| u refuses it.  Row 0
    # of the underflowing example is (0.6 + 0.6 - 1.4) 2^-1074 < 0 exactly,
    # while its products round to 2^-1074, 2^-1074 and -2^-1074, whose sum
    # is positive and whose gamma-scaled magnitude underflows to 0: only
    # the smallest subnormal per product refuses it
    terms = [(sign, SparseMatrix.from_dense(dense)) for sign, dense in case[0]]
    u = case[1]
    if matrix_core._verified_positive(terms, u):
        assert all(row > 0 for row in _exact_rows(terms, u))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), delta=_NEAR_ONE)
def test_jacobi_bracket_agrees_with_the_solve(n, seed, delta):
    dense = _z_matrix(n, seed, delta)
    z = SparseMatrix.from_dense(dense)
    bracket = matrix_core._jacobi_verdict(z)
    if bracket is None:
        return
    assert bracket is (matrix_core._m_matrix_witness(z) is not None)
    d = np.diag(dense)
    if np.all(d > 0.0):
        rho = float(np.abs(np.linalg.eigvals((np.diag(d) - dense) / d[:, None])).max())
        assert bracket is (rho < 1.0) or abs(rho - 1.0) < 1e-9


# ----------------------------------------------------------------------
# spectral radius estimation


def test_spectral_radius_known_values():
    assert spectral_radius_nonneg(np.diag([2.0, 3.0])).value == pytest.approx(3.0)
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert spectral_radius_nonneg(perm).value == pytest.approx(1.0)
    ones = np.ones((2, 2))
    assert spectral_radius_nonneg(ones).value == pytest.approx(2.0)


def test_spectral_radius_operator_forms():
    a = SparseMatrix.diagonal([2.0, 5.0])
    assert spectral_radius_nonneg(a).value == pytest.approx(5.0)
    apply_t = lambda x: 0.25 * x
    est = spectral_radius_nonneg(apply_t, n=3)
    assert est.value == pytest.approx(0.25)
    with pytest.raises(ValueError):
        spectral_radius_nonneg(apply_t)  # callable without a dimension


def test_spectral_radius_iteration_cap():
    est = spectral_radius_nonneg(np.diag([2.0, 3.0]), max_iters=1)
    assert not est.converged and est.iterations == 1


def test_spectral_radius_zero_operator():
    est = spectral_radius_nonneg(np.zeros((3, 3)))
    assert abs(est.value) < 1e-12 and est.converged


def test_spectral_radius_bracket_and_threshold_stop():
    t = np.diag([2.0, 3.0])
    free = spectral_radius_nonneg(t)
    # no threshold, no bracket: the point iteration alone
    assert (free.lower, free.upper) == (0.0, np.inf)
    for threshold in (3.5, 1.5):  # the first pass decides either side
        est = spectral_radius_nonneg(t, threshold=threshold)
        assert est.converged and est.iterations == 1
        # (Tv)_i / v_i is the diagonal, up to the rounding of T v and the division
        assert (est.lower, est.upper) == pytest.approx((2.0, 3.0), rel=1e-15)
    # a bracket that straddles the threshold leaves the point iteration as is
    est = spectral_radius_nonneg(t, threshold=2.5)
    assert est[:3] == free[:3]
    assert (est.lower, est.upper) == pytest.approx((2.0, 3.0), rel=1e-15)
    # the bracket tightens as v approaches the Perron vector
    rho = 1.0 + np.sqrt(6.0)
    est = spectral_radius_nonneg(np.array([[1.0, 2.0], [3.0, 1.0]]), threshold=rho + 1e-12)
    assert est.upper - est.lower < 1e-8
    assert est.lower <= rho <= est.upper


def test_spectral_radius_bracket_after_underflow():
    # v_0 underflows to 0 by the fifth pass while the other two components
    # still converge: such a pass raises the lower end over the positive
    # components only, and gives no upper end; the threshold stays inside
    # the bracket, so the iteration runs to its point value
    t = np.diag([0.0, 1e80, 0.5e80])
    est = spectral_radius_nonneg(t, threshold=0.75e80)
    assert est.iterations > 5
    assert (est.lower, est.upper) == pytest.approx((0.5e80, 1e80), rel=1e-15)
    assert est[:3] == spectral_radius_nonneg(t)[:3]


# nonnegative matrices: general ones of moderate entries, and upper
# triangles (whose eigenvalues, their diagonal, numpy finds exactly) with
# entries large enough that a component of v underflows to 0
_NONNEG = st.integers(1, 6).flatmap(lambda n: st.one_of(
    hnp.arrays(np.float64, (n, n), elements=st.one_of(st.just(0.0), st.floats(0.01, 4.0))),
    hnp.arrays(np.float64, (n, n),
               elements=st.sampled_from([0.0, 0.5, 2.0, 5.0, 1e100, 1e150])).map(np.triu)))
# v_0 carries rho = 5 but underflows to 0 by the fourth pass, while the
# ratios of the positive components are at most 3
_CHAIN = np.diag([5.0, 0.0, 0.0, 0.0, 0.0]) + np.diag([0.0, 1e150, 1e150, 1e150], 1)


@settings(max_examples=80, deadline=None)
@given(t=_NONNEG, scale=st.sampled_from([0.5, 0.9, 1.1, 2.0]))
@example(t=_CHAIN, scale=0.6)
@example(t=_CHAIN, scale=1.2)
@example(t=np.diag([0.0, 1e80, 0.5e80]), scale=0.75)
def test_spectral_radius_upper_end_bounds_rho(t, scale):
    # every finite upper end of the bracket is at least rho(T), whichever
    # component of v underflows, up to the rounding of numpy's eigenvalues
    rho = float(np.abs(np.linalg.eigvals(t)).max())
    est = spectral_radius_nonneg(t, threshold=scale * rho if rho > 0.0 else scale, max_iters=60)
    assert est.upper == np.inf or est.upper >= rho * (1.0 - 1e-6)


def test_spectral_radius_vector_is_the_deciding_pass_input():
    t = np.array([[0.3, 0.2, 0.0], [0.1, 0.4, 0.3], [0.0, 0.5, 0.2]])
    est = spectral_radius_nonneg(t, threshold=0.75)
    # decided by its upper end after more than one pass
    assert est.converged and est.iterations > 1 and est.upper < 0.75
    assert not est.vector.flags.writeable
    # the bracket of T applied to the vector is the one that decided
    assert matrix_core._collatz_wielandt(t @ est.vector, est.vector)[1] == est.upper
    # the undecided and the capped runs report the last vector applied too
    first = np.ones(3) / np.sqrt(3)
    np.testing.assert_array_equal(spectral_radius_nonneg(t, max_iters=1).vector, first)
    w = t @ first + first
    np.testing.assert_array_equal(spectral_radius_nonneg(t, max_iters=2).vector,
                                  w / float(np.linalg.norm(w)))


def test_spectral_radius_rejects_a_run_that_cannot_stop_or_start():
    # a nan tol never stops the iteration before its cap, and no pass
    # gives no estimate
    t = np.diag([2.0, 3.0])
    for tol in (np.nan, 0.0, -1e-10):
        with pytest.raises(ValueError, match="tol must be positive"):
            spectral_radius_nonneg(t, tol=tol)
    for max_iters in (0, -1):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            spectral_radius_nonneg(t, max_iters=max_iters)


def test_spectral_radius_takes_integral_counts_only():
    # 2.0 is taken as 2; a fraction, which range or int() would refuse or
    # truncate, and an empty operator, which would "converge" at once,
    # raise ValueError
    t = np.diag([2.0, 3.0])
    est = spectral_radius_nonneg(t, max_iters=2.0)
    assert est.iterations == 2 and est.value == spectral_radius_nonneg(t, max_iters=2).value
    with pytest.raises(ValueError, match="max_iters must be integral"):
        spectral_radius_nonneg(t, max_iters=2.5)
    apply_t = lambda x: 0.25 * x
    with pytest.raises(ValueError, match="dimension must be integral"):
        spectral_radius_nonneg(apply_t, n=2.5)
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension must be positive"):
            spectral_radius_nonneg(apply_t, n=n)
    with pytest.raises(ValueError, match="dimension must be positive"):
        spectral_radius_nonneg(np.zeros((0, 0)))


@settings(max_examples=80, deadline=None)
@given(t=st.integers(1, 8).flatmap(lambda n: hnp.arrays(
    np.float64, (n, n), elements=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))),
    threshold=st.one_of(st.none(), st.floats(0.0, 20.0)))
def test_spectral_radius_bracket_contains_rho(t, threshold):
    rho = float(np.abs(np.linalg.eigvals(t)).max())
    est = spectral_radius_nonneg(t, threshold=threshold)
    slack = 1e-9 * max(1.0, rho)
    assert est.lower - slack <= rho <= est.upper + slack
    if threshold is not None and est.converged and est.upper < threshold:
        assert rho < threshold + slack


# ----------------------------------------------------------------------
# triangular solve


def test_forward_substitution_examples():
    m = SparseMatrix.from_dense([[2, 0], [-1, 4]])
    npt.assert_allclose(lower_triangular_solve(m, np.array([2.0, 3.0])), [1.0, 1.0])
    ident = SparseMatrix.identity(4)
    b = np.arange(4.0)
    npt.assert_array_equal(lower_triangular_solve(ident, b), b)
    diag = SparseMatrix.diagonal([10.0, 10.0])
    npt.assert_allclose(lower_triangular_solve(diag, np.array([5.0, 0.0])), [0.5, 0.0])


def test_forward_substitution_random_systems():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(1, 12))
        d = np.tril(rng.uniform(-2, 2, (n, n)))
        np.fill_diagonal(d, rng.uniform(1.0, 3.0, n))
        b = rng.uniform(-5, 5, n)
        x = lower_triangular_solve(SparseMatrix.from_dense(d), b)
        npt.assert_allclose(d @ x, b, atol=1e-10)


def _reference_trisolve(m, b):
    """Forward substitution one row at a time, checking each pivot inside
    the loop: row i's rounded products are summed left to right in
    storage order from 0.0, then x_i = (b_i - sum) / m_ii.  The solve
    must stay bitwise equal to it."""
    x = np.empty(m.n)
    starts, cols, vals = m.row_starts, m.col_indices, m.values
    for i in range(m.n):
        lo, hi = starts[i], starts[i + 1]
        if hi == lo or cols[hi - 1] != i or vals[hi - 1] == 0.0:
            raise SingularMatrixError(f"zero diagonal in row {i}")
        acc = 0.0
        for k in range(lo, hi - 1):
            acc += float(vals[k]) * float(x[cols[k]])
        x[i] = (float(b[i]) - acc) / float(vals[hi - 1])
    return x


def _system_matrix_examples(test):
    # the n = 16 system matrices M + 2I + D_A the benchmark tables solve with
    rng = np.random.default_rng(47)
    for family in ("example1", "example2"):
        a = BenchSpec(family, 4).build().a
        for kind in (SplittingKind.npgs(), SplittingKind.npsor(1.7)):
            lhs = shifted_system(a, make_splitting(a, kind))[0]
            test = example(d=lhs.to_dense(), b=rng.uniform(-3, 3, 16))(test)
    return test


_PIVOT = st.one_of(st.floats(0.5, 8.0), st.floats(-8.0, -0.5))
_LOWER = st.integers(1, 12).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, (n, n), elements=_SPARSE_ENTRY),
    hnp.arrays(np.float64, n, elements=_PIVOT),
)).map(lambda t: np.tril(t[0], -1) + np.diag(t[1]))


def _both_schedules(m):
    """The schedules of both cuts of a solvable lower-triangular m, the
    level cut and the row cut, whichever of them the solve would pick."""
    cuts = (matrix_core._LevelCut.make(m, *matrix_core._level_cut(m, m.n)),
            matrix_core._RowCut.make(m))
    return [cut.schedule(m.values, m.diagonal_vector()) for cut in cuts]


def _assert_solves_like_reference(m, b):
    # compared bit by bit, so that -0.0 and +0.0 differ
    x = _reference_trisolve(m, b).view(np.int64)
    assert np.array_equal(lower_triangular_solve(m, b).view(np.int64), x)
    for schedule in _both_schedules(m):
        assert np.array_equal(schedule.solve(b).view(np.int64), x)


def _grid_system_matrix():
    """The m = 10 table-1 system matrix M + 2I + D_A: 100 rows on 19 levels."""
    a = BenchSpec("example1", 10).build().a
    return shifted_system(a, make_splitting(a, SplittingKind.npgs()))[0].to_dense()


_GRID = _grid_system_matrix()


@_EXACT
@given(d=_LOWER, b=hnp.arrays(np.float64, 16, elements=st.one_of(st.just(-0.0), _ENTRY)))
@_system_matrix_examples
@example(d=_GRID, b=np.full(100, -0.0))
@example(d=_GRID, b=np.where(np.arange(100) % 3, -0.0, 1.0))
def test_forward_substitution_matches_reference_loop(d, b):
    m = SparseMatrix.from_dense(d)
    _assert_solves_like_reference(m, b[:m.n])


@_EXACT
@given(n=st.integers(1, 70), density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(n=40, density=1.0, seed=0)
def test_forward_substitution_matches_reference_loop_across_blocks(n, density, seed):
    # sizes past one block of the row cut
    rng = np.random.default_rng(seed)
    d = np.tril(rng.uniform(-2.0, 2.0, (n, n)) * (rng.random((n, n)) < density), -1)
    d += np.diag(rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 4.0, n))
    _assert_solves_like_reference(SparseMatrix.from_dense(d), rng.uniform(-5.0, 5.0, n))


@_EXACT
@given(d=st.integers(1, 12).flatmap(lambda n: hnp.arrays(np.float64, (n, n), elements=_SPARSE_ENTRY)),
       x=hnp.arrays(np.float64, 12, elements=_ENTRY), cut=st.integers(0, 12))
@example(d=np.zeros((3, 3)), x=np.ones(12), cut=1)
@example(d=np.diag([0.0, 2.0, 0.0, -1.0]) + np.eye(4, k=-1), x=np.arange(12.0), cut=2)
def test_csr_kernel_into_zeros_is_matvec(d, x, cut):
    # the forward substitution sums with scipy's compiled CSR row kernel,
    # called on row ranges into slices of a zeroed buffer; a scipy release
    # that changes the kernel's entry point or its sum order fails here
    a = SparseMatrix.from_dense(d)
    assert a.col_indices.dtype == a.row_starts.dtype == np.int32
    x, cut = x[:a.n], min(cut, a.n)
    y = np.zeros(a.n)
    for lo, hi in ((0, cut), (cut, a.n)):
        matrix_core._csr_matvec(hi - lo, a.n, a.row_starts[lo:hi + 1], a.col_indices, a.values,
                                x, y[lo:hi])
    assert np.array_equal(y.view(np.int64), a.matvec(x).view(np.int64))


@_EXACT
@given(d=st.integers(1, 12).flatmap(lambda n: hnp.arrays(np.float64, (n, n), elements=_SPARSE_ENTRY)),
       x=hnp.arrays(np.float64, 12, elements=_ENTRY), lo=st.integers(0, 12), rows=st.integers(0, 12))
@example(d=np.ones((4, 4)), x=np.arange(12.0), lo=1, rows=2)
def test_csr_kernel_into_its_own_x_is_matvec(d, x, lo, rows):
    # the level cut's solve has the kernel write each level's sums into
    # the 0.0 entries of the vector it reads, rows whose columns all lie
    # outside the slice written: that must be what matvec gives, and
    # leave the rest of the vector as it was
    n = d.shape[0]
    lo = min(lo, n)
    hi = min(lo + rows, n)
    d = d.copy()
    d[:, lo:hi] = 0.0
    a = SparseMatrix.from_dense(d)
    x = x[:n].copy()
    x[lo:hi] = 0.0
    want = np.concatenate([x[:lo], a.matvec(x)[lo:hi], x[hi:]])
    matrix_core._csr_matvec(hi - lo, n, a.row_starts[lo:hi + 1], a.col_indices, a.values,
                            x, x[lo:hi])
    assert np.array_equal(x.view(np.int64), want.view(np.int64))


def _custom_system_matrix(a):
    """A custom splitting's system matrix whose M has an entry, (5, 0),
    where A's lower triangle has none, so that its pattern is not the
    named splittings'."""
    m = np.tril(a.to_dense())
    m[5, 0] = -0.5
    m = SparseMatrix.from_dense(m)
    return shifted_system(a, custom_splitting(a, m, m.subtract(a)))[0]


def _named_system_matrices(a):
    """The system matrices of table 1's mgs, msor, npgs and npsor solves
    of a, built as the solvers build them."""
    d = a.diagonal_vector()
    lhs = []
    for variant, alpha, kind in (("mgs", 1.0, SplittingKind.npgs()),
                                 ("msor", 0.85, SplittingKind.npsor(0.85))):
        omega = ModulusConfig(variant, alpha).effective_omega_scale() * d
        lhs.append(make_splitting(a, kind).m.add_diagonal(omega))
    for kind in (SplittingKind.npgs(), SplittingKind.npsor(1.7)):
        lhs.append(shifted_system(a, make_splitting(a, kind))[0])
    return lhs


def _lower_cut(a):
    """The cut kept with the lower sub-pattern of a's pattern, or None."""
    return a._pattern.sub(True, True, False)[0]._cut


def test_custom_splitting_with_another_pattern_makes_its_own_cut(monkeypatch):
    # the named system matrices are built on A's lower sub-pattern and
    # make one cut between them; the custom one has another pattern and
    # cuts it, whichever is solved first.  Every solve is bitwise the
    # row-by-row loop's
    b = np.random.default_rng(59).uniform(-3.0, 3.0, 16)
    choose = matrix_core._choose_cut
    for custom_first in (False, True):
        cut_from = []
        monkeypatch.setattr(matrix_core, "_choose_cut", lambda m: cut_from.append(m) or choose(m))
        a = BenchSpec("example1", 4).build().a
        custom, named = _custom_system_matrix(a), _named_system_matrices(a)
        for lhs in [custom, *named] if custom_first else [*named, custom]:
            x = _linear_solver_for(lhs)(b)
            assert np.array_equal(x.view(np.int64), _reference_trisolve(lhs, b).view(np.int64))
        own = matrix_core._schedule(custom).cut
        cuts = [matrix_core._schedule(lhs).cut for lhs in named]
        lower = a._pattern.sub(True, True, False)[0]
        assert cut_from == ([custom._pattern, lower] if custom_first else [lower, custom._pattern])
        assert own is custom._pattern._cut and custom._pattern is not named[0]._pattern
        assert all(cut is lhs._pattern._cut for cut, lhs in zip(cuts, named))
        assert own is not _lower_cut(a) and all(cut is _lower_cut(a) for cut in cuts)


def test_table1_methods_make_one_cut(monkeypatch):
    # the mgs, msor, npgs and npsor solves of one table-1 problem, run as
    # the table runs them, make one cut between their system matrices, in
    # either order; it is cut from the pattern they all hold, the lower
    # sub-pattern of the problem matrix, index arrays and all
    for reverse in (False, True):
        cuts, cut_from, schedules = [], [], []
        choose = matrix_core._choose_cut
        monkeypatch.setattr(matrix_core, "_choose_cut",
                            lambda m: cut_from.append(m) or cuts.append(choose(m)) or cuts[-1])
        monkeypatch.setattr(solvers, "_schedule",
                            lambda m: schedules.append((m, matrix_core._schedule(m))))
        p = BenchSpec("example1", 10).build()
        cfg = SolverConfig()
        runs = [lambda v=variant, al=alpha: solvers.modulus_solve(p, cfg, ModulusConfig(v, al))
                for variant, alpha in (("mgs", 1.0), ("msor", 0.85))]
        runs += [lambda k=kind: solvers.projected_solve(p, make_splitting(p.a, k), cfg)
                 for kind in (SplittingKind.npgs(), SplittingKind.npsor(1.7))]
        for run in reversed(runs) if reverse else runs:
            run()
        assert len(cuts) == 1 and len(schedules) == 4
        cut = cuts[0]
        assert _lower_cut(p.a) is cut and all(s.cut is cut for _, s in schedules)
        first = schedules[0][0]
        assert cut_from == [first._pattern]
        assert first._pattern is p.a._pattern.sub(True, True, False)[0]
        assert all(m._pattern is first._pattern for m, _ in schedules)
        assert len({id(m.row_starts) for m, _ in schedules}) == 1
        assert len({id(m.col_indices) for m, _ in schedules}) == 1
        monkeypatch.undo()


def _select_callers(monkeypatch):
    """The names of the functions that call _Pattern.select from now on:
    "_own" for each entry a build drops as a zero, "sub" for each new
    sub-pattern."""
    select, callers = matrix_core._Pattern.select, []
    monkeypatch.setattr(matrix_core._Pattern, "select", lambda pattern, keep: callers.append(
        sys._getframe(1).f_code.co_name) or select(pattern, keep))
    return callers


def test_table1_builds_store_no_zero(monkeypatch):
    # M and N are built on the sub-pattern of the triangles they keep, so
    # no build of a table-1 problem's solves leaves a zero for _own to
    # drop; and the Ns of one kind of splitting share one pattern:
    # npgs's (mgs's too) the strict upper triangle, npsor's (msor's) the
    # diagonal and the strict upper triangle
    callers = _select_callers(monkeypatch)
    p = BenchSpec("example1", 10).build()
    cfg = SolverConfig()
    for variant, alpha in (("mgs", 1.0), ("msor", 0.85)):
        solvers.modulus_solve(p, cfg, ModulusConfig(variant, alpha))
    splittings = [make_splitting(p.a, kind) for kind in (
        SplittingKind.npgs(), SplittingKind.npsor(1.7), SplittingKind.npgs(),
        SplittingKind.npsor(0.85))]
    for s in splittings[:2]:
        solvers.projected_solve(p, s, cfg)
    assert "sub" in callers and "_own" not in callers
    upper, diagonal_upper = (p.a._pattern.sub(False, diagonal, True)[0] for diagonal in (False, True))
    assert all(s.n_part._pattern is sub
               for s, sub in zip(splittings, [upper, diagonal_upper] * 2))


def test_entry_drop_probe_sees_a_dropped_zero(monkeypatch):
    # the probe of test_table1_builds_store_no_zero sees a build that
    # drops a zero: I - I drops every entry, and I + 2I none
    callers = _select_callers(monkeypatch)
    unit = SparseMatrix.identity(3)
    assert unit.add_diagonal(2.0).nnz == 3 and callers == []
    assert unit.add_diagonal(-1.0).nnz == 0 and callers == ["_own"]


@_EXACT
@given(t=_triplets(), zeros=hnp.arrays(bool, 24), zero=st.sampled_from([0.0, -0.0]),
       index=st.sampled_from([np.int32, np.int64]), found=st.booleans())
def test_entry_drop_is_scipy_eliminate_zeros_bitwise(t, zeros, zero, index, found):
    # a build's values with zeros (signed, where zeros is set) on a
    # pattern of either index dtype: the zeros are dropped as scipy's
    # eliminate_zeros drops them, index arrays and dtype alike, and the
    # triangles found before are kept, for the entries left
    a, _ = _both(t)
    pattern = matrix_core._Pattern(a.n, a.row_starts.astype(index), a.col_indices.astype(index))
    if found:
        pattern.triangle()
    values = np.where(zeros[:a.nnz], zero, a.values)
    got = SparseMatrix._made(pattern, values.copy())
    h = scipy.sparse.csr_matrix((a.n, a.n))
    h.indptr, h.indices, h.data = pattern.row_starts.copy(), pattern.col_indices.copy(), values
    h.eliminate_zeros()
    for mine, theirs in ((got.row_starts, h.indptr), (got.col_indices, h.indices)):
        assert mine.dtype == theirs.dtype == index and np.array_equal(mine, theirs)
    assert np.array_equal(_bits(got.values), _bits(h.data))
    tri = got._pattern._tri
    assert (tri is not None) == found
    if found:
        fresh = matrix_core._Pattern(got.n, got.row_starts, got.col_indices).triangle()
        assert tri.dtype == fresh.dtype and np.array_equal(tri, fresh)


def test_system_matrices_share_the_level_pattern():
    # the level cut holds the pattern half of the schedules made from it,
    # so each system matrix of a problem gathers only its values and pivots
    a = BenchSpec("example1", 10).build().a
    b = np.random.default_rng(61).uniform(-3.0, 3.0, a.n)
    schedules = []
    for kind in (SplittingKind.npgs(), SplittingKind.npsor(1.7)):
        lhs = shifted_system(a, make_splitting(a, kind))[0]
        x = _linear_solver_for(lhs)(b)
        assert np.array_equal(x.view(np.int64), _reference_trisolve(lhs, b).view(np.int64))
        schedules.append(matrix_core._schedule(lhs))
    cut = _lower_cut(a)
    assert np.array_equal(cut.order[cut.rank], np.arange(a.n))
    for s in schedules:
        # order, rank, the row pointer and the columns are the cut's
        assert isinstance(s, matrix_core._LevelSchedule) and s.cut is cut
        (_, steps), = s.areas  # the work area the solve made and gave back
        assert len(steps) == len(s.pivots) == len(cut.levels) == 19
        assert all(args[2] is starts for (args, *_), (*_, starts) in zip(steps, cut.levels))
    assert not np.shares_memory(schedules[0].vals, schedules[1].vals)


def test_system_matrices_share_the_row_pattern():
    # a dense random-family matrix has one row per level: its npgs and mgs
    # system matrices share one row cut, inner entries included, and each
    # gathers only its pivots and the values of those entries
    a = gen_random_hplus(40, 5).a
    npgs = make_splitting(a, SplittingKind.npgs())
    omega = ModulusConfig("mgs").effective_omega_scale() * a.diagonal_vector()
    b = np.random.default_rng(67).uniform(-3.0, 3.0, a.n)
    system_matrices = (shifted_system(a, npgs)[0], npgs.m.add_diagonal(omega))
    schedules = []
    for lhs in system_matrices:
        x = _linear_solver_for(lhs)(b)
        assert np.array_equal(x.view(np.int64), _reference_trisolve(lhs, b).view(np.int64))
        schedules.append(matrix_core._schedule(lhs))
    cut = _lower_cut(a)
    assert isinstance(cut, matrix_core._RowCut) and len(cut.blocks) == 3
    assert cut.inner_entries.size == len(cut.inner_cols) > 0
    for lhs, s in zip(system_matrices, schedules):
        assert isinstance(s, matrix_core._RowSchedule) and s.cut is cut
        assert s.vals is lhs.values
        assert s.inner_vals == tuple(lhs.values[cut.inner_entries].tolist())
    assert schedules[0].pivots != schedules[1].pivots
    assert not np.shares_memory(schedules[0].vals, schedules[1].vals)


def _raises_on_every_call(m, error, match):
    for _ in range(2):
        with pytest.raises(error, match=match):
            lower_triangular_solve(m, np.ones(m.n))
        assert m._schedule is None  # a failed build caches nothing


def test_forward_substitution_singular_names_row():
    m = SparseMatrix.from_coo(2, [0], [0], [3.0])  # row 1 has no diagonal
    _raises_on_every_call(m, SingularMatrixError, "zero diagonal in row 1")
    m = SparseMatrix.from_coo(3, [0, 1, 2, 2], [0, 0, 1, 2], [1.0, 2.0, 3.0, 4.0])
    _raises_on_every_call(m, SingularMatrixError, "zero diagonal in row 1")


def test_forward_substitution_rejects_upper_entries():
    m = SparseMatrix.from_dense([[1, 1], [0, 1]])
    _raises_on_every_call(m, ValueError, "above the diagonal")
    # the upper entry is reported before the missing pivots
    m = SparseMatrix.from_dense([[1, 0, 0], [2, 0, 5], [0, 0, 0]])
    _raises_on_every_call(m, ValueError, "above the diagonal")


def test_forward_substitution_builds_the_schedule_once(monkeypatch):
    cuts = []
    choose = matrix_core._choose_cut
    monkeypatch.setattr(matrix_core, "_choose_cut", lambda m: cuts.append(m) or choose(m))
    m = SparseMatrix.from_dense([[2, 0, 0], [-1, 4, 0], [0, 3, 5]])
    schedules = []
    for b in (np.array([2.0, 3.0, 8.0]), np.array([1.0, 0.0, -1.0])):
        assert np.array_equal(lower_triangular_solve(m, b), _reference_trisolve(m, b))
        schedules.append(m._schedule)
    assert len(cuts) == 1 and cuts[0] is m._pattern and schedules[0] is schedules[1]


def test_forward_substitution_threads_share_one_matrix(monkeypatch):
    # more threads than cores solve on one grid matrix at once, each with
    # its own right-hand sides (-0.0 entries too), while the interpreter
    # switches threads every microsecond: each solve takes a work area of
    # its own from the schedule's free list, so every x is bitwise the
    # serial solve's, and every area made is given back
    import threading

    a = BenchSpec("example1", 30).build().a
    m = shifted_system(a, make_splitting(a, SplittingKind.npsor(1.7)))[0]
    rng = np.random.default_rng(73)
    rhs = [rng.uniform(-3.0, 3.0, (4, m.n)) for _ in range(6)]
    for bs in rhs:
        bs[0, ::3] = -0.0
    want = [[_bits(lower_triangular_solve(m, b)) for b in bs] for bs in rhs]
    schedule = matrix_core._schedule(m)
    assert isinstance(schedule, matrix_core._LevelSchedule) and len(schedule.areas) == 1
    made = []
    work_area = matrix_core._LevelSchedule.work_area
    monkeypatch.setattr(matrix_core._LevelSchedule, "work_area",
                        lambda s: made.append(1) or work_area(s))
    start = threading.Barrier(len(rhs))
    wrong, errors = [], []

    def run(k):
        try:
            start.wait(timeout=30)
            for _ in range(5):
                for b, x in zip(rhs[k], want[k]):
                    if not np.array_equal(_bits(lower_triangular_solve(m, b)), x):
                        wrong.append(k)
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(rhs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []
    areas = schedule.areas
    assert len(areas) == 1 + len(made) <= 1 + len(rhs)
    assert len({id(xe) for xe, _ in areas}) == len(areas)


def test_forward_substitution_returns_a_fresh_x():
    # on each plan (the grid's level plan, a row plan, a diagonal plan),
    # a returned x shares no memory with the schedule: the next solve
    # leaves it as it was, and writing into it leaves the next solve's x
    b = np.random.default_rng(79).uniform(-3.0, 3.0, 100)
    for d in (_GRID, np.tril(np.ones((100, 100))) + np.eye(100), np.diag(np.arange(1.0, 101.0))):
        m = SparseMatrix.from_dense(d)
        x = lower_triangular_solve(m, b)
        want = _bits(x).copy()
        lower_triangular_solve(m, -b)
        assert np.array_equal(_bits(x), want)
        x[:] = np.nan
        assert np.array_equal(_bits(lower_triangular_solve(m, b)), want)


def test_forward_substitution_on_a_copied_matrix():
    # a deep copy or a pickle of a matrix that has solved on the level
    # plan (its schedule holding a work area) solves to the original's
    # bits, and so do its own copies, and the original after them
    import copy
    import pickle

    a = BenchSpec("example1", 30).build().a
    m = shifted_system(a, make_splitting(a, SplittingKind.npsor(1.7)))[0]
    b = np.random.default_rng(83).uniform(-3.0, 3.0, m.n)
    b[::5] = -0.0
    want = _bits(lower_triangular_solve(m, b)).copy()
    assert isinstance(m._schedule, matrix_core._LevelSchedule) and m._schedule.areas
    for copied in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        for c in (copied, copy.deepcopy(copied), pickle.loads(pickle.dumps(copied))):
            assert np.array_equal(_bits(lower_triangular_solve(c, b)), want)
    assert np.array_equal(_bits(lower_triangular_solve(m, b)), want)


def _leaves(value):
    """What value holds, through its tuples: a cut or a schedule (and the
    schedule's cut) down to its arrays and Python numbers."""
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_schedule_arrays_are_read_only():
    # a matrix on the row cut and one on the level cut (the grid)
    for m in (SparseMatrix.from_dense([[2, 0, 0], [-1, 4, 0], [0, 3, 5]]),
              SparseMatrix.from_dense(_GRID)):
        lower_triangular_solve(m, np.ones(m.n))
        # a schedule holds its cut
        for plan in (matrix_core._schedule(m), *_both_schedules(m)):
            # every field is set: read-only arrays and views, and tuples of
            # them or of Python numbers, which a solve converts none of;
            # all but the level schedule's free list of work areas, the
            # per-matrix scratch its solves write
            fields = plan._asdict()
            fields.pop("areas", None)
            for leaf in _leaves(tuple(fields.values())):
                assert type(leaf) in (int, float, np.ndarray)
                if type(leaf) is np.ndarray:
                    assert not leaf.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        leaf[...] = 1


def test_forward_substitution_checks_b_on_every_call():
    m = SparseMatrix.from_dense([[2, 0], [-1, 4]])
    lower_triangular_solve(m, np.ones(2))  # the schedule is cached from here on
    for b in (np.ones(3), np.ones(1), np.ones((2, 1))):
        with pytest.raises(ValueError, match="length mismatch"):
            lower_triangular_solve(m, b)


def _levels_by_loop(m):
    """Each row's level: one more than the highest level among the rows
    it stores an entry for, 0 for a row with none."""
    level = []
    for i in range(m.n):
        deps = m.col_indices[m.row_starts[i]:m.row_starts[i + 1]]
        level.append(1 + max((level[j] for j in deps if j < i), default=-1))
    return level


def _grid_lower(family, m):
    """The lower triangle of a benchmark family's matrix: the pattern of
    its system matrices, on whose 2m - 1 levels the level pass is tuned."""
    return np.tril(BenchSpec(family, m).build().a.to_dense())


@_EXACT
@given(d=_LOWER)
@example(d=np.eye(1))
@example(d=np.diag([2.0, -1.0, 3.0, 0.5]))
@example(d=np.tril(np.ones((6, 6))))
@example(d=np.eye(5) + np.diag([1.0, 0.0, 0.0, 1.0], -1))
@example(d=np.eye(9) + np.diag(np.ones(7), -2))
@example(d=_grid_lower("example1", 4))
@example(d=_grid_lower("example1", 5))
@example(d=_grid_lower("example2", 4))
@example(d=_grid_lower("example2", 5))
@example(d=np.eye(16) + sum(np.diag(np.ones(16 - k), -k) for k in (2, 4, 6)))
def test_levels_match_longest_dependency_chain(d):
    m = SparseMatrix.from_dense(d)
    per_row = np.diff(m.row_starts) - 1
    order, starts = matrix_core._level_cut(m, m.n)
    loop = _levels_by_loop(m)
    depth = max(loop) + 1
    assert len(starts) - 1 == depth
    level = np.empty(m.n, dtype=int)
    for k in range(depth):
        level[order[starts[k]:starts[k + 1]]] = k
    assert level.tolist() == loop
    # ascending within a level
    assert all(np.all(np.diff(order[starts[k]:starts[k + 1]]) > 0) for k in range(depth))
    # the pass refuses more than max_depth levels; the chain bound never exceeds the depth
    assert matrix_core._level_cut(m, depth - 1) is None
    assert 1 <= matrix_core._chain_length(m, per_row) <= depth
    # the solve takes the diagonal cut on one level, the level cut at
    # _ROWS_PER_LEVEL rows per level or more, else the row cut, runs of
    # _BLOCK rows in order
    lower_triangular_solve(m, np.ones(m.n))
    cut = matrix_core._schedule(m).cut
    # m's own pattern's cut, kept with it
    assert cut is m._pattern._cut
    if depth == 1:
        assert isinstance(cut, matrix_core._DiagonalCut)
    elif depth * matrix_core._ROWS_PER_LEVEL <= m.n:
        assert isinstance(cut, matrix_core._LevelCut)
        assert np.array_equal(cut.order, order)
        assert [(lo, hi) for lo, hi, _ in cut.levels] == list(zip(starts[:-1], starts[1:]))
    else:
        assert isinstance(cut, matrix_core._RowCut)
        assert [(lo, hi) for lo, hi, _ in cut.blocks] == [
            (lo, min(lo + matrix_core._BLOCK, m.n)) for lo in range(0, m.n, matrix_core._BLOCK)]


@_EXACT
@given(d=_LOWER)
@example(d=np.tril(np.ones((6, 6))))
@example(d=np.eye(9) + np.diag(np.ones(7), -2))
def test_level_cut_stores_no_inner_entries(d):
    # every entry of a level refers to an earlier level, so each block
    # ends with one vectorised divide; each row's diagonal becomes the
    # entry 1.0 on its b_i, after its off-diagonal entries negated
    m = SparseMatrix.from_dense(d)
    level, row = _both_schedules(m)
    cut = level.cut
    assert level.vals.size == m.nnz
    ends = cut.starts[1:] - 1
    assert cut.cols[ends].tolist() == list(range(m.n, 2 * m.n))
    assert level.vals[ends].tolist() == [1.0] * m.n
    off = np.ones(m.nnz, dtype=bool)
    off[ends] = False
    position = np.repeat(np.arange(m.n), np.diff(cut.starts))[off]
    rows, cols = cut.order[position], cut.order[cut.cols[off]]
    assert np.array_equal(level.vals[off], -m.to_dense()[rows, cols])
    level_lo = np.empty(m.n, dtype=int)
    xe, steps = level.work_area()
    assert xe.size == 2 * m.n and len(steps) == len(level.pivots) == len(cut.levels)
    for (lo, hi, starts), pivots, (args, xv, bound) in zip(cut.levels, level.pivots, steps):
        assert np.shares_memory(starts, cut.starts) and starts.size == hi - lo + 1
        assert np.array_equal(starts, cut.starts[lo:hi + 1])
        assert np.array_equal(pivots, m.diagonal_vector()[cut.order[lo:hi]])
        # the kernel call is bound to the area: it writes the level's sums
        # into xv, the level's entries of xe, which the pivots then divide
        assert args[:2] == (hi - lo, 2 * m.n) and args[2] is starts
        assert args[3] is cut.cols and args[4] is level.vals and args[5] is xe
        assert args[6] is xv and xv.base is xe and xv.size == hi - lo
        assert xv.ctypes.data == xe.ctypes.data + 8 * lo and bound is pivots
        level_lo[lo:hi] = lo
    # no entry refers to a position of its own level
    assert np.all(cut.cols[off] < level_lo[position])
    # the row cut's schedule reads the matrix's own arrays, and its inner
    # entries are those that refer to an earlier row of their block, in
    # storage order
    assert all(np.shares_memory(starts, m.row_starts) for *_, starts in row.cut.blocks)
    assert row.cut.cols is m.col_indices and row.vals is m.values
    inner_cols, inner_vals = [], []
    for i in range(m.n):
        first = i - i % matrix_core._BLOCK
        for k in range(m.row_starts[i], m.row_starts[i + 1]):
            if first <= m.col_indices[k] < i:
                inner_cols.append(m.col_indices[k] - first)
                inner_vals.append(m.values[k])
        assert row.cut.inner_starts[i + 1] == len(inner_vals)
    assert list(row.cut.inner_cols) == inner_cols
    assert list(row.inner_vals) == inner_vals
    assert row.pivots == tuple(m.diagonal_vector().tolist())


def test_schedule_choice_on_the_benchmark_matrices():
    # the table-1 grid has many rows per level: one block per level; a dense
    # matrix of the random family and a tridiagonal one have one row per
    # level: runs of _BLOCK rows in order
    tridiagonal = SparseMatrix.from_dense(3 * np.eye(50) - np.eye(50, k=-1) - np.eye(50, k=1))
    for a, blocks in ((BenchSpec("example1", 10).build().a, 19),
                      (gen_random_hplus(40, 3).a, 3),
                      (tridiagonal, 4)):
        lhs = shifted_system(a, make_splitting(a, SplittingKind.npgs()))[0]
        s = matrix_core._schedule(lhs)
        if blocks == 19:
            assert max(_levels_by_loop(lhs)) + 1 == 19
            assert isinstance(s, matrix_core._LevelSchedule) and len(s.pivots) == 19
        else:
            assert isinstance(s, matrix_core._RowSchedule)
            assert [(lo, hi) for lo, hi, _ in s.cut.blocks] == [
                (lo, min(lo + 16, lhs.n)) for lo in range(0, lhs.n, 16)]
            # every block has inner entries, which a row finishes in floats
            starts = s.cut.inner_starts
            assert all(starts[hi] > starts[lo] for lo, hi, _ in s.cut.blocks)
    # one chain of all the rows: the level pass is skipped
    assert matrix_core._chain_length(lhs, np.diff(lhs.row_starts) - 1) == 50


# ----------------------------------------------------------------------
# file formats


_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ROUND_TRIP = settings(max_examples=40, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


def _seeded_sparse():
    rng = np.random.default_rng(43)
    return rng.uniform(-3, 3, (5, 5)) * (rng.random((5, 5)) < 0.5)


@_ROUND_TRIP
@given(d=st.integers(1, 6).flatmap(lambda n: hnp.arrays(
    np.float64, (n, n), elements=st.one_of(st.just(0.0), _ANY_FINITE))))
@example(d=_seeded_sparse())
def test_matrix_market_round_trip(tmp_path, d):
    a = SparseMatrix.from_dense(d)
    path = tmp_path / "a.mtx"
    write_matrix_market(a, path)
    assert read_matrix_market(path) == a


_MM = "%%MatrixMarket matrix coordinate real general\n"


def _per_entry_writes(a, v):
    """The bytes of the per-entry writers the joined ones replaced."""
    lines = [_MM, f"{a.n} {a.n} {a.nnz}\n"]
    rows = np.repeat(np.arange(a.n, dtype=np.int64), np.diff(a.row_starts))
    for r, c, x in zip(rows, a.col_indices, a.values):
        lines.append(f"{r + 1} {c + 1} {float(x)!r}\n")
    vector = [f"{float(x)!r}\n" for x in np.asarray(v, dtype=np.float64)]
    return "".join(lines).encode("ascii"), "".join(vector).encode("ascii")


_EDGE_FLOATS = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                         1.0 / 3.0, 1e-5, 123456789.0, 0.0])


@_ROUND_TRIP
@given(d=st.integers(1, 6).flatmap(lambda n: hnp.arrays(
    np.float64, (n, n), elements=st.one_of(st.just(0.0), _ANY_FINITE))),
    v=hnp.arrays(np.float64, st.integers(1, 10), elements=_ANY_FINITE))
@example(d=np.diag(_EDGE_FLOATS), v=_EDGE_FLOATS)
def test_writers_keep_the_per_entry_bytes(tmp_path, monkeypatch, d, v):
    monkeypatch.setattr(matrix_core, "_WRITE_CHUNK", 3)  # several writes per file
    a = SparseMatrix.from_dense(d)
    write_matrix_market(a, tmp_path / "a.mtx")
    write_vector(v, tmp_path / "v.txt")
    written = (tmp_path / "a.mtx").read_bytes(), (tmp_path / "v.txt").read_bytes()
    assert written == _per_entry_writes(a, v)


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n",
    "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n",
    "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1\n",
    "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0 0.0\n",
    "2 2 1\n1 1 1.0\n",
], ids=["array", "symmetric", "pattern", "integer", "complex", "no-banner"])
def test_matrix_market_rejects_other_layouts(tmp_path, text):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(ValueError, match="unsupported MatrixMarket header"):
        read_matrix_market(path)


@pytest.mark.parametrize("entry", [
    "1 1 1.5 2",
    "1 1 1.5 % note",
    "1 1 1,5", "1 1 1.5abc", "1 1 1.0.0", "1 1 0x1p-2",
    "1.0 1 1.5", "1x 1 1.5", "0 1 1.5", "1 3 1.5",
], ids=["fourth-field", "trailing-comment", "comma", "suffix", "two-points", "hex",
        "float-index", "suffixed-index", "zero-index", "index-above-n"])
def test_matrix_market_rejects_malformed_entry(tmp_path, entry):
    # '%' opens a comment only at the start of a line
    path = tmp_path / "bad.mtx"
    path.write_text(_MM + f"2 2 2\n2 2 4.0\n{entry}\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_matrix_market_skips_comment_and_blank_lines(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text(_MM + "% size next\n2 2 2\n\n1 1 1.5\n  % between\n\n2 2 4.0\n%\n")
    assert read_matrix_market(path) == SparseMatrix.from_dense([[1.5, 0.0], [0.0, 4.0]])


def test_matrix_market_finds_the_size_line_past_comments_and_blanks(tmp_path):
    path = tmp_path / "a.mtx"
    head = _MM + "% one\n\n   \n  % two\n%\n\n2 2 1\n"
    path.write_text(head + "2 2 4.0\n")
    assert read_matrix_market(path) == SparseMatrix.from_dense([[0.0, 0.0], [0.0, 4.0]])
    # an entry's line number counts the lines before the size line
    path.write_text(head + "2 2 1,5\n")
    with pytest.raises(ValueError, match=r"a\.mtx:9: "):
        read_matrix_market(path)
    # not three integers, named with the size line's file line
    for size_line in ("2 2", "2 2 1.5", "2 2 1_0", "2 0x2 1"):
        path.write_text(head.replace("2 2 1\n", f"{size_line}\n"))
        message = re.escape(f"a.mtx:8: malformed size line: '{size_line}'")
        with pytest.raises(ValueError, match=message):
            read_matrix_market(path)
    path.write_text(_MM + "% only\n\n")
    with pytest.raises(ValueError, match="missing size line"):
        read_matrix_market(path)


def test_matrix_market_entry_count_checked(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text(_MM + "2 2 2\n1 1 1.0\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


@pytest.mark.parametrize("size_line", ["2 2 1000000000000", "2 2 5", "2 2 -1", "0 0 0"])
def test_matrix_market_size_line_checked_before_allocation(tmp_path, size_line):
    # impossible counts are rejected from the size line, before any entry is read
    path = tmp_path / "bad.mtx"
    path.write_text(_MM + f"{size_line}\n1 1 1.0\n")
    with pytest.raises(ValueError, match="size line out of range"):
        read_matrix_market(path)


def test_matrix_market_entry_index_checked(tmp_path):
    path = tmp_path / "idx.mtx"
    path.write_text(_MM + "2 2 1\n99999999999999999999999 1 1.0\n")
    with pytest.raises(ValueError, match="99999999999999999999999"):
        read_matrix_market(path)


@_ROUND_TRIP
@given(v=hnp.arrays(np.float64, st.integers(1, 10), elements=_ANY_FINITE))
@example(v=np.array([1.5, -2.25, 1.0 / 3.0]))
def test_vector_round_trip(tmp_path, v):
    path = tmp_path / "v.txt"
    write_vector(v, path)
    npt.assert_array_equal(read_vector(path), v)


@pytest.mark.parametrize("text, match", [
    ("1 2\n", None),
    ("1_0\n", None),
    ("% only a comment\n\n", "no values"),
], ids=["two-per-line", "underscore", "no-values"])
def test_vector_rejects_malformed_lines(tmp_path, text, match):
    # one value per line; Python's float() would read 1_0 as 10
    path = tmp_path / "v.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_vector(path)
