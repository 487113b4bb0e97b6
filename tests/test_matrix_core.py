import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from lcpkit.problems import BenchSpec
from lcpkit.solvers import shifted_system
from lcpkit.splittings import SplittingKind, make_splitting


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


def test_cancellation_drops_entries():
    a = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    assert a.add(a.scaled(-1.0)).nnz == 0


def test_structure_predicates():
    low = SparseMatrix.from_dense([[2, 0], [-1, 4]])
    assert low.is_lower_triangular() and not low.is_diagonal()
    assert SparseMatrix.diagonal([1.0, 2.0]).is_diagonal()
    assert not SparseMatrix.from_dense([[0, 1], [0, 0]]).is_lower_triangular()


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
    """The per-row forward substitution that checked each pivot inside
    the loop; the solve must stay bitwise equal to it."""
    x = np.empty(m.n)
    starts, cols, vals = m.row_starts, m.col_indices, m.values
    for i in range(m.n):
        lo, hi = starts[i], starts[i + 1]
        if hi == lo or cols[hi - 1] != i or vals[hi - 1] == 0.0:
            raise SingularMatrixError(f"zero diagonal in row {i}")
        acc = b[i] - vals[lo:hi - 1] @ x[cols[lo:hi - 1]]
        x[i] = acc / vals[hi - 1]
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


@_EXACT
@given(d=_LOWER, b=hnp.arrays(np.float64, 16, elements=_ENTRY))
@_system_matrix_examples
def test_forward_substitution_matches_reference_loop(d, b):
    m = SparseMatrix.from_dense(d)
    b = b[:m.n]
    assert np.array_equal(lower_triangular_solve(m, b), _reference_trisolve(m, b))


def test_forward_substitution_singular_names_row():
    m = SparseMatrix.from_coo(2, [0], [0], [3.0])  # row 1 has no diagonal
    with pytest.raises(SingularMatrixError, match="row 1"):
        lower_triangular_solve(m, np.array([1.0, 1.0]))


def test_forward_substitution_rejects_upper_entries():
    m = SparseMatrix.from_dense([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        lower_triangular_solve(m, np.array([1.0, 1.0]))


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
