import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lcpkit import matrix_core
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
from lcpkit.solvers import _linear_solver_for, shifted_system
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
def test_classify_h_probe_is_the_comparison_probe(d):
    # a Z-matrix with nonnegative diagonal is its own comparison matrix, and
    # classify answers is_h there from the M probe alone
    a = SparseMatrix.from_dense(d)
    assert classify(a, p_matrix_limit=0).is_h is matrix_core._m_probe(comparison_matrix(a))[0]


def test_classify_decides_triangular_z_matrices_without_a_solve(monkeypatch):
    # the solution of A v = 1 grows like 24^i here and overflows, but a
    # triangular Z-matrix is an M-matrix exactly when its diagonal is positive
    monkeypatch.setattr(matrix_core, "_m_matrix_witness", lambda m: pytest.fail("solved"))
    n = 600
    lower = SparseMatrix.from_coo(n, [*range(n), *range(1, n)], [*range(n), *range(n - 1)],
                                  [0.5] * n + [-12.0] * (n - 1))
    for a in (lower, SparseMatrix._canonical(lower.to_scipy().T)):
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
    assert matrix_core._jacobi_verdict(z, z._triangle()) is None
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", lambda m, b: np.ones(3))
    rep = classify(z, p_matrix_limit=0)
    assert rep.is_z and not rep.is_m and rep.witness_v is None
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", lambda m, b: np.array([1.0, 1.0, 2.0]))
    assert not classify(z, p_matrix_limit=0).is_m  # z v = (-1, -1, 2)


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
def test_verified_m_verdicts_hold_in_exact_arithmetic(n, seed, delta):
    from fractions import Fraction
    from unittest import mock

    z = SparseMatrix.from_dense(_z_matrix(n, seed, delta))
    verified = []
    check = matrix_core._verified_positive

    def record(m, u):
        if check(m, u):
            verified.append((m, u.copy()))
            return True
        return False

    with mock.patch.object(matrix_core, "_verified_positive", record):
        is_m, _ = matrix_core._m_probe(z, witness=True)
    triangle = z._triangle()
    if is_m and not (np.all(triangle <= 0) or np.all(triangle >= 0)):
        assert verified  # off the triangular path, only a verified u says M
    for m, u in verified:
        exact = [Fraction(x) for x in u.tolist()]
        assert all(x > 0 for x in exact)
        for row in m.to_dense().tolist():
            assert sum(Fraction(a) * x for a, x in zip(row, exact) if a) > 0


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), delta=_NEAR_ONE)
def test_jacobi_bracket_agrees_with_the_solve(n, seed, delta):
    dense = _z_matrix(n, seed, delta)
    z = SparseMatrix.from_dense(dense)
    bracket = matrix_core._jacobi_verdict(z, z._triangle())
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
    assert spectral_radius_nonneg(t, max_iters=0).vector is None


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
    h, per_row = m._h, np.diff(m.row_starts) - 1
    return [matrix_core._Schedule.build(h, m.diagonal_vector(), matrix_core._Cut(h.indptr, h.indices, *cut))
            for cut in (matrix_core._level_cut(h, per_row, m.n), matrix_core._row_cut(h))]


def _assert_solves_like_reference(m, b):
    x = _reference_trisolve(m, b)
    assert np.array_equal(lower_triangular_solve(m, b), x)
    for schedule in _both_schedules(m):
        assert np.array_equal(schedule.solve(b), x)


@_EXACT
@given(d=_LOWER, b=hnp.arrays(np.float64, 16, elements=_ENTRY))
@_system_matrix_examples
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


def test_custom_splitting_with_another_pattern_makes_its_own_cut():
    # M has an entry where A's lower triangle has none, so the system
    # matrix cannot take A's cut; it cuts its own pattern and solves as
    # the row-by-row loop does
    a = BenchSpec("example1", 4).build().a
    m = np.tril(a.to_dense())
    m[5, 0] = -0.5
    m = SparseMatrix.from_dense(m)
    lhs = shifted_system(a, custom_splitting(a, m, m.subtract(a)))[0]
    solve = _linear_solver_for(lhs, a)
    assert not a._lower_cut().fits(lhs)
    b = np.random.default_rng(59).uniform(-3.0, 3.0, lhs.n)
    assert np.array_equal(solve(b), _reference_trisolve(lhs, b))
    assert lhs._cut is not a._cut and lhs._cut.fits(lhs)
    # a named splitting's system matrix takes A's cut itself
    lhs = shifted_system(a, make_splitting(a, SplittingKind.npgs()))[0]
    _linear_solver_for(lhs, a)
    assert lhs._cut is a._cut


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
    builds = []
    build = matrix_core._build_schedule
    monkeypatch.setattr(matrix_core, "_build_schedule", lambda m: builds.append(m) or build(m))
    m = SparseMatrix.from_dense([[2, 0, 0], [-1, 4, 0], [0, 3, 5]])
    for b in (np.array([2.0, 3.0, 8.0]), np.array([1.0, 0.0, -1.0])):
        assert np.array_equal(lower_triangular_solve(m, b), _reference_trisolve(m, b))
    assert builds == [m]


def test_schedule_arrays_are_read_only():
    m = SparseMatrix.from_dense([[2, 0, 0], [-1, 4, 0], [0, 3, 5]])
    lower_triangular_solve(m, np.ones(3))
    for schedule in (m._trisolve_schedule(), *_both_schedules(m), m._lower_cut()):
        for name, arr in schedule._asdict().items():
            if name == "blocks":  # tuples of Python ints and bools
                assert isinstance(arr, tuple) and all(type(b) is tuple for b in arr)
                continue
            if arr is None:  # no order under the row cut, no inner entries under the level cut
                assert name in ("order", "inner_starts", "inner_cols", "inner_vals")
                continue
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 1


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


@_EXACT
@given(d=_LOWER)
@example(d=np.eye(1))
@example(d=np.diag([2.0, -1.0, 3.0, 0.5]))
@example(d=np.tril(np.ones((6, 6))))
@example(d=np.eye(5) + np.diag([1.0, 0.0, 0.0, 1.0], -1))
@example(d=np.eye(9) + np.diag(np.ones(7), -2))
def test_levels_match_longest_dependency_chain(d):
    m = SparseMatrix.from_dense(d)
    per_row = np.diff(m.row_starts) - 1
    order, starts = matrix_core._level_cut(m._h, per_row, m.n)
    loop = _levels_by_loop(m)
    depth = max(loop) + 1
    assert len(starts) - 1 == depth
    level = np.empty(m.n, dtype=int)
    for k in range(depth):
        level[order[starts[k]:starts[k + 1]]] = k
    assert level.tolist() == loop
    # ascending within a level
    assert all(np.all(np.diff(order[starts[k]:starts[k + 1]]) > 0) for k in range(depth))
    # the sweep stops past max_depth levels; the chain bound never exceeds the depth
    assert matrix_core._level_cut(m._h, per_row, depth - 1) is None
    assert 1 <= matrix_core._chain_length(m._h, per_row) <= depth
    # the solve takes the level cut at _ROWS_PER_LEVEL rows per level or more
    by_levels = depth * matrix_core._ROWS_PER_LEVEL <= m.n
    order, starts = (order, starts) if by_levels else matrix_core._row_cut(m._h)
    lower_triangular_solve(m, np.ones(m.n))
    cut = m._lower_cut()
    assert cut.fits(m)  # m's own pattern
    assert (cut.order is None) == (order is None)
    assert order is None or np.array_equal(cut.order, order)
    assert np.array_equal(cut.block_starts, starts)


@_EXACT
@given(d=_LOWER)
@example(d=np.tril(np.ones((6, 6))))
@example(d=np.eye(9) + np.diag(np.ones(7), -2))
def test_level_cut_stores_no_inner_entries(d):
    # every entry of a level refers to an earlier level, so each block
    # ends with one vectorised divide
    m = SparseMatrix.from_dense(d)
    level_cut, row_cut = _both_schedules(m)
    assert level_cut.inner_starts is level_cut.inner_cols is level_cut.inner_vals is None
    assert not any(has_inner for *_, has_inner in level_cut.blocks)
    assert level_cut.vals.size == m.nnz - m.n
    # the row cut reads the matrix's own arrays, and its inner entries are
    # those that refer to an earlier row of their block, in storage order
    assert row_cut.row_starts is m.row_starts
    assert row_cut.cols is m.col_indices and row_cut.vals is m.values
    inner_cols, inner_vals = [], []
    for i in range(m.n):
        first = i - i % matrix_core._BLOCK
        for k in range(m.row_starts[i], m.row_starts[i + 1]):
            if first <= m.col_indices[k] < i:
                inner_cols.append(m.col_indices[k] - first)
                inner_vals.append(m.values[k])
        assert row_cut.inner_starts[i + 1] == len(inner_vals)
    assert row_cut.inner_cols.tolist() == inner_cols
    assert row_cut.inner_vals.tolist() == inner_vals
    assert all(has_inner == (row_cut.inner_starts[hi] > row_cut.inner_starts[lo])
               for lo, hi, has_inner in row_cut.blocks)


def test_schedule_choice_on_the_benchmark_matrices():
    # the table-1 grid has many rows per level: one block per level; a dense
    # matrix of the random family and a tridiagonal one have one row per
    # level: runs of _BLOCK rows in order
    tridiagonal = SparseMatrix.from_dense(3 * np.eye(50) - np.eye(50, k=-1) - np.eye(50, k=1))
    for a, blocks in ((BenchSpec("example1", 10).build().a, 19),
                      (gen_random_hplus(40, 3).a, 3),
                      (tridiagonal, 4)):
        lhs = shifted_system(a, make_splitting(a, SplittingKind.npgs()))[0]
        s = lhs._trisolve_schedule()
        assert len(s.blocks) == blocks
        if blocks == 19:
            assert max(_levels_by_loop(lhs)) + 1 == 19
            assert s.inner_vals is None
        else:
            assert s.order is None
            assert [(lo, hi) for lo, hi, *_ in s.blocks] == [
                (lo, min(lo + 16, lhs.n)) for lo in range(0, lhs.n, 16)]
    # one chain of all the rows: the level sweep is skipped
    assert matrix_core._chain_length(lhs._h, np.diff(lhs.row_starts) - 1) == 50


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
    path.write_text(head.replace("2 2 1\n", "2 2\n"))
    with pytest.raises(ValueError, match="malformed size line: '2 2'"):
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
