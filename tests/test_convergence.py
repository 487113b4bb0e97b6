import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lcpkit import convergence, matrix_core
from lcpkit.convergence import (
    STRICTNESS_MARGIN,
    ModeUnsupportedError,
    certify_rho_lt_one,
    check_hmatrix_conditions,
    check_spectral_condition,
    iteration_operator_rho,
)
from lcpkit.matrix_core import (SingularMatrixError, SparseMatrix, _dense_inverse, _m_probe,
                               classify, comparison_matrix)
from lcpkit.problems import gen_example1, gen_example2, gen_random_hplus
from lcpkit.solvers import shifted_system
from lcpkit.splittings import SplittingKind, custom_splitting, make_splitting


def _gs(dense):
    a = SparseMatrix.from_dense(dense)
    return a, make_splitting(a, SplittingKind.npgs())


def _t_dense(a, s):
    d = a.diagonal_vector()
    lhs = s.m.add_diagonal(d + 2.0).to_dense()
    reach = (s.n_part.add_diagonal(d + 1.0).abs_entrywise()
             .add(a.add_diagonal(-1.0).abs_entrywise())).to_dense()
    return np.abs(np.linalg.inv(lhs)) @ reach


def test_scalar_operator_values():
    a, s = _gs([[4.0]])
    for mode in ("exact_dense", "comparison_bound", "operator"):
        assert iteration_operator_rho(a, s, mode) == pytest.approx(0.8, abs=1e-9)
    a, s = _gs([[8.0]])
    assert iteration_operator_rho(a, s) == pytest.approx(16.0 / 18.0, abs=1e-9)


def test_identity_operator_value():
    # D = I, L = U = 0, |A - I| = 0: T = (1+1) / (1+2+1) = 1/2
    a = SparseMatrix.identity(3)
    s = make_splitting(a, SplittingKind.npj())
    assert iteration_operator_rho(a, s) == pytest.approx(0.5, abs=1e-9)


def test_modes_agree_on_benchmark_matrix():
    p = gen_example1(4, 4.0)
    s = make_splitting(p.a, SplittingKind.npgs())
    exact = iteration_operator_rho(p.a, s, "exact_dense")
    op = iteration_operator_rho(p.a, s, "operator")
    bound = iteration_operator_rho(p.a, s, "comparison_bound")
    assert op == pytest.approx(exact, abs=1e-8)
    # the sign pattern makes the bound operator coincide with the exact one
    assert bound == exact
    assert exact == pytest.approx(max(abs(np.linalg.eigvals(_t_dense(p.a, s)))),
                                  abs=1e-8)


def test_default_mode_past_the_dense_limit_is_operator():
    # n = 2500 > DENSE_LIMIT: the default is operator mode, as in
    # check_spectral_condition, where exact_dense refuses the size.  On
    # A = 4I, T = (1 + 4 + 3) / (4 + 2 + 4) I, as at n = 1
    a = SparseMatrix.diagonal(np.full(2500, 4.0))
    s = make_splitting(a, SplittingKind.npgs())
    assert a.n > matrix_core.DENSE_LIMIT
    rho = iteration_operator_rho(a, s)
    assert rho == iteration_operator_rho(a, s, "operator") == pytest.approx(0.8, abs=1e-9)
    with pytest.raises(ValueError, match="exact_dense mode limited to n <= 2000"):
        iteration_operator_rho(a, s, "exact_dense")
    assert check_spectral_condition(a, s).rho_mode == "operator"


def test_bound_never_undercuts_exact():
    for seed in range(12):
        p = gen_random_hplus(int(np.random.default_rng(seed).integers(2, 9)), seed)
        for kind in (SplittingKind.npgs(), SplittingKind.npsor(1.5)):
            s = make_splitting(p.a, kind)
            exact = iteration_operator_rho(p.a, s, "exact_dense")
            bound = iteration_operator_rho(p.a, s, "comparison_bound")
            assert bound >= exact


def test_dense_inverse_matches_numpy():
    rng = np.random.default_rng(3)
    for n in (7, 2, 40):
        lower = np.tril(rng.uniform(-1.0, 1.0, (n, n))) + 4.0 * np.eye(n)
        full = lower + np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        # the triangular inverse, then the general one, from the dense LU
        # that a solve factors with
        for dense in (lower, full):
            got = _dense_inverse(SparseMatrix.from_dense(dense))
            np.testing.assert_allclose(got, np.linalg.inv(dense), rtol=1e-12, atol=1e-15)
    lower[3, 3] = 0.0
    # named as the forward solve names it, before dtrtri runs
    with pytest.raises(SingularMatrixError, match="zero diagonal in row 3"):
        _dense_inverse(SparseMatrix.from_dense(lower))


def test_dense_inverse_of_a_non_triangular_matrix_holds_two_n_by_n_arrays():
    # the dense matrix and its LU factors, which dgetri overwrites with the
    # inverse: no more than numpy.linalg.inv holds
    n = 600
    m = SparseMatrix.from_dense(np.random.default_rng(5).uniform(-1.0, 1.0, (n, n)) + n * np.eye(n))
    _dense_inverse(m)  # LAPACK loaded
    tracemalloc.start()
    try:
        _dense_inverse(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 8 * n * n


def _banded_lower(n, w, seed):
    """A diagonally dominant lower-triangular n x n matrix whose entries of
    random sign lie at most w left of the diagonal, one of them exactly w."""
    rng = np.random.default_rng(seed)
    below = np.subtract.outer(np.arange(n), np.arange(n))
    dense = rng.uniform(-1.0, 1.0, (n, n)) * ((below > 0) & (below <= w))
    dense *= rng.random((n, n)) < 0.7
    dense[w, 0] = 1.0 if w else 0.0
    pivots = (np.abs(dense).sum(axis=1) + rng.uniform(1.0, 2.0, n)) * rng.choice([-1.0, 1.0], n)
    return SparseMatrix.from_dense(dense + np.diag(pivots))


def _whole_dtrtri(m):
    return matrix_core._lapack().dtrtri(m.to_dense().T, lower=0, overwrite_c=1)[0].T


@settings(max_examples=60, deadline=None)
@given(nw=st.integers(1, 150).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
       seed=st.integers(0, 2**32 - 1))
@example(nw=(150, 0), seed=1)
@example(nw=(150, 24), seed=2)
@example(nw=(150, 25), seed=3)
@example(nw=(33, 5), seed=4)
def test_dense_inverse_by_block_rows_matches_whole_dtrtri(nw, seed):
    # blocks of max(w, 32) rows, or one block, one whole dtrtri, bit for
    # bit, when 6w >= n
    n, w = nw
    m = _banded_lower(n, w, seed)
    got, want = _dense_inverse(m), _whole_dtrtri(m)
    assert not np.triu(got, 1).any()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if 6 * w >= n:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("w", [0, 5, 40, 99, 100, 599])
def test_dense_inverse_holds_one_n_by_n_array(w):
    # the block rows, of w rows when w > 32, are written into the one array
    # returned, and the one block (6w >= n) is inverted where it lies
    n = 600
    m = _banded_lower(n, w, 9)
    tracemalloc.start()
    try:
        got = _dense_inverse(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * n * n
    want = _whole_dtrtri(m)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_operator_mode_requires_sign_pattern():
    a = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    # put strict-upper mass into M so the system matrix is not triangular
    m = SparseMatrix.from_dense([[3.0, 0.5], [-1.0, 3.0]])
    s = custom_splitting(a, m, m.subtract(a))
    with pytest.raises(ModeUnsupportedError):
        iteration_operator_rho(a, s, "operator")
    # exact mode still answers
    assert iteration_operator_rho(a, s, "exact_dense") > 0.0
    # lower triangular with a positive diagonal, but not a Z-matrix: a
    # positive entry below the diagonal makes inv(lhs) negative there
    a = SparseMatrix.from_dense([[2.0, 0.0], [1.0, 2.0]])
    s = make_splitting(a, SplittingKind.npgs())
    assert shifted_system(a, s)[0].is_lower_triangular()
    with pytest.raises(ModeUnsupportedError):
        iteration_operator_rho(a, s, "operator")


@pytest.mark.parametrize("mode", [None, "operator", "comparison_bound"])
def test_overflowing_t_v_warns_once(mode):
    # the lower bidiagonal of the check's overflow setup, diagonal 0.5 and
    # subdiagonal -12: |inv(M + 2I + D_A)| overflows, and so does T v on
    # the first pass, in every mode
    n = 600
    a = SparseMatrix.from_dense(0.5 * np.eye(n) - 12.0 * np.eye(n, k=-1))
    s = make_splitting(a, SplittingKind.npgs())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho = iteration_operator_rho(a, s, mode)
    assert rho == np.inf
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "T v overflowed at power iteration 1; estimate may be inaccurate")]
    # one warning, so numpy raised no RuntimeWarning; it names the caller's line
    assert caught[0].filename == __file__


def test_comparison_bound_requires_m_comparison():
    a = SparseMatrix.identity(2)
    m = SparseMatrix.from_dense([[-2.0, 2.0], [2.0, -2.0]])  # system matrix [[1,2],[2,1]]
    s = custom_splitting(a, m, m.subtract(a))
    with pytest.raises(ModeUnsupportedError):
        iteration_operator_rho(a, s, "comparison_bound")


def test_unknown_mode_rejected():
    a, s = _gs([[4.0]])
    with pytest.raises(ValueError):
        iteration_operator_rho(a, s, "dense")


def test_spectral_certificate_scalar():
    a, s = _gs([[4.0]])
    cert = check_spectral_condition(a, s)
    assert cert.rho_t == pytest.approx(0.8, abs=1e-9)
    assert cert.rho_mode == "exact_dense"
    assert cert.spectral_condition_ok
    assert "P-matrix" in cert.notes


def _rho_eigvals(a, s):
    return float(np.abs(np.linalg.eigvals(_t_dense(a, s))).max())


def _modes(a, s):
    """The rho modes that apply to (a, s): exact_dense always, operator
    when the system matrix is a lower-triangular M-matrix, comparison_bound
    when the comparison of the system matrix is an M-matrix."""
    lhs = shifted_system(a, s)[0]
    modes = ["exact_dense"]
    if lhs.is_lower_triangular() and _m_probe(lhs):
        modes.append("operator")
    if classify(comparison_matrix(lhs), p_matrix_limit=0).is_m:
        modes.append("comparison_bound")
    return modes


@pytest.mark.parametrize("eps", [1e-4, 1e-5])
@pytest.mark.parametrize("mode", ["exact_dense", "operator"])
def test_spectral_check_never_passes_when_rho_reaches_one(eps, mode):
    # T = diag(1 / (1 + a_1), 1 / (1 - 1e-9)): rho(T) = 1 + 1e-9, and the
    # power estimate settles (or stalls) just below 1 on the slow mode
    a = SparseMatrix.from_dense(np.diag([eps / (1.0 - eps), -1e-9]))
    s = make_splitting(a, SplittingKind.npj())
    rho = _rho_eigvals(a, s)
    assert rho > 1.0
    cert = check_spectral_condition(a, s, mode=mode)
    assert cert.rho_mode == mode
    assert cert.spectral_condition_ok is False
    assert cert.rho_upper >= rho
    assert cert.rho_lower <= cert.rho_t <= cert.rho_upper
    assert "not certified" in cert.notes


@settings(max_examples=25, deadline=None)
@given(d=st.floats(2e8, 1e15))
@example(d=2e8)
@pytest.mark.parametrize("mode", ["exact_dense", "operator"])
def test_spectral_check_never_passes_within_the_margin(mode, d):
    # A = diag(d, 1) under NPJ: rho(T) = 1 - 1 / d lies in [1 - margin, 1),
    # so the bracket can end below 1 and the check must still refuse it
    a = SparseMatrix.from_dense(np.diag([d, 1.0]))
    s = make_splitting(a, SplittingKind.npj())
    rho = _rho_eigvals(a, s)
    assert 1.0 - STRICTNESS_MARGIN <= rho < 1.0
    cert = check_spectral_condition(a, s, mode=mode)
    assert cert.spectral_condition_ok is False
    assert cert.rho_upper >= 1.0 - STRICTNESS_MARGIN


def _overflowing_bidiagonal(n, sub):
    """A = lower bidiagonal with diagonal 0.5 and subdiagonal sub: under
    NPGS, T is lower triangular with diagonal 2/3, so rho(T) = 2/3, while
    its entries grow like |sub / 3|^k below the diagonal."""
    i = np.arange(n)
    return SparseMatrix.from_coo(n, np.r_[i, i[1:]], np.r_[i, i[:-1]],
                                 np.r_[np.full(n, 0.5), np.full(n - 1, sub)])


@pytest.mark.parametrize("mode", ["exact_dense", "operator"])
def test_spectral_check_stops_undecided_when_t_v_overflows(mode):
    # T v overflows on the first pass: that pass gives no bracket end (and
    # numpy no warning, which the test run would turn into an error)
    a = _overflowing_bidiagonal(100, -1e4)
    cert = check_spectral_condition(a, make_splitting(a, SplittingKind.npgs()), mode=mode)
    assert cert.spectral_condition_ok is False
    assert cert.rho_lower <= 2.0 / 3.0 <= cert.rho_upper
    assert cert.rho_lower <= cert.rho_t <= cert.rho_upper
    assert cert.power_iterations == 1
    assert "T v overflowed at power iteration 1" in cert.notes


def test_coupling_matrix_is_the_chain_bitwise(monkeypatch):
    # <A> + 2I - D_A - |B| as an earlier version built it, one build per
    # step; check probes <A> for H+ when diag(A) > 0, then the coupling
    # matrix
    seen = []
    probe = convergence._m_probe
    monkeypatch.setattr(convergence, "_m_probe", lambda m: seen.append(m) or probe(m))
    rng = np.random.default_rng(61)
    dense = [rng.uniform(-3, 3, (n, n)) * (rng.random((n, n)) < 0.6) for n in (1, 2, 5, 9)]
    for a in [gen_example1(4, 4.0).a, gen_random_hplus(6, 3).a,
              *(SparseMatrix.from_dense(d) for d in dense if d.any())]:
        seen.clear()
        convergence._structural_fields(a, make_splitting(a, SplittingKind.npgs()))
        b_abs = a.strict_lower().abs_entrywise().add(a.strict_upper().abs_entrywise())
        chain = comparison_matrix(a).add_diagonal(2.0 - a.diagonal_vector()).subtract(b_abs)
        want = [comparison_matrix(a), chain] if np.all(a.diagonal_vector() > 0.0) else [chain]
        assert seen == want
        assert all(np.array_equal(m.values.view(np.int64), w.values.view(np.int64))
                   for m, w in zip(seen, want))


def test_check_makes_no_witness_solve_on_the_certify_setups(monkeypatch):
    # the verified Jacobi bracket decides the M tests of A and of the
    # coupling matrix on the benchmark's four check setups (n = 900), so
    # SuperLU never runs; classify, which returns a witness, still solves
    import scipy.sparse.linalg

    solves = []
    spsolve = scipy.sparse.linalg.spsolve
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                        lambda *args, **kwargs: solves.append(args) or spsolve(*args, **kwargs))
    for family, kind in ((gen_example1, SplittingKind.npgs()),
                         (gen_example2, SplittingKind.npsor(1.7))):
        a = family(30, 4.0).a
        for z in (a, a.scaled(0.9 / a.diagonal_vector().max())):
            cert = check_spectral_condition(z, make_splitting(z, kind))
            assert cert.h_plus and cert.h_compatible
            assert solves == []
    assert classify(a, p_matrix_limit=0).witness_v is not None
    assert len(solves) == 1


@pytest.mark.parametrize("family,kind,passes", [
    (gen_example1, SplittingKind.npgs(), False),
    (gen_example2, SplittingKind.npsor(1.7), False),
    (gen_example1, SplittingKind.npgs(), True),
    (gen_example2, SplittingKind.npsor(1.7), True),
])
def test_benchmark_setups_decided_in_one_pass(family, kind, passes):
    a = family(6, 4.0).a
    if passes:
        a = a.scaled(0.9 / a.diagonal_vector().max())
    s = make_splitting(a, kind)
    rho = _rho_eigvals(a, s)
    for mode in ("exact_dense", "operator"):
        cert = check_spectral_condition(a, s, mode=mode)
        assert cert.power_iterations == 1
        assert cert.spectral_condition_ok is passes is (rho < 1.0)
        assert cert.rho_lower <= rho <= cert.rho_upper
        assert "cap" not in cert.notes and "straddles" not in cert.notes


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from([SplittingKind.npj(), SplittingKind.npgs(),
                             SplittingKind.npsor(0.7), SplittingKind.npsor(1.5),
                             SplittingKind.npaor(1.2, 0.8),
                             SplittingKind.npaor(1.2, -0.5)]),
       diag=st.sampled_from([None, 0.5, 0.9, 0.99]))
def test_spectral_bracket_contains_rho(n, seed, kind, diag):
    a = gen_random_hplus(n, seed).a
    if diag is not None:
        a = a.scaled(diag / a.diagonal_vector().max())
    s = make_splitting(a, kind)
    rho = _rho_eigvals(a, s)
    slack = 1e-9 * max(1.0, rho)
    for mode in _modes(a, s):
        cert = check_spectral_condition(a, s, p_limit=0, mode=mode)
        # the bound operator's lower end says nothing about rho(T)
        if mode == "comparison_bound":
            assert cert.rho_lower == 0.0
        assert cert.rho_lower - slack <= rho <= cert.rho_upper + slack
        assert cert.rho_lower <= cert.rho_t <= cert.rho_upper
        assert cert.spectral_condition_ok == (cert.rho_upper < 1.0 - STRICTNESS_MARGIN)
        if cert.spectral_condition_ok:
            assert rho < 1.0


def test_spectral_certificate_flags_non_p():
    a, s = _gs([[1.0, -2.0], [-2.0, 1.0]])
    cert = check_spectral_condition(a, s)
    assert "not a P-matrix" in cert.notes
    assert cert.rho_t is not None  # evaluated regardless


def test_spectral_certificate_skips_large_minor_enumeration():
    p = gen_example1(4, 4.0)
    s = make_splitting(p.a, SplittingKind.npgs())
    cert = check_spectral_condition(p.a, s, p_limit=8)
    assert "not checked" in cert.notes


def test_spectral_certificate_caps_the_minor_enumeration(monkeypatch):
    # 2^n - 1 minors: a p_limit above 20 raises before any work, and one
    # of 12 still enumerates them for n <= 12
    a, s = _gs([[4.0, -1.0], [-1.0, 4.0]])
    monkeypatch.setattr(convergence, "_rho_estimate", lambda *args, **kwargs: pytest.fail("ran"))
    with pytest.raises(ValueError, match="^p_matrix_limit must be at most 20$"):
        check_spectral_condition(a, s, p_limit=21)
    monkeypatch.undo()
    p = gen_example1(3, 4.0)
    for a in (p.a, SparseMatrix.from_dense(p.a.to_dense()[:2, :2])):
        cert = check_spectral_condition(a, make_splitting(a, SplittingKind.npgs()), p_limit=12)
        assert "A is a P-matrix" in cert.notes


def test_structural_certificate_scalar_below_one():
    a, s = _gs([[0.5]])
    cert = check_hmatrix_conditions(a, s)
    assert cert.h_plus and cert.h_compatible and cert.diag_below_one
    assert cert.hmatrix_conditions_ok
    assert cert.rho_t is None and cert.spectral_condition_ok is None
    # soundness: the passing certificate comes with rho(T) < 1
    assert iteration_operator_rho(a, s) < 1.0


def test_structural_certificate_weakly_coupled_case():
    a, s = _gs([[2.0, -0.5], [-0.5, 2.0]])
    cert = check_hmatrix_conditions(a, s)
    assert cert.diag_geq_one and cert.coupling_matrix_is_m
    assert cert.hmatrix_conditions_ok
    assert iteration_operator_rho(a, s) < 1.0


def test_structural_certificate_benchmark_fails_but_solver_works():
    # conditions are sufficient only: this family fails them yet converges
    p = gen_example1(2, 4.0)
    s = make_splitting(p.a, SplittingKind.npgs())
    cert = check_hmatrix_conditions(p.a, s)
    assert cert.h_plus and cert.h_compatible and cert.diag_geq_one
    assert not cert.coupling_matrix_is_m
    assert not cert.diag_below_one
    assert not cert.hmatrix_conditions_ok
    assert "sufficient" in cert.notes


def test_certificate_boolean_identity():
    for seed in range(10):
        a = gen_random_hplus(4, seed).a
        if seed % 2:
            a = a.scaled(0.9 / a.diagonal_vector().max())
        s = make_splitting(a, SplittingKind.npj())
        cert = check_hmatrix_conditions(a, s)
        expected = cert.h_plus and cert.h_compatible and (
            (cert.diag_geq_one and cert.coupling_matrix_is_m) or cert.diag_below_one
        )
        assert cert.hmatrix_conditions_ok == expected


def test_certificates_are_pure():
    p = gen_random_hplus(5, 3)
    s = make_splitting(p.a, SplittingKind.npsor(1.3))
    c1 = check_spectral_condition(p.a, s)
    c2 = check_spectral_condition(p.a, s)
    assert c1.to_json_dict() == c2.to_json_dict()


def test_certificate_json_field_order():
    a, s = _gs([[4.0]])
    rec = check_spectral_condition(a, s).to_json_dict()
    assert list(rec.keys()) == [
        "rho_t", "rho_lower", "rho_upper", "power_iterations", "rho_mode",
        "spectral_condition_ok", "h_plus", "h_compatible",
        "diag_geq_one", "coupling_matrix_is_m", "diag_below_one",
        "hmatrix_conditions_ok", "notes",
    ]


def test_certificate_json_keys_are_the_fields():
    a, s = _gs([[4.0]])
    names = list(convergence.ConvergenceCertificate._fields)
    assert list(check_spectral_condition(a, s).to_json_dict()) == names
    assert list(check_hmatrix_conditions(a, s).to_json_dict()) == names


# cyclic shifts of W: every exact row sum is >= 1, so rho >= 1, while the
# float T v falls below v in every row
_W = [0.01684460687924554, 0.17648440357838202, 0.04677785548821703, 0.14467120364677635,
      0.17160518155961216, 0.1825409118913637, 0.23391096924747548, 0.027164867708927714]
_CIRCULANT = np.array([_W[-s:] + _W[:-s] if s else _W for s in range(8)])


# row 0 of T 1 is 1 + 2^53 - 2^53 = 1 = v_0 exactly, yet 0 in floats: a
# bound scaled by T v rather than |T| v passes it
_MIXED_SIGN = np.array([[1.0, 2.0**53, -(2.0**53)], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])


def _exactly_below(t, v):
    """T v < v in exact rational arithmetic."""
    v = [Fraction(x) for x in v]
    return all(sum(Fraction(x) * y for x, y in zip(row, v)) < vi
               for row, vi in zip(t.tolist(), v))


@pytest.mark.parametrize("as_sparse", [False, True], ids=["array", "sparse"])
def test_certify_rho_lt_one_refuses_a_rounding_pass(as_sparse):
    assert all(sum(map(Fraction, row)) >= 1 for row in _CIRCULANT.tolist())
    assert not _exactly_below(_CIRCULANT, np.ones(8))
    t = SparseMatrix.from_dense(_CIRCULANT) if as_sparse else _CIRCULANT
    assert not certify_rho_lt_one(t, np.ones(8))


def test_certify_rho_lt_one_refuses_callables():
    with pytest.raises(ValueError, match="callable"):
        certify_rho_lt_one(lambda x: 0.5 * x, np.ones(2))


def _matrix_and_vector(n):
    t = hnp.arrays(np.float64, (n, n), elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    v = st.one_of(st.floats(0.5, 2.0).map(lambda c: np.full(n, c)),
                  hnp.arrays(np.float64, n, elements=st.floats(0.5, 2.0)))
    return st.tuples(t, v)


@settings(max_examples=200, deadline=None)
@given(tv=st.integers(1, 6).flatmap(_matrix_and_vector),
       scale=st.one_of(st.none(), st.just(1.0), st.floats(0.5, 1.5)), as_sparse=st.booleans())
@example(tv=(_CIRCULANT, np.ones(8)), scale=None, as_sparse=False)
@example(tv=(_CIRCULANT, np.ones(8)), scale=None, as_sparse=True)
@example(tv=(_MIXED_SIGN, np.ones(3)), scale=None, as_sparse=False)
@example(tv=(_MIXED_SIGN, np.ones(3)), scale=None, as_sparse=True)
def test_certify_rho_lt_one_holds_in_exact_arithmetic(tv, scale, as_sparse):
    t, v = tv
    if scale is not None:
        # rows scaled to sum near 1 and a constant v put T v near v, where
        # rounding decides
        t = t * (scale / np.maximum(t.sum(axis=1, keepdims=True), 1e-300))
    operator = SparseMatrix.from_dense(t) if as_sparse else t
    if certify_rho_lt_one(operator, v):
        assert _exactly_below(t, v)


def test_certify_rho_lt_one_examples():
    assert certify_rho_lt_one(np.diag([0.5, 0.5]), np.ones(2))
    assert not certify_rho_lt_one(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
    assert certify_rho_lt_one(np.full((2, 2), 0.4), np.ones(2))
    with pytest.raises(ValueError):
        certify_rho_lt_one(np.eye(2), np.array([1.0, 0.0]))


@pytest.mark.parametrize("t, v, message", [
    (np.eye(2), [np.nan, 1.0], "v must be finite"),
    (np.eye(2), [np.inf, 1.0], "v must be finite"),
    (np.eye(3), np.ones(2), "v has length 2"),
    (SparseMatrix.identity(3), np.ones(2), "v has length 2"),
    (np.array([[np.nan, 0.0], [0.0, 0.5]]), np.ones(2), "not finite"),
    (np.ones((2, 3)), np.ones(2), "square"),
], ids=["nan-v", "inf-v", "array-dimension", "sparse-dimension", "nan-t", "non-square-t"])
def test_certify_rho_lt_one_bad_input_is_one_line_error(t, v, message):
    with pytest.raises(ValueError, match=message) as caught:
        certify_rho_lt_one(t, np.array(v))
    assert "\n" not in str(caught.value)


def test_certify_rho_lt_one_is_sound():
    hits = 0
    for seed in range(12):
        a = gen_random_hplus(4, 20 + seed).a
        if seed % 2:
            a = a.scaled(0.9 / a.diagonal_vector().max())
        s = make_splitting(a, SplittingKind.npgs())
        t = _t_dense(a, s)
        witness = classify(comparison_matrix(a), p_matrix_limit=0).witness_v
        if witness is not None and certify_rho_lt_one(t, witness):
            hits += 1
            assert iteration_operator_rho(a, s) < 1.0 + 1e-8
    assert hits > 0
