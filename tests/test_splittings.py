import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcpkit import matrix_core
from lcpkit.matrix_core import SparseMatrix, classify, comparison_matrix
from lcpkit.problems import gen_random_hplus
from lcpkit.splittings import (
    EQ_TOL,
    SplittingKind,
    _h_compatible,
    analyze_splitting,
    custom_splitting,
    make_splitting,
)


def _split(dense, kind):
    a = SparseMatrix.from_dense(dense)
    return a, make_splitting(a, kind)


def test_npgs_definition():
    a, s = _split([[4, -1], [-2, 5]], SplittingKind.npgs())
    npt.assert_array_equal(s.m.to_dense(), [[4, 0], [-2, 5]])
    npt.assert_array_equal(s.n_part.to_dense(), [[0, 1], [0, 0]])


def test_npsor_definition():
    a, s = _split([[4, -1], [-2, 5]], SplittingKind.npsor(2.0))
    npt.assert_array_equal(s.m.to_dense(), [[2, 0], [-2, 2.5]])
    npt.assert_array_equal(s.n_part.to_dense(), [[-2, 1], [0, -2.5]])
    npt.assert_array_equal(s.m.subtract(s.n_part).to_dense(), a.to_dense())


def test_npj_definition():
    a, s = _split([[4, -1], [-2, 5]], SplittingKind.npj())
    npt.assert_array_equal(s.m.to_dense(), [[4, 0], [0, 5]])
    npt.assert_array_equal(s.n_part.to_dense(), [[0, 1], [2, 0]])


def test_m_minus_n_reproduces_a_across_parameters():
    rng = np.random.default_rng(5)
    mats = [rng.uniform(-3, 3, (n, n)) * (rng.random((n, n)) < 0.7)
            for n in (1, 4, 7)]
    for dense in mats:
        a = SparseMatrix.from_dense(dense)
        scale = max(1.0, a.max_abs())
        for alpha in (0.5, 1.0, 1.7):
            for beta in (0.0, 0.5, alpha):
                s = make_splitting(a, SplittingKind.npaor(alpha, beta))
                diff = s.m.subtract(s.n_part).subtract(a).max_abs()
                assert diff <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(0.1, 1.9), beta=st.floats(0.0, 1.9))
def test_m_minus_n_reproduces_random_h_plus(n, seed, alpha, beta):
    a = gen_random_hplus(n, seed).a
    scale = max(1.0, a.max_abs())
    for kind in (SplittingKind.npj(), SplittingKind.npgs(),
                 SplittingKind.npsor(alpha), SplittingKind.npaor(alpha, beta)):
        s = make_splitting(a, kind)
        assert s.m.subtract(s.n_part).subtract(a).max_abs() <= 1e-12 * scale


def _chained_parts(a, alpha, beta):
    """M and N as an earlier version built them: the negated triangles L
    and U, scaled and added to the diagonal one build at a time."""
    d = a.diagonal_vector()
    lo, up = a.strict_lower().scaled(-1), a.strict_upper().scaled(-1)
    inv = 1.0 / alpha
    m = SparseMatrix.diagonal(d * inv).add(lo.scaled(-beta * inv))
    n = (SparseMatrix.diagonal(d * ((1.0 - alpha) * inv))
         .add(lo.scaled((alpha - beta) * inv)).add(up.scaled(alpha * inv)))
    return m, n


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       alpha=st.one_of(st.sampled_from([1.0, 1.7, 1e-3]), st.floats(0.1, 1.9)),
       beta=st.one_of(st.sampled_from([0.0, 1.0, -0.7, 1e-300]), st.floats(-2.0, 2.0)))
def test_family_parts_are_the_chain_bitwise(n, seed, alpha, beta):
    # missing diagonals and empty rows included; no stored value is 0.0,
    # so == compares bits
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-3, 3, (n, n)) * (rng.random((n, n)) < 0.6)
    a = SparseMatrix.from_dense(dense)
    s = make_splitting(a, SplittingKind.npaor(alpha, beta))
    assert (s.m, s.n_part) == _chained_parts(a, alpha, beta)


def test_reductions_are_bitwise():
    rng = np.random.default_rng(9)
    dense = rng.uniform(-2, 2, (6, 6)) * (rng.random((6, 6)) < 0.6)
    a = SparseMatrix.from_dense(dense)
    for reduced, named in [
        (SplittingKind.npaor(1.0, 1.0), SplittingKind.npgs()),
        (SplittingKind.npaor(1.0, 0.0), SplittingKind.npj()),
        (SplittingKind.npaor(1.7, 1.7), SplittingKind.npsor(1.7)),
    ]:
        sa, sb = make_splitting(a, reduced), make_splitting(a, named)
        assert sa.m == sb.m
        assert sa.n_part == sb.n_part


def test_kind_validation():
    with pytest.raises(ValueError):
        SplittingKind("npsor")  # missing alpha
    with pytest.raises(ValueError):
        SplittingKind.npsor(0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            SplittingKind.npsor(bad)
        with pytest.raises(ValueError, match="finite"):
            SplittingKind.npaor(1.0, bad)
    with pytest.raises(ValueError):
        SplittingKind("npaor", alpha1=1.0)  # missing beta
    with pytest.raises(ValueError):
        SplittingKind("gauss")
    with pytest.raises(ValueError):
        make_splitting(SparseMatrix.identity(2), SplittingKind("custom"))


def test_analyze_textbook_cases():
    a, s = _split([[2, -1], [-1, 2]], SplittingKind.npgs())
    rec = analyze_splitting(a, s)
    assert rec.is_valid and rec.is_m_splitting and rec.is_h_compatible

    a, s = _split([[2, -1], [-1, 2]], SplittingKind.npsor(2.0))
    rec = analyze_splitting(a, s)
    assert rec.is_valid and not rec.is_m_splitting  # N has a negative diagonal

    ident = SparseMatrix.identity(2)
    rec = analyze_splitting(ident, make_splitting(ident, SplittingKind.npj()))
    assert rec.is_valid and rec.is_m_splitting and rec.is_h_compatible


def test_analyze_splitting_decides_a_custom_m_without_a_solve(monkeypatch):
    n = 6
    m = SparseMatrix.from_dense(4 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    a = m.subtract(SparseMatrix.identity(n))
    s = custom_splitting(a, m, SparseMatrix.identity(n))
    monkeypatch.setattr(matrix_core, "_m_matrix_witness", lambda z: pytest.fail("solved"))
    assert analyze_splitting(a, s).is_m_splitting


def test_custom_splitting_validates():
    a = SparseMatrix.from_dense([[2, -1], [-1, 2]])
    m = SparseMatrix.from_dense([[3, 0], [-1, 3]])
    s = custom_splitting(a, m, m.subtract(a))
    assert s.kind.tag == "custom"
    assert analyze_splitting(a, s).is_valid
    with pytest.raises(ValueError):
        custom_splitting(a, m, m)  # M - N != A
    with pytest.raises(ValueError):
        custom_splitting(a, SparseMatrix.identity(3), SparseMatrix.identity(3))


def test_h_compatible_pairs_leave_an_m_matrix():
    # whenever <M> - |N| = <A> holds on these dominant instances, that
    # difference must itself be an M-matrix
    rng = np.random.default_rng(13)
    hits = 0
    for _ in range(12):
        n = int(rng.integers(2, 9))
        off = rng.uniform(-1, 0, (n, n))
        np.fill_diagonal(off, 0.0)
        np.fill_diagonal(off, np.abs(off).sum(axis=1) + rng.uniform(0.1, 1.5, n))
        a = SparseMatrix.from_dense(off)
        for kind in (SplittingKind.npgs(), SplittingKind.npj()):
            s = make_splitting(a, kind)
            rec = analyze_splitting(a, s)
            if rec.is_h_compatible:
                hits += 1
                diff = comparison_matrix(s.m).subtract(s.n_part.abs_entrywise())
                assert classify(diff, p_matrix_limit=0).is_m
    assert hits > 0


def _chained_h_compatible(a, m, n_part, shift):
    """is_h_compatible(a, M + diag(shift), N + diag(shift)) as an earlier
    version computed it, one build per step."""
    m, n_part = m.add_diagonal(shift), n_part.add_diagonal(shift)
    x = comparison_matrix(m).subtract(n_part.abs_entrywise())
    y = comparison_matrix(a)
    scale = max(1.0, x.max_abs(), y.max_abs())
    return x.subtract(y).max_abs() <= EQ_TOL * scale


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from([SplittingKind.npj(), SplittingKind.npgs(),
                             SplittingKind.npsor(1.7), SplittingKind.npaor(1.2, -0.5)]),
       z=st.booleans(), custom=st.booleans(), shifted=st.booleans(),
       t=st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 2**-40, 1.0 + 2**-40]), st.floats(0.0, 3.0)))
def test_h_compatible_is_the_chain(n, seed, kind, z, custom, shifted, t):
    # t scales a perturbation of one entry of N to about the tolerance,
    # so that the verdict rests on the last bits of the comparison; the
    # named splittings of a Z-matrix with positive diagonal are compatible
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-3, 3, (n, n)) * (rng.random((n, n)) < 0.6)
    if z:
        dense = -np.abs(dense)
        np.fill_diagonal(dense, rng.uniform(0.5, 3.0, n))
    a = SparseMatrix.from_dense(dense)
    s = make_splitting(a, kind)
    m, n_part = s.m, s.n_part
    if custom:  # a pair with other patterns, M - N = A still
        m = SparseMatrix.from_dense(rng.uniform(-3, 3, (n, n)) * (rng.random((n, n)) < 0.5))
        n_part = m.subtract(a)
    i, j = (int(k) for k in rng.integers(0, n, 2))
    bump = SparseMatrix.from_coo(n, [i], [j], [t * EQ_TOL * max(1.0, a.max_abs())])
    n_part = n_part.add(bump)
    shift = a.diagonal_vector() + 1.0 if shifted else 0.0
    assert _h_compatible(a, m, n_part, shift) is _chained_h_compatible(a, m, n_part, shift)


def test_effective_parameters_mapping():
    assert SplittingKind.npj().effective_parameters() == (1.0, 0.0)
    assert SplittingKind.npgs().effective_parameters() == (1.0, 1.0)
    assert SplittingKind.npsor(1.7).effective_parameters() == (1.7, 1.7)
    assert SplittingKind.npaor(1.7, 0.3).effective_parameters() == (1.7, 0.3)
    with pytest.raises(ValueError):
        SplittingKind("custom").effective_parameters()
