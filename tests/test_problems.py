import numpy as np
import numpy.testing as npt
import pytest

from lcpkit.matrix_core import SparseMatrix, classify
from lcpkit.problems import (
    BenchSpec,
    gen_example1,
    gen_example2,
    gen_random_hplus,
    oracle_solutions,
    oracle_solve,
)
from lcpkit.solvers import LcpProblem, residual


def test_example1_small_instance():
    p = gen_example1(2, 4.0)
    npt.assert_array_equal(
        p.a.to_dense(),
        [[8, -1, -1, 0], [-1, 8, 0, -1], [-1, 0, 8, -1], [0, -1, -1, 8]],
    )
    npt.assert_array_equal(p.sigma, [-5.0, -13.0, -5.0, -13.0])
    npt.assert_array_equal(p.known_solution, [1.0, 2.0, 1.0, 2.0])


def test_example1_zero_shift_diagonal():
    p = gen_example1(2, 0.0)
    assert np.all(p.a.diagonal_vector() == 4.0)


def test_example2_small_instance():
    p = gen_example2(2, 4.0)
    npt.assert_array_equal(
        p.a.to_dense(),
        [[8, -1, -0.5, 0], [-1, 8, 0, -0.5], [-1.5, 0, 8, -1], [0, -1.5, -1, 8]],
    )


def test_symmetry_distinguishes_families():
    d1 = gen_example1(3, 4.0).a.to_dense()
    npt.assert_array_equal(d1, d1.T)
    d2 = gen_example2(3, 4.0).a.to_dense()
    assert not np.array_equal(d2, d2.T)


def test_generator_shapes_and_sparsity():
    for gen in (gen_example1, gen_example2):
        p = gen(10, 4.0)
        assert p.n == 100
        row_counts = np.diff(p.a.row_starts)
        assert row_counts.max() <= 5


def test_generators_reject_tiny_blocks():
    for gen in (gen_example1, gen_example2):
        with pytest.raises(ValueError):
            gen(1, 4.0)
        with pytest.raises(ValueError):
            gen(3, -0.5)


def test_reference_solution_is_exact():
    for gen in (gen_example1, gen_example2):
        for m in (2, 3, 10):
            for delta in (0.0, 1.0, 4.0):
                p = gen(m, delta)
                assert residual(p, p.known_solution) <= 1e-12


def test_solution_pattern_truncates_on_odd_n():
    p = gen_example1(3, 4.0)  # n = 9
    npt.assert_array_equal(p.known_solution[:4], [1.0, 2.0, 1.0, 2.0])
    assert p.known_solution[-1] == 1.0


def test_generated_matrices_classify_h_plus():
    for gen in (gen_example1, gen_example2):
        rep = classify(gen(4, 4.0).a, p_matrix_limit=0)
        assert rep.is_z and rep.is_h_plus


def test_bench_spec_dispatch():
    p = BenchSpec("example2", 3, 2.0).build()
    assert p.n == 9 and p.a.diagonal_vector()[0] == 6.0
    with pytest.raises(ValueError):
        BenchSpec("example3", 3, 2.0)
    with pytest.raises(ValueError):
        BenchSpec("example1", 1, 2.0)
    for bad in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError):
            BenchSpec("example1", 3, bad)


def test_random_hplus_is_deterministic_and_h_plus():
    p1 = gen_random_hplus(6, 42)
    p2 = gen_random_hplus(6, 42)
    assert p1.a == p2.a
    npt.assert_array_equal(p1.sigma, p2.sigma)
    assert gen_random_hplus(6, 43).a != p1.a
    rep = classify(p1.a, p_matrix_limit=8)
    assert rep.is_h_plus and rep.is_p


def test_generators_reject_fractional_sizes():
    # the generators' own checks refuse a fraction; an integral float is taken
    for build in (lambda m: BenchSpec("example1", m).build(),
                  lambda m: gen_example2(m, 4.0),
                  lambda m: gen_random_hplus(m, 0)):
        with pytest.raises(ValueError, match="must be integral"):
            build(3.5)
        assert build(3.0).a == build(3).a


def test_random_hplus_scalar_case():
    p = gen_random_hplus(1, 0)
    assert p.n == 1 and p.a.to_dense()[0, 0] > 0.0


def test_oracle_two_by_two():
    q = LcpProblem(
        a=SparseMatrix.from_dense([[2, -1], [-1, 2]]), sigma=np.array([-1.0, 1.0])
    )
    lam = oracle_solve(q)
    npt.assert_allclose(lam, [0.5, 0.0], atol=1e-12)
    w = q.a.matvec(lam) + q.sigma
    npt.assert_allclose(w, [0.0, 0.5], atol=1e-12)


def test_oracle_nonnegative_sigma_gives_zero():
    q = LcpProblem(a=SparseMatrix.identity(3), sigma=np.array([1.0, 0.0, 2.0]))
    npt.assert_array_equal(oracle_solve(q), np.zeros(3))


def test_oracle_recovers_benchmark_solution():
    p = gen_example1(2, 4.0)
    npt.assert_allclose(oracle_solve(p), [1.0, 2.0, 1.0, 2.0], atol=1e-10)


def test_oracle_size_guard():
    with pytest.raises(ValueError):
        oracle_solve(gen_random_hplus(21, 0))


def test_oracle_solution_unique_for_p_matrices():
    for seed in range(8):
        p = gen_random_hplus(5, seed)
        sols = oracle_solutions(p)
        assert len(sols) >= 1
        first = sols[0]
        for other in sols[1:]:
            assert np.abs(other - first).max() <= 1e-9


def test_oracle_matches_known_solutions():
    for seed in range(5):
        p = gen_random_hplus(6, 100 + seed)
        lam = oracle_solve(p)
        assert lam is not None
        assert residual(p, lam) <= 1e-8
