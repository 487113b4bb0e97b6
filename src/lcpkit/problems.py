"""Benchmark problem generators and a small exhaustive reference solver.

Two block-tridiagonal families (one symmetric, one not) built around the
m x m tridiagonal block tridiag(-1, 4, -1), shifted by delta1 on the
diagonal, with sigma chosen so the alternating vector (1, 2, 1, 2, ...)
solves the problem exactly.  A seeded dense generator supplies strictly
diagonally dominant test instances, and oracle_solve recovers exact
solutions for tiny problems by support enumeration.
"""

from dataclasses import dataclass

import numpy as np

from .matrix_core import SparseMatrix, _integers
from .solvers import LcpProblem, alternating_solution

ORACLE_LIMIT = 20


@dataclass(frozen=True)
class BenchSpec:
    """Benchmark family selector: family name, block order m (n = m*m), shift."""

    family: str
    m: int
    delta1: float = 4.0

    def __post_init__(self):
        if self.family not in ("example1", "example2"):
            raise ValueError("family must be 'example1' or 'example2'")
        if _integers(self.m, "block order m") < 2:
            raise ValueError("block order m must be at least 2")
        if not 0.0 <= self.delta1 < np.inf:
            raise ValueError("delta1 must be nonnegative and finite")

    def build(self):
        gen = gen_example1 if self.family == "example1" else gen_example2
        return gen(self.m, self.delta1)


def _block_tridiag(m, delta1, sub, sup):
    """A = P1 + delta1*I with tridiag(-1, 4, -1) diagonal blocks and
    sub*I / sup*I off-diagonal blocks; n = m*m."""
    m = int(_integers(m, "block order m"))
    if m < 2:
        raise ValueError("block order m must be at least 2")
    if delta1 < 0.0:
        raise ValueError("delta1 must be nonnegative")
    n = m * m
    idx = np.arange(n)
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 4.0 + delta1)]
    inner = idx[idx % m != m - 1]  # no coupling across block boundaries
    rows += [inner, inner + 1]
    cols += [inner + 1, inner]
    vals += [np.full(inner.size, -1.0), np.full(inner.size, -1.0)]
    outer = idx[: n - m]
    rows += [outer, outer + m]
    cols += [outer + m, outer]
    vals += [np.full(outer.size, sup), np.full(outer.size, sub)]
    a = SparseMatrix.from_coo(
        n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    lam_star = alternating_solution(n)
    sigma = -a.matvec(lam_star)
    return LcpProblem(a=a, sigma=sigma, known_solution=lam_star)


def gen_example1(m, delta1):
    """Symmetric family: every off-diagonal block is -I."""
    return _block_tridiag(m, delta1, sub=-1.0, sup=-1.0)


def gen_example2(m, delta1):
    """Nonsymmetric family: -0.5 I above the block diagonal, -1.5 I below."""
    return _block_tridiag(m, delta1, sub=-1.5, sup=-0.5)


def gen_random_hplus(n, seed):
    """Seeded dense instance that is strictly diagonally dominant.

    Off-diagonal entries are uniform on [-1, 0]; each diagonal entry is
    the absolute row sum of the off-diagonals plus a uniform(0.1, 2)
    bump, which forces the comparison matrix to be an M-matrix with
    positive diagonal.  sigma is uniform on [-5, 5].  Draw order is
    fixed (off-diagonals, bumps, sigma) so instances are reproducible.
    seed is a nonnegative integer, as numpy's generator takes it.
    """
    n = int(_integers(n, "n"))
    if n < 1:
        raise ValueError("n must be positive")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 0.0, size=(n, n))
    np.fill_diagonal(dense, 0.0)
    bump = rng.uniform(0.1, 2.0, size=n)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + bump)
    sigma = rng.uniform(-5.0, 5.0, size=n)
    return LcpProblem(a=SparseMatrix.from_dense(dense), sigma=sigma)


def _support_solution(dense, sigma, mask_bits, tol):
    n = sigma.size
    support = [i for i in range(n) if mask_bits >> i & 1]
    lam = np.zeros(n)
    if support:
        sub = dense[np.ix_(support, support)]
        try:
            lam_s = np.linalg.solve(sub, -sigma[support])
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(lam_s)) or lam_s.min() < -tol:
            return None
        lam[support] = lam_s
    w = dense @ lam + sigma
    off = np.ones(n, dtype=bool)
    off[support] = False
    if off.any() and w[off].min() < -tol:
        return None
    return np.maximum(lam, 0.0)


def _oracle_candidates(p, tol):
    n = p.n
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to n <= {ORACLE_LIMIT}")
    dense = p.a.to_dense()
    for mask_bits in range(1 << n):
        lam = _support_solution(dense, p.sigma, mask_bits, tol)
        if lam is not None:
            yield lam


def oracle_solutions(p, tol=1e-10):
    """Every solution found by exhaustive support enumeration, in
    ascending-bitmask order of the supports that produced them."""
    return list(_oracle_candidates(p, tol))


def oracle_solve(p, tol=1e-10):
    """First solution by ascending support bitmask, or None.

    Support sets are enumerated exhaustively; each candidate solves the
    principal subsystem and is accepted when both the on-support iterate
    and the off-support slack clear -tol.  Singular subsystems are
    skipped.  For P-matrices the solution is unique, so the tie-break
    order is immaterial there.
    """
    return next(_oracle_candidates(p, tol), None)
