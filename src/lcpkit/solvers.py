"""Projected splitting iteration and modulus-based baselines for LCP(sigma, A).

The problem: find lambda >= 0 with w = A lambda + sigma >= 0 and
lambda' w = 0.  Progress is measured by Res(lambda), the Euclidean norm
of min(lambda, A lambda + sigma), which vanishes exactly at solutions.

The projected method keeps a raw state vector zeta and applies the
projection max(0, zeta) wherever the iterate enters the right-hand side
or the stopping test; the reported solution is always the projection.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrix_core import (DENSE_LIMIT, SparseMatrix, _dense_solver, _integers, _product, _schedule,
                          lower_triangular_solve)
from .splittings import SplittingKind, make_splitting

DIVERGENCE_NORM = 1e12
_SCALE_LIMIT = np.finfo(np.float64).max / 4


class DivergenceError(RuntimeError):
    """Iterate became non-finite or unboundedly large."""


def _divergence_bound(sigma):
    """DIVERGENCE_NORM relative to the scale of sigma, since the solution
    grows with it."""
    return DIVERGENCE_NORM * max(1.0, float(np.abs(sigma).max()))


def _representable(a, bound):
    """Whether an iterate may grow to bound before the guard stops it: A
    times such an iterate, plus a few like terms, must stay finite."""
    with np.errstate(over="ignore"):
        row_sum = float(_product(a, np.abs(a.values), np.ones(a.n)).max())
    return bound * max(1.0, row_sum) < _SCALE_LIMIT


def _readonly(v, n=None, name="vector"):
    v = np.asarray(v, dtype=np.float64)
    if n is not None and v.shape != (n,):
        raise ValueError(f"{name} must have length {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has a non-finite entry")
    v = v.copy()
    v.setflags(write=False)
    return v


def alternating_initial(n):
    """The (1, 0, 1, 0, ...) start vector used by the benchmark runs."""
    v = np.zeros(n)
    v[::2] = 1.0
    return v


def alternating_solution(n):
    """The (1, 2, 1, 2, ...) reference solution of the benchmark families."""
    v = np.full(n, 2.0)
    v[::2] = 1.0
    return v


@dataclass(frozen=True)
class LcpProblem:
    """Matrix A and vector sigma; optionally a known solution for benchmarks."""

    a: SparseMatrix
    sigma: np.ndarray
    known_solution: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.a, SparseMatrix):
            raise ValueError("a must be a SparseMatrix")
        object.__setattr__(self, "sigma", _readonly(self.sigma, self.a.n, "sigma"))
        if not _representable(self.a, _divergence_bound(self.sigma)):
            raise ValueError(
                f"problem scale not representable: {DIVERGENCE_NORM:g} * max(1, max|sigma|)"
                f" * max(1, largest absolute row sum of A) must stay below {_SCALE_LIMIT:.3g}"
            )
        if self.known_solution is not None:
            lam = _readonly(self.known_solution, self.a.n, "known_solution")
            w = self.a.matvec(lam) + self.sigma
            if lam.min() < 0.0 or w.min() < -1e-9 or abs(float(lam @ w)) > 1e-9:
                raise ValueError("known_solution does not solve the problem")
            object.__setattr__(self, "known_solution", lam)

    @property
    def n(self):
        return self.a.n


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule: residual threshold, iteration cap, start vector.

    initial is the raw start state; None means the alternating
    (1, 0, 1, 0, ...) pattern of the benchmark protocol.
    """

    tol: float = 1e-5
    max_iters: int = 10000
    initial: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        object.__setattr__(self, "max_iters", int(_integers(self.max_iters, "max_iters")))
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.initial is not None:
            object.__setattr__(self, "initial", _readonly(self.initial, name="initial"))

    def start_vector(self, n):
        if self.initial is None:
            return alternating_initial(n)
        if self.initial.shape != (n,):
            raise ValueError(f"initial vector must have length {n}")
        return np.array(self.initial)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: final iterate, counts, and residual history.

    wall_seconds and cpu_seconds (the solving thread's CPU time) both
    cover the passes only, not the assembly before them.
    """

    lam: np.ndarray
    iterations: int
    residuals: np.ndarray
    converged: bool
    wall_seconds: float
    cpu_seconds: float
    method: str = ""
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "lam", _readonly(self.lam, name="lam"))
        object.__setattr__(self, "residuals", _readonly(self.residuals, name="residuals"))

    @property
    def residual_final(self):
        return float(self.residuals[-1])

    def to_json_dict(self):
        """Stable-order record for machine output; wall_seconds is timing."""
        return {
            "method": self.method,
            "n": int(self.lam.size),
            "alpha": self.alpha,
            "beta": self.beta,
            "iterations": self.iterations,
            "residual_final": self.residual_final,
            "wall_seconds": self.wall_seconds,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class ModulusConfig:
    """Modulus baseline knobs: variant, relaxation, Omega scale, gamma.

    Omega is the diagonal matrix omega_scale * D_A; omega_scale defaults
    to 1/(2*alpha).  gamma rescales the unconstrained variable; the fixed
    point lambda = (|x| + x)/gamma is gamma-invariant, but the path (and
    so the iteration count) is not, hence the knob.
    """

    variant: str = "mgs"
    alpha: float = 1.0
    omega_scale: Optional[float] = None
    gamma: float = 1.0

    def __post_init__(self):
        if self.variant not in ("mgs", "msor"):
            raise ValueError("variant must be 'mgs' or 'msor'")
        for name in ("alpha", "omega_scale", "gamma"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite")

    def effective_omega_scale(self):
        if self.omega_scale is not None:
            return float(self.omega_scale)
        return 1.0 / (2.0 * self.alpha)


def residual(p, lam, work=None):
    """Res(lambda) = || min(lambda, A lambda + sigma) ||_2.

    work, a float64 vector of length n that does not overlap lambda,
    takes the intermediate A lambda + sigma in place of a fresh vector."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (p.n,):
        raise ValueError("lambda length mismatch")
    w = p.a.matvec(lam, out=work)
    np.add(w, p.sigma, out=w)
    return float(np.linalg.norm(np.minimum(lam, w, out=w)))


def _linear_solver_for(lhs):
    """Pick the cheapest exact solver the structure of the system matrix
    lhs admits.

    Lower-triangular systems, diagonal ones included, go to forward
    substitution, with its schedule built here, on the cut of lhs's
    pattern, which the built-in splittings' system matrices of a problem
    share (``_schedule``); anything else (custom splittings) gets a
    one-time dense LU, capped at n <= DENSE_LIMIT so the fallback can't
    masquerade as a sparse method at scale.
    """
    if lhs.is_lower_triangular():
        _schedule(lhs)
        return lambda b: lower_triangular_solve(lhs, b)
    if lhs.n > DENSE_LIMIT:
        raise ValueError(
            f"system matrix is not triangular and n > {DENSE_LIMIT}; "
            "dense factorization refused"
        )
    return _dense_solver(lhs)


def _guard(vec, k, bound):
    # a nan or inf entry fails the test as a large one does
    if not np.abs(vec).max() <= bound:
        raise DivergenceError(f"iterate diverged at iteration {k}")


def shifted_system(a, s):
    """The projected method's matrices M + 2I + D_A, N + I + D_A and A - I."""
    d = a.diagonal_vector()
    return s.m.add_diagonal(d + 2.0), s.n_part.add_diagonal(d + 1.0), a.add_diagonal(-1.0)


def _iterate(p, cfg, bound, step, to_lambda, on_iterate):
    """Fixed-point driver shared by both method families.

    Starting from cfg's start vector, each pass replaces the state by
    step(state, work), guards it against divergence (every entry at most
    bound, which the start vector must meet too), maps it to lambda
    with to_lambda and stops once Res(lambda) < tol.  Returns the
    SolveReport fields the pass loop determines.

    work is a vector made once per call, which Res also takes for its
    intermediate vector; step may overwrite it and the state it is
    given, which no one else holds.  step and to_lambda return fresh
    vectors, so each lambda handed to on_iterate stays as it was.
    """
    state = cfg.start_vector(p.n)
    if float(np.abs(state).max()) > bound:
        raise ValueError(f"initial vector exceeds the divergence bound {bound:.3g}")
    residuals = []
    work = np.empty(p.n)
    converged = False
    t0, c0 = time.perf_counter(), time.thread_time()
    for k in range(1, cfg.max_iters + 1):
        # a step that overflows (a tiny pivot, say) is left to _guard, and
        # a lambda or Res that overflows (a tiny gamma) to the test of Res
        with np.errstate(over="ignore", invalid="ignore"):
            state = step(state, work)
            _guard(state, k, bound)
            lam = to_lambda(state)
            res = residual(p, lam, work=work)
        if not np.isfinite(res):
            raise DivergenceError(f"Res(lambda) is not finite at iteration {k}")
        residuals.append(res)
        if on_iterate is not None:
            on_iterate(k, lam)
        if res < cfg.tol:
            converged = True
            break
    return dict(
        lam=lam,
        iterations=len(residuals),
        residuals=np.asarray(residuals),
        converged=converged,
        wall_seconds=time.perf_counter() - t0,
        cpu_seconds=time.thread_time() - c0,
    )


def projected_solve(p, s, cfg, on_iterate=None):
    """Run the projected splitting iteration on problem p.

    Each pass solves (M + 2I + D_A) zeta_next = (N + I + D_A) lam
    + |(A - I) lam + sigma| - sigma with lam = max(0, zeta), then tests
    Res on the projected new iterate.  The iteration count is the number
    of passes performed when the test first succeeds.

    on_iterate, when given, is called as on_iterate(k, lam_k) with the
    projected iterate after pass k; it must not mutate its argument.
    """
    if s.m.n != p.n:
        raise ValueError("splitting dimension mismatch")
    lhs, rhs_mat, shifted = shifted_system(p.a, s)
    solve = _linear_solver_for(lhs)
    sigma = p.sigma
    # every solver returns a fresh vector, so the state never shares rhs
    rhs = np.empty(p.n)

    def step(zeta, w):
        lam = np.maximum(0.0, zeta, out=zeta)
        rhs_mat.matvec(lam, out=rhs)
        shifted.matvec(lam, out=w)
        np.add(w, sigma, out=w)
        np.add(rhs, np.abs(w, out=w), out=rhs)
        return solve(np.subtract(rhs, sigma, out=rhs))

    kind = s.kind
    return SolveReport(
        **_iterate(p, cfg, _divergence_bound(sigma), step, lambda zeta: np.maximum(0.0, zeta),
                   on_iterate),
        method=kind.tag,
        alpha=kind.alpha1,
        beta=kind.beta1,
    )


def modulus_solve(p, cfg, mcfg, on_iterate=None):
    """Run the modulus-based splitting baseline (mgs or msor variants).

    State is the unconstrained vector x; each pass solves
    (M + Omega) x_next = N x + (Omega - A) |x| - gamma sigma and reports
    lambda = (|x_next| + x_next) / gamma, stopping on Res(lambda) < tol.
    The splitting matches the projected family: mgs uses the Gauss-Seidel
    pair, msor the SOR pair at the configured alpha.
    """
    if mcfg.variant == "mgs":
        kind = SplittingKind.npgs()
    else:
        kind = SplittingKind.npsor(mcfg.alpha)
    s = make_splitting(p.a, kind)
    d = p.a.diagonal_vector()
    gamma = mcfg.gamma
    # an Omega or gamma sigma that overflows is an input error, refused below
    with np.errstate(over="ignore"):
        omega = mcfg.effective_omega_scale() * d
        sigma_term = gamma * p.sigma
    if not np.all(np.isfinite(sigma_term)):
        raise ValueError("gamma * sigma is not finite (overflow)")
    # the state x is about gamma lambda, so its guard scales with gamma
    bound = _divergence_bound(p.sigma) * max(1.0, gamma)
    if not _representable(p.a, bound):
        raise ValueError(
            f"gamma scale not representable: {DIVERGENCE_NORM:g} * max(1, max|sigma|)"
            f" * max(1, gamma) * max(1, largest absolute row sum of A) must stay below"
            f" {_SCALE_LIMIT:.3g}"
        )
    if np.any(omega <= 0.0):
        raise ValueError("Omega must be a positive diagonal; matrix diagonal is not")
    solve = _linear_solver_for(s.m.add_diagonal(omega))
    omega_minus_a = p.a._by_triangle(omega - d, -1.0, -1.0)
    rhs = np.empty(p.n)  # as in projected_solve

    def step(x, w):
        s.n_part.matvec(x, out=rhs)
        omega_minus_a.matvec(np.abs(x, out=x), out=w)
        np.add(rhs, w, out=rhs)
        return solve(np.subtract(rhs, sigma_term, out=rhs))

    def to_lambda(x):
        lam = np.abs(x)  # (|x| + x) / gamma in one fresh vector
        return np.divide(np.add(lam, x, out=lam), gamma, out=lam)

    return SolveReport(
        **_iterate(p, cfg, bound, step, to_lambda, on_iterate),
        method=mcfg.variant,
        alpha=mcfg.alpha,
        gamma=gamma,
    )
