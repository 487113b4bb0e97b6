"""Convergence certification for the projected splitting iteration.

The iteration contracts errors through the nonnegative operator

    T = |(M + 2I + D_A)^-1| (|N + I + D_A| + |A - I|)

so rho(T) < 1 certifies convergence from any start.  This module builds
T (exactly, as an upper bound, or matrix-free), runs power iteration on
it, and evaluates two sufficient hypothesis sets: a spectral one
(P-matrix plus rho(T) < 1) and a structural one for H-matrices with
positive diagonal.  Both are sufficient, not necessary: a failed check
never proves divergence.

The spectral verdict rests on a bound, not on the power estimate: each
pass of the power iteration yields a Collatz-Wielandt bracket
min_i (Tv)_i/v_i <= rho(T) <= max_i (Tv)_i/v_i, and the check passes
only when the upper end is below 1 - STRICTNESS_MARGIN.  It stops at the
first pass whose bracket lies on one side of that threshold (the first
pass, on the paper's tabulated setups and their scalings to diagonal
0.9), or once the estimate settles with the bracket still straddling
it, which fails, as does a pass whose T v overflows.  While n <=
matrix_core.DENSE_LIMIT a pass of T is a sparse matvec and a product
with the dense |inv(M + 2I + D_A)|; past it T is applied matrix-free (a
sparse matvec and a forward solve).  The inverse and every M test are
matrix_core's (``_dense_inverse``, ``_m_probe``).
"""

import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .matrix_core import (
    DENSE_LIMIT,
    SparseMatrix,
    _dense_inverse,
    _m_probe,
    _principal_minors_positive,
    _verified_positive,
    comparison_matrix,
    lower_triangular_solve,
    spectral_radius_nonneg,
)
from .solvers import shifted_system
from .splittings import is_h_compatible

RHO_MODES = ("exact_dense", "comparison_bound", "operator")

# margin under 1.0 so power-iteration noise cannot flip a boundary verdict
STRICTNESS_MARGIN = 1e-8


class ModeUnsupportedError(ValueError):
    """The requested rho mode does not apply to this operator's structure."""


@dataclass(frozen=True, kw_only=True)
class ConvergenceCertificate:
    """Evaluated sufficient conditions for one (matrix, splitting) pair.

    The spectral fields are present only when a spectral check was
    requested: [rho_lower, rho_upper] is the Collatz-Wielandt bracket on
    rho(T) after power_iterations passes (rho_lower is 0 in
    comparison_bound mode), rho_t the point estimate inside it, and
    rho_mode records how T was applied so a bound is never mistaken for
    the exact value.  The structural branch:
    hmatrix_conditions_ok = h_plus and h_compatible and
    (diag_geq_one and coupling_matrix_is_m, or diag_below_one), where the
    coupling matrix is <A> + 2I - D_A - |B| with B = L_A + U_A.  The
    fields are declared in the order of the JSON record.
    """

    rho_t: Optional[float] = None
    rho_lower: Optional[float] = None
    rho_upper: Optional[float] = None
    power_iterations: Optional[int] = None
    rho_mode: Optional[str] = None
    spectral_condition_ok: Optional[bool] = None
    h_plus: bool
    h_compatible: bool
    diag_geq_one: bool
    coupling_matrix_is_m: bool
    diag_below_one: bool
    hmatrix_conditions_ok: bool
    notes: str = ""

    def to_json_dict(self):
        return asdict(self)


def _mode_for(a, mode):
    """mode, or when it is None the default for a: exact_dense while
    n <= DENSE_LIMIT, operator past it."""
    if mode is None:
        return "exact_dense" if a.n <= DENSE_LIMIT else "operator"
    return mode


def _rho_estimate(a, s, mode, threshold=None):
    """RadiusEstimate for T in the given mode; threshold goes to
    spectral_radius_nonneg as its early stop."""
    if mode not in RHO_MODES:
        raise ValueError(f"mode must be one of {RHO_MODES}")
    lhs, rhs_mat, shifted = shifted_system(a, s)
    reach = rhs_mat.abs_entrywise().add(shifted.abs_entrywise())
    if mode == "operator":
        # inv(lhs) >= 0, making |inv| a plain forward solve, when lhs is a
        # lower-triangular M-matrix (_m_probe reads its diagonal's signs)
        if not (lhs.is_lower_triangular() and _m_probe(lhs)):
            raise ModeUnsupportedError(
                "operator mode needs a lower-triangular system matrix with "
                "positive diagonal and nonpositive off-diagonal"
            )
        apply_t = lambda x: lower_triangular_solve(lhs, reach.matvec(x))
        return spectral_radius_nonneg(apply_t, n=a.n, threshold=threshold)
    if a.n > DENSE_LIMIT:
        raise ValueError(f"{mode} mode limited to n <= {DENSE_LIMIT}")
    if mode == "comparison_bound":
        lhs = comparison_matrix(lhs)
        if not _m_probe(lhs):
            raise ModeUnsupportedError(
                "comparison bound needs the comparison of the system matrix "
                "to be an M-matrix"
            )
    # np.abs on the comparison-bound inverse is a mathematical no-op (the
    # inverse is nonnegative), but keeping the two pipelines identical means
    # the bound can never undercut the exact value through rounding alone.
    inv_abs = _dense_inverse(lhs)
    np.abs(inv_abs, out=inv_abs)
    apply_t = lambda x: inv_abs @ reach.matvec(x)
    return spectral_radius_nonneg(apply_t, n=a.n, threshold=threshold)


def iteration_operator_rho(a, s, mode=None):
    """Spectral-radius estimate of T for splitting s of a.

    mode defaults as in ``check_spectral_condition``.  exact_dense
    materializes |inv(M + 2I + D_A)| (n capped); operator applies T
    matrix-free under a verified sign pattern; comparison_bound
    replaces the inverse factor by the inverse of its comparison matrix,
    which can only overestimate.  A structure that doesn't support the
    requested mode raises ModeUnsupportedError rather than answering
    something else.
    """
    est = _rho_estimate(a, s, _mode_for(a, mode))
    if est.overflowed:
        warnings.warn(
            f"T v overflowed at power iteration {est.iterations}; "
            "estimate may be inaccurate",
            stacklevel=2,
        )
    elif not est.converged:
        warnings.warn(
            f"power iteration did not converge in {est.iterations} steps; "
            "estimate may be inaccurate",
            stacklevel=2,
        )
    return est.value


def _structural_fields(a, s):
    d = a.diagonal_vector()
    # <A> is A itself, bitwise, for a Z-matrix with nonnegative diagonal
    h_plus = bool(np.all(d > 0.0)) and _m_probe(comparison_matrix(a))
    h_compatible = is_h_compatible(a, s.m.add_diagonal(d + 1.0), s.n_part.add_diagonal(d + 1.0))
    diag_geq_one = bool(np.all(d >= 1.0))
    diag_below_one = bool(np.all(d < 1.0))
    # coupling matrix <A> + 2I - D_A - |B|, B the off-diagonal part: |d| +
    # (2 - d) on the diagonal and -2|b| off it; for a positive diagonal this
    # collapses to 2I - 2|B|
    coupling = a.abs_entrywise()._by_triangle(np.abs(d) + (2.0 - d), -2.0, -2.0)
    coupling_is_m = _m_probe(coupling)
    ok = h_plus and h_compatible and ((diag_geq_one and coupling_is_m) or diag_below_one)
    return dict(
        h_plus=h_plus,
        h_compatible=h_compatible,
        diag_geq_one=diag_geq_one,
        coupling_matrix_is_m=coupling_is_m,
        diag_below_one=diag_below_one,
        hmatrix_conditions_ok=ok,
    )


def check_spectral_condition(a, s, p_limit=12, mode=None):
    """Certificate with the rho(T) bracket filled in and the structural
    fields evaluated.

    spectral_condition_ok holds when the upper end of the bracket is below
    1 - margin, so a pass is sound whatever the point estimate says; the
    power iteration stops as soon as the bracket is on one side of that
    threshold.  rho_t is the point estimate clamped into the bracket.
    P-matrix status goes to the notes when n <= p_limit (the enumeration
    is exponential, so a p_limit above 20 raises ValueError before any
    work); the spectral verdict is computed either way.  mode
    defaults to exact_dense when n permits, otherwise operator.  In
    comparison_bound mode the bracket's lower end bounds the spectral
    radius of the bound operator, which can exceed rho(T), so rho_lower
    is reported as 0; the iteration still stops once that lower end
    reaches the threshold, since the bound can then never certify.
    """
    is_p = _principal_minors_positive(a, p_limit)
    mode = _mode_for(a, mode)
    threshold = 1.0 - STRICTNESS_MARGIN
    est = _rho_estimate(a, s, mode, threshold=threshold)
    lower = 0.0 if mode == "comparison_bound" else est.lower
    rho_t = min(max(est.value, lower), est.upper)
    fields = _structural_fields(a, s)
    notes = []
    if is_p is None:
        notes.append(f"P-matrix status not checked (n > {p_limit})")
    elif is_p:
        notes.append("A is a P-matrix")
    else:
        notes.append("A is not a P-matrix; spectral verdict still evaluated")
    if est.overflowed:
        notes.append(f"T v overflowed at power iteration {est.iterations}; "
                     "spectral condition not certified")
    elif not est.converged:
        notes.append("power iteration hit its cap; rho_t is the best estimate")
    if lower < threshold <= est.upper and not est.overflowed:
        notes.append("rho bracket straddles 1 - margin; spectral condition not certified")
    if fields["hmatrix_conditions_ok"] and rho_t >= 1.0 and not est.overflowed:
        notes.append("structural conditions passed but rho estimate >= 1")
    return ConvergenceCertificate(
        rho_t=rho_t,
        rho_lower=lower,
        rho_upper=est.upper,
        power_iterations=est.iterations,
        rho_mode=mode,
        spectral_condition_ok=bool(est.upper < threshold),
        notes="; ".join(notes),
        **fields,
    )


def check_hmatrix_conditions(a, s):
    """Certificate for the structural (H-matrix) sufficient conditions.

    No spectral estimate is computed; rho_t stays None.  The conditions
    are sufficient only, which the notes spell out when they fail.
    """
    fields = _structural_fields(a, s)
    notes = []
    if np.all(a.diagonal_vector() > 0.0):
        notes.append("coupling matrix reduces to 2I - 2|B| (positive diagonal)")
    if not fields["hmatrix_conditions_ok"]:
        notes.append(
            "conditions are sufficient, not necessary; failure does not "
            "prove divergence"
        )
    return ConvergenceCertificate(notes="; ".join(notes), **fields)


def certify_rho_lt_one(t, v):
    """Sound one-sided certificate: T v < v exactly for the float v > 0.

    t is a SparseMatrix or an array, read by its nonzeros (a callable's
    rounding cannot be bounded).  v - T v goes to
    ``matrix_core._verified_positive`` as the terms I and -T, so the
    rounding bound is on |T| v and holds for a T of mixed sign.  True
    guarantees rho(T) < 1 for nonnegative T; False certifies nothing.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)) or v.min() <= 0.0:
        raise ValueError("v must be finite and strictly positive componentwise")
    if isinstance(t, np.ndarray):
        t = SparseMatrix.from_dense(t)
    elif not isinstance(t, SparseMatrix):
        raise ValueError("t must be a SparseMatrix or an array, not a callable")
    if t.n != v.size:
        raise ValueError(f"t is {t.n} x {t.n} but v has length {v.size}")
    return _verified_positive([(1, SparseMatrix.identity(t.n)), (-1, t)], v)
