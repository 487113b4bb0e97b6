"""Reference answers for the certify workload, computed without lcpkit.

Builds each test matrix and the iteration operator

    T = |inv(M + 2I + D_A)| (|N + I + D_A| + |A - I|)

densely in numpy from their definitions, and takes rho(T) as
max |eigvals(T)|.  The structural fields follow the same definitions
as lcpkit's certificate: an M-matrix test is "Z-matrix whose eigenvalues
all have positive real part".  workloads.py holds the values this script
printed; rerun it to regenerate them:

    python3 perfbench/reference.py 30 6
"""

import json
import sys

import numpy as np

DELTA = 4.0
SCALED_DIAG = 0.9

# (pair name, family, SOR relaxation alpha, diagonal scaled to 0.9);
# alpha 1 is the Gauss-Seidel splitting npgs
PAIRS = (
    ("example1_npgs", "example1", 1.0, False),
    ("example2_npsor", "example2", 1.7, False),
    ("example1_npgs_scaled", "example1", 1.0, True),
    ("example2_npsor_scaled", "example2", 1.7, True),
)


def grid_matrix(family, m, delta=DELTA):
    """Block-tridiagonal test matrix of the example1/example2 families."""
    sub, sup = (-1.0, -1.0) if family == "example1" else (-1.5, -0.5)
    n = m * m
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 4.0 + delta
    inner = idx[idx % m != m - 1]
    a[inner, inner + 1] = -1.0
    a[inner + 1, inner] = -1.0
    outer = idx[: n - m]
    a[outer, outer + m] = sup
    a[outer + m, outer] = sub
    return a


def _is_m_matrix(z):
    off = z - np.diag(np.diag(z))
    return bool(np.all(off <= 0.0) and np.all(np.linalg.eigvals(z).real > 0.0))


def _comparison(x):
    return -np.abs(x) + 2.0 * np.diag(np.abs(np.diag(x)))


def reference(a, alpha):
    """rho(T), verdict and structural fields for the SOR-family splitting
    of a at relaxation alpha (alpha = 1 is Gauss-Seidel)."""
    n = a.shape[0]
    d = np.diag(a)
    lower = -np.tril(a, -1)
    upper = -np.triu(a, 1)
    m_part = (np.diag(d) - alpha * lower) / alpha
    n_part = ((1.0 - alpha) * np.diag(d) + alpha * upper) / alpha
    eye = np.eye(n)
    lhs = m_part + np.diag(d + 2.0)
    reach = np.abs(n_part + np.diag(d + 1.0)) + np.abs(a - eye)
    t = np.abs(np.linalg.inv(lhs)) @ reach
    rho = float(np.abs(np.linalg.eigvals(t)).max())
    h_plus = _is_m_matrix(_comparison(a)) and bool(np.all(d > 0.0))
    compat = _comparison(m_part + np.diag(d + 1.0)) - np.abs(n_part + np.diag(d + 1.0))
    scale = max(1.0, np.abs(compat).max(), np.abs(a).max())
    h_compatible = bool(np.abs(compat - _comparison(a)).max() <= 1e-12 * scale)
    b_abs = np.abs(a - np.diag(d))
    coupling_is_m = _is_m_matrix(_comparison(a) + np.diag(2.0 - d) - b_abs)
    diag_geq_one = bool(np.all(d >= 1.0))
    diag_below_one = bool(np.all(d < 1.0))
    return {
        "rho_eigvals": rho,
        "spectral_condition_ok": rho < 1.0,
        "h_plus": h_plus,
        "h_compatible": h_compatible,
        "diag_geq_one": diag_geq_one,
        "coupling_matrix_is_m": coupling_is_m,
        "diag_below_one": diag_below_one,
        "hmatrix_conditions_ok": h_plus and h_compatible and (
            (diag_geq_one and coupling_is_m) or diag_below_one),
    }


def references(m):
    out = {}
    for name, family, alpha, scaled in PAIRS:
        a = grid_matrix(family, m)
        if scaled:
            a = a * (SCALED_DIAG / np.diag(a).max())
        out[name] = reference(a, alpha)
    return out


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(json.dumps({int(arg): references(int(arg))}, indent=1))
