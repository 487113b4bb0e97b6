import copy
import pickle
import re

import numpy as np
import pytest

from lcpkit import (BenchSpec, ClassificationReport, ConvergenceCertificate, DluParts, LcpProblem,
                    ModulusConfig, SolveReport, SolverConfig, SparseMatrix, Splitting,
                    SplittingAnalysis, SplittingKind, analyze_splitting, check_spectral_condition,
                    classify, dlu_split, lower_triangular_solve, make_splitting, projected_solve)
from lcpkit.matrix_core import spectral_radius_nonneg
from lcpkit.solvers import shifted_system

_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda r: pickle.loads(pickle.dumps(r, pickle.HIGHEST_PROTOCOL)),
          "pickle2": lambda r: pickle.loads(pickle.dumps(r, 2))}


def _records():
    spec = BenchSpec("example1", 4)
    p = spec.build()
    s = make_splitting(p.a, SplittingKind.npsor(1.3))
    cfg = SolverConfig(tol=1e-8, max_iters=500, initial=np.full(p.n, 0.5))
    return [spec, p, cfg, ModulusConfig("msor", alpha=0.85, omega_scale=0.5, gamma=2.0),
            projected_solve(p, s, cfg), s, s.kind, analyze_splitting(p.a, s),
            dlu_split(p.a), classify(p.a), check_spectral_condition(p.a, s)]


def _same(x, y):
    """Field by field equality, arrays compared by their bits."""
    if isinstance(x, np.ndarray):
        return (isinstance(y, np.ndarray) and x.dtype == y.dtype
                and np.array_equal(x.view(np.uint8), y.view(np.uint8)))
    if isinstance(x, tuple):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same, x, y))
    return type(x) is type(y) and x == y


def test_records_cover_the_eleven_types():
    assert {type(r) for r in _records()} == {
        BenchSpec, ClassificationReport, ConvergenceCertificate, DluParts, LcpProblem,
        ModulusConfig, SolveReport, SolverConfig, Splitting, SplittingAnalysis, SplittingKind}


@pytest.mark.parametrize("how", sorted(_TRIPS))
def test_records_round_trip_through_copy_and_pickle(how):
    trip = _TRIPS[how]
    for record in _records():
        again = trip(record)
        assert _same(again, record), (how, record)
        # the validating records construct the copy, so its arrays are
        # read-only again
        if isinstance(record, (LcpProblem, SolveReport)):
            assert not any(v.flags.writeable for v in again if isinstance(v, np.ndarray))


def test_records_are_immutable():
    for record in _records():
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_replace_validates_like_the_constructor():
    spec, p, cfg, mcfg, report, s = _records()[:6]
    bad = [(p, "sigma", np.ones(3)), (cfg, "tol", -1.0), (report, "residuals", [np.nan]),
           (mcfg, "gamma", 0.0), (s.kind, "alpha1", None), (spec, "m", 1)]
    for record, field, value in bad:
        with pytest.raises(ValueError) as built:
            type(record)(**{**record._asdict(), field: value})
        message = re.escape(str(built.value)) + "$"
        with pytest.raises(ValueError, match=message):
            record._replace(**{field: value})
        with pytest.raises(ValueError, match=message):
            type(record)._make(value if f == field else v for f, v in zip(record._fields, record))


def test_replace_normalises_like_the_constructor():
    cfg = SolverConfig()._replace(max_iters=5.0, initial=[1.0, 0.0])
    assert type(cfg.max_iters) is int and cfg.max_iters == 5
    assert isinstance(cfg.initial, np.ndarray) and not cfg.initial.flags.writeable
    p = BenchSpec("example1", 3).build()
    report = projected_solve(p, make_splitting(p.a, SplittingKind.npgs()), SolverConfig())
    lam = np.ones(p.n)
    again = report._replace(lam=lam, residuals=[3.0, 1.0])
    assert again.lam is not lam and not again.lam.flags.writeable
    assert again.residuals.dtype == np.float64 and not again.residuals.flags.writeable
    assert again.residual_final == 1.0


def _arrays(value):
    """Every numpy array that value holds, through tuples and matrices."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, SparseMatrix):
        yield from (value.row_starts, value.col_indices, value.values)
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("how", sorted(_TRIPS))
def test_copies_keep_matrices_and_arrays_read_only(how):
    # a problem matrix, a splitting's M and N, a system matrix on each of
    # the three solve plans after it has solved (its pattern holding its
    # cut and its own schedule), and the records that hold read-only
    # arrays of their own: each copy equals the original and holds only
    # read-only arrays, its matrices none of the original's caches, and a
    # copied system matrix solves to the original's bits
    trip = _TRIPS[how]
    a = BenchSpec("example1", 6).build().a
    s = make_splitting(a, SplittingKind.npsor(1.3))
    systems = [shifted_system(a, s)[0],
               SparseMatrix.from_dense(np.tril(np.ones((5, 5))) + np.eye(5)),
               SparseMatrix.diagonal(np.arange(1.0, 6.0))]
    b = {m.n: np.random.default_rng(m.n).uniform(-3.0, 3.0, m.n) for m in systems}
    want = [lower_triangular_solve(m, b[m.n]).view(np.int64).copy() for m in systems]
    estimate = spectral_radius_nonneg(lambda v: 0.5 * v, a.n, threshold=1.0)
    report = classify(a)
    assert report.witness_v is not None and estimate.vector is not None
    for original in [a, s, *systems, dlu_split(a), report, estimate]:
        again = trip(original)
        assert _same(again, original), (how, original)
        for arr in _arrays(again):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        # a shallow copy of a record holds the original's matrices
        pairs = zip(again, original) if isinstance(again, tuple) else [(again, original)]
        for m, was in pairs:
            if isinstance(m, SparseMatrix) and m is not was:
                pattern = m._pattern
                assert m._schedule is None and pattern._cut is None and not pattern._subs
    for m, bits in zip(systems, want):
        for again in (trip(m), trip(trip(m))):
            assert np.array_equal(lower_triangular_solve(again, b[m.n]).view(np.int64), bits)
        assert np.array_equal(lower_triangular_solve(m, b[m.n]).view(np.int64), bits)
