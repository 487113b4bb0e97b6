import copy
import pickle
import re

import numpy as np
import pytest

from lcpkit import (BenchSpec, ClassificationReport, ConvergenceCertificate, DluParts, LcpProblem,
                    ModulusConfig, SolveReport, SolverConfig, Splitting, SplittingAnalysis,
                    SplittingKind, analyze_splitting, check_spectral_condition, classify,
                    dlu_split, make_splitting, projected_solve)


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


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle", "pickle2"])
def test_records_round_trip_through_copy_and_pickle(how):
    trip = {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda r: pickle.loads(pickle.dumps(r, pickle.HIGHEST_PROTOCOL)),
            "pickle2": lambda r: pickle.loads(pickle.dumps(r, 2))}[how]
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
