"""Span tracing for the benchmark's traced runs.

The tracer wraps lcpkit's public layer functions from outside: while a
phase is recorded, every name bound to one of them (module globals such
as ``solvers.lower_triangular_solve`` and class attributes such as
``SparseMatrix.matvec``) points at a wrapper that records a span and a
few work counters; leaving the phase restores the originals.  Spans
stay in memory until the run writes them out.
"""

import hashlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _count_trisolve(counters, matrices, args, result):
    m = args[0]
    counters["matrix_core.trisolve.nnz"] += m.nnz
    counters["matrix_core.trisolve.flops_computed"] += 2 * m.nnz
    matrices[id(m)] = m


def _count_matvec(counters, matrices, args, result):
    nnz = args[0].nnz
    counters["matrix_core.matvec.nnz"] += nnz
    counters["matrix_core.matvec.flops_computed"] += 2 * nnz


def _count_power(counters, matrices, args, result):
    counters["matrix_core.power_iteration.iterations"] += result.iterations


def _count_solve(counters, matrices, args, result):
    counters["solvers.iterations"] += result.iterations


def _count_read(counters, matrices, args, result):
    counters["matrix_core.io.bytes"] += os.path.getsize(args[0])


def _count_write(counters, matrices, args, result):
    counters["matrix_core.io.bytes"] += os.path.getsize(args[1])


def _targets():
    """(layer, owner, attribute, counter) for every traced entry point."""
    from lcpkit import cli, convergence, matrix_core, problems, solvers, splittings

    sm = matrix_core.SparseMatrix
    return [
        ("problems.generate", problems, "gen_example1", None),
        ("problems.generate", problems, "gen_example2", None),
        ("problems.generate", problems, "gen_random_hplus", None),
        ("splittings.make_splitting", splittings, "make_splitting", None),
        ("matrix_core.assemble", sm, "from_coo", None),
        ("matrix_core.trisolve", matrix_core, "lower_triangular_solve", _count_trisolve),
        ("matrix_core.matvec", sm, "matvec", _count_matvec),
        ("matrix_core.power_iteration", matrix_core, "spectral_radius_nonneg", _count_power),
        ("matrix_core.classify", matrix_core, "classify", None),
        ("matrix_core.io.read", matrix_core, "read_matrix_market", _count_read),
        ("matrix_core.io.read", matrix_core, "read_vector", _count_read),
        ("matrix_core.io.write", matrix_core, "write_matrix_market", _count_write),
        ("matrix_core.io.write", matrix_core, "write_vector", _count_write),
        ("solvers.solve", solvers, "projected_solve", _count_solve),
        ("solvers.solve", solvers, "modulus_solve", _count_solve),
        ("solvers.residual", solvers, "residual", None),
        ("convergence.check", convergence, "check_spectral_condition", None),
        ("cli.main", cli, "main", None),
    ]


def dependency_depth(m):
    """Longest dependency chain of forward substitution on lower-triangular m:
    row i waits for every row j < i that it stores an entry for."""
    level = np.zeros(m.n, dtype=np.int64)
    starts, cols = m.row_starts, m.col_indices
    for i in range(m.n):
        deps = cols[starts[i]:starts[i + 1]]
        deps = deps[deps < i]
        level[i] = 1 + (int(level[deps].max()) if deps.size else 0)
    return int(level.max())


class Tracer:
    """Records spans (name, start, end, parent index, op id) per phase.

    A phase is one stretch of work recorded with ``recording``; the
    caller sets ``op`` to the id of the operation being run, and every
    span inside it carries that id.
    """

    def __init__(self):
        self.spans = []
        self.phases = []
        self.op = ""
        self._stack = []
        self._counters = None
        self._matrices = None
        self._undo = []
        self._depths = {}

    def _wrap(self, layer, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op)
            if counter is not None:
                counter(self._counters, self._matrices, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _install(self):
        targets = _targets()  # imports every lcpkit module before the scan
        modules = [mod for name, mod in sys.modules.items()
                   if name == "lcpkit" or name.startswith("lcpkit.")]
        for layer, owner, attr, counter in targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(layer, original.__func__, counter))
                else:
                    replacement = self._wrap(layer, original, counter)
                setattr(owner, attr, replacement)
                self._undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(layer, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)
                        self._undo.append((mod, name, original))

    def _uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @contextmanager
    def recording(self, phase):
        """Trace every layer call made inside the block as one phase."""
        first = len(self.spans)
        self._counters = defaultdict(int)
        self._matrices = {}
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.phases.append((phase, first, len(self.spans),
                                self._counters, self._matrices))

    def _depth(self, m):
        key = hashlib.blake2b(m.row_starts.tobytes() + m.col_indices.tobytes(),
                              digest_size=16).digest()
        if key not in self._depths:
            self._depths[key] = dependency_depth(m)
        return self._depths[key]

    def totals(self, phase_index):
        """Per-layer calls, seconds, self seconds and counters of one phase.

        Self time is a span's duration minus the time its direct child
        spans cover; spans nest strictly, so the children never overlap.
        """
        _, first, end, counters, matrices = self.phases[phase_index]
        child = defaultdict(float)
        for layer, start, stop, parent, _ in self.spans[first:end]:
            if parent >= 0:
                child[parent] += stop - start
        out = defaultdict(float)
        for index in range(first, end):
            layer, start, stop, _, _ = self.spans[index]
            out[layer + ".calls"] += 1
            out[layer + ".s"] += stop - start
            out[layer + ".self_s"] += stop - start - child[index]
        out.update(counters)
        out["matrix_core.trisolve.depth"] = max(
            (self._depth(m) for m in matrices.values()), default=0)
        return out

    def write(self, path):
        """Write all spans, one JSON object per line, with their phase."""
        with open(path, "w", encoding="ascii") as fh:
            for phase, first, end, _, _ in self.phases:
                for index in range(first, end):
                    layer, start, stop, parent, op = self.spans[index]
                    fh.write(json.dumps({"i": index, "name": layer, "start": start,
                                         "end": stop, "parent": parent, "op": op,
                                         "phase": phase}) + "\n")
