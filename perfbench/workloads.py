"""The benchmark's workloads: inputs, timed operations and output checks.

Each workload writes its inputs in ``setup``, lists the CLI invocations
of one round in ``ops``, and judges each invocation's output in
``judge``, which returns (operations attempted, operations failed).
An operation is one table cell, one ``check`` or one file solve.
"""

import csv
import io
import json
import os

# The paper's tolerance; every timed solve runs to it.
TOL = 1e-5

TABLE1_METHODS = ("mgs", "msor", "npgs", "npsor")
TABLE1_SIZES = (100, 900, 2500, 3600, 4900, 10000)

# Verdicts and structural fields of the four certify pairs, recorded once
# by reference.py from max|eigvals(T)| (rho 1.3702, 1.4194, 0.7465 and
# 0.6997 at m = 30); the same fields hold at the tiny size m = 6.
CERTIFY_EXPECTED = {
    "example1_npgs": dict(
        spectral_condition_ok=False, h_plus=True, h_compatible=True,
        diag_geq_one=True, coupling_matrix_is_m=False, diag_below_one=False,
        hmatrix_conditions_ok=False),
    "example2_npsor": dict(
        spectral_condition_ok=False, h_plus=True, h_compatible=True,
        diag_geq_one=True, coupling_matrix_is_m=False, diag_below_one=False,
        hmatrix_conditions_ok=False),
    "example1_npgs_scaled": dict(
        spectral_condition_ok=True, h_plus=True, h_compatible=True,
        diag_geq_one=False, coupling_matrix_is_m=True, diag_below_one=True,
        hmatrix_conditions_ok=True),
    "example2_npsor_scaled": dict(
        spectral_condition_ok=True, h_plus=True, h_compatible=True,
        diag_geq_one=False, coupling_matrix_is_m=True, diag_below_one=True,
        hmatrix_conditions_ok=True),
}
CERTIFY_METHODS = {"example1": ["--method", "npgs"],
                   "example2": ["--method", "npsor", "--alpha", "1.7"]}
SCALED_DIAG = 0.9

DENSE_INSTANCES = 4
DENSE_METHODS = ("npgs", "mgs")


class Workload:
    """One set of inputs and the CLI calls a round makes on them."""

    # the pace.py kernel whose work is most like this workload's
    kernel = "sparse_rows"

    def __init__(self, workdir, seed, tiny):
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny

    def setup(self):
        """Generate and write the inputs; timed as part of setup_s."""

    def ops(self):
        """[(op id, argv for lcpkit.cli.main)] of one round."""
        raise NotImplementedError

    def judge(self, op, code, stdout):
        """(attempted, failed) for one invocation; code is None when
        main raised."""
        raise NotImplementedError

    def input_failures(self):
        """Op ids whose inputs did not survive the trip through files."""
        return set()


class Table1(Workload):
    """``lcpkit table table1``: 4 methods x 6 sizes on the 5-point grid.

    The inputs are the paper's fixed setup, so the seed changes nothing.
    """

    def sizes(self):
        return (16, 36) if self.tiny else TABLE1_SIZES

    def ops(self):
        """One ``table`` call per size, so each size is timed on its own;
        together they do the work of the default ``table table1``."""
        return [(f"table1_n{n}", ["table", "table1", "--format", "csv", "--sizes", str(n)])
                for n in self.sizes()]

    def judge(self, op, code, stdout):
        size = int(op.rsplit("_n", 1)[1])
        cells = len(TABLE1_METHODS)
        if code != 0:
            return cells, cells
        good = set()
        for row in csv.DictReader(io.StringIO(stdout)):
            try:
                ok = row["converged"] == "True" and float(row["residual_final"]) < TOL
                key = (row["method"], int(row["n"]))
            except (KeyError, TypeError, ValueError):
                continue
            if ok:
                good.add(key)
        expected = {(m, size) for m in TABLE1_METHODS}
        return cells, cells - len(good & expected)


class Certify(Workload):
    """``lcpkit check`` on the table-1 and table-2 setups (rho(T) > 1) and on
    the same matrices scaled to diagonal 0.9 and read from files (rho < 1).

    The inputs are fixed, so the seed changes nothing.
    """

    kernel = "dense_matvec"

    def block_order(self):
        return 6 if self.tiny else 30

    def matrix_path(self, family):
        return os.path.join(self.workdir, f"{family}_scaled.mtx")

    def setup(self):
        from lcpkit import BenchSpec, write_matrix_market

        for family in CERTIFY_METHODS:
            a = BenchSpec(family, self.block_order()).build().a
            scaled = a.scaled(SCALED_DIAG / a.diagonal_vector().max())
            write_matrix_market(scaled, self.matrix_path(family))

    def ops(self):
        out = []
        for family, method in CERTIFY_METHODS.items():
            pair = f"{family}_{method[1]}"
            out.append((pair, ["check", "--family", family, "--m",
                               str(self.block_order()), *method, "--format", "json"]))
            out.append((pair + "_scaled", ["check", "--matrix", self.matrix_path(family),
                                           *method, "--format", "json"]))
        return out

    def judge(self, op, code, stdout):
        if code != 0:
            return 1, 1
        try:
            cert = json.loads(stdout)
            rho = float(cert["rho_t"])
            fields = {key: cert[key] for key in CERTIFY_EXPECTED[op]}
        except (KeyError, TypeError, ValueError):
            return 1, 1
        expected = CERTIFY_EXPECTED[op]
        ok = fields == expected and (rho < 1.0) == expected["spectral_condition_ok"]
        return 1, 0 if ok else 1


class DenseFiles(Workload):
    """Seeded dense random H+ instances written with ``lcpkit gen`` and
    solved from the files with npgs and mgs.

    Not listed in BENCHMARK.json: three workloads leave runs of about 30 s
    within the benchmark's time budget, and its figures then spread 0.09
    to 0.12 of their median between runs on a 2-core shared host: none of
    the kernels tried for pace.py's scaling slows down as it does.  Run it by name to see a change on dense
    rows, where a triangular solve has one row per dependency level.
    """

    def dimension(self):
        return 20 if self.tiny else 150

    def paths(self, k):
        stem = os.path.join(self.workdir, f"random{k}")
        return stem + ".mtx", stem + ".vec"

    def setup(self):
        from lcpkit import cli

        for k in range(DENSE_INSTANCES):
            matrix, sigma = self.paths(k)
            code = cli.main(["gen", "--family", "random", "--m", str(self.dimension()),
                             "--seed", str(self.seed + k), "--matrix", matrix,
                             "--sigma", sigma])
            if code != 0:
                raise RuntimeError(f"lcpkit gen exited {code} for instance {k}")

    def ops(self):
        out = []
        for k in range(DENSE_INSTANCES):
            matrix, sigma = self.paths(k)
            for method in DENSE_METHODS:
                out.append((f"random{k}_{method}",
                            ["solve", "--matrix", matrix, "--sigma", sigma,
                             "--method", method, "--format", "json"]))
        return out

    def judge(self, op, code, stdout):
        if code != 0:
            return 1, 1
        try:
            rec = json.loads(stdout)
            ok = (rec["converged"] is True and float(rec["residual_final"]) < TOL
                  and rec["method"] == op.rsplit("_", 1)[1]
                  and rec["n"] == self.dimension())
        except (KeyError, TypeError, ValueError):
            return 1, 1
        return 1, 0 if ok else 1

    def input_failures(self):
        from lcpkit import gen_random_hplus, read_matrix_market, read_vector

        failed = set()
        for k in range(DENSE_INSTANCES):
            matrix, sigma = self.paths(k)
            want = gen_random_hplus(self.dimension(), self.seed + k)
            got_a, got_sigma = read_matrix_market(matrix), read_vector(sigma)
            same = (got_a.n == want.a.n
                    and got_a.row_starts.tobytes() == want.a.row_starts.tobytes()
                    and got_a.col_indices.tobytes() == want.a.col_indices.tobytes()
                    and got_a.values.tobytes() == want.a.values.tobytes()
                    and got_sigma.tobytes() == want.sigma.tobytes())
            if not same:
                failed.update(f"random{k}_{method}" for method in DENSE_METHODS)
        return failed


WORKLOADS = {"table1": Table1, "certify": Certify, "dense_files": DenseFiles}
