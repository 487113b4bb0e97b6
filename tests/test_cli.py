import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcpkit import matrix_core
from lcpkit.cli import main
from lcpkit.matrix_core import read_matrix_market, read_vector
from lcpkit.problems import BenchSpec
from lcpkit.solvers import LcpProblem, residual


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _env_with_src():
    """The environment, with this checkout's src first on PYTHONPATH, for
    a subprocess that imports lcpkit."""
    src = str(Path(matrix_core.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_solve_benchmark_npgs(capsys):
    code, out, _ = _run(capsys, [
        "solve", "--family", "example1", "--m", "10", "--method", "npgs",
    ])
    assert code == 0
    assert "iterations:    21" in out
    assert "converged:     yes" in out


def test_solve_benchmark_npsor(capsys):
    code, out, _ = _run(capsys, [
        "solve", "--family", "example1", "--m", "10",
        "--method", "npsor", "--alpha", "1.7",
    ])
    assert code == 0
    assert "iterations:    15" in out


def test_solve_npsor_needs_alpha(capsys):
    code, _, err = _run(capsys, [
        "solve", "--family", "example1", "--m", "10", "--method", "npsor",
    ])
    assert code == 1
    assert "alpha" in err


def test_solve_from_files(capsys, tmp_path):
    mtx = tmp_path / "a.mtx"
    vec = tmp_path / "s.vec"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 4.0\n",
        encoding="ascii",
    )
    vec.write_text("-4.0\n", encoding="ascii")
    code, out, _ = _run(capsys, [
        "solve", "--matrix", str(mtx), "--sigma", str(vec),
        "--method", "npgs", "--format", "json", "--tol", "1e-10",
    ])
    assert code == 0
    import json
    rec = json.loads(out)
    assert rec["converged"] is True
    assert rec["n"] == 1
    assert rec["residual_final"] <= 1e-10


def test_solve_matrix_without_sigma_rejected(capsys, tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 4.0\n",
        encoding="ascii",
    )
    code, _, err = _run(capsys, ["solve", "--matrix", str(mtx), "--method", "npgs"])
    assert code == 1
    assert "--sigma" in err


def test_solve_iteration_budget_exit_code(capsys):
    code, out, _ = _run(capsys, [
        "solve", "--family", "example1", "--m", "10", "--method", "npgs",
        "--max-iters", "2",
    ])
    assert code == 2
    assert "converged:     no" in out


def test_solve_init_file(capsys, tmp_path):
    gen = _run(capsys, [
        "gen", "--family", "example1", "--m", "3",
        "--matrix", str(tmp_path / "a.mtx"), "--sigma", str(tmp_path / "s.vec"),
        "--solution", str(tmp_path / "lam.vec"),
    ])
    assert gen[0] == 0
    code, out, _ = _run(capsys, [
        "solve", "--family", "example1", "--m", "3", "--method", "npgs",
        "--init", str(tmp_path / "lam.vec"),
    ])
    assert code == 0
    assert "iterations:    1" in out


def test_solve_csv_header(capsys):
    code, out, _ = _run(capsys, [
        "solve", "--family", "example1", "--m", "4", "--method", "npj",
        "--format", "csv",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,n,alpha,beta,iterations,residual_final,wall_seconds,converged"
    assert lines[1].startswith("npj,16,,,")
    assert lines[1].endswith(",True")


def test_check_identity_reports_half(capsys, tmp_path):
    mtx = tmp_path / "eye.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n",
        encoding="ascii",
    )
    code, out, _ = _run(capsys, ["check", "--matrix", str(mtx), "--method", "npj"])
    assert code == 0
    assert "rho(T):                    0.500000" in out
    assert "rho(T) bracket:            [0.5, 0.5] after 1 power iterations" in out
    assert "spectral condition rho<1:  pass" in out
    code, out, _ = _run(capsys, ["check", "--matrix", str(mtx), "--method", "npj",
                                 "--format", "json"])
    cert = json.loads(out)
    assert (cert["rho_lower"], cert["rho_upper"], cert["power_iterations"]) == (0.5, 0.5, 1)
    assert cert["rho_mode"] == "exact_dense"


def test_check_prints_the_bracket_end_that_decides(capsys, tmp_path):
    # rho(T) = 1 + 1e-9 with NPJ: the upper end has to show that it is not
    # below 1 - 1e-8, which six decimals would round away
    eps = 1e-4
    mtx = tmp_path / "near_one.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        f"2 2 2\n1 1 {eps / (1.0 - eps)!r}\n2 2 -1e-9\n",
        encoding="ascii",
    )
    code, out, _ = _run(capsys, ["check", "--matrix", str(mtx), "--method", "npj"])
    assert code == 0
    assert "rho(T) bracket:            [0.9999, 1.000000001] after " in out
    assert "spectral condition rho<1:  fail" in out


def _bidiagonal_mtx(tmp_path, n=600):
    """A lower bidiagonal, diagonal 0.5 and subdiagonal -12: rho(T) = 2/3
    under NPGS, but |inv(M + 2I + D_A)| overflows, and so does T v."""
    mtx = tmp_path / "bidiagonal.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        f"{n} {n} {2 * n - 1}\n"
        + "".join(f"{i} {i} 0.5\n" for i in range(1, n + 1))
        + "".join(f"{i + 1} {i} -12\n" for i in range(1, n)),
        encoding="ascii",
    )
    return str(mtx)


def test_check_reports_an_overflowing_t_v_without_warnings(capsys, tmp_path):
    code, out, err = _run(capsys, ["check", "--matrix", _bidiagonal_mtx(tmp_path),
                                   "--method", "npgs", "--format", "json"])
    assert (code, err) == (0, "")
    cert = _strict_loads(out)
    assert cert["spectral_condition_ok"] is False
    # no pass gave an upper end or a finite estimate: inf, written as null
    assert cert["rho_upper"] is cert["rho_t"] is None
    assert cert["rho_lower"] <= 2.0 / 3.0
    assert "T v overflowed" in cert["notes"]
    assert "rho estimate >= 1" not in cert["notes"]
    # a lower-triangular Z-matrix with positive diagonal is an M-matrix,
    # although the solution of A v = 1 overflows
    assert cert["h_plus"] is True


def _strict_loads(text):
    """json.loads that rejects the tokens Infinity, -Infinity and NaN,
    which are not JSON."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "example1", "--m", "4", "--method", "npgs"],
    ["check", "--family", "example1", "--m", "4", "--method", "npgs"],
    ["table", "table2", "--sizes", "16"],
], ids=["solve", "check", "table"])
def test_json_with_finite_values_is_the_default_encoding(capsys, argv):
    # non-finite floats become null; every other output keeps its bytes
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert out == json.dumps(_strict_loads(out), indent=2) + "\n"


def test_check_benchmark_structural_rendering(capsys):
    code, out, _ = _run(capsys, [
        "check", "--family", "example1", "--m", "2", "--method", "npgs",
    ])
    assert code == 0
    assert "H-matrix, positive diag:   pass" in out
    assert "coupling matrix is M:      fail" in out
    assert "structural conditions:     fail" in out


def test_table_markdown_smoke(capsys):
    code, out, _ = _run(capsys, ["table", "table1", "--sizes", "4"])
    assert code == 0
    assert out.startswith("# table1")
    assert "| method | metric | n=4 |" in out
    assert "npsor (alpha=1.7)" in out
    assert "msor (alpha=0.85;gamma=1)" in out


def _strip_cpu(csv_text):
    rows = [line.split(",") for line in csv_text.splitlines()]
    return ["," .join(row[:6] + row[7:]) for row in rows]


@pytest.mark.parametrize("which", ["table1", "table2"])
def test_table_csv_deterministic(capsys, tmp_path, which):
    argv = ["table", which, "--sizes", "100", "--format", "csv"]
    first = _run(capsys, argv + ["--output", str(tmp_path / "one.csv")])
    second = _run(capsys, argv + ["--output", str(tmp_path / "two.csv")])
    assert first[0] == 0 and second[0] == 0
    one = (tmp_path / "one.csv").read_text(encoding="ascii")
    two = (tmp_path / "two.csv").read_text(encoding="ascii")
    assert _strip_cpu(one) == _strip_cpu(two)
    header = one.splitlines()[0]
    assert header == ("table,method,parameter,n,iterations,"
                      "residual_final,cpu_seconds,converged")


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("which,sizes", [("table1", "100,900"), ("table2", "100,400"),
                                         ("table1", "100,900,2500,3600,4900,10000")])
def test_table_csv_matches_golden(capsys, which, sizes):
    # the golden files hold the output of an earlier, separately built
    # version with cpu_seconds dropped: iteration counts and residuals
    # must stay bitwise the same through any speed-up
    code, out, _ = _run(capsys, ["table", which, "--sizes", sizes, "--format", "csv"])
    assert code == 0
    golden = (_GOLDEN / f"{which}_sizes_{sizes.replace(',', '_')}.csv").read_text(encoding="ascii")
    assert _strip_cpu(out) == golden.splitlines()


def _scaled_mtx(tmp_path, family):
    """The m = 30 problem matrix of family scaled to diagonal 0.9, as a file."""
    a = BenchSpec(family, 30).build().a
    path = tmp_path / f"{family}_scaled.mtx"
    matrix_core.write_matrix_market(a.scaled(0.9 / a.diagonal_vector().max()), str(path))
    return str(path)


_TABLE1_NPGS = ["--method", "npgs"]
_TABLE2_NPSOR = ["--method", "npsor", "--alpha", "1.7"]

# name -> argv of a check, given a directory for its input file
_CHECK_SETUPS = {
    "table1_npgs": lambda tmp: ["--family", "example1", "--m", "30", *_TABLE1_NPGS],
    "table2_npsor": lambda tmp: ["--family", "example2", "--m", "30", *_TABLE2_NPSOR],
    "table1_npgs_scaled": lambda tmp: ["--matrix", _scaled_mtx(tmp, "example1"), *_TABLE1_NPGS],
    "table2_npsor_scaled": lambda tmp: ["--matrix", _scaled_mtx(tmp, "example2"), *_TABLE2_NPSOR],
    "bidiagonal_overflow": lambda tmp: ["--matrix", _bidiagonal_mtx(tmp), "--method", "npgs"],
}


@pytest.mark.parametrize("name", sorted(_CHECK_SETUPS))
def test_check_json_matches_golden(capsys, tmp_path, name):
    # the golden files hold an earlier, separately built version's output;
    # the rho floats are compared to 1e-12 relative, since the dense
    # product's add order (dgemv) depends on the CPU, and every other field
    # exactly
    code, out, _ = _run(capsys, ["check", *_CHECK_SETUPS[name](tmp_path), "--format", "json"])
    assert code == 0
    got = _strict_loads(out)
    want = _strict_loads((_GOLDEN / f"check_{name}.json").read_text(encoding="ascii"))
    assert list(got) == list(want)
    for key, value in want.items():
        if key in ("rho_t", "rho_lower", "rho_upper") and value is not None:
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("name", sorted(_CHECK_SETUPS))
def test_check_csv_is_the_json_record(capsys, tmp_path, name):
    argv = ["check", *_CHECK_SETUPS[name](tmp_path), "--format"]
    code, out, err = _run(capsys, [*argv, "csv"])
    assert (code, err) == (0, "")
    header, *rows = list(csv.reader(io.StringIO(out)))
    code, out, err = _run(capsys, [*argv, "json"])
    assert (code, err) == (0, "")
    rec = _strict_loads(out)
    # one row under the JSON record's keys, in order; floats as repr,
    # booleans as True/False, and the inf that JSON writes as null as inf
    assert header == list(rec) and len(rows) == 1
    assert rows[0] == ["inf" if v is None else repr(v) if isinstance(v, float) else str(v)
                       for v in rec.values()]
    if name == "bidiagonal_overflow":
        assert [k for k, v in rec.items() if v is None] == ["rho_t", "rho_upper"]


def test_table_makes_one_level_sweep_for_its_four_methods(capsys, monkeypatch):
    # the four system matrices of a size share the pattern of the problem
    # matrix's lower triangle, and with it the problem matrix's cut
    sweeps = []
    level_cut = matrix_core._level_cut
    monkeypatch.setattr(matrix_core, "_level_cut", lambda *args: sweeps.append(args) or level_cut(*args))
    code, out, _ = _run(capsys, ["table", "table1", "--sizes", "100", "--format", "csv"])
    assert code == 0 and len(out.splitlines()) == 5
    assert len(sweeps) == 1


def test_table_rejects_non_square_size(capsys):
    code, _, err = _run(capsys, ["table", "table1", "--sizes", "10"])
    assert code == 1
    assert "perfect squares" in err


@pytest.mark.parametrize("sizes", ["-4", "4,-9"])
def test_table_rejects_negative_size(capsys, sizes):
    err = _assert_input_error(capsys, ["table", "table1", "--sizes", sizes])
    assert "table sizes must be perfect squares >= 4, got -" in err


def test_table_rejects_malformed_sizes(capsys):
    code, _, err = _run(capsys, ["table", "table1", "--sizes", "100,abc"])
    assert code == 1
    assert "--sizes" in err


def test_gen_round_trip(capsys, tmp_path):
    paths = [tmp_path / name for name in ("a.mtx", "s.vec", "lam.vec")]
    code, _, _ = _run(capsys, [
        "gen", "--family", "example2", "--m", "4",
        "--matrix", str(paths[0]), "--sigma", str(paths[1]),
        "--solution", str(paths[2]),
    ])
    assert code == 0
    a = read_matrix_market(str(paths[0]))
    sigma = read_vector(str(paths[1]))
    lam = read_vector(str(paths[2]))
    problem = LcpProblem(a=a, sigma=sigma)
    assert residual(problem, np.asarray(lam)) <= 1e-12


def test_gen_random_has_no_reference_solution(capsys, tmp_path):
    code, _, err = _run(capsys, [
        "gen", "--family", "random", "--m", "4",
        "--matrix", str(tmp_path / "a.mtx"), "--sigma", str(tmp_path / "s.vec"),
        "--solution", str(tmp_path / "lam.vec"),
    ])
    assert code == 1
    assert "no reference solution" in err
    assert list(tmp_path.iterdir()) == []  # checked before anything is written


def test_gen_error_leaves_no_files(capsys, tmp_path):
    # the sigma path cannot be written: the matrix written before it must
    # not stay behind, and the message names the path given
    code, _, err = _run(capsys, [
        "gen", "--family", "example1", "--m", "3",
        "--matrix", str(tmp_path / "a.mtx"), "--sigma", str(tmp_path / "nodir" / "s.vec"),
    ])
    assert code == 1
    assert err.startswith("error:") and "nodir/s.vec'" in err
    assert list(tmp_path.iterdir()) == []


def test_check_leaves_sparse_solvers_unloaded(tmp_path):
    # the verified Jacobi bracket decides both M tests of a check on the
    # table-1 NPGS setup and on its 0.9-diagonal scaling, so SuperLU's
    # module is never imported
    a = BenchSpec("example1", 6).build().a
    path = tmp_path / "scaled.mtx"
    matrix_core.write_matrix_market(a.scaled(0.9 / a.diagonal_vector().max()), str(path))
    env = _env_with_src()
    for problem in (["--family", "example1", "--m", "6"], ["--matrix", str(path)]):
        argv = ["check", *problem, "--method", "npgs", "--format", "json"]
        code = (f"import sys, lcpkit.cli; code = lcpkit.cli.main({argv!r}); "
                "print(code, 'scipy.sparse.linalg' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.stdout.splitlines()[-1] == "0 False", done.stderr


def _footprint_runs(tmp_path):
    """Argument lists that cover every command, and no command ([])."""
    a = BenchSpec("example1", 6).build().a
    path = tmp_path / "scaled.mtx"
    matrix_core.write_matrix_market(a.scaled(0.9 / a.diagonal_vector().max()), str(path))
    small = ["--family", "example1", "--m", "6"]
    runs = [[], ["table", "table1", "--sizes", "100,900"]]
    runs += [["solve", *small, "--method", method, *alpha] for method, alpha in (
        ("npj", []), ("npgs", []), ("npsor", ["--alpha", "1.7"]),
        ("npaor", ["--alpha", "1.2", "--beta", "0.8"]), ("mgs", []), ("msor", ["--alpha", "0.85"]))]
    runs += [["check", *problem, "--method", "npgs", "--format", "json"]
             for problem in (small, ["--matrix", str(path)])]
    runs += [["gen", *small, "--matrix", str(tmp_path / "a.mtx"),
              "--sigma", str(tmp_path / "s.vec")]]
    return runs


def test_cli_import_leaves_scipy_solvers_unloaded(tmp_path):
    # no command imports a scipy module: the CSR kernels
    # (scipy.sparse._sparsetools) are loaded from their file in scipy's
    # install at import, and LAPACK (scipy.linalg._flapack), for check's
    # dense inverse, from its file on first use; scipy.sparse's Python
    # layer and scipy.sparse.linalg (spsolve) are imported where they are
    # used, off these paths
    env = _env_with_src()
    code = ("import importlib.util, json, os, sys, lcpkit.cli\n"
            "code = lcpkit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "kernels = lcpkit.matrix_core._kernels.__file__\n"
            "scipy_dir = importlib.util.find_spec('scipy').submodule_search_locations[0]\n"
            "print(json.dumps([code, [m for m in sys.modules if m.split('.')[0] == 'scipy'],"
            " os.path.dirname(kernels) == os.path.join(scipy_dir, 'sparse')]))")
    for argv in _footprint_runs(tmp_path):
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                              text=True)
        status, loaded, from_file = json.loads(done.stdout.splitlines()[-1])
        assert status == 0 and loaded == [] and from_file, (argv, loaded, done.stderr)


def test_cli_import_leaves_dataclasses_unloaded(tmp_path):
    # lcpkit's records are NamedTuples, so neither the import nor any
    # command loads dataclasses, whose class set-up once took most of
    # lcpkit's import time (numpy does not import it)
    env = _env_with_src()
    code = ("import sys, lcpkit.cli\n"
            "code = lcpkit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(code, 'dataclasses' in sys.modules)")
    for argv in _footprint_runs(tmp_path):
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                              text=True)
        assert done.stdout.splitlines()[-1] == "0 False", (argv, done.stderr)


def test_cli_import_only_matrix_core_binds_compiled_modules(capsys):
    # matrix_core is the one module that calls scipy's compiled code: after
    # a check and a solve, no other lcpkit module holds the CSR kernels,
    # LAPACK, their loader or the row kernel, by these names or any other
    import lcpkit

    small = ["--family", "example1", "--m", "4"]
    assert main(["check", *small, "--method", "npgs"]) == 0
    assert main(["solve", *small, "--method", "npsor", "--alpha", "1.7"]) == 0
    capsys.readouterr()
    names = ("_kernels", "_lapack", "_load_extension", "_csr_matvec")
    compiled = [getattr(matrix_core, name) for name in names] + [matrix_core._lapack()]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "lcpkit"]
    assert matrix_core in modules and len(modules) > 2
    for module in modules:
        if module is not matrix_core:
            bound = [k for k, v in vars(module).items()
                     if k in names or any(v is c for c in compiled)]
            assert bound == [], (module.__name__, bound)
    src = Path(lcpkit.__file__).parent
    assert not [f.name for f in src.glob("*.py") if re.search(r"linalg\.inv\b", f.read_text())]


def test_cli_import_then_scipy_sparse_binds_its_kernels():
    # lcpkit loads the CSR kernels from their file without leaving them in
    # sys.modules, so a later import of scipy.sparse loads its submodule
    # as usual and binds it as scipy.sparse._sparsetools, from the same
    # file, with a product bitwise lcpkit's
    env = _env_with_src()
    code = ("import json, sys, numpy as np, lcpkit\n"
            "from lcpkit import matrix_core\n"
            "kept = 'scipy.sparse._sparsetools' in sys.modules\n"
            "import scipy.sparse\n"
            "tools = scipy.sparse._sparsetools\n"
            "h = scipy.sparse.random(30, 30, density=0.3, format='csr', random_state=3)\n"
            "x = np.random.default_rng(5).uniform(-1.0, 1.0, 30)\n"
            "m = matrix_core.SparseMatrix(30, h.indptr, h.indices, h.data)\n"
            "print(json.dumps([kept, tools is sys.modules['scipy.sparse._sparsetools'],"
            " tools.__file__ == matrix_core._kernels.__file__,"
            " bool(np.array_equal((h @ x).view(np.int64), m.matvec(x).view(np.int64)))]))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [False, True, True, True], done.stderr


def test_cli_import_then_scipy_linalg_binds_its_lapack():
    # a check loads LAPACK from its file without leaving it in
    # sys.modules, so a later import of scipy.linalg loads its submodule
    # as usual and binds it as scipy.linalg._flapack, from the same file,
    # whose dtrtri gives the inverse the check's dense inverse gave, bit
    # for bit
    env = _env_with_src()
    code = ("import contextlib, io, json, sys, numpy as np, lcpkit.cli\n"
            "from lcpkit import matrix_core\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = lcpkit.cli.main(['check', '--family', 'example1', '--m', '6',"
            " '--method', 'npgs'])\n"
            "lower = np.tril(np.random.default_rng(7).uniform(-1.0, 1.0, (30, 30)))\n"
            "m = matrix_core.SparseMatrix.from_dense(lower + 4.0 * np.eye(30))\n"
            "got = matrix_core._dense_inverse(m)\n"
            "path = matrix_core._lapack().__file__\n"
            "kept = 'scipy.linalg._flapack' in sys.modules\n"
            "import scipy.linalg\n"
            "lapack = scipy.linalg._flapack\n"
            "want = scipy.linalg.lapack.dtrtri(m.to_dense().T, lower=0)[0].T\n"
            "print(json.dumps([status, kept, lapack is sys.modules['scipy.linalg._flapack'],"
            " lapack.__file__ == path,"
            " bool(np.array_equal(got.view(np.int64), want.view(np.int64)))]))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [0, False, True, True, True], done.stderr


def test_missing_matrix_file(capsys, tmp_path):
    code, _, err = _run(capsys, [
        "solve", "--matrix", str(tmp_path / "absent.mtx"),
        "--sigma", str(tmp_path / "absent.vec"), "--method", "npgs",
    ])
    assert code == 1
    assert err.startswith("error:")


def test_unknown_method_rejected(capsys):
    code, _, err = _run(capsys, [
        "solve", "--family", "example1", "--m", "4", "--method", "pivot",
    ])
    assert code == 1
    assert "invalid choice" in err


def test_table_cpu_column_is_thread_time(capsys, monkeypatch):
    ticks = itertools.count(0.0, 0.25)
    monkeypatch.setattr(time, "thread_time", lambda: next(ticks))
    code, out, _ = _run(capsys, ["table", "table1", "--sizes", "4", "--format", "csv"])
    assert code == 0
    assert [line.split(",")[6] for line in out.splitlines()[1:]] == ["0.250000"] * 4
    code, out, _ = _run(capsys, ["table", "table1", "--sizes", "4"])
    assert code == 0
    assert out.count("| CPU(s) | 0.2500 |") == 4


_MM = "%%MatrixMarket matrix coordinate real general\n"


def _problem_files(tmp_path, entries, sigma="-1\n-1\n"):
    (tmp_path / "a.mtx").write_text(_MM + entries, encoding="ascii")
    (tmp_path / "s.vec").write_text(sigma, encoding="ascii")
    return ["--matrix", str(tmp_path / "a.mtx"), "--sigma", str(tmp_path / "s.vec")]


def _assert_input_error(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Warning" not in err
    return err


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("value", ["nan", "1e308"])
def test_non_finite_or_overflowing_matrix_is_input_error(capsys, tmp_path, command, value):
    # 1e308 on the diagonal overflows while M + 2I + D_A is assembled
    files = _problem_files(tmp_path, f"2 2 2\n1 1 {value}\n2 2 4.0\n")
    _assert_input_error(capsys, [command, *files, "--method", "npgs"])


@pytest.mark.parametrize("method", ["npgs", "mgs"])
def test_large_solution_is_not_divergence(capsys, tmp_path, method):
    # the divergence bound scales with sigma: [1] lam = 1e13 is well posed
    files = _problem_files(tmp_path, "1 1 1\n1 1 1.0\n", sigma="-1e13\n")
    code, out, _ = _run(capsys, ["solve", *files, "--method", method])
    assert code == 0
    assert "converged:     yes" in out


def test_tiny_pivot_diverges_without_a_warning(capsys, tmp_path):
    # (Omega + M)^-1 sigma overflows on a subnormal diagonal: that is the
    # divergence _guard reports, not a numpy RuntimeWarning on stderr
    files = _problem_files(tmp_path, "1 1 1\n1 1 1e-320\n", sigma="1\n")
    code, _, err = _run(capsys, ["solve", *files, "--method", "msor", "--alpha", "0.9"])
    assert code == 2
    assert err == "did not converge: iterate diverged at iteration 1\n"


def test_huge_declared_size_is_input_error(capsys, tmp_path):
    # the row pointers of a 10^12 x 10^12 matrix fail to allocate at once; a
    # size near 10^9 is not tried, since the allocation may be overcommitted
    # and the process killed when it is filled
    mtx = tmp_path / "huge.mtx"
    mtx.write_text(_MM + "1000000000000 1000000000000 1\n1 1 1.0\n", encoding="ascii")
    code, _, err = _run(capsys, ["check", "--matrix", str(mtx), "--method", "npgs"])
    assert code == 1
    assert err == "error: declared size 1000000000000 x 1000000000000 is too large to allocate\n"


_OFF_DIAGONAL_HUGE = "2 2 3\n1 1 4.0\n2 2 4.0\n2 1 1e308\n"


@pytest.mark.parametrize("entries, sigma, run", [
    (_OFF_DIAGONAL_HUGE, "1\n1\n", ["solve", "--method", "npgs"]),
    (_OFF_DIAGONAL_HUGE, "1\n1\n", ["solve", "--method", "mgs"]),
    (_OFF_DIAGONAL_HUGE, "1\n1\n", ["check", "--method", "npgs"]),
    ("1 1 1\n1 1 4.0\n", "-1e308\n", ["solve", "--method", "npgs"]),
], ids=["matrix-solve-npgs", "matrix-solve-mgs", "matrix-check-npgs", "sigma-solve-npgs"])
def test_unrepresentable_scale_is_input_error(capsys, tmp_path, entries, sigma, run):
    # finite, but an iterate at the divergence bound times A would overflow
    files = _problem_files(tmp_path, entries, sigma)
    _assert_input_error(capsys, [*run, *files])


@pytest.mark.parametrize("flag", ["--sigma", "--init"])
def test_non_finite_vector_is_input_error(capsys, tmp_path, flag):
    files = _problem_files(tmp_path, "2 2 2\n1 1 4.0\n2 2 4.0\n")
    (tmp_path / "bad.vec").write_text("nan\n-1\n", encoding="ascii")
    _assert_input_error(capsys, ["solve", *files, "--method", "npgs",
                                 flag, str(tmp_path / "bad.vec")])


@pytest.mark.parametrize("method", ["npgs", "mgs"])
@pytest.mark.parametrize("start", ["1e308", "1e13"])
def test_start_vector_beyond_divergence_bound_is_input_error(capsys, tmp_path, method, start):
    # with sigma = [1] the bound is 1e12: such a start is diverged before pass 1
    files = _problem_files(tmp_path, "1 1 1\n1 1 4.0\n", sigma="1\n")
    (tmp_path / "init.vec").write_text(start + "\n", encoding="ascii")
    _assert_input_error(capsys, ["solve", *files, "--method", method,
                                 "--init", str(tmp_path / "init.vec")])


@pytest.mark.parametrize("family", ["example1", "random"])
def test_huge_generated_family_is_input_error(capsys, family):
    # 10^18 elements exceed the address space, so the allocation fails at once
    _assert_input_error(capsys, ["solve", "--family", family, "--m", "1000000000",
                                 "--method", "npgs"])


@pytest.mark.parametrize("last_entry, sigma", [
    ("2 2 4.0 1", "-1\n-1\n"),
    ("2 2 4.0 % note", "-1\n-1\n"),
    ("2 2 1,5", "-1\n-1\n"),
    ("2 2 1.5abc", "-1\n-1\n"),
    ("2 2 0x1p-2", "-1\n-1\n"),
    ("2.0 2 4.0", "-1\n-1\n"),
    ("99999999999999999999999 2 4.0", "-1\n-1\n"),
    ("2 2 4.0", "-1 -1\n"),
    ("2 2 4.0", "-1\n-1_0\n"),
    ("2 2 4.0", "% no values\n"),
], ids=["fourth-field", "trailing-comment", "comma", "suffix", "hex", "float-index",
        "long-index", "two-per-line", "underscore", "empty-vector"])
def test_malformed_file_is_input_error(capsys, tmp_path, last_entry, sigma):
    files = _problem_files(tmp_path, f"2 2 2\n1 1 4.0\n{last_entry}\n", sigma)
    _assert_input_error(capsys, ["solve", *files, "--method", "npgs"])


@pytest.mark.parametrize("body, number, reason", [
    ("% comment\n2 2 2\n1 1 4.0\n\n2 2 1.5abc\n", 6,
     "could not convert string '1.5abc' to float64 (field 3)"),
    ("2 2 2\n1 1 4.0\n2 2 4.0 1\n", 4, "wrong number of fields: expected 3, found 4"),
    ("2 2 2\n1 1 4.0\n  % note\n3 2 1.0\n", 5, "entry index out of range 1..2"),
    ("% comment\n2 2 1.5\n1 1 4.0\n", 3, "malformed size line: '2 2 1.5'"),
], ids=["bad-value", "fourth-field", "index-above-n", "fractional-size"])
def test_parse_error_names_file_and_line(capsys, tmp_path, body, number, reason):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(_MM + body, encoding="ascii")
    code, _, err = _run(capsys, ["check", "--matrix", str(mtx), "--method", "npgs"])
    assert code == 1
    assert err == f"error: {mtx}:{number}: {reason}\n"


class _Pipe:
    """A pipe holding text, its write end closed, opened by its
    /dev/fd path as a file is (the text must fit the pipe's buffer)."""

    def __init__(self, text):
        self.read, write = os.pipe()
        os.write(write, text.encode("ascii"))
        os.close(write)
        self.path = f"/dev/fd/{self.read}"

    def __enter__(self):
        return self.path

    def __exit__(self, *exc):
        os.close(self.read)


_NEEDS_DEV_FD = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


@_NEEDS_DEV_FD
@pytest.mark.parametrize("flag, text, message", [
    ("--matrix", _MM + "2 2 2\n1 1 4.0\n  % note\n3 2 1.0\n", "{}:5: entry index out of range 1..2"),
    ("--matrix", _MM + "2 2 2\n1 1 4.0\n2 2 1.5abc\n",
     "{}:4: could not convert string '1.5abc' to float64 (field 3)"),
    ("--matrix", _MM + "2 2 2\n1 1 4.0\n% note\n2 2\n",
     "{}:5: wrong number of fields: expected 3, found 2"),
    ("--sigma", "-1\n\n-1 -1\n", "{}:3: wrong number of fields: expected 1, found 2"),
], ids=["index-above-n", "bad-value", "field-count", "sigma-field-count"])
def test_parse_error_from_a_pipe(capsys, tmp_path, flag, text, message):
    # the reader makes one pass, so a pipe, which cannot be read twice,
    # gets the message a file gets
    argv = ["solve", *_problem_files(tmp_path, "2 2 2\n1 1 4.0\n2 2 4.0\n"), "--method", "npgs"]
    with _Pipe(text) as path:
        argv[argv.index(flag) + 1] = path
        code, _, err = _run(capsys, argv)
    assert code == 1
    assert err == f"error: {message.format(path)}\n"


_PAST_THE_FIRST_CHUNK = ["1 1 1.0\n"] * 3000
_PAST_THE_FIRST_CHUNK[2500] = "1 1 1.\xe9\n"


@pytest.mark.parametrize("flag, text, message", [
    ("--matrix", _MM + "100 100 3000\n" + "".join(_PAST_THE_FIRST_CHUNK),
     "{}:2503: byte 0xe9 is not ASCII (column 7)"),
    ("--matrix", _MM + "% caf\xe9\n2 2 2\n1 1 4.0\n2 2 4.0\n",
     "{}:2: byte 0xe9 is not ASCII (column 6)"),
    ("--matrix", "%%MatrixMarket\xff matrix coordinate real general\n2 2 1\n1 1 4.0\n",
     "{}:1: byte 0xff is not ASCII (column 15)"),
    ("--sigma", "-1\n-1\xa0\n", "{}:2: byte 0xa0 is not ASCII (column 3)"),
], ids=["past-the-first-chunk", "comment", "header", "sigma"])
def test_parse_error_non_ascii_byte_names_its_line(capsys, tmp_path, monkeypatch, flag, text,
                                                   message):
    # a byte that is not ASCII, anywhere, even past the first 8 KiB (which
    # the header's read decodes) or in a comment, is named with its line
    # and column, in the one pass that opens the file once
    argv = ["solve", *_problem_files(tmp_path, "2 2 2\n1 1 4.0\n2 2 4.0\n"), "--method", "npgs"]
    path = argv[argv.index(flag) + 1]
    Path(path).write_text(text, encoding="latin-1")
    opened = []
    monkeypatch.setattr(matrix_core, "open",
                        lambda path, *args, **kwargs: opened.append(path) or open(path, *args, **kwargs),
                        raising=False)
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert err == f"error: {message.format(path)}\n"
    assert opened.count(path) == 1


@pytest.mark.parametrize("matrix, sigma, code, inputs", [
    ("2 2 2\n1 1 4.0\n2 2 4.0\n", "-1\n-1\n", 0, 2),
    ("2 2 2\n1 1 4.0\n2 2 1.5abc\n", "-1\n-1\n", 1, 1),
    ("2 2 2\n1 1 4.0\n2 2 4.0 1\n", "-1\n-1\n", 1, 1),
    ("2 2 2\n1 1 4.0\n3 2 4.0\n", "-1\n-1\n", 1, 1),
    ("2 2 2\n1 1 4.0\n2 2 4.0\n", "-1\n-1x\n", 1, 2),
], ids=["good", "bad-value", "field-count", "index-above-n", "sigma-bad-value"])
def test_parse_error_path_opens_each_input_once(capsys, tmp_path, monkeypatch, matrix, sigma,
                                                code, inputs):
    # the matrix, then sigma once the matrix is read, each opened once
    opened = []
    monkeypatch.setattr(matrix_core, "open",
                        lambda path, *args, **kwargs: opened.append(path) or open(path, *args, **kwargs),
                        raising=False)
    files = _problem_files(tmp_path, matrix, sigma)
    assert _run(capsys, ["solve", *files, "--method", "npgs"])[0] == code
    assert opened == files[1::2][:inputs]


_FILLER_LINES = st.lists(st.sampled_from(["", "% note", "  % note", "   ", "\t%"]), max_size=2)
_GOOD_VALUE = st.floats(-10.0, 10.0).map(repr)
# (bad line, reason) for a matrix entry and for a vector value
_BAD_ENTRIES = [("1 1 1.5abc", "could not convert string '1.5abc' to float64 (field 3)"),
                ("1.0 1 2.0", "could not convert string '1.0' to int64 (field 1)"),
                ("1 1", "wrong number of fields: expected 3, found 2"),
                ("1 1 2.0 3", "wrong number of fields: expected 3, found 4")]
_BAD_VALUES_AND_REASONS = [("0x1p-2", "could not convert string '0x1p-2' to float64 (field 1)"),
                           ("1 2", "wrong number of fields: expected 1, found 2")]


@st.composite
def _file_with_a_bad_line(draw):
    """(is a matrix, text, number of its bad line, reason): a matrix or
    vector file with filler lines at random places and one bad line."""
    matrix = draw(st.booleans())
    good = (st.tuples(st.integers(1, 3), st.integers(1, 3), _GOOD_VALUE).map(
        lambda e: "%d %d %s" % e) if matrix else _GOOD_VALUE)
    bad, reason = draw(st.sampled_from(_BAD_ENTRIES if matrix else _BAD_VALUES_AND_REASONS))
    data = draw(st.lists(good, max_size=12))
    at = draw(st.integers(0, len(data)))
    data.insert(at, bad)
    lines = [_MM.rstrip("\n")] + draw(_FILLER_LINES) + [f"4 4 {len(data)}"] if matrix else []
    for k, line in enumerate(data):
        lines += draw(_FILLER_LINES)
        if k == at:
            number = len(lines) + 1
        lines.append(line)
    lines += draw(_FILLER_LINES)
    # the last line, the bad one maybe, may end the file without a newline
    return matrix, "\n".join(lines) + draw(st.sampled_from(["\n", ""])), number, reason


@_NEEDS_DEV_FD
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_file_with_a_bad_line())
def test_parse_error_names_the_refused_line(tmp_path, case):
    # the line is found in the one pass, for a regular file and a pipe alike
    matrix, text, number, reason = case
    read = read_matrix_market if matrix else read_vector
    regular = tmp_path / "input.txt"
    regular.write_text(text, encoding="ascii")
    with _Pipe(text) as pipe:
        for path in (str(regular), pipe):
            with pytest.raises(ValueError) as raised:
                read(path)
            assert str(raised.value) == f"{path}:{number}: {reason}"


_LOADTXT = np.loadtxt


def _loadtxt_one_line_ahead(lines, **kwargs):
    """np.loadtxt, asking its input for each line before it parses the
    one before it."""
    return _LOADTXT((line for line, _ in itertools.pairwise(itertools.chain(lines, [None]))),
                    **kwargs)


def test_parse_error_names_the_refused_line_when_loadtxt_reads_ahead(tmp_path, monkeypatch):
    # the reader does not depend on the order in which loadtxt reads
    mtx = tmp_path / "a.mtx"
    mtx.write_text(_MM + "2 2 3\n1 1 4.0\n2 2 1.5abc\n2 1 1.0\n", encoding="ascii")
    monkeypatch.setattr(np, "loadtxt", _loadtxt_one_line_ahead)
    with pytest.raises(ValueError) as raised:
        read_matrix_market(str(mtx))
    assert str(raised.value) == f"{mtx}:4: could not convert string '1.5abc' to float64 (field 3)"


def test_parse_error_no_single_line_refuses_has_no_line(tmp_path, monkeypatch):
    # where loadtxt refuses the whole input though each line parses alone,
    # numpy's error passes through, naming no line rather than a wrong one
    def refusing_more_than_one_line(lines, **kwargs):
        if len(lines) > 1:
            raise ValueError("refused whole")
        return _LOADTXT(lines, **kwargs)

    mtx = tmp_path / "a.mtx"
    mtx.write_text(_MM + "2 2 3\n1 1 4.0\n2 2 4.0\n2 1 1.0\n", encoding="ascii")
    monkeypatch.setattr(np, "loadtxt", refusing_more_than_one_line)
    with pytest.raises(ValueError) as raised:
        read_matrix_market(str(mtx))
    assert str(raised.value) == "refused whole"


def test_parse_error_non_ascii_byte_is_named_before_a_bad_value(tmp_path):
    # of two faults in one file, a byte that is not ASCII is named first,
    # wherever it lies: the whole file is tested before any line is parsed
    mtx = tmp_path / "a.mtx"
    mtx.write_text(_MM + "2 2 3\n1 1 4.0\n2 2 1.5abc\n% note\n2 1 1.0\n\n% caf\xe9\n",
                   encoding="latin-1")
    with pytest.raises(ValueError) as raised:
        read_matrix_market(str(mtx))
    assert str(raised.value) == f"{mtx}:8: byte 0xe9 is not ASCII (column 6)"


@_NEEDS_DEV_FD
@pytest.mark.parametrize("text, number", [
    (_MM.replace("\n", "\r\n") + "% c\r\n2 2 3\r\n1 1 4.0\r\n\r\n2 2 1.5abc\r\n2 1 1.0\r\n", 6),
    (_MM.replace("\n", "\r") + "% c\r2 2 3\r1 1 4.0\r\r2 2 1.5abc\r2 1 1.0\r", 6),
    (_MM + "2 2 2\n% note\f% more\n1 1 4.0\n2 2 1.5abc\n", 5),
    (_MM + "2 2 2\n1 1 4.0\n2 2 1.5abc", 4),
], ids=["crlf", "lone-cr", "form-feed-in-a-comment", "no-final-newline"])
def test_parse_error_line_numbers_follow_universal_newlines(tmp_path, text, number):
    # a line ends at \n, \r\n or a lone \r, and nowhere else (a form
    # feed does not end one), for a regular file and a pipe alike
    regular = tmp_path / "a.mtx"
    regular.write_bytes(text.encode("ascii"))
    with _Pipe(text) as pipe:
        for path in (str(regular), pipe):
            with pytest.raises(ValueError) as raised:
                read_matrix_market(path)
            assert str(raised.value) == (f"{path}:{number}: "
                                         "could not convert string '1.5abc' to float64 (field 3)")


def test_vector_parse_error_names_file_and_line(capsys, tmp_path):
    files = _problem_files(tmp_path, "2 2 2\n1 1 4.0\n2 2 4.0\n", sigma="-1\n% note\n-1 -1\n")
    code, _, err = _run(capsys, ["solve", *files, "--method", "npgs"])
    assert code == 1
    assert err == f"error: {tmp_path / 's.vec'}:3: wrong number of fields: expected 1, found 2\n"


def test_non_finite_parameter_is_input_error(capsys):
    _assert_input_error(capsys, ["check", "--family", "example1", "--m", "3",
                                 "--method", "npsor", "--alpha", "inf"])


_EXAMPLE1_M3 = ["--family", "example1", "--m", "3"]


@pytest.mark.parametrize("argv", [
    ["solve", *_EXAMPLE1_M3, "--method", "npsor", "--alpha", "1e-300"],
    ["solve", *_EXAMPLE1_M3, "--method", "msor", "--alpha", "1e-300"],
    ["solve", *_EXAMPLE1_M3, "--method", "npaor", "--alpha", "1", "--beta", "1e308"],
    ["check", "--family", "random", "--m", "5", "--method", "npsor", "--alpha", "1e-300"],
], ids=["solve-npsor", "solve-msor", "solve-npaor", "check-npsor"])
def test_splitting_that_fails_m_minus_n_is_input_error(capsys, argv):
    # finite parameters so extreme that rounding breaks M - N = A
    err = _assert_input_error(capsys, argv)
    assert "M - N = A" in err and "alpha = " in err and "Traceback" not in err


@pytest.mark.parametrize("gamma", ["1e14", "1e20"])
def test_large_modulus_gamma_converges(capsys, gamma):
    # the state x is about gamma lambda, and the divergence guard scales
    # with gamma, so a large gamma is no divergence at iteration 1
    code, out, err = _run(capsys, ["solve", *_EXAMPLE1_M3, "--method", "mgs", "--gamma", gamma])
    assert code == 0 and err == "" and "converged:     yes" in out


def test_overflowing_modulus_lambda_is_divergence(capsys):
    # lambda = (|x| + x) / gamma overflows while x stays inside the
    # divergence bound: divergence, and no numpy RuntimeWarning on stderr
    code, _, err = _run(capsys, ["solve", *_EXAMPLE1_M3, "--method", "mgs", "--gamma", "1e-300"])
    assert code == 2
    assert err == "did not converge: Res(lambda) is not finite at iteration 1\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", *_EXAMPLE1_M3, "--method", "npsor", "--alpha", "1e-308"], "not finite"),
    (["solve", *_EXAMPLE1_M3, "--method", "msor", "--alpha", "1e-308"], "not finite"),
    (["check", *_EXAMPLE1_M3, "--method", "npsor", "--alpha", "1e-308"], "not finite"),
    (["solve", *_EXAMPLE1_M3, "--method", "mgs", "--omega-scale", "1e308"], "not finite"),
    (["solve", *_EXAMPLE1_M3, "--method", "mgs", "--gamma", "1e308"], "gamma * sigma"),
    (["solve", *_EXAMPLE1_M3, "--method", "mgs", "--gamma", "1e300"], "gamma scale"),
    (["solve", "--matrix", "a.mtx", "--sigma", "s.vec", "--method", "npsor", "--alpha", "1e-320"],
     "not finite"),
], ids=["solve-npsor", "solve-msor", "check-npsor", "omega-scale", "gamma", "gamma-scale",
        "missing-diagonal"])
def test_bad_input_prints_one_line(tmp_path, argv, message):
    # a parameter under which assembly overflows, or a 1/alpha of inf meets
    # a missing diagonal entry, is an input error with no numpy
    # RuntimeWarning before the message; a plain interpreter shows the
    # warnings the test configuration would turn into errors
    _problem_files(tmp_path, "2 2 2\n1 2 -1.0\n2 2 4.0\n")
    env = _env_with_src()
    done = subprocess.run([sys.executable, "-m", "lcpkit.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr
    assert message in done.stderr


def test_bad_input_overflowing_splitting_product_prints_one_line(tmp_path):
    # M's lower coefficient beta / alpha = 1e300 is finite, and its product
    # with the entry 1e200 overflows: an input error, with no numpy
    # RuntimeWarning before it
    files = _problem_files(tmp_path, "2 2 3\n1 1 1.0\n2 1 1e200\n2 2 1.0\n")
    done = subprocess.run([sys.executable, "-m", "lcpkit.cli", "check", files[0], files[1],
                           "--method", "npaor", "--alpha", "1e-300", "--beta", "1"],
                          cwd=tmp_path, env=_env_with_src(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (
        1, "error: matrix entry is not finite (nan/inf input or overflow)\n")


_RANDOM_M3_NEGATIVE_SEED = ["--family", "random", "--m", "3", "--seed", "-1"]


@pytest.mark.parametrize("argv, message", [
    (["solve", *_EXAMPLE1_M3, "--method", "npaor", "--alpha", "1"],
     "npaor requires --alpha and --beta"),
    (["solve", *_EXAMPLE1_M3, "--method", "msor"], "msor requires --alpha"),
    (["solve", "--method", "npgs"], "provide --family or --matrix (with --sigma)"),
    (["solve", "--family", "random", "--method", "npgs"],
     "--m (the dimension) is required for the random family"),
    (["solve", "--family", "example1", "--method", "npgs"],
     "--m is required for generated families"),
    (["table", "table1", "--sizes", ","], "--sizes is empty"),
    (["solve", *_RANDOM_M3_NEGATIVE_SEED, "--method", "npgs"], "seed must be a nonnegative integer"),
    (["check", *_RANDOM_M3_NEGATIVE_SEED, "--method", "npgs"], "seed must be a nonnegative integer"),
    # the output paths lie in no directory: a write would fail with another message
    (["gen", *_RANDOM_M3_NEGATIVE_SEED, "--matrix", "missing/a.mtx", "--sigma", "missing/s.vec"],
     "seed must be a nonnegative integer"),
], ids=["npaor-beta", "msor-alpha", "no-problem", "random-m", "family-m", "empty-sizes",
        "solve-seed", "check-seed", "gen-seed"])
def test_bad_input_usage_error(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [["solve", *_EXAMPLE1_M3, "--method", "npgs"],
                                     ["table", "table1", "--sizes", "100"]])
def test_bad_input_tol_must_be_finite(capsys, command):
    # an infinite tol would stop after one pass with any residual
    err = _assert_input_error(capsys, [*command, "--tol", "inf"])
    assert err == "error: tol must be positive and finite\n"


@pytest.mark.parametrize("flags", [("--matrix", "--sigma"), ("--sigma", "--solution")])
def test_bad_input_gen_one_file_for_two_outputs(capsys, tmp_path, flags):
    # the second spelling resolves to the first path; nothing is written
    paths = {"--matrix": str(tmp_path / "a.mtx"), "--sigma": str(tmp_path / "s.vec"),
             "--solution": str(tmp_path / "lam.vec")}
    paths[flags[1]] = f"{tmp_path}/./{os.path.basename(paths[flags[0]])}"
    err = _assert_input_error(capsys, ["gen", *_EXAMPLE1_M3,
                                       *itertools.chain.from_iterable(paths.items())])
    assert err == f"error: {flags[0]} and {flags[1]} name the same file {paths[flags[1]]!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_check_names_the_zero_pivot(capsys, tmp_path):
    # npj's M + 2I + D_A is diag(-1, -1) + 2I + diag(-1, -1) = 0: check
    # names the row, as solve does, before any dense inverse
    files = _problem_files(tmp_path, "2 2 3\n1 1 -1\n2 1 0.5\n2 2 -1\n")
    for command in ("check", "solve"):
        code, _, err = _run(capsys, [command, *files, "--method", "npj"])
        assert (code, err) == (1, "error: zero diagonal in row 0\n")


_FINITE = st.floats(-10.0, 10.0).map(repr)
_BAD_VALUES = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "x", "",
                               "1,5", "1.5abc", "0x1p-2"])
_FILLER = st.sampled_from(["", "% note", "  %"])


def _mostly(draw, good, bad):
    """Draw from good, and now and then from bad."""
    return draw(bad) if draw(st.integers(0, 7)) == 7 else draw(good)


@st.composite
def _fuzzed_files(draw):
    """A MatrixMarket file and a vector file, mostly well formed so that
    many runs reach the solver, with corrupted fields mixed in."""
    n = draw(st.integers(1, 8))
    index = st.integers(1, n)
    entries = [(i, i, draw(_FINITE)) for i in range(1, n + 1) if draw(st.booleans())]
    bad_index = st.sampled_from([0, n + 1, 99999999999999999999999])
    for _ in range(draw(st.integers(0, 2 * n))):
        entries.append((_mostly(draw, index, bad_index),
                        _mostly(draw, index, bad_index),
                        _mostly(draw, _FINITE, _BAD_VALUES)))
    nnz = _mostly(draw, st.just(len(entries)), st.integers(-1, 12))
    size_line = _mostly(draw, st.just(f"{n} {n} {nnz}"),
                        st.sampled_from([f"{n} {n + 1} {nnz}", f"{n - 1} {n - 1} {nnz}"]))
    lines = [size_line]
    for e in entries:
        lines += draw(st.lists(_FILLER, max_size=1))
        lines.append(" ".join(map(str, e)) + _mostly(draw, st.just(""), st.just(" 1.0")))
    mtx = "\n".join(lines) + "\n"
    length = _mostly(draw, st.just(n), st.integers(0, 9))
    vec = "\n".join(_mostly(draw, _FINITE, _BAD_VALUES) for _ in range(length)) + "\n"
    return mtx, vec


_FUZZ_RUNS = [
    ["solve", "--method", "npgs"],
    ["solve", "--method", "npaor", "--alpha", "1.2", "--beta", "0.8"],
    ["solve", "--method", "msor", "--alpha", "0.9"],
    ["solve", "--method", "mgs"],
    ["check", "--method", "npj"],
    ["check", "--method", "npsor", "--alpha", "1.7"],
]

_ODD_NUMBERS = ["nan", "inf", "1e308", "1e-320", "-0", "1_0", "0x1p-2"]
_ALPHA = st.sampled_from(["0.5", "0.9", "1", "1.2", "1.7"])
# the numeric flags each command takes, with ordinary values; --m, --sizes
# and --max-iters are drawn apart, so that every run stays small
_NUMERIC_FLAGS = {
    "--alpha": _ALPHA,
    "--beta": _ALPHA,
    "--gamma": st.sampled_from(["0.5", "1", "2"]),
    "--omega-scale": st.sampled_from(["0.25", "0.5", "1"]),
    "--tol": st.sampled_from(["1e-5", "1e-3", "1e-8"]),
    "--delta": st.sampled_from(["4", "1", "0.5"]),
}
_COMMAND_FLAGS = {"solve": ["--alpha", "--beta", "--gamma", "--omega-scale", "--tol"],
                  "check": ["--alpha", "--beta"],
                  "table": ["--delta", "--gamma", "--tol"]}


@st.composite
def _numeric_flags(draw, command, family):
    """Numeric flags for a run of command, on a generated family or
    (family None) on files: a value is mostly ordinary, now and then odd.
    A valid --m or table size is at most 8 (1_0 is 10, a valid int), and
    --max-iters at most 50."""
    flags = []
    if family is not None:
        odd_m = st.sampled_from([v for v in _ODD_NUMBERS if v != "1_0"])
        flags += ["--family", family, "--m", _mostly(draw, st.integers(1, 8).map(str), odd_m)]
    if command == "table":
        size = st.one_of(st.just("4"), st.sampled_from(_ODD_NUMBERS))
        flags += ["--sizes", ",".join(draw(st.lists(size, min_size=1, max_size=2)))]
    if command != "check":
        flags += ["--max-iters", _mostly(draw, st.integers(0, 50).map(str),
                                         st.sampled_from(_ODD_NUMBERS))]
    for flag in _COMMAND_FLAGS[command] + (["--delta"] if family else []):
        if draw(st.booleans()):
            flags += [flag, _mostly(draw, _NUMERIC_FLAGS[flag], st.sampled_from(_ODD_NUMBERS))]
    return flags


def _assert_no_traceback(capsys, argv):
    """Run argv: an exit code in {0, 1, 2}, at most one stderr line and
    no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = _run(capsys, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err.count("\n") <= 1 and "Warning" not in err
    assert caught == []


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=_fuzzed_files(), run=st.sampled_from(_FUZZ_RUNS), init=st.booleans())
def test_cli_never_prints_a_traceback(capsys, tmp_path, files, run, init):
    # every example reads its fuzzed files; declared n stays <= 8: check
    # at a large declared n is slow by design
    argv = run + _problem_files(tmp_path, *files)
    if run[0] == "solve":
        argv += ["--max-iters", "50"]
        if init:
            argv += ["--init", str(tmp_path / "s.vec")]
    _assert_no_traceback(capsys, argv)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=_fuzzed_files(), run=st.sampled_from(_FUZZ_RUNS + [["table", "table1"]]),
       family=st.sampled_from([None, "example1", "example2", "random"]),
       init=st.booleans(), data=st.data())
def test_cli_numeric_flags_never_print_a_traceback(capsys, tmp_path, files, run, family, init,
                                                   data):
    # the numeric flags on fuzzed files, a generated family or a table;
    # a declared n, --m and a table size stay <= 8: check at a large n is
    # slow by design
    command = run[0]
    argv = list(run)
    if command == "table":
        family = None
    elif family is None:
        argv += _problem_files(tmp_path, *files)
        if command == "solve" and init:
            argv += ["--init", str(tmp_path / "s.vec")]
    argv += data.draw(_numeric_flags(command, family))
    _assert_no_traceback(capsys, argv)
