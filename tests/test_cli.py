import itertools
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcpkit.cli import main
from lcpkit.matrix_core import read_matrix_market, read_vector
from lcpkit.solvers import LcpProblem, residual


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert "spectral condition rho<1:  pass" in out


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


def test_table_rejects_non_square_size(capsys):
    code, _, err = _run(capsys, ["table", "table1", "--sizes", "10"])
    assert code == 1
    assert "perfect squares" in err


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


def test_non_finite_parameter_is_input_error(capsys):
    _assert_input_error(capsys, ["check", "--family", "example1", "--m", "3",
                                 "--method", "npsor", "--alpha", "inf"])


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
    ["check", "--method", "npj"],
    ["check", "--method", "npsor", "--alpha", "1.7"],
]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=_fuzzed_files(), run=st.sampled_from(_FUZZ_RUNS),
       init=st.booleans())
def test_cli_never_prints_a_traceback(capsys, tmp_path, files, run, init):
    # declared n stays <= 8: check at a large declared n is slow by design
    argv = run + _problem_files(tmp_path, *files)
    if run[0] == "solve":
        argv += ["--max-iters", "50"]
        if init:
            argv += ["--init", str(tmp_path / "s.vec")]
    code, _, err = _run(capsys, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err.count("\n") <= 1 and "Warning" not in err
