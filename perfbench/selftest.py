"""The benchmark's own tests, kept out of the package's test suite:

    python3 -m pytest perfbench/selftest.py

Smoke runs use --tiny inputs, so the whole file takes well under a minute.
"""

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, dependency_depth  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WORKLOADS)
EXACT_COUNTS = ("solvers.iterations", "matrix_core.power_iteration.iterations",
                "matrix_core.trisolve.calls")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@functools.lru_cache(maxsize=None)
def _tiny_result(workload, trace, attempt=0):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace, section):
    result = _tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_between_runs(workload):
    first, second = _tiny_result(workload, 1), _tiny_result(workload, 1, attempt=1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_certify_runs_no_triangular_solve_but_power_iterations():
    metrics = _tiny_result("certify", 1)["metrics"]
    assert metrics["matrix_core.trisolve.calls"]["value"] == 0
    assert metrics["matrix_core.power_iteration.iterations"]["value"] > 0


def test_flipped_verdict_counts_as_failure(tmp_path, monkeypatch):
    wl = workloads.Certify(str(tmp_path), 0, tiny=True)
    wl.setup()
    real = run.call_main

    def flip_scaled_npgs(argv):
        code, out = real(argv)
        if "--matrix" in argv and "npgs" in argv:
            cert = json.loads(out)
            cert["spectral_condition_ok"] = not cert["spectral_condition_ok"]
            out = json.dumps(cert)
        return code, out

    monkeypatch.setattr(run, "call_main", flip_scaled_npgs)
    rnd = run.run_round(wl, wl.ops())
    assert run.count([rnd], wl.input_failures()) == (4, 1)
    assert rnd["judged"]["example1_npgs_scaled"] == (1, 1)


def test_bad_table_cells_count_as_failures():
    wl = workloads.Table1("", 0, tiny=True)
    header = "table,method,parameter,n,iterations,residual_final,cpu_seconds,converged\n"
    op = "table1_n36"
    assert op in dict(wl.ops())
    rows = [f"table1,{m},,36,10,1e-06,0.1,True" for m in workloads.TABLE1_METHODS]
    assert wl.judge(op, 0, header + "\n".join(rows)) == (4, 0)
    unconverged = rows[:3] + [rows[3].replace("True", "False")]
    assert wl.judge(op, 0, header + "\n".join(unconverged)) == (4, 1)
    loose = [rows[0].replace("1e-06", "2e-05")] + rows[1:]
    assert wl.judge(op, 0, header + "\n".join(loose)) == (4, 1)
    assert wl.judge(op, 0, header + "\n".join(rows[1:])) == (4, 1)
    other_size = [row.replace(",36,", ",16,") for row in rows]
    assert wl.judge(op, 0, header + "\n".join(other_size)) == (4, 4)
    assert wl.judge(op, 2, header + "\n".join(rows)) == (4, 4)


def test_matrix_file_that_does_not_read_back_fails_its_solves(tmp_path):
    wl = workloads.DenseFiles(str(tmp_path), 0, tiny=True)
    wl.setup()
    assert wl.input_failures() == set()
    path = Path(wl.paths(2)[0])
    lines = path.read_text().splitlines()
    i, j, v = lines[2].split()
    lines[2] = f"{i} {j} {float(v):.6g}"
    path.write_text("\n".join(lines) + "\n")
    assert wl.input_failures() == {"random2_npgs", "random2_mgs"}


def test_tracer_self_times_add_up_and_originals_come_back(capsys):
    from lcpkit import SparseMatrix, cli, solvers

    originals = (cli.main, solvers.lower_triangular_solve,
                 SparseMatrix.__dict__["from_coo"], SparseMatrix.__dict__["matvec"])
    tracer = Tracer()
    with tracer.recording("solve"):
        assert cli.main is not originals[0]
        assert cli.main(["solve", "--family", "example1", "--m", "4",
                         "--method", "npgs", "--format", "json"]) == 0
    assert (cli.main, solvers.lower_triangular_solve, SparseMatrix.__dict__["from_coo"],
            SparseMatrix.__dict__["matvec"]) == originals
    totals = tracer.totals(0)
    assert totals["cli.main.calls"] == 1 and totals["solvers.solve.calls"] == 1
    assert totals["matrix_core.trisolve.calls"] == totals["solvers.iterations"] > 0
    self_total = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(totals["cli.main.s"])
    assert all(span[3] < index for index, span in enumerate(tracer.spans))


def test_reference_seconds_scale_with_kernel_speed():
    ref = 0.001
    # kernels at 0, 1 and 3 s of wall time; stretches of 1 - ref and 2 - ref s
    at_ref = [(0.0, 0.0, ref, ref), (1.0, 1.0, ref, ref), (3.0, 3.0, ref, ref)]
    out = pace.scale(at_ref, ref)
    assert out["wall_s"] == pytest.approx(3.0 - 2 * ref)
    assert out["ref_wall_s"] == pytest.approx(out["wall_s"])
    half_speed = [(w, c, 2 * ref, 2 * ref) for w, c, _, _ in at_ref]
    out = pace.scale(half_speed, ref)
    assert out["ref_wall_s"] == pytest.approx(out["wall_s"] / 2)
    assert out["ref_cpu_s"] == pytest.approx(out["cpu_s"] / 2)


@pytest.mark.parametrize("kernel", sorted(pace.KERNELS))
def test_pacer_samples_while_the_block_runs(kernel):
    pacer = pace.Pacer(kernel)
    with pacer.measuring() as m:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert m["kernels"] >= 2 + 0.2 / pace.PERIOD_S / 2
    assert 0.15 < m["wall_s"] < 0.21 and m["ref_wall_s"] > 0


def test_dependency_depth_of_grid_lower_triangle():
    from lcpkit import BenchSpec, SparseMatrix

    lower = BenchSpec("example1", 4).build().a.strict_lower().add_diagonal(1.0)
    assert dependency_depth(lower) == 2 * 4 - 1
    assert dependency_depth(SparseMatrix.identity(5)) == 1


def test_recorded_certify_expectations_match_eigvals_reference():
    for pair, ref in reference.references(6).items():
        assert {k: ref[k] for k in workloads.CERTIFY_EXPECTED[pair]} == \
            workloads.CERTIFY_EXPECTED[pair], pair


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = _bench("--workload", "table1", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
