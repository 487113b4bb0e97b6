"""lcpkit benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload table1|certify|dense_files \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; lcpkit is imported from ./src, never
from an installed copy.  BENCHMARK.json lists the workloads a benchmark
run covers (table1 and certify); dense_files is kept for manual runs.  The
workload's inputs come from --seed, and every output is checked.  lcpkit
runs on one core: LCPKIT_THREADS is unset and OpenBLAS gets one thread.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}:

- --trace 0: the run sets up SETUP_REPEATS times (each a fresh-interpreter
  import of lcpkit plus the workload's input generation and file writes),
  then repeats rounds of the workload's CLI calls for S seconds (at least
  two rounds).  Every time is in reference seconds (pace.py): seconds
  scaled to a fixed host speed that is sampled while the code runs, so
  that a shared host's drift does not show.  wall_s and cpu_s are the sum
  over the round's calls of each call's median over rounds; setup_s is the
  median setup.  The raw seconds go to the details.
- --trace 1: the run sets up once with tracing on, then alternates plain
  and traced rounds for S seconds (at least one pair).  It reports the traced
  setup plus the median traced round per layer, and the tracing overhead
  as the median traced round minus the median plain one, in raw seconds.

Details (environment, per-round figures, exact counts) go to earlier
stdout lines and to perfbench/work/; traced runs also write their spans
there.
"""

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

SETUP_REPEATS = 9

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "problems.generate.calls": "count",
    "problems.generate.s": "s",
    "problems.generate.self_s": "s",
    "splittings.make_splitting.calls": "count",
    "splittings.make_splitting.s": "s",
    "splittings.make_splitting.self_s": "s",
    "matrix_core.assemble.calls": "count",
    "matrix_core.assemble.s": "s",
    "matrix_core.trisolve.calls": "count",
    "matrix_core.trisolve.s": "s",
    "matrix_core.trisolve.nnz": "count",
    "matrix_core.trisolve.flops_computed": "flop",
    "matrix_core.trisolve.depth": "levels",
    "matrix_core.matvec.calls": "count",
    "matrix_core.matvec.s": "s",
    "matrix_core.matvec.nnz": "count",
    "matrix_core.matvec.flops_computed": "flop",
    "matrix_core.power_iteration.calls": "count",
    "matrix_core.power_iteration.s": "s",
    "matrix_core.power_iteration.self_s": "s",
    "matrix_core.power_iteration.iterations": "count",
    "matrix_core.classify.calls": "count",
    "matrix_core.classify.s": "s",
    "matrix_core.io.read.calls": "count",
    "matrix_core.io.read.s": "s",
    "matrix_core.io.read.self_s": "s",
    "matrix_core.io.write.calls": "count",
    "matrix_core.io.write.s": "s",
    "matrix_core.io.bytes": "B",
    "solvers.solve.calls": "count",
    "solvers.solve.s": "s",
    "solvers.solve.self_s": "s",
    "solvers.iterations": "count",
    "solvers.s_per_iteration": "s",
    "solvers.residual.calls": "count",
    "solvers.residual.s": "s",
    "solvers.residual.self_s": "s",
    "convergence.check.calls": "count",
    "convergence.check.s": "s",
    "convergence.check.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}
COUNT_UNITS = ("count", "flop", "levels", "B")

_IMPORT_PROBE = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import pace\n"
                 "with pace.Pacer().measuring() as m:\n    import lcpkit\n"
                 "print(json.dumps(m))")


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def import_seconds():
    """Pacer figures of a fresh interpreter's import of lcpkit from ./src."""
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, check=True, timeout=120,
                          cwd=ROOT)
    return json.loads(done.stdout)


def call_main(argv):
    """Run lcpkit.cli.main(argv); (exit code or None if it raised, stdout)."""
    from lcpkit import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an escaped exception is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        code = None
    if code != 0:
        sys.stderr.write(f"lcpkit {' '.join(argv)} -> {code}\n{err.getvalue()}")
    return code, out.getvalue()


def run_round(workload, ops, tracer=None, label="", pacer=None):
    """Time one round of ops, each on its own, then judge each output
    (untimed).  With a pacer, the per-op figures are its reference seconds
    as well as its raw ones."""
    results, per_op = [], {}
    for op, argv in ops:
        if tracer is not None:
            tracer.op = f"{label}/{op}"
        if pacer is not None:
            with pacer.measuring() as per_op[op]:
                results.append((op, *call_main(argv)))
            continue
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results.append((op, *call_main(argv)))
        per_op[op] = {"wall_s": time.perf_counter() - wall0,
                      "cpu_s": time.process_time() - cpu0}
    judged = {op: workload.judge(op, code, out) for op, code, out in results}
    return {"wall_s": sum(m["wall_s"] for m in per_op.values()),
            "cpu_s": sum(m["cpu_s"] for m in per_op.values()),
            "ops": per_op, "judged": judged}


def median_round(rounds, key):
    """Seconds of one round built from each op's median over the rounds."""
    return sum(statistics.median(r["ops"][op][key] for r in rounds)
               for op in rounds[0]["ops"])


def count(rounds, input_failures):
    """(attempted, failed) over all rounds; an op whose input files did not
    read back counts as failed in every round."""
    attempted = failed = 0
    for rnd in rounds:
        for op, (tried, bad) in rnd["judged"].items():
            attempted += tried
            failed += tried if op in input_failures else bad
    return attempted, failed


def more_rounds(walls, start, seconds, minimum):
    """Whether another round fits: always until there are ``minimum``,
    then only if a typical round ends within the time left, so a run
    never overruns --seconds by most of a round."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def timed_run(workload, ops, seconds):
    from pace import Pacer

    setup_pacer, pacer = Pacer(), Pacer(workload.kernel)
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        with setup_pacer.measuring() as written:
            workload.setup()
        setups.append({key: imported[key] + written[key]
                       for key in ("wall_s", "ref_wall_s")})
    rounds = []
    start = time.perf_counter()
    while more_rounds([r["wall_s"] for r in rounds], start, seconds, minimum=2):
        rounds.append(run_round(workload, ops, pacer=pacer))
    attempted, failed = count(rounds, workload.input_failures())
    metrics = {
        "wall_s": median_round(rounds, "ref_wall_s"),
        "cpu_s": median_round(rounds, "ref_cpu_s"),
        "setup_s": statistics.median(s["ref_wall_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {"setup_s_samples": setups, "rounds": _round_detail(rounds)}
    return metrics, attempted, failed, detail


def traced_run(workload, ops, seconds, spans_path):
    from tracing import Tracer

    tracer = Tracer()
    tracer.op = "setup"
    with tracer.recording("setup"):
        workload.setup()
    plain, traced = [], []
    start = time.perf_counter()
    while more_rounds([p["wall_s"] + t["wall_s"] for p, t in zip(plain, traced)],
                      start, seconds, minimum=1):
        plain.append(run_round(workload, ops))
        label = f"round{len(traced)}"
        with tracer.recording(label):
            traced.append(run_round(workload, ops, tracer, label))
    attempted, failed = count(plain + traced, workload.input_failures())
    setup = tracer.totals(0)
    per_round = [tracer.totals(i) for i in range(1, len(tracer.phases))]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "matrix_core.trisolve.depth":
            value = max(t[name] for t in [setup] + per_round)
        else:
            value = setup.get(name, 0) + statistics.median(t.get(name, 0) for t in per_round)
        if unit not in COUNT_UNITS:
            value = float(value)
        elif float(value).is_integer():
            value = int(value)
        metrics[name] = value
    iterations = metrics["solvers.iterations"]
    metrics["solvers.s_per_iteration"] = (
        metrics["solvers.solve.s"] / iterations if iterations else 0.0)
    metrics["trace.overhead_s"] = (median_round(traced, "wall_s")
                                   - median_round(plain, "wall_s"))
    tracer.write(spans_path)
    detail = {"plain_rounds": _round_detail(plain), "traced_rounds": _round_detail(traced),
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, attempted, failed, detail


def _round_detail(rounds):
    return [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "ops": r["ops"],
             "failed_ops": sorted(op for op, (_, bad) in r["judged"].items() if bad)}
            for r in rounds]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_size():
    """Size of the highest cache level of CPU 0, as the kernel reports it."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in base.glob("index*")]
    except (OSError, ValueError):
        return "unknown"
    return max(levels)[1] if levels else "unknown"


def _openblas_threads():
    """Thread count of every OpenBLAS this process has loaded."""
    symbols = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    found = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(lcpkit_threads):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_size": _llc_size(),
        "openblas_threads": _openblas_threads(),
        "benchmark_python_threads": threading.active_count(),
        "LCPKIT_THREADS": ("unset" if lcpkit_threads is None
                           else f"was {lcpkit_threads!r}, unset for this run"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lcpkit" / "__init__.py").is_file():
        print(f"error: lcpkit sources not found under {SRC}", file=sys.stderr)
        return 2
    # the table's thread pool is an option; measure the default, serial path
    lcpkit_threads = os.environ.pop("LCPKIT_THREADS", None)
    # and keep BLAS on one core too: on a shared host the two cores slow
    # down independently, and a second BLAS thread ties certify's times to
    # the other core's neighbours, which the pacer cannot see.  Set before
    # numpy loads; the import probes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import lcpkit

    if Path(lcpkit.__file__).resolve().parent != SRC / "lcpkit":
        print(f"error: imported lcpkit from {lcpkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](str(workdir), args.seed, args.tiny)
    ops = workload.ops()
    if args.trace:
        metrics, attempted, failed, detail = traced_run(
            workload, ops, args.seconds, WORK / f"spans-{tag}.jsonl")
        units = PER_LAYER
    else:
        metrics, attempted, failed, detail = timed_run(workload, ops, args.seconds)
        units = END_TO_END
    env = environment(lcpkit_threads)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": env, "detail": detail,
              "result": result}
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env}))
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
