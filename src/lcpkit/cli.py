"""Command-line front end: solve, check, table, gen.

Exit codes follow one rule everywhere: 0 when the requested work
succeeded (including a convergence check whose conditions fail -- the
check itself ran), 2 when a solve stopped without converging, 1 for
usage and input errors.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys

from .convergence import check_spectral_condition
from .matrix_core import read_matrix_market, read_vector, write_matrix_market, write_vector
from .problems import BenchSpec, gen_random_hplus
from .solvers import (
    DivergenceError,
    LcpProblem,
    ModulusConfig,
    SolverConfig,
    modulus_solve,
    projected_solve,
)
from .splittings import SplittingKind, make_splitting

PROJECTED_METHODS = ("npj", "npgs", "npsor", "npaor")
MODULUS_METHODS = ("mgs", "msor")

# per-table method grid and the parameters each table pins
TABLE_SETUPS = {
    "table1": {"family": "example1", "msor_alpha": 0.85, "npsor_alpha": 1.7,
               "sizes": (100, 900, 2500, 3600, 4900, 10000)},
    "table2": {"family": "example2", "msor_alpha": 0.88, "npsor_alpha": 1.7,
               "sizes": (100, 400, 900, 1600, 2500, 3600)},
}


class UsageError(Exception):
    """Bad flags or unusable input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError.  A subcommand's
    parser is given flags, a function that adds its flags, and is built
    (argparse's own set-up, then flags) only when argparse dispatches to
    it: a call builds the parser and flags of the command it runs, and
    of no other."""

    def __init__(self, flags=None, **kwargs):
        self._unbuilt = None if flags is None else (flags, kwargs)
        if flags is None:
            super().__init__(**kwargs)

    def parse_known_args(self, args=None, namespace=None):
        if self._unbuilt is not None:
            flags, kwargs = self._unbuilt
            self._unbuilt = None
            super().__init__(**kwargs)
            flags(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise UsageError(message)


def _problem_flags(p, methods):
    p.add_argument("--family", choices=("example1", "example2", "random"),
                   help="generated problem family; 'random' uses --m as the dimension")
    p.add_argument("--m", type=int, help="block order (n = m*m); dimension for random")
    p.add_argument("--delta", type=float, default=4.0, help="diagonal shift delta1")
    p.add_argument("--seed", type=int, default=0, help="seed for the random family")
    p.add_argument("--matrix", help="MatrixMarket file for A")
    p.add_argument("--sigma", help="plain-text vector file for sigma")
    p.add_argument("--method", choices=methods, required=True)
    p.add_argument("--alpha", type=float, help="relaxation parameter")
    p.add_argument("--beta", type=float, help="acceleration parameter (npaor)")


def _output_flags(p):
    p.add_argument("--format", choices=("csv", "md", "json"), default="md")
    p.add_argument("--output", help="write the report here instead of stdout")


def _solve_flags(p):
    _problem_flags(p, PROJECTED_METHODS + MODULUS_METHODS)
    p.add_argument("--gamma", type=float, default=1.0, help="modulus scaling")
    p.add_argument("--omega-scale", type=float, default=None,
                   help="Omega = omega_scale * D_A (default 1/(2*alpha))")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--init", default="alt",
                   help="start vector: 'alt' for (1,0,1,0,...) or a vector file")
    _output_flags(p)
    p.set_defaults(func=cmd_solve)


def _check_flags(p):
    _problem_flags(p, PROJECTED_METHODS)
    _output_flags(p)
    p.set_defaults(func=cmd_check)


def _table_flags(p):
    p.add_argument("which", choices=("table1", "table2"))
    p.add_argument("--sizes", help="comma-separated n values (perfect squares)")
    p.add_argument("--delta", type=float, default=4.0)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="gamma for the modulus baselines")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=10000)
    _output_flags(p)
    p.set_defaults(func=cmd_table)


def _gen_flags(p):
    p.add_argument("--family", choices=("example1", "example2", "random"),
                   required=True)
    p.add_argument("--m", type=int,
                   help="block order (n = m*m); dimension for random")
    p.add_argument("--delta", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrix", required=True, help="output MatrixMarket path for A")
    p.add_argument("--sigma", required=True, help="output vector path for sigma")
    p.add_argument("--solution", help="also write the reference solution here")
    p.set_defaults(func=cmd_gen)


def build_parser():
    """A new lcpkit parser.  It names the subcommands and their help
    only; each one's parser and flags are built when it parses
    (``_Parser``).  No parser is kept between calls, since a kept one
    would be a process-global memo."""
    parser = _Parser(prog="lcpkit",
                     description="Projected and modulus splitting solvers for LCP(sigma, A)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("solve", help="run one method on one problem", flags=_solve_flags)
    sub.add_parser("check", help="evaluate convergence conditions", flags=_check_flags)
    sub.add_parser("table", help="reproduce a benchmark table", flags=_table_flags)
    sub.add_parser("gen", help="write a generated problem to files", flags=_gen_flags)
    return parser


def _load_problem(args, need_sigma=True):
    if args.matrix:
        a = read_matrix_market(args.matrix)
        if args.sigma:
            sigma = read_vector(args.sigma)
        elif need_sigma:
            raise UsageError("--sigma is required with --matrix")
        else:
            sigma = [0.0] * a.n
        return LcpProblem(a=a, sigma=sigma)
    if args.family is None:
        raise UsageError("provide --family or --matrix (with --sigma)")
    return _generated_problem(args)


def _generated_problem(args):
    if args.family == "random":
        if args.m is None:
            raise UsageError("--m (the dimension) is required for the random family")
        return gen_random_hplus(args.m, args.seed)
    if args.m is None:
        raise UsageError("--m is required for generated families")
    return BenchSpec(args.family, args.m, args.delta).build()


def _splitting_kind(method, alpha, beta):
    if method == "npj":
        return SplittingKind.npj()
    if method == "npgs":
        return SplittingKind.npgs()
    if method == "npsor":
        if alpha is None:
            raise UsageError("npsor requires --alpha")
        return SplittingKind.npsor(alpha)
    if alpha is None or beta is None:
        raise UsageError("npaor requires --alpha and --beta")
    return SplittingKind.npaor(alpha, beta)


def _solve(problem, method, alpha, beta, cfg, gamma=1.0, omega_scale=None):
    """Run one named method; modulus variants take gamma and omega_scale."""
    if method in MODULUS_METHODS:
        if method == "msor" and alpha is None:
            raise UsageError("msor requires --alpha")
        mcfg = ModulusConfig(variant=method, alpha=1.0 if alpha is None else alpha,
                             omega_scale=omega_scale, gamma=gamma)
        return modulus_solve(problem, cfg, mcfg)
    splitting = make_splitting(problem.a, _splitting_kind(method, alpha, beta))
    return projected_solve(problem, splitting, cfg)


def _initial_vector(args):
    if args.init == "alt":
        return None
    return read_vector(args.init)


def _emit(text, args):
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _g17(x):
    return f"{x:.17g}"


def _strict_json(value):
    """value as indented strict JSON: every non-finite float (an interval
    end of inf, say) becomes null, which any JSON parser reads."""
    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return v
    return json.dumps(finite(value), indent=2, allow_nan=False) + "\n"


def _render_solve(report, fmt):
    rec = report.to_json_dict()
    if fmt == "json":
        return _strict_json(rec)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rec.keys())
        writer.writerow(
            "" if v is None else (_g17(v) if isinstance(v, float) else v)
            for v in rec.values()
        )
        return buf.getvalue()
    lines = [
        f"method:        {rec['method']}",
        f"n:             {rec['n']}",
        f"alpha:         {rec['alpha'] if rec['alpha'] is not None else '-'}",
        f"beta:          {rec['beta'] if rec['beta'] is not None else '-'}",
        f"iterations:    {rec['iterations']}",
        f"residual:      {rec['residual_final']:.6e}",
        f"wall_seconds:  {rec['wall_seconds']:.4f}",
        f"converged:     {'yes' if rec['converged'] else 'no'}",
    ]
    return "\n".join(lines) + "\n"


def cmd_solve(args):
    problem = _load_problem(args)
    cfg = SolverConfig(tol=args.tol, max_iters=args.max_iters,
                       initial=_initial_vector(args))
    report = _solve(problem, args.method, args.alpha, args.beta, cfg,
                    args.gamma, args.omega_scale)
    _emit(_render_solve(report, args.format), args)
    return 0 if report.converged else 2


def _render_certificate(cert, fmt):
    rec = cert.to_json_dict()
    if fmt == "json":
        return _strict_json(rec)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rec.keys())
        writer.writerow("" if v is None else v for v in rec.values())
        return buf.getvalue()

    def mark(flag):
        return "pass" if flag else "fail"

    lines = []
    if cert.rho_t is not None:
        lines.append(f"rho(T):                    {cert.rho_t:.6f} (mode: {cert.rho_mode})")
        lines.append(f"rho(T) bracket:            [{cert.rho_lower:.10g}, {cert.rho_upper:.10g}] "
                     f"after {cert.power_iterations} power iterations")
        lines.append(f"spectral condition rho<1:  {mark(cert.spectral_condition_ok)}")
    lines += [
        f"H-matrix, positive diag:   {mark(cert.h_plus)}",
        f"compatible splitting:      {mark(cert.h_compatible)}",
        f"diagonal >= 1:             {mark(cert.diag_geq_one)}",
        f"coupling matrix is M:      {mark(cert.coupling_matrix_is_m)}",
        f"diagonal < 1:              {mark(cert.diag_below_one)}",
        f"structural conditions:     {mark(cert.hmatrix_conditions_ok)}",
    ]
    if cert.notes:
        lines.append(f"notes: {cert.notes}")
    return "\n".join(lines) + "\n"


def cmd_check(args):
    problem = _load_problem(args, need_sigma=False)
    splitting = make_splitting(problem.a, _splitting_kind(args.method, args.alpha, args.beta))
    cert = check_spectral_condition(problem.a, splitting)
    _emit(_render_certificate(cert, args.format), args)
    return 0


def _parse_sizes(raw, default):
    if raw is None:
        return list(default)
    try:
        sizes = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--sizes must be comma-separated integers, got {raw!r}")
    if not sizes:
        raise UsageError("--sizes is empty")
    return sizes


def _table_cells(args):
    """Run every cell, method-major, and return the sizes and the rows in
    render order: (method, parameter, reports by size)."""
    setup = TABLE_SETUPS[args.which]
    sizes = _parse_sizes(args.sizes, setup["sizes"])
    for n in sizes:
        if n < 4 or math.isqrt(n) ** 2 != n:
            raise UsageError(f"table sizes must be perfect squares >= 4, got {n}")
    problems = [BenchSpec(setup["family"], math.isqrt(n), args.delta).build()
                for n in sizes]
    methods = (
        ("mgs", 1.0, f"alpha=1;gamma={args.gamma:g}"),
        ("msor", setup["msor_alpha"],
         f"alpha={setup['msor_alpha']:g};gamma={args.gamma:g}"),
        ("npgs", None, ""),
        ("npsor", setup["npsor_alpha"], f"alpha={setup['npsor_alpha']:g}"),
    )
    cfg = SolverConfig(tol=args.tol, max_iters=args.max_iters)
    return sizes, [
        (method, parameter,
         [_solve(problem, method, alpha, None, cfg, args.gamma) for problem in problems])
        for method, alpha, parameter in methods
    ]


def _render_table_csv(which, sizes, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table", "method", "parameter", "n", "iterations",
                     "residual_final", "cpu_seconds", "converged"])
    for method, parameter, reports in rows:
        for n, r in zip(sizes, reports):
            writer.writerow([which, method, parameter, n, r.iterations,
                             _g17(r.residual_final), f"{r.cpu_seconds:.6f}",
                             r.converged])
    return buf.getvalue()


def _render_table_md(which, sizes, rows):
    header = ["method", "metric"] + [f"n={n}" for n in sizes]
    lines = [f"# {which}", "", "| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for method, parameter, reports in rows:
        head = method if not parameter else f"{method} ({parameter})"
        for metric, values in (
            ("IT", [str(r.iterations) if r.converged else f"{r.iterations}*"
                    for r in reports]),
            ("CPU(s)", [f"{r.cpu_seconds:.4f}" for r in reports]),
            ("Res", [f"{r.residual_final:.2e}" for r in reports]),
        ):
            lines.append("| " + " | ".join([head, metric] + values) + " |")
            head = ""
    lines.append("")
    lines.append("(* did not reach the residual threshold)")
    return "\n".join(lines) + "\n"


def _render_table_json(which, sizes, rows):
    runs = [{"table": which, "parameter": parameter, **r.to_json_dict()}
            for _, parameter, reports in rows for r in reports]
    return _strict_json({"table": which, "sizes": sizes, "runs": runs})


def cmd_table(args):
    sizes, rows = _table_cells(args)
    render = {"csv": _render_table_csv, "md": _render_table_md,
              "json": _render_table_json}[args.format]
    _emit(render(args.which, sizes, rows), args)
    return 0


def _write_all(outputs):
    """Write each (writer, value, path) of outputs to path + '.partial',
    then rename them into place once all are written: an error leaves no
    output file behind, and each path as it was.  An OSError names the
    path, not its partial file."""
    parts = []
    try:
        for write, value, path in outputs:
            parts.append(path + ".partial")
            try:
                write(value, parts[-1])
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        for part, (_, _, path) in zip(parts, outputs):
            os.replace(part, path)
    finally:
        for part in parts:
            with contextlib.suppress(OSError):
                os.remove(part)


def cmd_gen(args):
    problem = _generated_problem(args)
    # checked before anything is written, so that an error leaves no files
    if args.solution and problem.known_solution is None:
        raise UsageError("this family carries no reference solution")
    flags = {}
    for flag in ("--matrix", "--sigma", "--solution"):
        path = getattr(args, flag[2:])
        if path:
            other = flags.setdefault(os.path.realpath(path), flag)
            if other != flag:
                raise UsageError(f"{other} and {flag} name the same file {path!r}")
    outputs = [(write_matrix_market, problem.a, args.matrix),
               (write_vector, problem.sigma, args.sigma)]
    if args.solution:
        outputs.append((write_vector, problem.known_solution, args.solution))
    _write_all(outputs)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
