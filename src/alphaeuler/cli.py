"""Batch command-line interface.

Subcommands: `simulate` (one run with conservation monitors), `sweep`
(filter-scale convergence study), `flows` (Lagrangian flow comparison for
one filter scale), `bounds` (tabulate the closed-form rate bounds), and
`report` (merge sweep CSVs into plot-ready tables plus a gnuplot script).
Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .bounds import BoundParams, ModulusEstimate, flow_rate_bound, velocity_rate_K, vorticity_rate_bound
from .harness import (
    SweepError,
    _finite_list,
    _parse,
    banded_run,
    build_datum,
    compare_bands,
    csv_lines,
    csv_row,
    filtered_solve,
    load_config,
    run_sweep,
    study_datum,
    trace_bands,
)
from .lagrangian import flow_distance
from .solver import SolverError, run
from .spectral import Grid
from .vorticity import AlphaParam


class UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alphaeuler", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="single run with conservation monitors")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--output", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="filter-scale convergence sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_flows = sub.add_parser("flows", help="Lagrangian flow comparison for one alpha")
    p_flows.add_argument("--config", required=True)
    p_flows.add_argument("--alpha", type=float, default=None)
    p_flows.add_argument("--c-cal", type=float, default=1.0)
    p_flows.add_argument("--output", default=None)
    p_flows.set_defaults(func=cmd_flows)

    p_bounds = sub.add_parser("bounds", help="tabulate the closed-form bounds")
    for f in fields(BoundParams):  # --c1 ... --alpha-bar, and --T for the horizon
        flag = "--T" if f.name == "horizon" else "--" + f.name.replace("_", "-")
        p_bounds.add_argument(flag, type=float, default=f.default, dest=f.name)
    p_bounds.add_argument("--p", type=float, default=2.0)
    p_bounds.add_argument("--besov-s", type=float, default=0.5)
    p_bounds.add_argument("--alphas", required=True, help="comma-separated list")
    p_bounds.add_argument("--nt", type=int, default=5)
    p_bounds.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_report = sub.add_parser("report", help="merge sweep CSVs into tables")
    p_report.add_argument("--inputs", nargs="+", required=True)
    p_report.add_argument("--output", required=True)
    p_report.set_defaults(func=cmd_report)

    return parser


def _resolve_output(cfg_dir, flag_dir, fallback: str) -> Path:
    """--output, else [output] dir, else the command's own directory."""
    return Path(flag_dir if flag_dir is not None else cfg_dir or fallback)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    alpha = args.alpha if args.alpha is not None else cfg.alpha_list[0]
    if not 0.0 <= alpha < math.inf:  # NaN included
        raise ValueError(f"--alpha must be finite and >= 0, got {alpha}")
    q0 = build_datum(cfg.datum, Grid(cfg.n))
    mon = run(q0, AlphaParam(alpha), cfg.solver_config(), cfg.sample_times)
    out = _resolve_output(cfg.output_dir, args.output, "simulate_output")
    out.mkdir(parents=True, exist_ok=True)
    columns = (mon.times, mon.energy, mon.alpha_norm, mon.q_l1, mon.q_l2, mon.q_l4, mon.q_linf)
    lines = csv_lines("t,energy,alpha_norm,q_l1,q_l2,q_l4,q_linf", zip(*columns))
    (out / "monitor.csv").write_text("\n".join(lines) + "\n")
    drift = float(np.max(mon.alpha_norm_drift()))
    print(f"simulate: alpha={alpha} t_end={cfg.t_end} alpha-norm drift {drift:.3e}")
    print(f"wrote {out / 'monitor.csv'}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    cfg = replace(cfg, output_dir=_resolve_output(cfg.output_dir, args.output, "sweep_output"))
    report = run_sweep(cfg)
    if report.velocity_rate is not None:
        print(
            f"sweep: velocity rate {report.velocity_rate.slope:.3f} "
            f"(r2={report.velocity_rate.r2:.3f})"
        )
    print(f"wrote {cfg.output_dir / 'sweep.csv'}")
    return 0


def cmd_flows(args) -> int:
    cfg = load_config(args.config)
    alpha = args.alpha if args.alpha is not None else cfg.alpha_list[0]
    for flag, value in (("--alpha", alpha), ("--c-cal", args.c_cal)):
        if not 0.0 < value < math.inf:  # NaN included
            raise ValueError(f"{flag} must be positive and finite, got {value}")
    datum, omega0 = study_datum(cfg)
    ref = banded_run(datum, 0.0, cfg, monitor=False)
    del datum  # freed before the solve and the traces: the reference run is all they need of it
    solve = filtered_solve(alpha, omega0, cfg, monitor=False)
    delta = compare_bands(solve, ref, cfg, p_list=())[2]
    delta_total = float(delta[-1])

    out = _resolve_output(cfg.output_dir, args.output, "flows_output")
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    # the two lattices advance in lockstep, one sample's positions at a time
    traces = zip(trace_bands(solve, cfg), trace_bands(ref, cfg))
    for j, (t, (pa, pr)) in enumerate(zip(cfg.sample_times, traces)):
        comp = flow_distance(pa, pr, delta=max(delta_total, 1e-300), c_cal=args.c_cal)
        rows.append((t, comp.mean_distance, comp.l2_distance, comp.g_delta, delta[j], comp.log_bound))
    lines = csv_lines("t,mean_distance,l2_distance,g_delta,delta,log_bound", rows)
    (out / "flows.csv").write_text("\n".join(lines) + "\n")
    print(f"flows: alpha={alpha} delta={delta_total:.3e}")
    print(f"wrote {out / 'flows.csv'}")
    return 0


def cmd_bounds(args) -> int:
    alphas = _parse("--alphas", args.alphas, _finite_list)
    if not alphas:
        raise ValueError("--alphas must name at least one value")
    if args.nt < 1:
        raise ValueError(f"--nt must be at least 1, got {args.nt}")
    params = BoundParams(**{f.name: getattr(args, f.name) for f in fields(BoundParams)})
    modulus = ModulusEstimate(args.besov_s)
    ts = np.linspace(0.0, args.horizon, args.nt)
    lines = ["alpha,t,K,flow_bound,vort_bound"]
    for alpha in alphas:
        for t in ts:
            k_val = velocity_rate_K(AlphaParam(alpha), float(t), params)
            fb = flow_rate_bound(k_val, float(t), 0.0, args.c, args.horizon)
            vb = vorticity_rate_bound(k_val, modulus, args.p, params)
            lines.append(csv_row((alpha, t, k_val, fb, vb)))
    text = "\n".join(lines) + "\n"
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    return 0


REPORT_COLUMNS = ("alpha", "vel_l2_err", "vort_l2_err", "flow_dist", "delta")


def _read_csv(path: Path):
    """The header and the (line number, cells) rows of a sweep CSV with
    every REPORT_COLUMNS column; anything else raises ValueError naming the
    file."""
    rows = []
    header = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        if len(cells) != len(header):
            raise ValueError(f"{path} line {lineno} holds {len(cells)} cells, the header {len(header)}")
        rows.append((lineno, cells))
    if header is None:
        raise ValueError(f"{path} holds no CSV header")
    missing = [name for name in REPORT_COLUMNS if name not in header]
    if missing:
        raise ValueError(f"{path} is not a sweep CSV: no column {', '.join(missing)}")
    if not rows:
        raise ValueError(f"{path} holds no data rows")
    return header, rows


def _number(path: Path, lineno: int, column: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"{path} line {lineno}, column {column}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{path} line {lineno}, column {column}: {cell!r} is not finite")
    return value


def cmd_report(args) -> int:
    out = Path(args.output)
    merged = []
    # (source, alpha) -> (sup vel_l2_err, sup vort_l2_err, last flow_dist, last delta);
    # the source is the input path as given, since every sweep writes sweep.csv
    summary: dict[tuple[str, str], tuple] = {}
    for raw in args.inputs:
        if args.inputs.count(raw) > 1:
            raise ValueError(f"--inputs names {raw} more than once")
        if "," in raw:  # it would split the source cell of its rows
            raise ValueError(f"--inputs path {raw} holds a comma")
        path = Path(raw)
        header, rows = _read_csv(path)
        cols = {name: i for i, name in enumerate(header)}
        merged_header = "source," + ",".join(header)
        if not merged:
            merged = csv_lines(merged_header, ())
        elif merged_header != merged[1]:
            raise ValueError(f"{path} has other columns than {args.inputs[0]}")
        for lineno, row in rows:
            merged.append(f"{raw}," + ",".join(row))
            value = {name: _number(path, lineno, name, row[cols[name]]) for name in REPORT_COLUMNS}
            key = (raw, row[cols["alpha"]])
            sup_vel, sup_vort, _, _ = summary.get(key, (0.0, 0.0, 0.0, 0.0))
            summary[key] = (max(sup_vel, value["vel_l2_err"]), max(sup_vort, value["vort_l2_err"]),
                            value["flow_dist"], value["delta"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "merged.csv").write_text("\n".join(merged) + "\n")

    lines = ["source,alpha,sup_vel_l2_err,sup_vort_l2_err,final_flow_dist,final_delta"]
    for (source, alpha), entry in sorted(summary.items()):
        lines.append(f"{source},{alpha}," + csv_row(entry))
    (out / "rates.csv").write_text("\n".join(lines) + "\n")

    gp = [
        "set logscale xy",
        "set datafile separator ','",
        "set xlabel 'alpha'",
        "set ylabel 'sup_t error'",
        "set key left top",
        f"plot '{out / 'rates.csv'}' every ::1 using 2:3 with linespoints title 'velocity L2', \\",
        f"     '{out / 'rates.csv'}' every ::1 using 2:4 with linespoints title 'vorticity L2'",
    ]
    (out / "plot.gp").write_text("\n".join(gp) + "\n")
    print(f"wrote {out / 'merged.csv'}, {out / 'rates.csv'}, {out / 'plot.gp'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, SweepError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"runtime failure: out of memory: {exc}", file=sys.stderr)
        return 2
