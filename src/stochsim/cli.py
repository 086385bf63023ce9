"""Command-line front end: single runs, ensembles and validation.

Each artifact is streamed into a temporary file next to it, a CSV file in
blocks of a few hundred rows, so no CSV file's whole text is ever held in
memory; the temporary file is then renamed into place, or removed if
writing it fails.  Repeated invocations with the same flags and seed
produce byte-identical CSV files.
Exit codes: 0 success, 1 oracle/validation failure, 2 usage error or
invalid input (including a power flow that does not converge and a network
that cannot be reduced), 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from .case import load_case
from .dynamics import EquilibriumError, solve_equilibrium
from .em import EM_MODES, EMConfig
from .ensemble import (
    Ensemble,
    StabilityCriterion,
    confidence_envelope,
    ensemble_stats,
    grid_index,
    pdf_evolution,
    run_ensemble,
    run_path,
    stability_report,
)
from .network import NetworkCondition, ReductionError
from .noise import path_to_csv
from .powerflow import PowerFlowError
from .sas import MAX_ORDER, SolverConfig
from .scenario import SimulationSetup, load_scenario
from .trajectory import columns, csv_blocks
from .validate import run_all


def _write_atomic(path: str, blocks: Iterable[str]) -> None:
    """Write the text ``blocks`` into ``path`` + ".tmp", then rename it to ``path``.

    If writing raises, the temporary file is removed and ``path`` is not
    touched.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for block in blocks:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _solver_config(args):
    if args.solver == "sas":
        return SolverConfig(order=args.order, window=args.window)
    return EMConfig(dt=args.dt, mode=args.em_mode)


def _stats_variables(args, setup: SimulationSetup) -> list[str]:
    """Variables of stats.csv and pdf.csv; an unknown or repeated name is a
    usage error."""
    gen_buses = [g.bus for g in setup.case.generators]
    known = columns(gen_buses, setup.scenario.monitor_buses)
    if args.stats_vars == "all":
        return known
    if not args.stats_vars:  # the first generator's delta and omega, and the voltages
        return known[:2] + known[4 * len(gen_buses) :]
    names = [v.strip() for v in args.stats_vars.split(",")]
    unknown = [v for v in names if v not in known]
    if unknown:
        raise UsageError(f"--stats-vars: unknown variable(s) {', '.join(unknown)}")
    if len(set(names)) != len(names):
        raise UsageError(f"--stats-vars names a variable twice: {args.stats_vars}")
    return names


def _stats_csv(ensemble: Ensemble, variables: list[str]) -> tuple[Iterator[str], list]:
    """stats.csv's blocks, and each variable's (variable, mean, std) for pdf.csv:
    one (n_runs, T) matrix per variable gives them and, from 10 runs, the band."""
    header, cols, moments = ["t"], [ensemble.times], []
    for var in variables:
        vals = ensemble.values(var)
        mean, std = ensemble_stats(vals)
        moments.append((var, mean, std))
        header += [f"{var}.mean", f"{var}.std"]
        cols += [mean, std]
        if ensemble.n_runs >= 10:
            header += [f"{var}.q05", f"{var}.q95"]
            cols += confidence_envelope(vals)
    return csv_blocks(header, cols), moments


def _pdf_csv(ensemble: Ensemble, moments: list) -> Iterator[str]:
    """pdf.csv: each variable's ``moments`` at the whole seconds on the output grid."""
    grid = ensemble.times
    rows = [grid_index(grid, t) for t in range(1, int(grid[-1]) + 1)]
    rows = [i for i in rows if i is not None]
    fits = [pdf_evolution(ensemble, mean, std, rows) for _, mean, std in moments]
    names = np.repeat([var for var, _, _ in moments], len(rows))
    t, mean, std = (np.concatenate(col) for col in zip(*fits))
    n = np.full(len(names), ensemble.n_runs)
    return csv_blocks(["variable", "t", "mean", "std", "n"], [names, t, mean, std, n])


def _progress(done: int, total: int) -> None:
    """Print the runs done; :func:`run_ensemble` calls this after every batch."""
    print(f"completed {done}/{total} runs", flush=True)


def cmd_run(args) -> int:
    # written so that a NaN --r0 or --ts fails too
    if args.runs < 1 or args.jobs < 1 or not args.r0 > 0 or not args.ts >= 0:
        raise UsageError(
            "--runs and --jobs must be at least 1, --r0 positive and --ts nonnegative"
        )
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    config = _solver_config(args)  # a NaN --window or --dt fails here
    case = load_case(args.case)
    scenario = load_scenario(args.scenario)
    os.makedirs(args.out, exist_ok=True)

    manifest = {
        "tool": "stochsim",
        "version": __version__,
        "command": "run",
        "case": args.case,
        "scenario": args.scenario,
        "solver": args.solver,
        "config": config.__dict__,
        "runs": args.runs,
        "master_seed": args.seed,
        "jobs": args.jobs,
        "status": "failed",
        "artifacts": [],
    }
    try:
        setup = SimulationSetup.build(case, scenario)
        variables = _stats_variables(args, setup)
        t0 = time.perf_counter()
        ensemble = run_ensemble(
            setup, config, args.runs, args.seed, jobs=args.jobs, progress=_progress
        )
        total = time.perf_counter() - t0
        manifest["run_seeds"] = [list(s) for s in ensemble.run_seeds]
        # run_seconds[i] is run i's share of its batch's wall time
        manifest["run_seconds"] = ensemble.run_seconds
        manifest["batch_sizes"] = ensemble.batch_sizes
        manifest["total_seconds"] = total
        for key in ("diverged", "t_diverged", "diverged_column", "windows", "rebuilds"):
            manifest[key] = [getattr(tr, key) for tr in ensemble.trajectories]

        artifacts = []

        def write(name: str, blocks: Iterable[str]) -> None:
            path = os.path.join(args.out, name)
            _write_atomic(path, blocks)
            artifacts.append(path)

        if args.runs == 1:
            write("trajectory.csv", ensemble.trajectories[0].csv_blocks())
        else:
            blocks, moments = _stats_csv(ensemble, variables)
            write("stats.csv", blocks)
            write("pdf.csv", _pdf_csv(ensemble, moments))
            if scenario.horizon_s > args.ts:
                x_eq = solve_equilibrium(
                    case, NetworkCondition("pre-fault"), dict(setup.mean_loads)
                )
                crit = StabilityCriterion(
                    t_s=args.ts, r0=args.r0, x_eq=x_eq, variables=args.stab_var
                )
                report = stability_report(ensemble, crit)
                write("stability.json", [json.dumps(report, indent=1) + "\n"])
            else:
                manifest["stability"] = "skipped: horizon does not extend beyond t_s"
        if args.save_trajectories and args.runs > 1:
            for i, tr in enumerate(ensemble.trajectories):
                write(f"trajectory_{i:03d}.csv", tr.csv_blocks())
        if args.dump_noise:
            for i, seed in enumerate(ensemble.run_seeds):
                write(f"noise_{i:03d}.csv", path_to_csv(run_path(setup, config, seed)))
        manifest["artifacts"] = artifacts
        manifest["status"] = "ok"
        return 0
    finally:
        _write_atomic(
            os.path.join(args.out, "manifest.json"),
            [json.dumps(manifest, indent=1) + "\n"],
        )


def cmd_validate(args) -> int:
    case = load_case(args.case)
    results = run_all(case, quick=args.quick)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    if failed:
        print(f"{len(failed)} check(s) failed: " + ", ".join(r.name for r in failed))
        return 1
    print("all checks passed")
    return 0


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochsim",
        description="Stochastic transient-stability simulation of power systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one run or a seeded ensemble")
    run.add_argument("--case", required=True)
    run.add_argument("--scenario", required=True)
    run.add_argument("--solver", choices=("sas", "em"), default="sas")
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--order",
        type=int,
        default=SolverConfig.order,
        help=f"series order (sas), 1 to {MAX_ORDER}",
    )
    run.add_argument(
        "--window", type=float, default=SolverConfig.window, help="window length s (sas)"
    )
    run.add_argument(
        "--dt", type=float, default=EMConfig.dt, help="integration step s (em)"
    )
    run.add_argument("--em-mode", choices=EM_MODES, default=EMConfig.mode)
    run.add_argument("--out", default="out")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--ts", type=float, default=15.0, help="stability settling time")
    run.add_argument("--r0", type=float, default=0.05, help="stability radius")
    run.add_argument(
        "--stab-var", choices=("speed", "angle"), default=StabilityCriterion.variables
    )
    run.add_argument("--stats-vars", default=None)
    run.add_argument("--save-trajectories", action="store_true")
    run.add_argument("--dump-noise", action="store_true")
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate", help="run the cross-module oracle checks")
    val.add_argument("--case", default="cases/smib.json")
    val.add_argument("--quick", action="store_true")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    # CaseError and ScenarioError are ValueErrors
    except (ValueError, EquilibriumError, PowerFlowError, ReductionError) as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
