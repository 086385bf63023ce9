"""Command-line front end: single runs, ensembles and validation.

Artifacts are written atomically into the output directory; repeated
invocations with the same flags and seed produce byte-identical CSV files.
Exit codes: 0 success, 1 oracle/validation failure, 2 usage error or
invalid input (including a power flow that does not converge and a network
that cannot be reduced), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .case import load_case
from .dynamics import EquilibriumError, solve_equilibrium
from .em import EMConfig
from .ensemble import (
    Ensemble,
    StabilityCriterion,
    confidence_envelope,
    ensemble_stats,
    grid_index,
    noise_grid,
    pdf_evolution,
    run_ensemble,
    stability_report,
)
from .network import NetworkCondition, ReductionError
from .noise import build_noise_path, path_to_csv
from .powerflow import PowerFlowError
from .sas import MAX_ORDER, SolverConfig
from .scenario import SimulationSetup, load_scenario
from .trajectory import columns, csv_text
from .validate import run_all


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _solver_config(args):
    if args.solver == "sas":
        return SolverConfig(order=args.order, window=args.window)
    return EMConfig(dt=args.dt, mode=args.em_mode)


def _stats_variables(args, setup: SimulationSetup) -> list[str]:
    """Variables of stats.csv and pdf.csv; an unknown name is a usage error."""
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
    return names


def _stats_csv(ensemble: Ensemble, variables: list[str]) -> str:
    header, cols = ["t"], [ensemble.times]
    for var in variables:
        header += [f"{var}.mean", f"{var}.std"]
        cols += ensemble_stats(ensemble, var)
        if ensemble.n_runs >= 10:
            header += [f"{var}.q05", f"{var}.q95"]
            cols += confidence_envelope(ensemble, var, 0.9)
    return csv_text(header, cols)


def _pdf_csv(ensemble: Ensemble, variables: list[str]) -> str:
    grid = ensemble.times  # snapshots at the whole seconds on the output grid
    seconds = range(1, int(grid[-1]) + 1)
    times = [float(t) for t in seconds if grid_index(grid, t) is not None]
    rows = [
        (var, snap.time, snap.mean, snap.std, snap.count)
        for var in variables
        for snap in pdf_evolution(ensemble, var, times)
    ]
    return csv_text(["variable", "t", "mean", "std", "n"], zip(*rows))


def _progress(done: int, total: int) -> None:
    if done % 10 == 0 or done == total:
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
        manifest["diverged"] = [tr.diverged for tr in ensemble.trajectories]
        manifest["t_diverged"] = [tr.t_diverged for tr in ensemble.trajectories]
        manifest["diverged_column"] = [
            tr.diverged_column for tr in ensemble.trajectories
        ]
        manifest["windows"] = [tr.windows for tr in ensemble.trajectories]
        manifest["rebuilds"] = [tr.rebuilds for tr in ensemble.trajectories]

        artifacts = []
        if args.runs == 1:
            path = os.path.join(args.out, "trajectory.csv")
            _write_atomic(path, ensemble.trajectories[0].to_csv())
            artifacts.append(path)
        else:
            path = os.path.join(args.out, "stats.csv")
            _write_atomic(path, _stats_csv(ensemble, variables))
            artifacts.append(path)
            path = os.path.join(args.out, "pdf.csv")
            _write_atomic(path, _pdf_csv(ensemble, variables))
            artifacts.append(path)
            if scenario.horizon_s > args.ts:
                x_eq = solve_equilibrium(
                    case, NetworkCondition("pre-fault"), dict(setup.mean_loads)
                )
                crit = StabilityCriterion(
                    t_s=args.ts, r0=args.r0, x_eq=x_eq, variables=args.stab_var
                )
                report = stability_report(ensemble, crit)
                path = os.path.join(args.out, "stability.json")
                _write_atomic(path, json.dumps(report, indent=1) + "\n")
                artifacts.append(path)
            else:
                manifest["stability"] = "skipped: horizon does not extend beyond t_s"
        if args.save_trajectories and args.runs > 1:
            for i, tr in enumerate(ensemble.trajectories):
                path = os.path.join(args.out, f"trajectory_{i:03d}.csv")
                _write_atomic(path, tr.to_csv())
                artifacts.append(path)
        if args.dump_noise:
            horizon, dt = noise_grid(scenario, config)
            for i, seed in enumerate(ensemble.run_seeds):
                path_obj = build_noise_path(seed, setup.n_noise_vars(), horizon, dt)
                path = os.path.join(args.out, f"noise_{i:03d}.csv")
                _write_atomic(path, path_to_csv(path_obj))
                artifacts.append(path)
        manifest["artifacts"] = artifacts
        manifest["status"] = "ok"
        return 0
    finally:
        _write_atomic(
            os.path.join(args.out, "manifest.json"),
            json.dumps(manifest, indent=1) + "\n",
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
        "--order", type=int, default=2, help=f"series order (sas), 1 to {MAX_ORDER}"
    )
    run.add_argument("--window", type=float, default=1e-3, help="window length s (sas)")
    run.add_argument("--dt", type=float, default=1e-3, help="integration step s (em)")
    run.add_argument(
        "--em-mode", choices=("shared-path", "paper-sde"), default="shared-path"
    )
    run.add_argument("--out", default="out")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--ts", type=float, default=15.0, help="stability settling time")
    run.add_argument("--r0", type=float, default=0.05, help="stability radius")
    run.add_argument("--stab-var", choices=("speed", "angle"), default="speed")
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
