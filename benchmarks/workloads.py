"""The benchmark's workloads: IEEE 39-bus caseC ensembles through the CLI.

All three use ``cases/ieee39.json`` and ``scenarios/caseC.json`` (10
machines, 42 OU load-noise variables, a bus-3 fault with a tripped line, a
20 s horizon, bus 30 monitored), and their timed calls run in one process
(``--jobs 1``).  They differ in solver, series order, window and ensemble
size, so that each stresses a different layer; the benchmark doc
(README.md) gives the reasons in full.
"""

from __future__ import annotations

from dataclasses import dataclass

CASE = "cases/ieee39.json"
SCENARIO = "scenarios/caseC.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    solver_args: tuple[str, ...]  # CLI flags that select the solver config
    runs: int  # ensemble size of one `stochsim run` call
    reference: str  # which committed accuracy reference applies
    # --jobs of an extra untraced call in each traced round, which checks
    # jobs-invariance and measures parallel efficiency; 1 for none
    parallel_jobs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ieee39-sas",
            why="SAS at the CLI defaults: 20,001 series windows against 201 network "
            "rebuilds per run, and a 20,001-row stats.csv",
            solver_args=(),
            runs=2,
            reference="sas",
        ),
        Workload(
            name="ieee39-em",
            why="paper-sde Euler-Maruyama baseline: the network is rebuilt at every "
            "step, so Kron reduction and rhs dominate and no series kernel runs",
            solver_args=("--solver", "em", "--em-mode", "paper-sde", "--dt", "1e-3"),
            runs=2,
            reference="em",
        ),
        Workload(
            name="ieee39-sas-hi",
            why="few high-order SAS windows (N=6, h=0.05) over 20 runs: the O(N^2) "
            "series terms and per-run overhead; traced rounds add a --jobs 2 call",
            solver_args=("--order", "6", "--window", "0.05"),
            runs=20,
            reference="sas",
            parallel_jobs=2,
        ),
    )
}


def master_seed(bench_seed: int) -> int:
    """Ensemble master seed for a benchmark seed (SeedSequence needs >= 0)."""
    return bench_seed % 2**32


def cli_argv(
    w: Workload, root, seed: int, out, runs: int | None = None, jobs: int = 1
) -> list[str]:
    """Arguments of one `stochsim run` call of workload ``w``."""
    return [
        "run",
        "--case", str(root / CASE),
        "--scenario", str(root / SCENARIO),
        *w.solver_args,
        "--runs", str(w.runs if runs is None else runs),
        "--seed", str(seed),
        "--jobs", str(jobs),
        "--out", str(out),
    ]
