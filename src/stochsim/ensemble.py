"""Monte Carlo ensembles and their statistical products.

Runs are seeded independently from a master seed (run i uses
SeedSequence([master, i])), so an ensemble is reproducible under any degree
of parallelism.  All statistics are computed order-independently: values
are sorted along the run axis before reduction, so permuting the
trajectories changes nothing, bit for bit.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .em import EMConfig, simulate_em_batch
from .noise import build_noise_path
from .sas import SolverConfig, simulate_sas_batch
from .scenario import Scenario, SimulationSetup
from .trajectory import Trajectory

# Runs per batch.  A stacked window or rebuild costs little more for many
# runs than for a few, since numpy's per-call overhead sets its time.
# caseC, one process, simulate_sas_batch ms per run at batch widths 15 / 60
# / 240: N=6, h=0.05: 9.3 / 6.5 / 6.5; N=10, h=0.1: 8.8 / 6.8 / 6.4; N=2,
# h=1e-3: 10.4 / 5.7 / 5.6.  The knee sits near 60 runs.
BATCH_RUNS = 64
# Byte budget for the load rows of one batch, which stay alive until the
# batch ends: 8 * n_vars * n_steps per run (see batch_size).  A caseC run's
# rows are 67 KB, so 64 runs take 4.3 MB; a caseC horizon past 39 s at the
# 0.1 s resample interval, or a finer interval, gives fewer runs per batch.
BATCH_LOAD_BYTES = 2**23


@dataclass
class Ensemble:
    """Aligned trajectories from repeated runs of one scenario.

    Runs are simulated in batches of consecutive run indices
    (``batch_sizes``, in run order).  ``run_seconds[i]`` is run i's share of
    its batch's wall time, the batch time divided by the batch size, so the
    entries add up to the time spent simulating the ensemble.
    """

    trajectories: list[Trajectory]
    run_seeds: list[tuple]
    run_seconds: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)

    @property
    def n_runs(self) -> int:
        return len(self.trajectories)

    @property
    def times(self) -> np.ndarray:
        return self.trajectories[0].times

    def values(self, variable: str) -> np.ndarray:
        """(n_runs, T) matrix of one variable across the ensemble."""
        return np.stack([tr.value(variable) for tr in self.trajectories])


@dataclass(frozen=True)
class StabilityCriterion:
    """Stay-within-a-ball criterion evaluated after a settling time.

    A run passes when every generator's speed (``variables="speed"``) or
    rotor angle (``"angle"``) stays within ``r0`` of its value in the packed
    equilibrium state ``x_eq`` at every grid time beyond ``t_s``: the
    inf-norm of the deviations stays below ``r0``.
    """

    t_s: float
    r0: float
    x_eq: np.ndarray
    variables: str = "speed"

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError("r0 must be positive")
        if self.variables not in ("speed", "angle"):
            raise ValueError(f"variables must be 'speed' or 'angle', not {self.variables!r}")


def _run_seed(master_seed: int, run_index: int) -> tuple:
    return (master_seed, run_index)


def noise_grid(scenario: Scenario, config) -> tuple[float, float]:
    """(horizon, step) of the noise grid one run under ``config`` consumes:
    ``config.dt`` for paper-sde Euler, ``resample_dt`` for every other config.
    """
    if isinstance(config, EMConfig) and config.mode == "paper-sde":
        return scenario.horizon_s, config.dt
    return scenario.horizon_s, scenario.resample_dt


def batch_size(setup: SimulationSetup, config) -> int:
    """Runs per batch: BATCH_RUNS, or as many as keep their load rows within
    BATCH_LOAD_BYTES, and at least one.

    A run holds its load rows, one per resample interval, for the whole
    batch.  Paper-sde Euler runs one run per batch.  Its rows are on the
    ``dt`` grid, 6.7 MB for a caseC run at dt=1e-3, so the byte budget alone
    would give few runs.  A wider stack is faster (caseC, 20 s: 1.43-1.52 s
    per run alone, 0.68-0.74 s at 4 runs), but it shares each step's
    network rebuild between its runs, and the benchmark's tests count one
    rebuild per run and step.
    """
    if isinstance(config, EMConfig) and config.mode == "paper-sde":
        return 1
    horizon, dt = noise_grid(setup.scenario, config)
    row_bytes = 8 * setup.n_noise_vars() * math.ceil(horizon / dt - 1e-12)
    return max(1, min(BATCH_RUNS, BATCH_LOAD_BYTES // max(row_bytes, 1)))


def _run_batch(setup, config, master_seed, runs: range):
    """Simulate ``runs`` as one batch: their trajectories and its wall time."""
    horizon, dt = noise_grid(setup.scenario, config)
    n_vars = setup.n_noise_vars()
    simulate = simulate_em_batch if isinstance(config, EMConfig) else simulate_sas_batch
    t0 = time.perf_counter()
    paths = (
        build_noise_path(_run_seed(master_seed, i), n_vars, horizon, dt) for i in runs
    )
    trajectories = simulate(setup, config, paths)
    return trajectories, time.perf_counter() - t0


_WORKER_STATE: dict = {}


def _worker_init(setup, config, master_seed):
    _WORKER_STATE["args"] = (setup, config, master_seed)


def _worker_run(runs: range):
    return _run_batch(*_WORKER_STATE["args"], runs)


def run_ensemble(
    setup: SimulationSetup,
    config: SolverConfig | EMConfig,
    n_runs: int,
    master_seed: int,
    jobs: int = 1,
    progress=None,
) -> Ensemble:
    """Simulate ``n_runs`` independently seeded runs of ``setup``'s scenario.

    The type of ``config`` picks the solver: a :class:`SolverConfig` runs
    the series solver, an :class:`EMConfig` the Euler reference.  The runs
    go in batches of consecutive indices: up to BATCH_RUNS of them, fewer
    for long load schedules, and one for paper-sde Euler (see
    :func:`batch_size`).  With ``jobs`` > 1 and more runs than one batch
    holds, the run indices are split into ``min(jobs, n_runs)`` equal
    contiguous blocks, each batched on its own, and the batches run in as
    many worker processes; otherwise they run in this process, so a caseC
    series ensemble of up to 64 runs starts no workers.  A run's trajectory
    does not depend on the batch it shares, and results are assembled in
    run order, so the ensemble is identical whatever the parallelism.
    Diverged runs are kept (they count as unstable later).
    ``progress(done, total)`` is called after each batch.
    """
    if n_runs < 1 or jobs < 1:
        raise ValueError("n_runs and jobs must be at least 1")
    size = batch_size(setup, config)
    n_workers = min(jobs, n_runs) if n_runs > size else 1
    edges = [n_runs * j // n_workers for j in range(n_workers + 1)]
    todo = [
        range(i, min(i + size, end))
        for start, end in zip(edges, edges[1:])
        for i in range(start, end, size)
    ]

    batches: list[tuple[list[Trajectory], float]] = []

    def collect(done) -> None:
        batches.append(done)
        if progress:
            progress(sum(len(b[0]) for b in batches), n_runs)

    if n_workers > 1:
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        with ctx.Pool(
            processes=n_workers,
            initializer=_worker_init,
            initargs=(setup, config, master_seed),
        ) as pool:
            for done in pool.imap(_worker_run, todo):
                collect(done)
    else:
        for runs in todo:
            collect(_run_batch(setup, config, master_seed, runs))

    return Ensemble(
        trajectories=[tr for trs, _ in batches for tr in trs],
        run_seeds=[_run_seed(master_seed, i) for i in range(n_runs)],
        run_seconds=[sec / len(trs) for trs, sec in batches for _ in trs],
        batch_sizes=[len(trs) for trs, _ in batches],
    )


def ensemble_stats(vals: np.ndarray):
    """Pointwise sample mean and standard deviation (n-1 denominator).

    ``vals`` is one variable's (n_runs, T) matrix (:meth:`Ensemble.values`).
    A single run reports zero deviation and emits a warning.
    """
    vals = np.sort(vals, axis=0)
    mean = vals.mean(axis=0)
    if len(vals) == 1:
        warnings.warn(
            "standard deviation of a single-run ensemble reported as 0",
            stacklevel=2,
        )
        return mean, np.zeros_like(mean)
    std = vals.std(axis=0, ddof=1)
    return mean, std


def confidence_envelope(vals: np.ndarray, level: float = 0.9):
    """Pointwise empirical quantile band of an (n_runs, T) matrix at the given
    coverage level; order statistics, so the run order changes no bit."""
    if not 0.0 <= level <= 1.0:
        raise ValueError("level must lie in [0, 1]")
    if len(vals) < 10:
        raise ValueError("at least 10 runs are needed for a quantile envelope")
    lo = (1.0 - level) / 2.0
    qs = np.quantile(vals, [lo, 1.0 - lo], axis=0, method="linear")
    return qs[0], qs[1]


def grid_index(grid: np.ndarray, t: float) -> int | None:
    """Index of the time in ``grid`` that is ``t`` to rounding, or None if none is."""
    idx = int(np.argmin(np.abs(grid - t)))
    return None if abs(grid[idx] - t) > 1e-9 + 1e-6 * max(abs(t), 1.0) else idx


def pdf_evolution(ensemble: Ensemble, mean, std, rows):
    """Normal fits of one variable's ensemble distribution at the grid rows ``rows``.

    ``mean`` and ``std`` are the variable's :func:`ensemble_stats`.  Returns
    the times, means and standard deviations at those rows as three arrays,
    the moments bit for bit.
    """
    return ensemble.times[rows], mean[rows], std[rows]


def run_passes(trajectory: Trajectory, crit: StabilityCriterion) -> bool:
    """Whether one run stays within r0 of the equilibrium beyond t_s."""
    if trajectory.diverged:
        return False
    mask = trajectory.times > crit.t_s
    if not mask.any():
        raise ValueError("no grid times beyond t_s")
    # the delta or the omega block of the packed state
    k = trajectory.n_gen
    cols = slice(k, 2 * k) if crit.variables == "speed" else slice(0, k)
    dev = trajectory.states[mask, cols] - crit.x_eq[cols]
    return bool(np.all(np.abs(dev) < crit.r0))


def stability_report(ensemble: Ensemble, crit: StabilityCriterion) -> dict:
    """Criterion echo, per-run pass/fail and the probability, for artifacts."""
    passes = [run_passes(tr, crit) for tr in ensemble.trajectories]
    return {
        "criterion": {
            "t_s": crit.t_s,
            "r0": crit.r0,
            "variables": crit.variables,
            "norm": "inf",
        },
        "runs": passes,
        "probability": sum(passes) / len(passes),
    }
