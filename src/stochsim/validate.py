"""Cross-module oracle checks, runnable on demand from the CLI.

Each check pits an independent formulation against the production path:
the hand-derived closed forms against the series engine, the stationary OU
variance and autocorrelation against the load schedule, and the two solvers
against each other on a deterministic run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smib
from .em import EMConfig, simulate_em
from .noise import build_noise_path, load_schedule
from .sas import SolverConfig, WindowWork, simulate_sas, window_coefficients
from .scenario import Scenario, SimulationSetup
from .case import SystemCase


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured {self.measured:.3e} "
            f"(tolerance {self.tolerance:.3e}) {self.detail}"
        )


def check_smib_coefficients() -> CheckResult:
    """Window coefficients of the series engine vs the hand closed forms,
    for 100 random states in one (100, 8) stack, as a batch makes the call."""
    p = smib.SMIBParams()
    net, machines = smib.smib_embedding(p)
    rng = np.random.default_rng(2024)
    starts = [
        (rng.uniform(-1.2, 1.2), p.omega_r + rng.uniform(-3.0, 3.0)) for _ in range(100)
    ]
    states = np.stack([smib.smib_state(p, d0, w0) for d0, w0 in starts])
    work = WindowWork(machines, len(states), 2)
    work.set_state(states)
    coeffs = window_coefficients(net, work).reshape(len(states), -1, 3)  # (R, 4K, N+1)
    worst = 0.0
    for (d0, w0), eng in zip(starts, coeffs):
        for hand, eng_row in zip(smib.smib_window_coefficients(p, d0, w0), eng[[0, 2]]):
            scale = np.maximum(np.abs(hand), 1e-12)
            worst = max(worst, float(np.max(np.abs(hand - eng_row) / scale)))
    return CheckResult(
        "smib-series-equivalence", worst < 1e-10, worst, 1e-10,
        "over 100 random states",
    )


def _ou_rows(a: float, b: float, seed, n_vars: int, dt: float, burn_in: int, rows: int):
    """``rows`` rows of ``n_vars`` OU deviations on a ``dt`` grid, from the
    production update; they start at 0, so ``burn_in`` rows go first."""
    path = build_noise_path(seed, n_vars, (burn_in + rows) * dt, dt)
    return load_schedule(np.zeros(n_vars), a, np.full(n_vars, b), [path], dt)[0][burn_in:]


def check_ou_moments(quick: bool = False) -> list[CheckResult]:
    """Load-schedule stationary variance b^2/2a and lag autocorrelation e^(-a lag)."""
    out = []
    a, b = 0.5, 1.0

    # rows 4 s apart correlate by e^-2 and a burn-in of 5 rows leaves a
    # variance bias of e^-20; the effective sample size is (1 - e^-4) /
    # (1 + e^-4) = 0.964 of the 100,000 (2,000 quick) samples, so the
    # relative SE is 0.46% (3.2%) and 2% (10%) spans 4.4 (3.1) SE
    tol = 0.10 if quick else 0.02
    x = _ou_rows(a, b, (5, 0), 20 if quick else 1_000, 4.0, 5, 100)
    err = abs(np.var(x) / (b**2 / (2 * a)) - 1.0)
    out.append(CheckResult("ou-stationary-variance", err < tol, err, tol))

    # the lag-5 correlation of rows 0.1 s apart, pooled over the variables,
    # has variance 1.81/n by Bartlett's formula: n = 95,000 (4,750 quick)
    # pairs give an SE of 0.0044 (0.020), so 5% (15%) spans 11 (7.7) SE; a
    # burn-in of 100 rows leaves a bias of e^-10
    tol = 0.15 if quick else 0.05
    dt, lag = 0.1, 5
    x = _ou_rows(a, b, (5, 1), 50 if quick else 1_000, dt, 100, 100)
    corr = np.corrcoef(x[:-lag].ravel(), x[lag:].ravel())[0, 1]
    err = abs(corr - math.exp(-a * lag * dt))
    out.append(CheckResult("ou-autocorrelation", err < tol, err, tol))
    return out


def check_deterministic_cross_solver(
    case: SystemCase, quick: bool = False
) -> CheckResult:
    """Series solver vs a fine-step Euler reference on a noise-free fault run."""
    horizon = 2.0 if quick else 5.0
    scenario = Scenario(
        horizon_s=horizon,
        fault_bus=1,
        fault_start_s=0.5,
        fault_duration_cycles=5.0,
        trip_branches=(),
    )
    setup = SimulationSetup.build(case, scenario)
    tr_sas = simulate_sas(case, scenario, SolverConfig(), setup=setup)
    tr_em = simulate_em(
        case, scenario, EMConfig(dt=1e-5), setup=setup, out_stride=100
    )
    k = case.n_gen
    err = float(np.nanmax(np.abs(tr_sas.states[:, :k] - tr_em.states[:, :k])))
    return CheckResult(
        "deterministic-cross-solver", err < 1e-3, err, 1e-3,
        f"max rotor-angle gap over {horizon} s",
    )


def run_all(case: SystemCase, quick: bool = False):
    results = [check_smib_coefficients()]
    results.extend(check_ou_moments(quick=quick))
    results.append(check_deterministic_cross_solver(case, quick=quick))
    return results
