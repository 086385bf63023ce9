"""Cross-module oracle checks, runnable on demand from the CLI.

Each check pits an independent formulation against the production path:
the hand-derived closed forms against the series engine, analytic OU
moments against the samplers, and the two solvers against each other on a
deterministic run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smib
from .em import EMConfig, simulate_em
from .noise import OUParams, ou_closed_form, ou_exact_step
from .sas import MachineMap, SolverConfig, simulate_sas, window_coefficients
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
    """Window coefficients of the series engine vs the hand closed forms."""
    p = smib.SMIBParams()
    net, machines = smib.smib_embedding(p)
    mmap = MachineMap.from_machines(machines)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        d0 = rng.uniform(-1.2, 1.2)
        w0 = p.omega_r + rng.uniform(-3.0, 3.0)
        coeffs = window_coefficients(smib.smib_state(p, d0, w0), net, mmap, 2)
        d_hand, w_hand = smib.smib_window_coefficients(p, d0, w0)
        for hand, eng in ((d_hand, coeffs[0]), (w_hand, coeffs[2])):
            scale = np.maximum(np.abs(hand), 1e-12)
            worst = max(worst, float(np.max(np.abs(hand - eng) / scale)))
    return CheckResult(
        "smib-series-equivalence", worst < 1e-10, worst, 1e-10,
        "over 100 random states",
    )


def check_ou_moments(quick: bool = False) -> list[CheckResult]:
    """Exact-step stationary variance, autocorrelation and closed-form moments."""
    rng = np.random.default_rng(5)
    out = []

    p = OUParams(0.5, 1.0)
    n = 2_000 if quick else 100_000
    tol = 0.10 if quick else 0.02
    eps = 0.0
    samples = np.empty(n)
    for i in range(n):
        eps = ou_exact_step(eps, p.a, p.b, 4.0, rng.standard_normal())
        samples[i] = eps
    err = abs(np.var(samples) / (p.b**2 / (2 * p.a)) - 1.0)
    out.append(CheckResult("ou-stationary-variance", err < tol, err, tol))

    n = 5_000 if quick else 100_000
    tol = 0.15 if quick else 0.05
    dt, lag = 0.1, 5
    x = np.empty(n)
    eps = 0.0
    for i in range(n):
        eps = ou_exact_step(eps, p.a, p.b, dt, rng.standard_normal())
        x[i] = eps
    corr = np.corrcoef(x[:-lag], x[lag:])[0, 1]
    err = abs(corr - math.exp(-p.a * lag * dt))
    out.append(CheckResult("ou-autocorrelation", err < tol, err, tol))

    # the left-endpoint sum has mean eps0 e^{-at} and variance
    # b^2 sum_i e^{-2a(t - s_i)} dt; at 60k paths the relative SEs are 0.34%
    # (mean) and 0.58% (variance), so 3% spans 8.7 and 5.2 SE
    n_paths = 1_000 if quick else 60_000
    tol = 0.10 if quick else 0.03
    t, m, eps0 = 2.0, 200, 3.0
    db = rng.standard_normal((n_paths, m)) * math.sqrt(t / m)
    vals = ou_closed_form(eps0, p, t, db)
    mean_ref = smib.ou_moments(p, eps0, t)[0]
    s = np.arange(m) * (t / m)
    var_ref = p.b**2 * np.sum(np.exp(-2 * p.a * (t - s))) * (t / m)
    err = max(abs(vals.mean() / mean_ref - 1.0), abs(vals.var() / var_ref - 1.0))
    out.append(CheckResult("ou-closed-form-moments", err < tol, err, tol))
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
