"""Euler-Maruyama reference solver for the coupled SDE/ODE system.

Two modes: ``shared-path`` consumes the same piecewise-constant load series
as the series solver (resampled every 0.1 s by default), which makes
trajectories comparable path by path; ``paper-sde`` steps the load SDEs at
every integration step in the traditional style, with the network rebuilt
each step, and is the benchmark configuration for timing comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case import SystemCase
from .dynamics import MachineSet, rhs
from .network import ReducedNetwork
from .noise import NoisePath
from .scenario import Scenario, SimulationSetup, run_simulation
from .trajectory import Trajectory

EM_MODES = ("shared-path", "paper-sde")


@dataclass(frozen=True)
class EMConfig:
    dt: float = 1e-3
    mode: str = "shared-path"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.mode not in EM_MODES:
            raise ValueError(f"mode must be one of {EM_MODES}")


def euler_det_step(
    state: np.ndarray, net: ReducedNetwork, machines: MachineSet, dt: float
) -> np.ndarray:
    """Forward-Euler step of the deterministic machine dynamics."""
    return state + rhs(state, net, machines) * dt


def simulate_em(
    case: SystemCase,
    scenario: Scenario,
    config: EMConfig,
    path: NoisePath | None = None,
    setup: SimulationSetup | None = None,
    out_stride: int = 1,
    horizon: float | None = None,
) -> Trajectory:
    """Integrate one run with the Euler scheme at the configured step.

    Stage scheduling, resampling and divergence handling match the series
    solver exactly; in shared-path mode the identical piecewise-constant
    load series is consumed, enabling pathwise comparison.
    """
    if setup is None:
        setup = SimulationSetup.build(case, scenario)
    machines = setup.machines

    def stepper(x, net, dt):
        return euler_det_step(x, net, machines, dt)

    return run_simulation(
        setup,
        config.dt,
        stepper,
        solver="em",
        path=path,
        em_continuous=(config.mode == "paper-sde"),
        out_stride=out_stride,
        horizon=horizon,
    )
