"""Euler-Maruyama reference solver for the coupled SDE/ODE system.

Two modes: ``shared-path`` consumes the same piecewise-constant load series
as the series solver (resampled every 0.1 s by default), which makes
trajectories comparable path by path; ``paper-sde`` steps the load SDEs at
every integration step in the traditional style, with the network rebuilt
each step, and is the benchmark configuration for timing comparisons.  A
step's right-hand side is the series kernel's order-0 pass, so an Euler step
is the series solver's order-1 window evaluated at the step, bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .case import SystemCase
from .dynamics import WindowWork, rhs
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
        if not self.dt > 0:  # NaN fails too
            raise ValueError("dt must be positive")
        if self.mode not in EM_MODES:
            raise ValueError(f"mode must be one of {EM_MODES}")


def euler_det_step(net: ReducedNetwork, work: WindowWork, dt) -> None:
    """Forward-Euler step x + dt f(x) of the deterministic machine dynamics.

    ``net`` and ``work`` are as for :func:`rhs`, and ``dt`` is a float or
    the 0-d float64 array that run_simulation passes.  The derivative is scaled in
    its slab and added to the state slab in place, so the new state is
    where the next step starts.
    """
    rhs(net, work)
    f, x = work.derivative_slab, work.state_slab
    np.multiply(f, dt, f)
    np.add(f, x, x)


def simulate_em_batch(
    setup: SimulationSetup,
    config: EMConfig,
    paths: Iterable[NoisePath | None],
    out_stride: int = 1,
) -> list[Trajectory]:
    """Integrate a batch of runs, one per noise path, at the configured step.

    Stage scheduling, resampling and divergence handling match the series
    solver exactly; in shared-path mode the identical piecewise-constant
    load series is consumed, enabling pathwise comparison.  The stack steps
    by :func:`euler_det_step`, in place, in the order-1 work arrays that
    :func:`run_simulation` builds.
    """
    return run_simulation(
        setup,
        config.dt,
        euler_det_step,
        1,
        solver="em",
        paths=paths,
        em_continuous=(config.mode == "paper-sde"),
        out_stride=out_stride,
    )


def simulate_em(
    case: SystemCase,
    scenario: Scenario,
    config: EMConfig,
    path: NoisePath | None = None,
    setup: SimulationSetup | None = None,
    out_stride: int = 1,
) -> Trajectory:
    """Integrate one run: a batch of one through :func:`simulate_em_batch`."""
    if setup is None:
        setup = SimulationSetup.build(case, scenario)
    return simulate_em_batch(setup, config, [path], out_stride)[0]
