"""Windowed truncated power-series solver for the machine/network model.

Per window the solver computes series terms of the state about the window
start by recursion on orders: the order-n coefficient of the right-hand
side, evaluated through truncated series arithmetic with the current load
values frozen as parameters, yields the order-(n+1) state coefficient after
time integration.  For the analytic right-hand side used here the terms
coincide with the decomposition-method terms, so evaluating the order-N
partial sum across the window reproduces the semi-analytical solution.

Each order is one :func:`~stochsim.dynamics.derivative_coeffs` pass on the
slabs of a :class:`~stochsim.dynamics.WindowWork`; order 0 is the
right-hand side that Euler steps on as well.  ``window_coefficients(state0,
net, work)`` is the kernel's one entry, for the solver's batches and
``validate``'s oracle alike, and :func:`window_step` evaluates one window.
``run_simulation`` builds a batch's work arrays again only when runs leave,
so a window allocates nothing but the series kernels' temporaries.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .case import SystemCase
from .dynamics import WindowWork, derivative_coeffs
from .network import ReducedNetwork
from .noise import NoisePath
from .scenario import Scenario, SimulationSetup, run_simulation
from .series import MAX_ORDER, series_eval
from .trajectory import Trajectory


@dataclass(frozen=True)
class SolverConfig:
    """Series order (1 to ``MAX_ORDER``) and window length of the solver."""

    order: int = 2
    window: float = 1e-3

    def __post_init__(self):
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"series order must be from 1 to {MAX_ORDER}")
        if not self.window > 0:  # NaN fails too
            raise ValueError("window length must be positive")


def window_coefficients(
    state0: np.ndarray, net: ReducedNetwork, work: WindowWork
) -> np.ndarray:
    """Series coefficients of the machine states about ``state0``.

    ``state0`` is an (R, 4K) stack and ``work`` the :class:`WindowWork`
    built for R runs, whose order and tiled machine equations the window
    takes; another stack size raises ``ValueError``.  ``net.y`` is
    (R, K, K), or one (K, K) network for every run; runs do not mix.
    ``state0`` enters the order-0 slabs by one transposed copy; per order n,
    :func:`derivative_coeffs` gives the derivative's terms and a multiply by
    1/(n+1) the state's of order n+1, which leave by one transposed copy.
    Returns the (R, 4K, N+1) stack in the packed state layout, order last,
    on a local clock that starts at 0: a view of ``work``, which the next
    window overwrites.
    """
    y = net.y
    np.copyto(work.x0, state0.reshape(work.x0.shape))
    for n, (d_n, x_next, inv) in enumerate(work.integrate):
        derivative_coeffs(y, work, n)
        np.multiply(d_n, inv, out=x_next)
    np.copyto(work.packed_runs, work.state_runs)
    return work.coeffs


def window_step(
    state0: np.ndarray, net: ReducedNetwork, work: WindowWork, dt: float
) -> np.ndarray:
    """The order-N series of a window about ``state0``, evaluated at ``dt``.

    Arguments as for :func:`window_coefficients`; returns a new (R, 4K) stack.
    """
    return series_eval(window_coefficients(state0, net, work), dt)


def simulate_sas_batch(
    setup: SimulationSetup,
    config: SolverConfig,
    paths: Iterable[NoisePath | None],
    out_stride: int = 1,
) -> list[Trajectory]:
    """Propagate a batch of runs, one per noise path, with series windows.

    The windows have a fixed length and all runs take the same windows, so
    one coefficient recursion advances the whole (R, 4K) stack:
    :func:`run_simulation` steps it by :func:`window_step` in work arrays of
    the configured order.  Stage boundaries split the enclosing window
    exactly; stochastic loads are advanced and the networks rebuilt at every
    resample boundary, so the window must divide the resample interval,
    which :func:`run_simulation` checks.  The output is sampled every ``out_stride``
    windows.
    """
    return run_simulation(
        setup,
        config.window,
        window_step,
        config.order,
        solver="sas",
        paths=paths,
        out_stride=out_stride,
    )


def simulate_sas(
    case: SystemCase,
    scenario: Scenario,
    config: SolverConfig,
    path: NoisePath | None = None,
    setup: SimulationSetup | None = None,
    out_stride: int = 1,
) -> Trajectory:
    """Propagate one run: a batch of one through :func:`simulate_sas_batch`."""
    if setup is None:
        setup = SimulationSetup.build(case, scenario)
    return simulate_sas_batch(setup, config, [path], out_stride)[0]
