"""Windowed truncated power-series solver for the machine/network model.

Per window the solver computes series terms of the state about the window
start by recursion on orders: the order-n coefficient of the right-hand
side, evaluated through truncated series arithmetic with the current load
values frozen as parameters, yields the order-(n+1) state coefficient after
time integration.  For the analytic right-hand side used here the terms
coincide with the decomposition-method terms, so evaluating the order-N
partial sum across the window reproduces the semi-analytical solution.

Each order is the calls of one :func:`~stochsim.dynamics.derivative_coeffs`
pass on the slabs of a :class:`~stochsim.dynamics.WindowWork`, which a
window runs for every order from one flat list; order 0 is the right-hand
side that Euler steps on as well.  The work arrays own the
stack's state: ``window_coefficients(net, work)`` expands the series about
the state in their order-0 slab, for the solver's batches and
``validate``'s oracle alike, and :func:`window_step` evaluates one window
back into that slab, where the next window starts.  ``run_simulation``
writes the state in once per batch and builds the work arrays again only
when runs leave, so a window allocates nothing but the einsum kernels'
temporaries.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .case import SystemCase
from .dynamics import WindowWork
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


def window_coefficients(net: ReducedNetwork, work: WindowWork) -> np.ndarray:
    """Series coefficients of the machine states about the state in ``work``.

    ``work`` is the :class:`WindowWork` of an (R, 4K) stack, whose order,
    tiled machine equations and order-0 state slab (see
    :meth:`WindowWork.set_state`) the window takes.  ``net.y`` is
    (R, K, K), or one (K, K) network for every run; runs do not mix.  Per
    order n, the calls of :func:`~stochsim.dynamics.derivative_coeffs` give
    the derivative's terms and a multiply by 1/(n+1) the state's of order
    n+1.  Every order's calls run from the one flat list ``work.window``,
    whose N network products are bound again
    (:meth:`~stochsim.dynamics.WindowWork.bind_network`) only when
    ``net.y`` is another array than the last window's.  Returns
    ``work.coeffs``, the (R, 4, K, N+1) view of the state's terms in the
    packed state layout, order last, on a local clock that starts at 0; the
    next window overwrites it.
    """
    if net.y is not work.y:
        work.bind_network(net.y)
    for call in work.window:
        call()
    return work.coeffs


def window_step(net: ReducedNetwork, work: WindowWork, dt) -> None:
    """Advance the state in ``work`` by the order-N series of one window, at ``dt``.

    The Horner sum reads the terms as the (4, R·K) slabs of ``work.terms``
    (``work.coeffs``, which :func:`window_coefficients` returns, is their
    per-run view) and writes the new state into their order-0 slab, the
    state slab, in place, where the next window starts.  ``dt`` is a float
    or a 0-d float64 array, as run_simulation passes it.
    Arguments as for :func:`window_coefficients`.
    """
    window_coefficients(net, work)
    series_eval(work.terms, dt)


def simulate_sas_batch(
    setup: SimulationSetup,
    config: SolverConfig,
    paths: Iterable[NoisePath | None],
    out_stride: int = 1,
) -> list[Trajectory]:
    """Propagate a batch of runs, one per noise path, with series windows.

    The windows have a fixed length and all runs take the same windows, so
    one coefficient recursion advances the whole (R, 4K) stack:
    :func:`run_simulation` steps it by :func:`window_step` in the work arrays
    of the configured order, which hold it.  Stage boundaries split the enclosing window
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
