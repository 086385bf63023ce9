"""Windowed truncated power-series solver for the machine/network model.

Per window the solver computes series terms of the state about the window
start by recursion on orders: the order-n coefficient of the right-hand
side, evaluated through truncated series arithmetic with the current load
values frozen as parameters, yields the order-(n+1) state coefficient after
time integration.  For the analytic right-hand side used here the terms
coincide with the decomposition-method terms, so evaluating the order-N
partial sum across the window reproduces the semi-analytical solution.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .case import SystemCase
from .dynamics import MachineSet
from .network import ReducedNetwork
from .noise import NoisePath
from .scenario import Scenario, SimulationSetup, run_simulation
from .series import cauchy_coeff, sin_cos_coeff, series_eval
from .trajectory import Trajectory


@dataclass(frozen=True)
class SolverConfig:
    """Series order and window length of the solver."""

    order: int = 2
    window: float = 1e-3

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("series order must be at least 1")
        if self.window <= 0:
            raise ValueError("window length must be positive")


def window_coefficients(
    state0: np.ndarray, net: ReducedNetwork, machines: MachineSet, order: int
) -> np.ndarray:
    """Series coefficients of the machine states about ``state0``.

    Order-incremental evaluation of the model through series arithmetic:
    trigonometric recurrences for sin/cos of the rotor angles, Cauchy
    products for the frame rotations and powers, one complex matrix-vector
    product per order for the network coupling.  ``state0`` is (..., 4K)
    and ``net.y`` (..., K, K), one leading entry per run; runs do not mix.
    Returns the (..., 4K, N+1) stack in the packed state layout, on a local
    clock that starts at 0.
    """
    k = machines.n_gen
    shape = state0.shape[:-1] + (k, order + 1)
    d = np.zeros(shape)
    w = np.zeros(shape)
    eq = np.zeros(shape)
    ed = np.zeros(shape)
    d[..., 0] = state0[..., :k]
    w[..., 0] = state0[..., k : 2 * k]
    eq[..., 0] = state0[..., 2 * k : 3 * k]
    ed[..., 0] = state0[..., 3 * k :]

    s = np.zeros(shape)
    c = np.zeros(shape)
    ere = np.zeros(shape)
    eim = np.zeros(shape)
    i_r = np.zeros(shape)
    i_i = np.zeros(shape)
    i_d = np.zeros(shape)
    i_q = np.zeros(shape)
    e_qt = np.zeros(shape)
    e_dt = np.zeros(shape)
    p_e = np.zeros(shape)

    w_r = machines.omega_r
    half_h = w_r / (2.0 * machines.H)
    dx_d = machines.xd - machines.xdp
    dx_q = machines.xq - machines.xqp

    for n in range(order):
        s[..., n], c[..., n] = sin_cos_coeff(d, s, c, n)
        ere[..., n] = cauchy_coeff(ed, s, n) + cauchy_coeff(eq, c, n)
        eim[..., n] = cauchy_coeff(eq, s, n) - cauchy_coeff(ed, c, n)
        it = (net.y @ (ere[..., n] + 1j * eim[..., n])[..., None])[..., 0]
        i_r[..., n] = it.real
        i_i[..., n] = it.imag
        i_q[..., n] = cauchy_coeff(i_i, s, n) + cauchy_coeff(i_r, c, n)
        i_d[..., n] = cauchy_coeff(i_r, s, n) - cauchy_coeff(i_i, c, n)
        e_qt[..., n] = eq[..., n] - machines.xdp * i_d[..., n]
        e_dt[..., n] = ed[..., n] + machines.xqp * i_q[..., n]
        p_e[..., n] = cauchy_coeff(e_qt, i_q, n) + cauchy_coeff(e_dt, i_d, n)

        if n == 0:
            f_d = w[..., 0] - w_r
            f_w = half_h * (machines.pm - p_e[..., 0] - machines.D * (w[..., 0] - w_r) / w_r)
            f_eq = (machines.efd - eq[..., 0] - dx_d * i_d[..., 0]) / machines.Td0p
        else:
            f_d = w[..., n]
            f_w = half_h * (-p_e[..., n] - machines.D * w[..., n] / w_r)
            f_eq = (-eq[..., n] - dx_d * i_d[..., n]) / machines.Td0p
        f_ed = (-ed[..., n] + dx_q * i_q[..., n]) / machines.Tq0p

        inv = 1.0 / (n + 1)
        d[..., n + 1] = f_d * inv
        w[..., n + 1] = f_w * inv
        eq[..., n + 1] = f_eq * inv
        ed[..., n + 1] = f_ed * inv

    return np.concatenate([d, w, eq, ed], axis=-2)


def simulate_sas_batch(
    setup: SimulationSetup,
    config: SolverConfig,
    paths: Iterable[NoisePath | None],
    out_stride: int = 1,
) -> list[Trajectory]:
    """Propagate a batch of runs, one per noise path, with series windows.

    The windows have a fixed length and all runs take the same windows, so
    one coefficient recursion advances the whole (R, 4K) stack.  Stage
    boundaries split the enclosing window exactly; stochastic loads are
    advanced and the networks rebuilt at every resample boundary, so the
    window must divide the resample interval, which the driver checks.  The
    output is sampled at the window length.
    """
    machines = setup.machines
    order = config.order

    def stepper(x, net, dt):
        coeffs = window_coefficients(x, net, machines, order)
        return series_eval(coeffs, dt)

    return run_simulation(
        setup,
        config.window,
        stepper,
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
