"""Windowed truncated power-series solver for the machine/network model.

Per window the solver computes series terms of the state about the window
start by recursion on orders: the order-n coefficient of the right-hand
side, evaluated through truncated series arithmetic with the current load
values frozen as parameters, yields the order-(n+1) state coefficient after
time integration.  For the analytic right-hand side used here the terms
coincide with the decomposition-method terms, so evaluating the order-N
partial sum across the window reproduces the semi-analytical solution.

The recursion runs on the order-major kernels of :mod:`stochsim.series`:
one (N+1, ..., 13, K) work array per window holds every series, order
first, with the fields paired so that each product is one einsum over
contiguous slices.  The network enters in real form,
[[G, -B], [B, G]] with G + jB the reduced admittance, so the currents of an
order are one real matmul; each network builds it once
(:attr:`ReducedNetwork.y_real`).  The machine equations are a constant
linear map per generator (:class:`MachineMap`), built once per batch.
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
from .series import dot_coeff, product_coeffs, series_eval, sin_cos_coeff
from .trajectory import Trajectory


# Highest series order accepted.  The accuracy/cost frontier measured on
# caseC lies at N <= 10; the bound keeps a mistyped order from asking for
# a coefficient array of gigabytes.
MAX_ORDER = 50


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


@dataclass(frozen=True)
class MachineMap:
    """The machine equations in the form the window kernel applies them.

    The time derivative of (delta, omega, e'q, e'd) is one linear map per
    generator, ``lin`` (4, 6, K), over (omega, e'q, e'd, p_e, i_d, i_q),
    plus ``const`` (4, K) at order 0: -omega_r, (omega_r P_m + D omega_r)/2H,
    E_fd/T'd0 and 0.  ``x_t`` (2, K) is (x'q, -x'd), which turns
    (e'd, e'q) and (i_q, i_d) into the stator voltages (e_d, e_q).  Built
    once per batch from a :class:`MachineSet` with its inputs set.
    """

    lin: np.ndarray
    const: np.ndarray
    x_t: np.ndarray

    @classmethod
    def from_machines(cls, m: MachineSet) -> "MachineMap":
        k = m.n_gen
        w_r = m.omega_r
        half_h = w_r / (2.0 * m.H)
        lin = np.zeros((4, 6, k))
        lin[0, 0] = 1.0
        lin[1, 0] = -half_h * m.D / w_r
        lin[1, 3] = -half_h
        lin[2, 1] = -1.0 / m.Td0p
        lin[2, 4] = -(m.xd - m.xdp) / m.Td0p
        lin[3, 2] = -1.0 / m.Tq0p
        lin[3, 5] = (m.xq - m.xqp) / m.Tq0p
        const = np.stack(
            [np.full(k, -w_r), half_h * (m.pm + m.D), m.efd / m.Td0p, np.zeros(k)]
        )
        return cls(lin=lin, const=const, x_t=np.stack([m.xqp, -m.xdp]))


# Frame rotations by delta: 2x4 maps from the four Cauchy products of a pair
# with (sin, cos), flattened as [a_0 s, a_0 c, a_1 s, a_1 c], to the rotated
# pair.  (e'q, e'd) -> (e_re, e_im) and (i_r, i_i) -> (i_d, i_q).
_DQ_TO_NET = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
_NET_TO_DQ = np.array([[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0]])
_N_FIELDS = 13  # delta, omega, e'q, e'd, p_e, i_d, i_q, e_dt, e_qt, s, c, i_r, i_i


def window_coefficients(
    state0: np.ndarray, net: ReducedNetwork, mmap: MachineMap, order: int
) -> np.ndarray:
    """Series coefficients of the machine states about ``state0``.

    Order-incremental evaluation of the model through series arithmetic.
    All series of the window live in one order-major (N+1, ..., 13, K)
    array whose fields are ordered so that every pair the recursion
    multiplies is a contiguous slice: per order, one einsum gives sin/cos of
    the rotor angles, one einsum and one sign matmul each frame rotation,
    one real matmul with ``net.y_real`` the network currents, one einsum the
    electric power and one einsum the linear machine map ``mmap``.
    ``state0`` is (..., 4K) and ``net.y`` (..., K, K), one leading entry per
    run; runs do not mix.  Returns the (..., 4K, N+1) stack in the packed
    state layout, on a local clock that starts at 0.
    """
    lead = state0.shape[:-1]
    k = mmap.x_t.shape[-1]
    w = np.zeros((order + 1,) + lead + (_N_FIELDS, k))
    state = w[..., 0:4, :]  # delta, omega, e'q, e'd
    state[0] = state0.reshape(lead + (4, k))
    machine_in = w[..., 1:7, :]  # omega, e'q, e'd, p_e, i_d, i_q
    eq_ed = w[..., 2:4, :]
    ed_eq = w[..., 3:1:-1, :]
    p_e = w[..., 4, :]
    id_iq = w[..., 5:7, :]
    iq_id = w[..., 6:4:-1, :]
    e_t = w[..., 7:9, :]  # e_dt, e_qt
    sc = w[..., 9:11, :]
    i_net = w[..., 11:13, :]
    i_net_col = i_net.reshape((order + 1,) + lead + (2 * k, 1))
    deriv = np.empty((order,) + lead + (4, k))  # deriv[n] = (n+1) * state[n+1]
    d_delta = deriv[..., 0, :]  # the coefficients of delta'
    y_real = net.y_real

    np.sin(state[0, ..., 0, :], out=sc[0, ..., 0, :])
    np.cos(state[0, ..., 0, :], out=sc[0, ..., 1, :])
    for n in range(order):
        if n:
            sin_cos_coeff(d_delta, sc, n, out=sc[n])
        e_net = _DQ_TO_NET @ product_coeffs(eq_ed, sc, n).reshape(lead + (4, k))
        np.matmul(y_real, e_net.reshape(lead + (2 * k, 1)), out=i_net_col[n])
        rot = product_coeffs(i_net, sc, n).reshape(lead + (4, k))
        np.matmul(_NET_TO_DQ, rot, out=id_iq[n])
        np.multiply(mmap.x_t, iq_id[n], out=e_t[n])
        np.add(e_t[n], ed_eq[n], out=e_t[n])
        dot_coeff(e_t, id_iq, n, out=p_e[n])
        np.einsum("fjk,...jk->...fk", mmap.lin, machine_in[n], out=deriv[n])
        if n == 0:
            deriv[0] += mmap.const
        np.multiply(deriv[n], 1.0 / (n + 1), out=state[n + 1])

    packed = state.reshape((order + 1,) + lead + (4 * k,))
    return packed.transpose(tuple(range(1, len(lead) + 2)) + (0,))


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
    mmap = MachineMap.from_machines(setup.machines)
    order = config.order

    def stepper(x, net, dt):
        return series_eval(window_coefficients(x, net, mmap, order), dt)

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
