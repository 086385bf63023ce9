"""Windowed truncated power-series solver for the machine/network model.

Per window the solver computes series terms of the state about the window
start by recursion on orders: the order-n coefficient of the right-hand
side, evaluated through truncated series arithmetic with the current load
values frozen as parameters, yields the order-(n+1) state coefficient after
time integration.  For the analytic right-hand side used here the terms
coincide with the decomposition-method terms, so evaluating the order-N
partial sum across the window reproduces the semi-analytical solution.

The recursion runs on the order-major kernels of :mod:`stochsim.series`:
one (N+1, ..., 13, K) work array holds every series of a window, order
first, with the fields paired so that each product is one einsum over
contiguous slices.  A :class:`WindowWork` holds that array, its views and
the other buffers for one stack shape; a batch builds one and every window
writes into it again, so a window allocates nothing but its result.  The
network enters in real form, [[G, -B], [B, G]] with G + jB the reduced
admittance, so the currents of an order are one real matmul; each network
builds it once (:attr:`ReducedNetwork.y_real`).  The machine equations are
a constant linear map per generator (:class:`MachineMap`), built once per
batch.
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
from .series import MAX_ORDER, dot_coeff, product_coeffs, series_eval, sin_cos_coeff
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


class WindowWork:
    """The work arrays of :func:`window_coefficients` for one stack shape.

    ``lead`` is the leading shape of the states, (R,) for a stack of R runs
    or () for one unbatched state; ``n_gen`` is K and ``order`` N.  Holds
    the (N+1, *lead, 13, K) series array, the (N, *lead, 4, K) derivative
    array, the product buffers and every view of them that a window reads
    or writes.  The arrays start uninitialized: a window writes every entry
    before it reads it.
    """

    def __init__(self, lead: tuple[int, ...], n_gen: int, order: int):
        k = n_gen
        self.key = (tuple(lead), k, order)
        w = np.empty((order + 1,) + lead + (_N_FIELDS, k))
        deriv = np.empty((order,) + lead + (4, k))  # deriv[n] = (n+1) * state[n+1]
        state = w[..., 0:4, :]  # delta, omega, e'q, e'd
        # the pair stacks the series kernels read, order first
        self.eq_ed = w[..., 2:4, :]
        self.id_iq = w[..., 5:7, :]
        self.e_t = w[..., 7:9, :]  # e_dt, e_qt
        self.sc = w[..., 9:11, :]  # sin, cos of delta
        self.i_net = w[..., 11:13, :]
        self.d_delta = deriv[..., 0, :]  # the coefficients of delta'
        # the pair products of one order, and the EMFs in the network frame
        self.pair = np.empty(lead + (2, 2, k))
        self.pair_flat = self.pair.reshape(lead + (4, k))
        self.e_net = np.empty(lead + (2, k))
        self.e_net_col = self.e_net.reshape(lead + (2 * k, 1))
        # order 0: the window start and the operands of the one-term products
        self.x0 = state[0].reshape(lead + (4 * k,))
        self.delta0 = state[0, ..., 0, :]
        self.s0, self.c0 = self.sc[0, ..., 0, :], self.sc[0, ..., 1, :]
        self.eq_ed0 = self.eq_ed[0][..., :, None, :]
        self.i_net0 = self.i_net[0][..., :, None, :]
        self.sc0 = self.sc[0][..., None, :, :]
        self.p_terms = np.empty(lead + (2, k))  # e_dt i_d and e_qt i_q
        self.p_split = (self.p_terms[..., 0, :], self.p_terms[..., 1, :])
        # per order n, the slices of order n (and n+1) it writes or reads
        i_net_col = self.i_net.reshape((order + 1,) + lead + (2 * k, 1))
        machine_in = w[..., 1:7, :]  # omega, e'q, e'd, p_e, i_d, i_q
        self.orders = [
            (
                self.sc[n],
                i_net_col[n],
                self.id_iq[n],
                w[n, ..., 6:4:-1, :],  # i_q, i_d
                self.e_t[n],
                w[n, ..., 3:1:-1, :],  # e'd, e'q
                w[n, ..., 4, :],  # p_e
                machine_in[n],
                deriv[n],
                state[n + 1],
                1.0 / (n + 1),
            )
            for n in range(order)
        ]
        packed = state.reshape((order + 1,) + lead + (4 * k,))
        self.coeffs = packed.transpose(tuple(range(1, len(lead) + 2)) + (0,))


def window_coefficients(
    state0: np.ndarray,
    net: ReducedNetwork,
    mmap: MachineMap,
    order: int,
    work: WindowWork | None = None,
) -> np.ndarray:
    """Series coefficients of the machine states about ``state0``.

    Order-incremental evaluation of the model through series arithmetic.
    All series of the window live in one order-major (N+1, ..., 13, K)
    array whose fields are ordered so that every pair the recursion
    multiplies is a contiguous slice: per order, one einsum gives sin/cos of
    the rotor angles, one einsum and one sign matmul each frame rotation,
    one real matmul with ``net.y_real`` the network currents, one einsum the
    electric power and one einsum the linear machine map ``mmap``.  At
    order 0 each Cauchy product has a single term, so a broadcast multiply
    replaces each of the three product einsums.  ``state0`` is (..., 4K)
    and ``net.y`` (..., K, K), one leading entry per run; runs do not mix.
    Returns the (..., 4K, N+1) stack in the packed state layout, on a local
    clock that starts at 0.

    Without ``work`` the arrays are allocated for this call.  With a
    :class:`WindowWork` of the same leading shape, K and order they are
    reused, and the result is a view of ``work`` that the next call with
    it overwrites.
    """
    lead = state0.shape[:-1]
    k = mmap.x_t.shape[-1]
    if work is None:
        work = WindowWork(lead, k, order)
    elif work.key != (lead, k, order):
        raise ValueError(f"work arrays are for {work.key}, not {(lead, k, order)}")
    y_real = net.y_real
    pair, pair_flat = work.pair, work.pair_flat
    eq_ed, id_iq, e_t, sc, i_net = work.eq_ed, work.id_iq, work.e_t, work.sc, work.i_net

    work.x0[...] = state0
    np.sin(work.delta0, out=work.s0)
    np.cos(work.delta0, out=work.c0)
    for n, views in enumerate(work.orders):
        sc_n, i_col, id_iq_n, iq_id_n, e_t_n, ed_eq_n, p_e_n, m_in, d_n, x_next, inv = views
        if n:
            sin_cos_coeff(work.d_delta, sc, n, out=sc_n)
            product_coeffs(eq_ed, sc, n, out=pair)
        else:
            np.multiply(work.eq_ed0, work.sc0, out=pair)
        np.matmul(_DQ_TO_NET, pair_flat, out=work.e_net)
        np.matmul(y_real, work.e_net_col, out=i_col)
        if n:
            product_coeffs(i_net, sc, n, out=pair)
        else:
            np.multiply(work.i_net0, work.sc0, out=pair)
        np.matmul(_NET_TO_DQ, pair_flat, out=id_iq_n)
        np.multiply(mmap.x_t, iq_id_n, out=e_t_n)
        np.add(e_t_n, ed_eq_n, out=e_t_n)
        if n:
            dot_coeff(e_t, id_iq, n, out=p_e_n)
        else:
            np.multiply(e_t_n, id_iq_n, out=work.p_terms)
            np.add(*work.p_split, out=p_e_n)
        np.einsum("fjk,...jk->...fk", mmap.lin, m_in, out=d_n)
        if n == 0:
            d_n += mmap.const
        np.multiply(d_n, inv, out=x_next)
    return work.coeffs


def simulate_sas_batch(
    setup: SimulationSetup,
    config: SolverConfig,
    paths: Iterable[NoisePath | None],
    out_stride: int = 1,
) -> list[Trajectory]:
    """Propagate a batch of runs, one per noise path, with series windows.

    The windows have a fixed length and all runs take the same windows, so
    one coefficient recursion advances the whole (R, 4K) stack, in one
    :class:`WindowWork` that is built again only when runs leave.  Stage
    boundaries split the enclosing window exactly; stochastic loads are
    advanced and the networks rebuilt at every resample boundary, so the
    window must divide the resample interval, which the driver checks.  The
    output is sampled at the window length.
    """
    mmap = MachineMap.from_machines(setup.machines)
    order, n_gen = config.order, setup.machines.n_gen
    work = None  # the work arrays of the current stack shape

    def stepper(x, net, dt):
        nonlocal work
        if work is None or work.key[0] != x.shape[:-1]:  # first window, or runs left
            work = WindowWork(x.shape[:-1], n_gen, order)
        return series_eval(window_coefficients(x, net, mmap, order, work), dt)

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
