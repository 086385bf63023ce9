"""Windowed truncated power-series solver for the machine/network model.

Per window the solver computes series terms of the state about the window
start by recursion on orders: the order-n coefficient of the right-hand
side, evaluated through truncated series arithmetic with the current load
values frozen as parameters, yields the order-(n+1) state coefficient after
time integration.  For the analytic right-hand side used here the terms
coincide with the decomposition-method terms, so evaluating the order-N
partial sum across the window reproduces the semi-analytical solution.

The recursion runs on the order-major kernels of :mod:`stochsim.series`, on
one field-major (N+1, 13, R·K) work array per stack of R runs of K
generators: order first, then the field, then one flat axis of runs ×
generators.  Each field, or pair of adjacent fields, of an order is one
contiguous (2, R·K) slab.  So every Cauchy product, sin/cos recurrence, frame
rotation, electric-power dot and machine-equation einsum sees the whole stack
as one system of R·K generators: one numpy call per operation and order, on
flat operands.  A run-major (R, 13, K) layout would instead make every
operand R strided pieces, and the kernel's time would go into numpy's
per-piece overhead.  The machine equations are a constant linear map per
generator, which the work arrays hold tiled over the runs.

Only the network couples the generators of a run, so the network product is
the one step done per run: the pair products are read as an (R, 4, K) view,
the EMFs staged in an (R, 2K, 1) buffer and multiplied by the reduced
admittance G + jB in real form, [[G, -B], [B, G]] (each network builds it
once, :attr:`ReducedNetwork.y_real`), and the currents are copied back into
their slab.  The window start enters by one transposed copy, and the state
coefficients leave by another, into the packed (N+1, R, 4K) layout the
caller reads order last.  A :class:`WindowWork` holds these arrays for R
runs of one machine set at one order.  The kernel's one entry,
``window_coefficients(state0, net, work)``, serves the solver's batches and
``validate``'s oracle alike; a batch builds its arrays again only when runs
leave, so a window allocates nothing but the series kernels' temporaries.
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


# Frame rotations by delta: 2x4 maps from the four Cauchy products of a pair
# with (sin, cos), flattened as [a_0 s, a_0 c, a_1 s, a_1 c], to the rotated
# pair.  (e'q, e'd) -> (e_re, e_im) and (i_r, i_i) -> (i_d, i_q).
_DQ_TO_NET = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
_NET_TO_DQ = np.array([[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0]])
_N_FIELDS = 13  # delta, omega, e'q, e'd, p_e, i_d, i_q, e_dt, e_qt, s, c, i_r, i_i


class WindowWork:
    """The work arrays of :func:`window_coefficients` for a stack of runs.

    Built for ``n_runs`` runs R of ``machines`` (K generators, a
    :class:`MachineSet` with its inputs set) at series order ``order`` N.
    Every series of a window lives in one field-major (N+1, 13, R·K) array:
    order, field, then one flat axis of runs × generators whose entry
    r·K + k is generator k of run r.  A field, or a pair of adjacent fields,
    of one order is one contiguous (2, R·K) slab.  The (N, 4, R·K)
    derivative array, the product buffers, the network staging buffers and
    the packed (N+1, R, 4K) result buffer complete the set, with every view
    of them that a window reads or writes.  The arrays start uninitialized:
    a window writes every entry before it reads it.

    The machine equations are tiled over the R runs.  The time derivative
    of (delta, omega, e'q, e'd) is one linear map per generator, ``lin``
    (4, 6, R·K), over (omega, e'q, e'd, p_e, i_d, i_q), plus ``const``
    (4, R·K) at order 0: -omega_r, (omega_r P_m + D omega_r)/2H, E_fd/T'd0
    and 0.  ``x_t`` (2, R·K) is (x'q, -x'd), which turns (e'd, e'q) and
    (i_q, i_d) into the stator voltages (e_d, e_q).
    """

    def __init__(self, machines: MachineSet, n_runs: int, order: int):
        m = machines
        k = m.n_gen
        self.n_runs = n_runs
        rk = n_runs * k
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
        self.lin, self.const, self.x_t = (
            np.tile(a, n_runs) for a in (lin, const, np.stack([m.xqp, -m.xdp]))
        )
        w = np.empty((order + 1, _N_FIELDS, rk))
        deriv = np.empty((order, 4, rk))  # deriv[n] = (n+1) * state[n+1]

        def per_run(a):  # (F, R·K) slab -> (R, F, K) view
            return a.reshape(a.shape[:-1] + (n_runs, k)).swapaxes(-3, -2)

        # the pair stacks the series kernels read, order first
        self.eq_ed = w[:, 2:4]
        self.id_iq = w[:, 5:7]
        self.e_t = w[:, 7:9]  # e_dt, e_qt
        self.sc = w[:, 9:11]  # sin, cos of delta
        self.i_net = w[:, 11:13]
        self.d_delta = deriv[:, 0]  # the coefficients of delta'
        # the pair products of one order; the network product reads them per
        # run, writes the EMFs and takes the currents in per-run buffers
        self.pair = np.empty((2, 2, rk))
        self.pair_flat = self.pair.reshape(4, rk)
        self.pair_runs = per_run(self.pair_flat)
        self.e_net = np.empty((n_runs, 2, k))
        self.e_net_col = self.e_net.reshape(n_runs, 2 * k, 1)
        self.i_col = np.empty((n_runs, 2 * k, 1))
        self.i_pairs = self.i_col.reshape(n_runs, 2, k)
        # order 0: the window start and the operands of the one-term products
        self.x0 = per_run(w[0, 0:4])
        self.delta0 = w[0, 0]
        self.s0, self.c0 = w[0, 9], w[0, 10]
        self.eq_ed0 = w[0, 2:4, None]
        self.i_net0 = w[0, 11:13, None]
        self.sc0 = w[0, None, 9:11]
        self.p_terms = np.empty((2, rk))  # e_dt i_d and e_qt i_q
        # per order n, the slices of order n (and n+1) it writes or reads
        machine_in = w[:, 1:7]  # omega, e'q, e'd, p_e, i_d, i_q
        self.orders = [
            (
                self.sc[n],
                per_run(self.i_net[n]),
                self.id_iq[n],
                w[n, 6:4:-1],  # i_q, i_d
                self.e_t[n],
                w[n, 3:1:-1],  # e'd, e'q
                w[n, 4],  # p_e
                machine_in[n],
                deriv[n],
                w[n + 1, 0:4],
                1.0 / (n + 1),
            )
            for n in range(order)
        ]
        # the state coefficients leave per run, packed, and are read order last
        packed = np.empty((order + 1, n_runs, 4 * k))
        self.packed_runs = packed.reshape(order + 1, n_runs, 4, k)
        self.state_runs = per_run(w[:, 0:4])
        self.coeffs = packed.transpose(1, 2, 0)


def window_coefficients(
    state0: np.ndarray, net: ReducedNetwork, work: WindowWork
) -> np.ndarray:
    """Series coefficients of the machine states about ``state0``.

    ``state0`` is an (R, 4K) stack and ``work`` the :class:`WindowWork`
    built for R runs, whose order and tiled machine equations the window
    takes; another stack size raises ``ValueError``.  ``net.y`` is
    (R, K, K), or one (K, K) network for every run; runs do not mix.

    Order-incremental evaluation of the model through series arithmetic on
    the field-major slabs of ``work``, whose last axis is runs × generators.
    ``state0`` enters them by one transposed copy.  Per order:

    - one einsum gives sin/cos of the rotor angles from the delta' and
      (sin, cos) slabs;
    - each frame rotation is one einsum of a field pair with the (sin, cos)
      slab into the (2, 2, R·K) pair products, and one sign matmul;
    - the network currents are the one per-run step: the sign matmul reads
      the pair products as an (R, 4, K) view and writes the EMFs into an
      (R, 2K, 1) buffer, one matmul with ``net.y_real`` gives the currents
      in a second such buffer, and one copy puts them into the (i_r, i_i)
      slab;
    - the stator voltages are two ufuncs with the tiled ``x_t``, the
      electric power one einsum, and the machine equations one einsum with
      the tiled linear map.

    At order 0 each Cauchy product has a single term, so a broadcast
    multiply replaces each of the three product einsums.  The state
    coefficients leave by one transposed copy into the packed buffer.
    Returns its order-last view, the (R, 4K, N+1) stack in the packed state
    layout, on a local clock that starts at 0.  It is a view of ``work``,
    which the next window overwrites.
    """
    y_real = net.y_real
    pair, pair_flat, pair_runs = work.pair, work.pair_flat, work.pair_runs
    eq_ed, id_iq, e_t, sc, i_net = work.eq_ed, work.id_iq, work.e_t, work.sc, work.i_net

    np.copyto(work.x0, state0.reshape(work.x0.shape))
    np.sin(work.delta0, out=work.s0)
    np.cos(work.delta0, out=work.c0)
    for n, views in enumerate(work.orders):
        sc_n, i_runs, id_iq_n, iq_id_n, e_t_n, ed_eq_n, p_e_n, m_in, d_n, x_next, inv = views
        if n:
            sin_cos_coeff(work.d_delta, sc, n, out=sc_n)
            product_coeffs(eq_ed, sc, n, out=pair)
        else:
            np.multiply(work.eq_ed0, work.sc0, out=pair)
        np.matmul(_DQ_TO_NET, pair_runs, out=work.e_net)
        np.matmul(y_real, work.e_net_col, out=work.i_col)
        np.copyto(i_runs, work.i_pairs)
        if n:
            product_coeffs(i_net, sc, n, out=pair)
        else:
            np.multiply(work.i_net0, work.sc0, out=pair)
        np.matmul(_NET_TO_DQ, pair_flat, out=id_iq_n)
        np.multiply(work.x_t, iq_id_n, out=e_t_n)
        np.add(e_t_n, ed_eq_n, out=e_t_n)
        if n:
            dot_coeff(e_t, id_iq, n, out=p_e_n)
        else:
            np.multiply(e_t_n, id_iq_n, out=work.p_terms)
            np.add(*work.p_terms, out=p_e_n)
        np.einsum("fjk,jk->fk", work.lin, m_in, out=d_n)
        if n == 0:
            d_n += work.const
        np.multiply(d_n, inv, out=x_next)
    np.copyto(work.packed_runs, work.state_runs)
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
    work = None  # the work arrays of the current stack

    def stepper(x, net, dt):
        nonlocal work
        if work is None or work.n_runs != len(x):  # first window, or runs left
            work = WindowWork(setup.machines, len(x), config.order)
        return series_eval(window_coefficients(x, net, work), dt)

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
