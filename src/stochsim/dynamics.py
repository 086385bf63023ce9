"""Two-axis machine dynamics coupled through the reduced network.

The dynamic state vector packs, per generator k, the rotor angle delta_k
(rad), rotor speed omega_k (rad/s) and the transient voltages e'_qk and
e'_dk (p.u.), stored block-wise: [delta..., omega..., eqp..., edp...].

The model is written once, on truncated power series: one call of
:func:`derivative_coeffs` gives one order of the time derivative's terms
from the state's terms below it.  Its order 0 is the right-hand side,
:func:`rhs`, on which Euler steps; the series solver runs every order.  The
terms of a stack of runs live field-major in a :class:`WindowWork`, so every
series operation sees the stack as one system of R·K generators: one numpy
call per operation and order, on flat operands.  A run-major layout would
make every operand R strided pieces, and the time would go into numpy's
per-piece overhead.  Only the network couples the generators of a run, so
the network product is the one step done per run.

The work arrays hold the stack's state as well: it is written into their
order-0 state slab once, and each window or Euler step leaves the new
state there, so no step copies the state in or out.  Each order's numpy
calls are bound to their operands once, when the work arrays are made, and
a pass runs them with no Python frame or lookup of its own per call; a
series window runs every order's calls from one flat list.

At the stack sizes the solver runs, a numpy call costs 0.3-3 us, mostly
fixed overhead, so each bound call is given operands that keep numpy on
its fast path: 0-d float64 constants, one object for an output that is
also an input, forward operands, and tiles where a broadcast would do.
The operations are those of the plain form, so are the bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .case import SystemCase
from .network import NetworkCondition, ReducedNetwork, reduce_to_load_buses
from .powerflow import injected_power, solve_power_flow
from .series import cauchy_operands, dot_coeff, product_coeffs, sin_cos_coeff, sin_cos_operands


class EquilibriumError(RuntimeError):
    """The pre-fault state is no equilibrium of a network; carries the residual."""

    def __init__(self, msg: str, residual: float):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True)
class MachineSet:
    """Per-generator constants of the simulated system, as flat arrays.

    ``efd`` and ``pm`` (field voltage and mechanical power) are fixed inputs
    determined by the pre-fault equilibrium and held constant throughout a
    simulation.
    """

    H: np.ndarray
    D: np.ndarray
    xd: np.ndarray
    xdp: np.ndarray
    xq: np.ndarray
    xqp: np.ndarray
    Td0p: np.ndarray
    Tq0p: np.ndarray
    omega_r: float
    efd: np.ndarray | None = None
    pm: np.ndarray | None = None

    @classmethod
    def from_case(cls, case: SystemCase) -> "MachineSet":
        """The constants of ``case.generators``; rated speed 2 pi ``frequency_hz`` rad/s."""
        g = case.generators
        arr = lambda f: np.array([getattr(p, f) for p in g], dtype=float)
        return cls(
            H=arr("H"),
            D=arr("D"),
            xd=arr("xd"),
            xdp=arr("xdp"),
            xq=arr("xq"),
            xqp=arr("xqp"),
            Td0p=arr("Td0p"),
            Tq0p=arr("Tq0p"),
            omega_r=2.0 * np.pi * case.frequency_hz,
        )

    @property
    def n_gen(self) -> int:
        return len(self.H)


def pack_state(delta, omega, eqp, edp) -> np.ndarray:
    return np.concatenate([delta, omega, eqp, edp], axis=-1)


def split_state(state: np.ndarray):
    """The delta, omega, eqp and edp blocks of (..., 4K) packed states."""
    k = state.shape[-1] // 4
    return (
        state[..., :k],
        state[..., k : 2 * k],
        state[..., 2 * k : 3 * k],
        state[..., 3 * k :],
    )


def _injections(delta, eqp, edp, y: np.ndarray, machines: MachineSet):
    """EMF, network currents I, i_q, i_d, e_q, e_d and P_e of packed-state blocks.

    The network coupling in complex form, from which
    :func:`init_dynamic_state` back-computes E_fd and P_m.  One rotation
    each way: E = (e'q - j e'd) e^{j delta}, I = Y E and
    i_q - j i_d = I e^{-j delta}; the stator voltages are
    e_q = e'q - x'd i_d and e_d = e'd + x'q i_q, and P_e = e_q i_q + e_d i_d.
    The blocks may be (K,) with a (K, K) ``y``, or (R, K) stacks with an
    (R, K, K) one.  Both rotations are written out in real arithmetic: numpy
    may fuse the multiply-adds of a complex product, which would move the
    pre-fault P_m and E_fd, and with them every run, by a rounding.
    """
    sin_d, cos_d = np.sin(delta), np.cos(delta)
    emf = np.empty(delta.shape, dtype=complex)
    np.add(edp * sin_d, eqp * cos_d, out=emf.real)
    np.subtract(eqp * sin_d, edp * cos_d, out=emf.imag)
    it = (y @ emf[..., None])[..., 0]
    i_r, i_i = it.real, it.imag
    i_q = i_i * sin_d + i_r * cos_d
    i_d = i_r * sin_d - i_i * cos_d
    e_q = eqp - machines.xdp * i_d
    e_d = edp + machines.xqp * i_q
    return emf, it, i_q, i_d, e_q, e_d, e_q * i_q + e_d * i_d


# Frame rotations by delta: sign maps from the four Cauchy products of a
# pair with (sin, cos), flattened as [a_0 s, a_0 c, a_1 s, a_1 c], to the
# rotated pair.  (e'q, e'd) -> (e_re, e_im), and (i_r, i_i) -> (i_d, i_q,
# i_q, i_d): the first two rows at every order, all four at order 0, whose
# p_e product reads (i_q, i_d) forward.
_DQ_TO_NET = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
_NET_TO_DQ = np.array(
    [[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, -1.0]]
)
_N_FIELDS = 13  # delta, omega, e'q, e'd, p_e, i_d, i_q, i_q, i_d, e_qt, e_dt, s, c


class WindowWork:
    """The work arrays of the model's series terms for a stack of runs.

    Built for ``n_runs`` runs R of ``machines`` (K generators, a
    :class:`MachineSet` with its inputs set) at series order ``order`` N
    >= 1; :func:`rhs` uses only the order-0 arrays.  The work owns the
    stack's state: :meth:`set_state` writes it into the order-0 state slab
    ``state_slab``, (4, R·K), and a window or an Euler step leaves the new
    state there, where the next one starts.

    Every real series lives in one (N+1, 13, R·K) array: order, field, then
    one flat axis of runs × generators whose entry r·K + k is generator k
    of run r.  The fields are delta, omega, e'q, e'd, p_e, i_d, i_q, the
    pair (i_q, i_d) again, the stator pair (e_qt, e_dt) and (sin, cos) of
    delta; the second (i_q, i_d) is written at order 0 only, where p_e
    reads it.  A field, or a pair of adjacent fields, of one order is one
    contiguous (2, R·K) slab.  The network currents are an (N+1, R, K, 1)
    complex series ``currents``, so each order's network product writes
    them in place; ``i_net``, their interleaved real view as an
    (N+1, 2, R·K) pair stack, is the (i_r, i_i) operand of the series
    kernels.  The (N, 4, R·K) derivative array, the pair products and the
    (R, K, 1) complex EMFs ``emf`` complete the set.  The state's terms are
    read order last: ``terms`` (4, R·K, N+1), whose order-n entry is a
    contiguous slab for the Horner sum, and per run ``coeffs``
    (R, 4, K, N+1) in the packed state layout.  Likewise ``state`` and
    ``derivative`` are the (R, 4, K) per-run views of ``state_slab`` and of
    the derivative's order-0 slab ``derivative_slab``.  Elementwise work
    runs on the slabs, as numpy takes about twice as long on a per-run
    view.  The real arrays start uninitialized, as every entry is written
    before it is read; the complex ones start at zero, as a complex matmul
    on arbitrary bits can run several times slower.

    The machine equations are tiled over the R runs.  The time derivative
    of (delta, omega, e'q, e'd) is linear in the fields, plus ``const``
    (4, R·K) at order 0: -omega_r, (omega_r P_m + D omega_r)/2H, E_fd/T'd0
    and 0.  Its map holds 7 terms per generator, so it is written sparse:
    delta' = omega, and (omega', e'q', e'd') = a (omega, e'q, e'd) +
    b (p_e, i_d, i_q), elementwise.  Both inputs are contiguous (3, R·K)
    slabs of one order, and ``a_b`` (2, 3, R·K) holds the coefficient slabs
    a and b.  ``x_t`` (2, R·K) is (-x'd, x'q), which turns the forward
    slabs (i_d, i_q) and (e'q, e'd) into the stator pair (e_qt, e_dt).

    ``orders[n]`` is order n of :func:`derivative_coeffs` bound once: the
    calls before the network product, the EMFs and the order-n currents
    it reads and writes, and the calls after it.  Each call is a numpy
    function with every operand and buffer bound, the series kernels' among
    them (sin/cos of (d_delta, sc), the rotations' pair products of (eq_ed,
    sc) and (i_net, sc), and p_e = e_dt i_d + e_qt i_q of the reversed
    stator pair); at n = 0 sin/cos are ufuncs, each pair product a
    broadcast multiply and p_e the sum of the forward product
    (e_qt, e_dt)(i_q, i_d).  Two sign matmuls join the products on their
    (4, R·K) slab: one writes the EMFs into the (2, R·K) real view of
    their complex column, the other (i_d, i_q), and at n = 0 the 4-row
    map (i_d, i_q, i_q, i_d).  ``integrate[n]`` is the multiply by 1/(n+1)
    that turns the derivative's order-n terms into the state's of order
    n+1.  ``window`` is every order's calls, network products and
    integrations in one flat list, which :meth:`bind_network` binds to an
    admittance ``y``.

    Every bound call is on numpy's fast path, which saves a fixed 0.2-0.5
    us a call: its constants are 0-d float64 arrays, not Python floats; an
    output that is also an input is one object, not two views of its
    memory; no elementwise operand is reversed; and no operand broadcasts
    but the order-0 pair products', so the sin/cos divisors are (2, R·K)
    tiles.  Each call keeps the operation, and so the bits, of the plain
    form.
    """

    def __init__(self, machines: MachineSet, n_runs: int, order: int):
        m = machines
        k = m.n_gen
        rk = n_runs * k
        w_r = m.omega_r
        half_h = w_r / (2.0 * m.H)
        # the coefficient slabs a and b of the machine map
        a_b = np.stack(
            [
                [-half_h * m.D / w_r, -1.0 / m.Td0p, -1.0 / m.Tq0p],
                [-half_h, -(m.xd - m.xdp) / m.Td0p, (m.xq - m.xqp) / m.Tq0p],
            ]
        )
        const = np.stack(
            [np.full(k, -w_r), half_h * (m.pm + m.D), m.efd / m.Td0p, np.zeros(k)]
        )
        self.a_b, self.const, self.x_t = (
            np.tile(a, n_runs) for a in (a_b, const, np.stack([-m.xdp, m.xqp]))
        )
        w = np.empty((order + 1, _N_FIELDS, rk))
        deriv = np.empty((order, 4, rk))  # deriv[n] = (n+1) * state[n+1]

        def per_run(a):  # (F, R·K) slab -> (R, F, K) view
            return a.reshape(a.shape[:-1] + (n_runs, k)).swapaxes(-3, -2)

        # the pair stacks the series kernels read, order first
        self.eq_ed = w[:, 2:4]
        self.id_iq = w[:, 5:7]
        self.e_t = w[:, 9:11]  # e_qt, e_dt
        self.sc = w[:, 11:13]  # sin, cos of delta
        self.currents = np.zeros((order + 1, n_runs, k, 1), dtype=complex)
        self.i_net = self.currents.view(float).reshape(order + 1, rk, 2).swapaxes(1, 2)
        self.d_delta = deriv[:, 0]  # the coefficients of delta'
        # the pair products of one order, also read as one (4, R·K) slab
        self.pair = np.empty((2, 2, rk))
        pair_flat = self.pair.reshape(4, rk)
        # the network product's EMFs, (R, K, 1) complex, written through
        # the (2, R·K) real view of their interleaved parts
        self.emf = np.zeros((n_runs, k, 1), dtype=complex)
        emf_pair = self.emf.view(float).reshape(rk, 2).T
        to_emf = partial(np.matmul, _DQ_TO_NET, pair_flat, emf_pair)  # every order's
        # the state and its derivative at order 0, and the state's terms
        # order last: each as (4, R·K) slabs, and per run in the packed layout
        self.state_slab, self.derivative_slab = w[0, 0:4], deriv[0]
        self.terms = np.moveaxis(w[:, 0:4], 0, -1)
        self.state, self.derivative = per_run(self.state_slab), per_run(deriv[0])
        self.coeffs = np.moveaxis(per_run(w[:, 0:4]), 0, -1)
        p_terms = np.empty((2, rk))  # e_qt i_q and e_dt i_d
        a_b_terms = np.empty((2, 3, rk))  # the two terms of the machine map
        # (omega, e'q, e'd) and (p_e, i_d, i_q), the inputs of the machine map
        machine_in = w[:, 1:7].reshape(order + 1, 2, 3, rk)
        e_t_rev = self.e_t[:, ::-1]  # e_dt, e_qt
        sc0 = w[0, None, 11:13]

        def bound(n):  # order n's calls around the network product
            sc_n, id_iq_n, e_t_n = self.sc[n], self.id_iq[n], self.e_t[n]
            if n:
                sin_cos = sin_cos_coeff(*sin_cos_operands(self.d_delta, self.sc, n), sc_n)
                eq_ed_sc = product_coeffs(*cauchy_operands(self.eq_ed, self.sc, n), self.pair)
                i_net_sc = product_coeffs(*cauchy_operands(self.i_net, self.sc, n), self.pair)
                to_dq = partial(np.matmul, _NET_TO_DQ[:2], pair_flat, id_iq_n)
                p_e = (dot_coeff(*cauchy_operands(e_t_rev, self.id_iq, n), w[n, 4]),)
                const = ()
            else:
                sin_cos = (partial(np.sin, w[0, 0], sc_n[0]), partial(np.cos, w[0, 0], sc_n[1]))
                eq_ed_sc = partial(np.multiply, w[0, 2:4, None], sc0, self.pair)
                i_net_sc = partial(np.multiply, self.i_net[0, :, None], sc0, self.pair)
                to_dq = partial(np.matmul, _NET_TO_DQ, pair_flat, w[0, 5:9])
                p_e = (
                    partial(np.multiply, e_t_n, w[0, 7:9], p_terms),
                    partial(np.add, p_terms[1], p_terms[0], w[0, 4]),
                )
                d_0 = self.derivative_slab  # one object as addend and output
                const = (partial(np.add, d_0, self.const, d_0),)
            before = (*sin_cos, eq_ed_sc, to_emf)
            after = (
                i_net_sc,
                to_dq,
                partial(np.multiply, self.x_t, id_iq_n, e_t_n),
                partial(np.add, e_t_n, self.eq_ed[n], e_t_n),
                *p_e,
                partial(np.copyto, deriv[n, 0], w[n, 1]),  # delta' = omega
                partial(np.multiply, self.a_b, machine_in[n], a_b_terms),
                partial(np.add, a_b_terms[0], a_b_terms[1], deriv[n, 1:]),
                *const,
            )
            return before, self.emf, self.currents[n], after

        self.orders = [bound(n) for n in range(order)]
        self.integrate = [
            partial(np.multiply, deriv[n], np.array(1.0 / (n + 1)), w[n + 1, 0:4])
            for n in range(order)
        ]
        # every order in turn, with a slot for its network product
        self.window: list = []
        self._network_slots = []
        for (before, _, _, after), integrate in zip(self.orders, self.integrate):
            self.window += before
            self._network_slots.append(len(self.window))
            self.window += (None, *after, integrate)
        self.y = None  # the admittance the network products are bound to

    def bind_network(self, y: np.ndarray) -> None:
        """Bind the network product of every order in ``window`` to ``y``.

        ``y`` is the reduced admittance, (R, K, K) or one (K, K) for every
        run; each order's product is np.matmul(y, emf, currents[n]).
        """
        for (_, emf, currents, _), slot in zip(self.orders, self._network_slots):
            self.window[slot] = partial(np.matmul, y, emf, currents)
        self.y = y

    def set_state(self, states: np.ndarray) -> None:
        """Write an (R, 4K) stack of packed states into the order-0 state slab.

        The stack may have any shape that holds R·4K values; another size
        raises ``ValueError``.
        """
        np.copyto(self.state, np.reshape(states, self.state.shape))


def derivative_coeffs(y: np.ndarray, work: WindowWork, n: int) -> None:
    """Order n of the model on the slabs of ``work``: the time derivative's terms.

    Reads the state's terms of orders 0 to n and the other fields' below n,
    and writes every field of order n and the derivative's order-n terms.
    ``y`` is the reduced admittance, (R, K, K) or one (K, K) for every run.
    Every call but one is bound in ``work.orders[n]``: sin/cos, the pair
    products of (e'q, e'd) and (sin, cos), and a sign matmul of them that
    writes the EMFs into the interleaved real view of their complex
    column.  The network product, the one step done per run, is one
    complex matmul with ``y`` into the order-n currents.  Then the pair
    products of the currents and (sin, cos) and a second sign matmul give
    (i_d, i_q), and at order 0 (i_q, i_d) beside them; the stator pair is
    one multiply and one add on forward slabs, and p_e its dot product with
    (i_d, i_q).  The machine map is a
    copy of omega into delta', one multiply of the (2, 3, R·K) inputs by
    the coefficient slabs and one add of its halves, plus ``const`` at
    order 0.
    """
    before, emf, currents, after = work.orders[n]
    for call in before:
        call()
    np.matmul(y, emf, currents)
    for call in after:
        call()


def rhs(net: ReducedNetwork, work: WindowWork) -> np.ndarray:
    """Time derivative of the state in ``work``, as a view of its work arrays.

    ``work`` holds an (R, 4K) stack (see :meth:`WindowWork.set_state`) and
    ``net.y`` is (R, K, K), or one (K, K) network for every run.
    :func:`derivative_coeffs` evaluates the model at order 0, the pass that
    starts every series window, and the derivative is returned in place:
    ``work.derivative``, (R, 4, K) in the packed state layout, a view of
    the slab ``work.derivative_slab`` that the next pass overwrites.  Each
    run's derivative has the same bits alone and in any stack.
    """
    derivative_coeffs(net.y, work, 0)
    return work.derivative


def init_dynamic_state(
    case: SystemCase, profile: np.ndarray, net: ReducedNetwork
) -> tuple[np.ndarray, MachineSet]:
    """``(state, machines)`` at the pre-fault operating point: the packed
    state, and the case's machines with E_fd and P_m filled in.

    ``profile`` is the solved pre-fault voltage profile and ``net`` the
    pre-fault network reduced at the mean loads for that profile.  The rotor
    angle is placed so the d-axis transient-voltage equation is at
    equilibrium, the transient voltages follow from network consistency with
    the solved terminal conditions, and E_fd / P_m are back-computed so every
    right-hand side of the dynamic model vanishes at the returned state
    against ``net`` (residual below 1e-9).
    """
    machines = MachineSet.from_case(case)
    s_net = injected_power(case, profile)

    delta = np.empty(machines.n_gen)
    eqp = np.empty(machines.n_gen)
    edp = np.empty(machines.n_gen)
    for g_idx, gen in enumerate(case.generators):
        i = case.bus_index(gen.bus)
        v = profile[i]
        s_gen = s_net[i]
        ld = case.load_at(gen.bus)
        if ld is not None:
            s_gen = s_gen + (ld.p + 1j * ld.q)
        cur = np.conj(s_gen / v)
        # rotor position from the quadrature-axis voltage behind (Rs, xq - xqp + xdp)
        x_qq = gen.xq - gen.xqp + gen.xdp
        delta[g_idx] = np.angle(v + (gen.Rs + 1j * x_qq) * cur)
        rot = np.exp(-1j * (delta[g_idx] - np.pi / 2.0))
        vd, vq = (v * rot).real, (v * rot).imag
        idd, iqq = (cur * rot).real, (cur * rot).imag
        eqp[g_idx] = vq + gen.Rs * iqq + gen.xdp * idd
        edp[g_idx] = vd + gen.Rs * idd - gen.xdp * iqq

    omega = np.full(machines.n_gen, machines.omega_r)
    state = pack_state(delta, omega, eqp, edp)

    _, _, _, i_d, _, _, p_e = _injections(delta, eqp, edp, net.y, machines)
    efd = eqp + (machines.xd - machines.xdp) * i_d
    return state, replace(machines, efd=efd, pm=p_e)


def solve_equilibrium(
    case: SystemCase,
    condition: NetworkCondition,
    loads: dict[int, tuple[float, float]],
) -> np.ndarray:
    """The pre-fault initial state, checked to be an equilibrium under ``condition``.

    No search can find another one.  With E_fd and P_m held at their
    pre-fault values and no governor, an equilibrium runs at rated speed and
    must balance 3K equations (speed, e'_q and e'_d) in 3K - 1 free unknowns
    (angles, e'_q, e'_d), since a uniform rotation of all rotor angles
    changes nothing.  Only the pre-fault network at the mean loads has one in
    general, and there it is the initial state.  ``loads`` maps each of the
    case's load buses, and no other bus, to its (P, Q).  Returns that state
    when max|rhs| under ``condition`` at ``loads`` is below 1e-9; raises
    :class:`EquilibriumError` with the residual otherwise.
    """
    if set(loads) != set(case.load_buses):
        raise ValueError("loads must cover exactly the case's load buses")
    profile = solve_power_flow(case)
    mean_loads = {ld.bus: (ld.p, ld.q) for ld in case.loads}
    pre_fault = NetworkCondition("pre-fault")

    def network(cond, at):  # both reduction steps, with every load bus varying
        pq = np.array([at[b] for b in case.load_buses], dtype=float).reshape(-1, 2)
        first = reduce_to_load_buses(case, cond, profile, [], case.load_buses)
        return first.with_loads(first.shunts(pq))

    net = network(pre_fault, mean_loads)
    state, machines = init_dynamic_state(case, profile, net)
    if (condition, loads) != (pre_fault, mean_loads):
        net = network(condition, loads)
    work = WindowWork(machines, 1, 1)
    work.set_state(state)
    residual = float(np.max(np.abs(rhs(net, work))))
    if residual < 1e-9:
        return state
    raise EquilibriumError(
        f"the pre-fault state is no equilibrium of this network "
        f"(residual {residual:.3e})",
        residual=residual,
    )
