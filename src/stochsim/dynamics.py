"""Two-axis machine dynamics coupled through the reduced network.

The dynamic state vector packs, per generator k, the rotor angle delta_k
(rad), rotor speed omega_k (rad/s) and the transient voltages e'_qk and
e'_dk (p.u.), stored block-wise: [delta..., omega..., eqp..., edp...].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .case import SystemCase
from .network import NetworkCondition, ReducedNetwork, reduce_to_load_buses
from .powerflow import injected_power, solve_power_flow


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

    @cached_property
    def gains(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """omega_r / 2H, x_d - x'_d and x_q - x'_q: the constant factors of :func:`rhs`."""
        return self.omega_r / (2.0 * self.H), self.xd - self.xdp, self.xq - self.xqp


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

    The network coupling that :func:`rhs` runs and from which
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


def rhs(state: np.ndarray, net: ReducedNetwork, machines: MachineSet) -> np.ndarray:
    """Time derivative of the packed dynamic state.

    One rotation each way couples the machines to the network: the EMF is
    E = (e'q - j e'd) e^{j delta} and the dq currents are
    i_q - j i_d = (Y E) e^{-j delta}, from one sin and one cos of each rotor
    angle.  The four derivative blocks are written into one array of the
    state's shape.
    """
    delta, omega, eqp, edp = split_state(state)
    _, _, i_q, i_d, _, _, p_e = _injections(delta, eqp, edp, net.y, machines)
    m = machines
    w_r = m.omega_r
    half_h, x_dd, x_qq = m.gains
    out = np.empty_like(state)
    d_delta, d_omega, d_eqp, d_edp = split_state(out)
    np.subtract(omega, w_r, out=d_delta)
    np.multiply(half_h, m.pm - p_e - m.D * d_delta / w_r, out=d_omega)
    np.divide(m.efd - eqp - x_dd * i_d, m.Td0p, out=d_eqp)
    np.divide(x_qq * i_q - edp, m.Tq0p, out=d_edp)
    return out


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

    def network(cond, at):  # both reduction steps, as SimulationSetup.build runs them
        pq = np.array([at[b] for b in case.load_buses], dtype=float).reshape(-1, 2)
        return reduce_to_load_buses(case, cond, profile, []).with_loads(pq)

    net = network(pre_fault, mean_loads)
    state, machines = init_dynamic_state(case, profile, net)
    if (condition, loads) != (pre_fault, mean_loads):
        net = network(condition, loads)
    residual = float(np.max(np.abs(rhs(state, net, machines))))
    if residual < 1e-9:
        return state
    raise EquilibriumError(
        f"the pre-fault state is no equilibrium of this network "
        f"(residual {residual:.3e})",
        residual=residual,
    )
