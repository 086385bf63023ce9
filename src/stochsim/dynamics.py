"""Two-axis machine dynamics coupled through the reduced network.

The dynamic state vector packs, per generator k, the rotor angle delta_k
(rad), rotor speed omega_k (rad/s) and the transient voltages e'_qk and
e'_dk (p.u.), stored block-wise: [delta..., omega..., eqp..., edp...].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .case import SystemCase
from .network import NetworkCondition, ReducedNetwork, build_reduced_network
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
    Rs: np.ndarray
    omega_r: float
    efd: np.ndarray | None = None
    pm: np.ndarray | None = None

    @classmethod
    def from_case(cls, case: SystemCase) -> "MachineSet":
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
            Rs=arr("Rs"),
            omega_r=g[0].omega_r,
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


@dataclass(frozen=True)
class AlgebraicOutputs:
    """Network coupling quantities per generator (all p.u.)."""

    emf: np.ndarray  # complex internal EMF
    i_r: np.ndarray
    i_i: np.ndarray
    i_d: np.ndarray
    i_q: np.ndarray
    e_d: np.ndarray
    e_q: np.ndarray
    p_e: np.ndarray


def compute_injections(
    state: np.ndarray, net: ReducedNetwork, machines: MachineSet
) -> AlgebraicOutputs:
    """Evaluate the algebraic network coupling at a dynamic state.

    EMF from (e'_d, e'_q, delta); terminal currents I = Y E; dq currents by
    rotation; stator voltages e_q = e'_q - x'_d i_d and e_d = e'_d + x'_q i_q;
    electric power P_e = e_q i_q + e_d i_d.  ``state`` may be (4K,) with a
    (K, K) ``net.y``, or an (R, 4K) stack of runs with an (R, K, K) one.
    """
    delta, _, eqp, edp = split_state(state)
    sin_d, cos_d = np.sin(delta), np.cos(delta)
    emf = (edp * sin_d + eqp * cos_d) + 1j * (eqp * sin_d - edp * cos_d)
    it = (net.y @ emf[..., None])[..., 0]
    i_r, i_i = it.real, it.imag
    i_q = i_i * sin_d + i_r * cos_d
    i_d = i_r * sin_d - i_i * cos_d
    e_q = eqp - machines.xdp * i_d
    e_d = edp + machines.xqp * i_q
    p_e = e_q * i_q + e_d * i_d
    return AlgebraicOutputs(emf, i_r, i_i, i_d, i_q, e_d, e_q, p_e)


def rhs(state: np.ndarray, net: ReducedNetwork, machines: MachineSet) -> np.ndarray:
    """Time derivative of the packed dynamic state."""
    delta, omega, eqp, edp = split_state(state)
    out = compute_injections(state, net, machines)
    w_r = machines.omega_r
    d_delta = omega - w_r
    d_omega = (w_r / (2.0 * machines.H)) * (
        machines.pm - out.p_e - machines.D * (omega - w_r) / w_r
    )
    d_eqp = (machines.efd - eqp - (machines.xd - machines.xdp) * out.i_d) / machines.Td0p
    d_edp = (-edp + (machines.xq - machines.xqp) * out.i_q) / machines.Tq0p
    return pack_state(d_delta, d_omega, d_eqp, d_edp)


@dataclass(frozen=True)
class InitResult:
    state: np.ndarray
    machines: MachineSet  # with efd/pm filled in


def init_dynamic_state(
    case: SystemCase, profile: np.ndarray, net: ReducedNetwork
) -> InitResult:
    """Initialize machine states at the pre-fault operating point.

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

    out = compute_injections(state, net, machines)
    efd = eqp + (machines.xd - machines.xdp) * out.i_d
    return InitResult(state, replace(machines, efd=efd, pm=out.p_e.copy()))


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
    general, and there it is the initial state.  Returns that state when
    max|rhs| under ``condition`` at ``loads`` is below 1e-9; raises
    :class:`EquilibriumError` with the residual otherwise.
    """
    profile = solve_power_flow(case)
    mean_loads = {ld.bus: (ld.p, ld.q) for ld in case.loads}
    pre_fault = build_reduced_network(
        case, NetworkCondition("pre-fault"), mean_loads, profile
    )
    init = init_dynamic_state(case, profile, pre_fault)
    net = build_reduced_network(case, condition, loads, profile)
    residual = float(np.max(np.abs(rhs(init.state, net, init.machines))))
    if residual < 1e-9:
        return init.state
    raise EquilibriumError(
        f"the pre-fault state is no equilibrium of this network "
        f"(residual {residual:.3e})",
        residual=residual,
    )
