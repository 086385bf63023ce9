import numpy as np
import pytest

from stochsim.dynamics import (
    EquilibriumError,
    compute_injections,
    init_dynamic_state,
    rhs,
    solve_equilibrium,
    split_state,
)
from stochsim.network import NetworkCondition, ReducedNetwork, reduce_to_load_buses
from stochsim.powerflow import PowerFlowError, solve_power_flow
from stochsim import smib as sm


def load_pq(loads):
    """(L, 2) P and Q of a bus -> (P, Q) mapping, in sorted load-bus order."""
    return np.array([loads[b] for b in sorted(loads)], dtype=float).reshape(-1, 2)


def prefault_setup(case):
    v = solve_power_flow(case)
    loads = {ld.bus: (ld.p, ld.q) for ld in case.loads}
    pq = load_pq(loads)
    cond = NetworkCondition("pre-fault")
    net = reduce_to_load_buses(case, cond, v, np.arange(case.n_bus)).with_loads(pq)
    init = init_dynamic_state(case, v, net)
    return v, loads, net, init


def test_init_is_equilibrium_smib(smib_case):
    _, _, net, init = prefault_setup(smib_case)
    res = rhs(init.state, net, init.machines)
    assert np.max(np.abs(res)) < 1e-9


def test_init_is_equilibrium_ieee39(ieee39_case):
    _, _, net, init = prefault_setup(ieee39_case)
    res = rhs(init.state, net, init.machines)
    assert np.max(np.abs(res)) < 1e-9


def test_init_speeds_at_rated(ieee39_case):
    _, _, _, init = prefault_setup(ieee39_case)
    _, omega, _, _ = split_state(init.state)
    assert np.allclose(omega, init.machines.omega_r, rtol=0, atol=0)


def test_injection_identities_reevaluated(ieee39_case):
    # re-evaluate every defining relation of the outputs independently
    _, _, net, init = prefault_setup(ieee39_case)
    state = init.state + 1e-3  # arbitrary nearby state
    out = compute_injections(state, net, init.machines)
    delta, _, eqp, edp = split_state(state)
    emf = (edp * np.sin(delta) + eqp * np.cos(delta)) + 1j * (
        eqp * np.sin(delta) - edp * np.cos(delta)
    )
    assert np.max(np.abs(emf - out.emf)) < 1e-12
    it = net.y @ emf
    assert np.max(np.abs(it.real - out.i_r)) < 1e-12
    assert np.max(np.abs(it.imag - out.i_i)) < 1e-12
    i_q = out.i_i * np.sin(delta) + out.i_r * np.cos(delta)
    i_d = out.i_r * np.sin(delta) - out.i_i * np.cos(delta)
    assert np.max(np.abs(i_q - out.i_q)) < 1e-12
    assert np.max(np.abs(i_d - out.i_d)) < 1e-12
    e_q = eqp - init.machines.xdp * out.i_d
    e_d = edp + init.machines.xqp * out.i_q
    assert np.max(np.abs(e_q - out.e_q)) < 1e-12
    assert np.max(np.abs(e_d - out.e_d)) < 1e-12
    p_e = e_q * out.i_q + e_d * out.i_d
    assert np.max(np.abs(p_e - out.p_e)) < 1e-12


def component_rhs(state, y, m):
    """The model's derivatives by the sin/cos component formulas, run by run."""
    k = state.shape[-1] // 4
    delta, omega, eqp, edp = (state[..., i * k : (i + 1) * k] for i in range(4))
    s, c = np.sin(delta), np.cos(delta)
    emf = (edp * s + eqp * c) + 1j * (eqp * s - edp * c)
    cur = np.einsum("...ij,...j->...i", y, emf)
    i_q = cur.imag * s + cur.real * c
    i_d = cur.real * s - cur.imag * c
    p_e = (eqp - m.xdp * i_d) * i_q + (edp + m.xqp * i_q) * i_d
    w_r = m.omega_r
    return np.concatenate(
        [
            omega - w_r,
            w_r / (2.0 * m.H) * (m.pm - p_e - m.D * (omega - w_r) / w_r),
            (m.efd - eqp - (m.xd - m.xdp) * i_d) / m.Td0p,
            ((m.xq - m.xqp) * i_q - edp) / m.Tq0p,
        ],
        axis=-1,
    )


def test_rhs_matches_component_formulas(ieee39_case):
    # a (3, 4K) stack of random states under three networks at random loads,
    # and one (4K,) state under one network
    v, loads, _, init = prefault_setup(ieee39_case)
    rng = np.random.default_rng(21)
    k = ieee39_case.n_gen
    scale = np.repeat([0.5, 2.0, 0.05, 0.05], k)
    states = init.state + scale * rng.standard_normal((3, 4 * k))
    pq = load_pq(loads) * rng.uniform(0.8, 1.2, (3, len(loads), 2))
    cond = NetworkCondition("post-fault", removed_branches=((3, 4),))
    nets = reduce_to_load_buses(ieee39_case, cond, v, []).with_loads(pq)
    for x, net in ((states, nets), (states[1], ReducedNetwork(nets.y[1], nets.recovery[1]))):
        want = component_rhs(x, net.y, init.machines)
        got = rhs(x, net, init.machines)
        assert got.shape == x.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_single_machine_diagonal_network_scalar_check():
    # zero off-diagonal admittance: P_e reduces to the self-admittance term,
    # checked against a direct scalar evaluation
    y11 = 0.4 - 2.5j
    net = ReducedNetwork(
        y=np.array([[y11]]),
        recovery=np.zeros((0, 1), dtype=complex),
    )
    from stochsim.dynamics import MachineSet, pack_state

    m = MachineSet(
        H=np.array([4.0]), D=np.array([1.0]),
        xd=np.array([0.3]), xdp=np.array([0.3]),
        xq=np.array([0.3]), xqp=np.array([0.3]),
        Td0p=np.array([5.0]), Tq0p=np.array([1.0]), Rs=np.array([0.0]),
        omega_r=2 * np.pi * 60,
        efd=np.array([1.0]), pm=np.array([0.5]),
    )
    delta, eqp, edp = 0.4, 1.05, 0.1
    state = pack_state([delta], [m.omega_r], [eqp], [edp])
    out = compute_injections(state, net, m)
    emf = complex(
        edp * np.sin(delta) + eqp * np.cos(delta),
        eqp * np.sin(delta) - edp * np.cos(delta),
    )
    it = y11 * emf
    i_q = it.imag * np.sin(delta) + it.real * np.cos(delta)
    i_d = it.real * np.sin(delta) - it.imag * np.cos(delta)
    p_e = (eqp - 0.3 * i_d) * i_q + (edp + 0.3 * i_q) * i_d
    assert out.p_e[0] == pytest.approx(p_e, rel=1e-14)


def test_emf_at_quarter_turn():
    # delta = pi/2 with e'_d = 0 puts the EMF on the imaginary axis
    from stochsim.dynamics import MachineSet, pack_state

    state = pack_state([np.pi / 2], [377.0], [1.1], [0.0])
    net = ReducedNetwork(
        y=np.eye(1, dtype=complex),
        recovery=np.zeros((0, 1), dtype=complex),
    )
    m = MachineSet(
        H=np.array([4.0]), D=np.array([0.0]),
        xd=np.array([0.3]), xdp=np.array([0.3]),
        xq=np.array([0.3]), xqp=np.array([0.3]),
        Td0p=np.array([5.0]), Tq0p=np.array([1.0]), Rs=np.array([0.0]),
        omega_r=377.0, efd=np.array([1.1]), pm=np.array([0.0]),
    )
    out = compute_injections(state, net, m)
    assert out.emf[0] == pytest.approx(1j * 1.1, abs=1e-15)


def test_smib_power_matches_k_form():
    # the engine's electric power at any angle equals the closed k-expression
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    for delta in (-0.8, 0.0, 0.5, 1.2):
        state = sm.smib_state(p, delta, p.omega_r)
        out = compute_injections(state, net, machines)
        assert out.p_e[0] == pytest.approx(sm.electric_power(p, delta), abs=1e-9)


def test_rhs_matches_smib_oracle_at_perturbed_state():
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    delta0, omega0 = 0.9, p.omega_r + 1.7
    state = sm.smib_state(p, delta0, omega0)
    r = rhs(state, net, machines)
    dd, dw = sm.smib_rhs(p, delta0, omega0)
    assert r[0] == pytest.approx(dd, rel=1e-12)
    assert r[2] == pytest.approx(dw, rel=1e-10)


def test_rhs_omega_dot_zero_when_balanced(smib_case):
    _, _, net, init = prefault_setup(smib_case)
    k = smib_case.n_gen
    r = rhs(init.state, net, init.machines)
    assert np.max(np.abs(r[k : 2 * k])) < 1e-12


def test_solve_equilibrium_prefault_returns_init(smib_case):
    _, loads, _, init = prefault_setup(smib_case)
    x = solve_equilibrium(smib_case, NetworkCondition("pre-fault"), loads)
    assert np.array_equal(x, init.state)


def test_solve_equilibrium_smib_balance(smib_case):
    # at the pre-fault equilibrium the electric power equals P_m exactly
    _, loads, net, init = prefault_setup(smib_case)
    x = solve_equilibrium(smib_case, NetworkCondition("pre-fault"), loads)
    out = compute_injections(x, net, init.machines)
    assert np.allclose(out.p_e, init.machines.pm, atol=1e-9)


def test_solve_equilibrium_overloaded_fails(smib_case):
    import dataclasses

    # generation beyond the transfer limit: the power flow finds no solution
    bus1 = dataclasses.replace(smib_case.buses[0], p_gen=9.0)
    heavy = dataclasses.replace(smib_case, buses=(bus1, smib_case.buses[1]))
    with pytest.raises(PowerFlowError):
        solve_equilibrium(
            heavy, NetworkCondition("pre-fault"),
            {ld.bus: (ld.p, ld.q) for ld in heavy.loads},
        )


def test_solve_equilibrium_without_nominal_speed_equilibrium_fails(ieee39_case):
    # with line 3-4 tripped the post-fault network has no equilibrium at
    # rated speed for the pre-fault inputs; the residual of the pre-fault
    # state is reported, the same on every call
    cond = NetworkCondition("post-fault", removed_branches=((3, 4),))
    loads = {ld.bus: (ld.p, ld.q) for ld in ieee39_case.loads}
    residuals = []
    for _ in range(2):
        with pytest.raises(EquilibriumError, match="no equilibrium") as err:
            solve_equilibrium(ieee39_case, cond, loads)
        residuals.append(err.value.residual)
    assert residuals[0] > 0.1
    assert residuals[1] == residuals[0]


def test_solve_equilibrium_scaled_loads_fail_in_proportion(smib_case):
    # 3K balance equations in 3K - 1 free unknowns: any load change leaves
    # the balance unmet, by a residual proportional to the change
    residuals = []
    for factor in (1.0001, 1.001):
        loads = {ld.bus: (ld.p * factor, ld.q * factor) for ld in smib_case.loads}
        with pytest.raises(EquilibriumError) as err:
            solve_equilibrium(smib_case, NetworkCondition("pre-fault"), loads)
        residuals.append(err.value.residual)
    assert residuals[1] / residuals[0] == pytest.approx(10.0, abs=0.5)


def test_solve_equilibrium_loads_must_cover_the_load_buses(smib_case):
    loads = {ld.bus: (ld.p, ld.q) for ld in smib_case.loads}
    bus = next(iter(loads))
    for wrong in ({}, {**loads, bus + 100: (0.1, 0.0)}):
        with pytest.raises(ValueError, match="exactly the case's load buses"):
            solve_equilibrium(smib_case, NetworkCondition("pre-fault"), wrong)
