import numpy as np
import pytest

from stochsim.dynamics import (
    EquilibriumError,
    WindowWork,
    _injections,
    derivative_coeffs,
    init_dynamic_state,
    rhs,
    solve_equilibrium,
    split_state,
)
from stochsim.network import NetworkCondition, ReducedNetwork, reduce_to_load_buses
from stochsim.powerflow import PowerFlowError, solve_power_flow
from stochsim.series import cauchy_operands, dot_coeff, product_coeffs
from stochsim import smib as sm

from test_network import load_pq


def derivative(state, net, machines):
    """``rhs`` of one (4K,) state or an (R, 4K) stack, in work arrays built for
    it, in the shape of ``state``."""
    work = WindowWork(machines, 1 if state.ndim == 1 else len(state), 1)
    work.set_state(state)
    return rhs(net, work).reshape(state.shape)


def prefault_setup(case):
    v = solve_power_flow(case)
    loads = {ld.bus: (ld.p, ld.q) for ld in case.loads}
    pq = load_pq(loads)
    cond = NetworkCondition("pre-fault")
    first = reduce_to_load_buses(case, cond, v, np.arange(case.n_bus), case.load_buses)
    net = first.with_loads(first.shunts(pq))
    x0, machines = init_dynamic_state(case, v, net)
    return v, loads, net, x0, machines


def test_init_is_equilibrium_smib(smib_case):
    _, _, net, x0, machines = prefault_setup(smib_case)
    res = derivative(x0, net, machines)
    assert np.max(np.abs(res)) < 1e-9


def test_init_is_equilibrium_ieee39(ieee39_case):
    _, _, net, x0, machines = prefault_setup(ieee39_case)
    res = derivative(x0, net, machines)
    assert np.max(np.abs(res)) < 1e-9


def test_init_speeds_at_rated(ieee39_case):
    _, _, _, x0, machines = prefault_setup(ieee39_case)
    _, omega, _, _ = split_state(x0)
    assert np.allclose(omega, machines.omega_r, rtol=0, atol=0)


def test_injection_identities_reevaluated(ieee39_case):
    # re-evaluate every defining relation of the outputs independently
    _, _, net, x0, machines = prefault_setup(ieee39_case)
    state = x0 + 1e-3  # arbitrary nearby state
    delta, _, eqp, edp = split_state(state)
    out_emf, out_it, out_iq, out_id, out_eq, out_ed, out_pe = _injections(
        delta, eqp, edp, net.y, machines
    )
    emf = (edp * np.sin(delta) + eqp * np.cos(delta)) + 1j * (
        eqp * np.sin(delta) - edp * np.cos(delta)
    )
    assert np.max(np.abs(emf - out_emf)) < 1e-12
    it = net.y @ emf
    assert np.max(np.abs(it.real - out_it.real)) < 1e-12
    assert np.max(np.abs(it.imag - out_it.imag)) < 1e-12
    i_q = out_it.imag * np.sin(delta) + out_it.real * np.cos(delta)
    i_d = out_it.real * np.sin(delta) - out_it.imag * np.cos(delta)
    assert np.max(np.abs(i_q - out_iq)) < 1e-12
    assert np.max(np.abs(i_d - out_id)) < 1e-12
    e_q = eqp - machines.xdp * out_id
    e_d = edp + machines.xqp * out_iq
    assert np.max(np.abs(e_q - out_eq)) < 1e-12
    assert np.max(np.abs(e_d - out_ed)) < 1e-12
    p_e = e_q * out_iq + e_d * out_id
    assert np.max(np.abs(p_e - out_pe)) < 1e-12


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
    v, loads, _, x0, machines = prefault_setup(ieee39_case)
    rng = np.random.default_rng(21)
    k = ieee39_case.n_gen
    scale = np.repeat([0.5, 2.0, 0.05, 0.05], k)
    states = x0 + scale * rng.standard_normal((3, 4 * k))
    pq = load_pq(loads) * rng.uniform(0.8, 1.2, (3, len(loads), 2))
    cond = NetworkCondition("post-fault", removed_branches=((3, 4),))
    first = reduce_to_load_buses(ieee39_case, cond, v, [], ieee39_case.load_buses)
    nets = first.with_loads(first.shunts(pq))
    for x, net in ((states, nets), (states[1], ReducedNetwork(nets.y[1], nets.recovery[1]))):
        want = component_rhs(x, net.y, machines)
        got = derivative(x, net, machines)
        assert got.shape == x.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_sparse_machine_map_keeps_the_dense_maps_bits(ieee39_case):
    # the dense (4, 6) map per generator over (omega, e'q, e'd, p_e, i_d,
    # i_q), with the seven entries it holds, against every order of a
    # 3-run window whose state terms are random
    v, loads, _, _, m = prefault_setup(ieee39_case)
    rng = np.random.default_rng(29)
    pq = load_pq(loads) * rng.uniform(0.8, 1.2, (3, len(loads), 2))
    cond = NetworkCondition("pre-fault")
    first = reduce_to_load_buses(ieee39_case, cond, v, [], ieee39_case.load_buses)
    y = first.with_loads(first.shunts(pq)).y
    half_h = m.omega_r / (2.0 * m.H)
    dense = np.zeros((4, 6, m.n_gen))
    dense[0, 0] = 1.0
    dense[1, 0] = -half_h * m.D / m.omega_r
    dense[1, 3] = -half_h
    dense[2, 1] = -1.0 / m.Td0p
    dense[2, 4] = -(m.xd - m.xdp) / m.Td0p
    dense[3, 2] = -1.0 / m.Tq0p
    dense[3, 5] = (m.xq - m.xqp) / m.Tq0p
    dense = np.tile(dense, 3)
    work = WindowWork(m, 3, 6)
    w = work.eq_ed.base  # (N+1, fields, R·K): every series of the window
    assert w.shape[::2] == (7, 3 * m.n_gen)
    w[...] = rng.standard_normal(w.shape)
    for n, d_n in enumerate(work.d_delta.base):
        derivative_coeffs(y, work, n)
        want = np.einsum("fjk,jk->fk", dense, w[n, 1:7])
        if n == 0:
            want += work.const
        assert np.array_equal(d_n, want)


def reference_order(w, i_net, deriv, y, m, n_runs, n):
    """Order n of the model on fresh slices of (N+1, 13, R·K) terms ``w``,
    (N+1, 2, R·K) network currents ``i_net`` and (N, 4, R·K) derivative
    terms ``deriv``, written into all three.

    Each series kernel slices its operands here for this order alone; the
    fields are laid out as in WindowWork, the stator pair as (e_qt, e_dt),
    and order 0 holds (i_q, i_d) again in fields 7 and 8.
    """
    sc, eq_ed, id_iq, d_delta = w[:, 11:13], w[:, 2:4], w[:, 5:7], deriv[:, 0]
    ed_eq = eq_ed[:, ::-1]
    if n:
        t = np.einsum("m...k,m...jk->...jk", d_delta[:n], sc[n - 1 :: -1])
        sc[n] = t[::-1] / np.array([[n], [-n]])
        p = np.einsum("m...ak,m...bk->...abk", eq_ed[: n + 1], sc[n::-1])
    else:
        sc[0] = np.sin(w[0, 0]), np.cos(w[0, 0])
        p = eq_ed[0, :, None] * sc[0, None]
    emf = (p[0, 1] + p[1, 0]) + 1j * (p[0, 0] - p[1, 1])  # e'q c + e'd s, e'q s - e'd c
    cur = (y @ emf.reshape(n_runs, -1, 1)).reshape(-1)
    i_net[n] = cur.real, cur.imag
    if n:
        q = np.einsum("m...ak,m...bk->...abk", i_net[: n + 1], sc[n::-1])
    else:
        q = i_net[0, :, None] * sc[0, None]
    id_iq[n] = q[0, 0] - q[1, 1], q[0, 1] + q[1, 0]  # i_r s - i_i c, i_r c + i_i s
    # the stator voltages (e_d, e_q) = (x'q, -x'd) (i_q, i_d) + (e'd, e'q)
    x_t = np.tile(np.stack([m.xqp, -m.xdp]), n_runs)
    e_d_e_q = w[n, 10:8:-1]
    e_d_e_q[...] = x_t * id_iq[n, ::-1] + ed_eq[n]
    if n:
        w[n, 4] = np.einsum("m...jk,m...jk->...k", w[: n + 1, 10:8:-1], id_iq[n::-1])
    else:
        w[0, 4] = e_d_e_q[0] * id_iq[0, 0] + e_d_e_q[1] * id_iq[0, 1]
        w[0, 7:9] = id_iq[0, ::-1]
    half_h = m.omega_r / (2.0 * m.H)
    a_b = np.tile(
        np.stack(
            [
                [-half_h * m.D / m.omega_r, -1.0 / m.Td0p, -1.0 / m.Tq0p],
                [-half_h, -(m.xd - m.xdp) / m.Td0p, (m.xq - m.xqp) / m.Tq0p],
            ]
        ),
        n_runs,
    )
    deriv[n, 0] = w[n, 1]
    deriv[n, 1:] = a_b[0] * w[n, 1:4] + a_b[1] * w[n, 4:7]
    return p, q


def test_prepared_views_keep_the_slicing_kernels_bits(ieee39_case):
    # every order of a 3-run window of order 8 whose every slab is random,
    # against a pass that slices each kernel's operands afresh; NaN in every
    # order above n must not reach order n
    v, loads, _, _, m = prefault_setup(ieee39_case)
    rng = np.random.default_rng(32)
    pq = load_pq(loads) * rng.uniform(0.8, 1.2, (3, len(loads), 2))
    first = reduce_to_load_buses(
        ieee39_case, NetworkCondition("pre-fault"), v, [], ieee39_case.load_buses
    )
    y = first.with_loads(first.shunts(pq)).y
    order = 8
    work = WindowWork(m, 3, order)
    w, i_net, deriv = work.eq_ed.base, work.i_net, work.d_delta.base
    assert w.shape[1] == 13 and np.shares_memory(i_net, work.currents)
    terms, deriv_terms = rng.standard_normal(w.shape), rng.standard_normal(deriv.shape)
    currents = rng.standard_normal(i_net.shape)
    for n in range(order):
        w[...], i_net[...], deriv[...] = terms, currents, deriv_terms
        w[n + 1 :] = i_net[n + 1 :] = deriv[n + 1 :] = np.nan
        derivative_coeffs(y, work, n)
        want_w, want_i_net, want_deriv = terms.copy(), currents.copy(), deriv_terms.copy()
        p, q = reference_order(want_w, want_i_net, want_deriv, y, m, 3, n)
        if n == 0:
            want_deriv[0] += work.const
        assert np.array_equal(w[n], want_w[n])  # sc, id_iq, e_t and p_e
        assert np.array_equal(i_net[n], want_i_net[n])
        assert np.array_equal(deriv[n], want_deriv[n])
        assert np.array_equal(work.pair, q)
        if n:
            # the kernels on the operands WindowWork binds, i_net read through
            # its interleaved view of the complex current series
            e_t_id_iq = cauchy_operands(work.e_t[:, ::-1], work.id_iq, n)
            assert np.array_equal(product_coeffs(*cauchy_operands(work.eq_ed, work.sc, n))(), p)
            assert np.array_equal(product_coeffs(*cauchy_operands(i_net, work.sc, n))(), q)
            assert np.array_equal(dot_coeff(*e_t_id_iq)(), want_w[n, 4])
        assert not np.isnan(w[: n + 1]).any() and not np.isnan(i_net[: n + 1]).any()
        assert not np.isnan(deriv[: n + 1]).any()


# The bound calls whose operands may be reversed views: the series kernels'
# einsums read orders n..0 and the (cos, sin) pair backwards by design.
REVERSED_OPERANDS_OK = ("einsum",)


def call_operands(call):
    """(inputs, out) of one bound numpy call of a WindowWork."""
    func, args = call.func, call.args
    if func is np.einsum:
        return list(args[1:]), call.keywords["out"]
    if func is np.copyto:
        return [args[1]], args[0]
    assert isinstance(func, np.ufunc) and not call.keywords, func
    return list(args[: func.nin]), args[func.nin]


@pytest.mark.parametrize("n_runs", [1, 3])
@pytest.mark.parametrize("order", [1, 2, 6])
def test_every_bound_call_is_on_numpys_fast_path(ieee39_case, n_runs, order):
    # each call numpy runs per window or per Euler step is given operands
    # that take no slow path: arrays only, no reversed elementwise operand,
    # an in-place output as the very object that is read, and no broadcast
    # but the order-0 pair products of (e'q, e'd) and (i_r, i_i) with
    # (sin, cos)
    v, loads, _, _, m = prefault_setup(ieee39_case)
    first = reduce_to_load_buses(
        ieee39_case, NetworkCondition("pre-fault"), v, [], ieee39_case.load_buses
    )
    pq = np.broadcast_to(load_pq(loads), (n_runs,) + load_pq(loads).shape)
    work = WindowWork(m, n_runs, order)
    y = first.with_loads(first.shunts(pq)).y
    work.bind_network(y)
    assert work.y is y
    # the window is every order's calls in turn, with its network product
    # and its integration
    want = []
    for n, ((before, emf, currents, after), integrate) in enumerate(
        zip(work.orders, work.integrate)
    ):
        assert emf is work.emf and np.array_equal(currents, work.currents[n])
        want += [*before, (y, emf, currents), *after, integrate]
    assert len(work.window) == len(want)
    for call, expected in zip(work.window, want):
        if isinstance(expected, tuple):  # the network product of its order
            assert call.func is np.matmul
            assert all(a is b for a, b in zip(call.args, expected, strict=True))
        else:
            assert call is expected
    broadcasting = []
    for call in work.window:
        inputs, out = call_operands(call)
        name = call.func.__name__
        for a in (*inputs, out):
            assert isinstance(a, np.ndarray), (name, a)  # no Python or NumPy scalar
            if name not in REVERSED_OPERANDS_OK:
                assert all(s >= 0 for s in a.strides), name
        for a in inputs:
            assert a is out or not np.shares_memory(a, out), name
        if call.func is np.matmul:
            loop = [a.shape[:-2] for a in (*inputs, out)]
        elif call.func is not np.einsum:  # a 0-d constant is no broadcast
            loop = [a.shape for a in (*inputs, out) if a.ndim]
        else:
            continue
        if any(shape != loop[-1] for shape in loop):
            broadcasting.append(call)
    (before, _, _, after) = work.orders[0]
    assert broadcasting == [before[2], after[0]]


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
        Td0p=np.array([5.0]), Tq0p=np.array([1.0]),
        omega_r=2 * np.pi * 60,
        efd=np.array([1.0]), pm=np.array([0.5]),
    )
    delta, eqp, edp = 0.4, 1.05, 0.1
    state = pack_state([delta], [m.omega_r], [eqp], [edp])
    d_b, _, eqp_b, edp_b = split_state(state)
    p_e_out = _injections(d_b, eqp_b, edp_b, net.y, m)[-1]
    emf = complex(
        edp * np.sin(delta) + eqp * np.cos(delta),
        eqp * np.sin(delta) - edp * np.cos(delta),
    )
    it = y11 * emf
    i_q = it.imag * np.sin(delta) + it.real * np.cos(delta)
    i_d = it.real * np.sin(delta) - it.imag * np.cos(delta)
    p_e = (eqp - 0.3 * i_d) * i_q + (edp + 0.3 * i_q) * i_d
    assert p_e_out[0] == pytest.approx(p_e, rel=1e-14)


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
        Td0p=np.array([5.0]), Tq0p=np.array([1.0]),
        omega_r=377.0, efd=np.array([1.1]), pm=np.array([0.0]),
    )
    delta, _, eqp, edp = split_state(state)
    emf = _injections(delta, eqp, edp, net.y, m)[0]
    assert emf[0] == pytest.approx(1j * 1.1, abs=1e-15)


def test_smib_power_matches_k_form():
    # the engine's electric power at any angle equals the closed k-expression
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    for delta in (-0.8, 0.0, 0.5, 1.2):
        d, _, eqp, edp = split_state(sm.smib_state(p, delta, p.omega_r))
        p_e = _injections(d, eqp, edp, net.y, machines)[-1]
        assert p_e[0] == pytest.approx(sm.electric_power(p, delta), abs=1e-9)


def test_rhs_matches_smib_oracle_at_perturbed_state():
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    delta0, omega0 = 0.9, p.omega_r + 1.7
    state = sm.smib_state(p, delta0, omega0)
    r = derivative(state, net, machines)
    dd, dw = sm.smib_rhs(p, delta0, omega0)
    assert r[0] == pytest.approx(dd, rel=1e-12)
    assert r[2] == pytest.approx(dw, rel=1e-10)


def test_rhs_omega_dot_zero_when_balanced(smib_case):
    _, _, net, x0, machines = prefault_setup(smib_case)
    k = smib_case.n_gen
    r = derivative(x0, net, machines)
    assert np.max(np.abs(r[k : 2 * k])) < 1e-12


def test_solve_equilibrium_prefault_returns_init(smib_case):
    _, loads, _, x0, _ = prefault_setup(smib_case)
    x = solve_equilibrium(smib_case, NetworkCondition("pre-fault"), loads)
    assert np.array_equal(x, x0)


def test_stability_reference_is_the_setup_start(ieee39_case, repo_root):
    # the equilibrium `stochsim run` solves for the stability criterion is
    # the state every caseC run starts from, bit for bit, with bus 30
    # monitored: the second power flow gives nothing the setup lacks
    from stochsim.scenario import SimulationSetup, load_scenario

    scenario = load_scenario(repo_root / "scenarios" / "caseC.json")
    assert scenario.monitor_buses == (30,)
    setup = SimulationSetup.build(ieee39_case, scenario)
    x_eq = solve_equilibrium(
        ieee39_case, NetworkCondition("pre-fault"), dict(setup.mean_loads)
    )
    assert np.array_equal(x_eq, setup.x0)


def test_solve_equilibrium_smib_balance(smib_case):
    # at the pre-fault equilibrium the electric power equals P_m exactly
    _, loads, net, _, machines = prefault_setup(smib_case)
    x = solve_equilibrium(smib_case, NetworkCondition("pre-fault"), loads)
    delta, _, eqp, edp = split_state(x)
    p_e = _injections(delta, eqp, edp, net.y, machines)[-1]
    assert np.allclose(p_e, machines.pm, atol=1e-9)


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
