import numpy as np
import pytest

from stochsim.sas import (
    SolverConfig,
    WindowWork,
    simulate_sas,
    window_coefficients,
)
from stochsim.scenario import SimulationSetup, load_scenario, Scenario
from stochsim.series import MAX_ORDER
from stochsim import smib as sm
from stochsim.dynamics import _injections, rhs, split_state
from stochsim.network import ReducedNetwork

from test_batch import perturbed_shunts
from test_series import evaluate


def window(work, states, net):
    """The coefficients of one window of an (R, 4K) stack ``states`` in
    ``work``, as a packed (R, 4K, N+1) copy."""
    work.set_state(states)
    return window_coefficients(net, work).reshape(states.shape + (-1,)).copy()


def coefficients(states, net, machines, order):
    """One window of ``states`` in work arrays built for this call."""
    return window(WindowWork(machines, len(states), order), states, net)


def derivative(states, net, work):
    """``rhs`` of an (R, 4K) stack in ``work``, as a copy of its shape."""
    work.set_state(states)
    return rhs(net, work).reshape(states.shape).copy()


def test_constant_series_static_state(smib_case):
    # at the pre-fault equilibrium every derivative vanishes, so the window
    # series is constant and evaluates to the initial state anywhere
    setup = SimulationSetup.build(smib_case, Scenario(horizon_s=1.0))
    net = setup.build_net("pre-fault", setup.mean_shunts[None])
    c = coefficients(setup.x0[None], net, setup.machines, 4)[0]
    assert np.max(np.abs(c[:, 1:])) < 1e-9
    for t in (0.0, 0.1, 0.5):
        assert np.allclose(evaluate(c, t), setup.x0, rtol=0, atol=1e-9)


def test_local_error_order_scaling():
    # one window on the SMIB embedding: the order-N partial sum differs from
    # an order-16 reference by O(h^(N+1)), so halving h divides the error by
    # 2^(N+1)
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    state = sm.smib_state(p, 0.7, p.omega_r + 1.0)[None]
    ref = coefficients(state, net, machines, 16)
    for order in (1, 2, 3, 4):
        c = coefficients(state, net, machines, order)
        errs = [
            np.max(np.abs(evaluate(c, h) - evaluate(ref, h)))
            for h in (0.01, 0.005)
        ]
        measured = np.log2(errs[0] / errs[1])
        assert measured == pytest.approx(order + 1, abs=0.3)


def test_window_coefficients_match_oracle():
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    state = sm.smib_state(p, 0.7, p.omega_r + 1.0)[None]
    c = coefficients(state, net, machines, 2)
    d_hand, w_hand = sm.smib_window_coefficients(p, 0.7, p.omega_r + 1.0)
    assert c.shape == (1, 4 * machines.n_gen, 3)
    assert np.allclose(c[0, 0], d_hand, rtol=1e-10)
    assert np.allclose(c[0, 2], w_hand, rtol=1e-10)


def test_batched_window_coefficients_match_oracle():
    # 16 random SMIB states, drawn from the ranges of the validate check,
    # in one stacked call: the closed forms check every run of the merged
    # runs × generators layout, not one run at a time
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    rng = np.random.default_rng(16)
    d0 = rng.uniform(-1.2, 1.2, 16)
    w0 = p.omega_r + rng.uniform(-3.0, 3.0, 16)
    states = np.stack([sm.smib_state(p, d, w) for d, w in zip(d0, w0)])
    c = coefficients(states, net, machines, 2)
    assert c.shape == (16, 4 * machines.n_gen, 3)
    for i in range(16):
        hands = sm.smib_window_coefficients(p, d0[i], w0[i])
        for hand, eng in zip(hands, c[i, [0, 2]]):  # delta and omega of the machine
            scale = np.maximum(np.abs(hand), 1e-12)
            assert np.max(np.abs(hand - eng) / scale) < 1e-10


def test_window_evaluation_restores_initial_state():
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    state = sm.smib_state(p, 0.3, p.omega_r - 0.5)[None]
    c = coefficients(state, net, machines, 2)
    assert np.array_equal(evaluate(c, 0.0), state)


def test_simulate_equilibrium_preserved(smib_case):
    sc = Scenario(horizon_s=2.0)
    setup = SimulationSetup.build(smib_case, sc)
    tr = simulate_sas(smib_case, sc, SolverConfig(), setup=setup)
    assert not tr.diverged
    drift = np.max(np.abs(tr.states - setup.x0))
    assert drift < 1e-7


def test_simulate_deterministic_repeatability(smib_case):
    sc = Scenario(
        horizon_s=1.0, fault_bus=1, fault_start_s=0.2, fault_duration_cycles=3
    )
    setup = SimulationSetup.build(smib_case, sc)
    tr1 = simulate_sas(smib_case, sc, SolverConfig(), setup=setup)
    tr2 = simulate_sas(smib_case, sc, SolverConfig(), setup=setup)
    assert np.array_equal(tr1.states, tr2.states)


def test_simulate_stochastic_repeatability(smib_case, repo_root):
    import dataclasses

    from stochsim.noise import build_noise_path

    sc = dataclasses.replace(
        load_scenario(repo_root / "scenarios" / "none.json"),
        horizon_s=1.0,
        stochastic_buses=(1,),
        sigma_rel=0.02,
    )
    setup = SimulationSetup.build(smib_case, sc)
    path = build_noise_path((3, 0), setup.n_noise_vars(), 1.0, sc.resample_dt)
    tr1 = simulate_sas(smib_case, sc, SolverConfig(), path, setup=setup)
    tr2 = simulate_sas(smib_case, sc, SolverConfig(), path, setup=setup)
    assert np.array_equal(tr1.states, tr2.states)
    assert tr1.states[1000, 0] != setup.x0[0]  # noise actually acted


def test_simulate_converges_to_reference_on_fault(smib_case):
    # shrinking-window exactness: h = 1e-3 tracks a fine RK4 reference, whose
    # own error at h = 5e-4 is far below the gap (the gap is 9.38e-5 both at
    # this step and at 1e-4)
    sc = Scenario(
        horizon_s=2.0, fault_bus=1, fault_start_s=0.25, fault_duration_cycles=6
    )
    setup = SimulationSetup.build(smib_case, sc)
    tr = simulate_sas(smib_case, sc, SolverConfig(), setup=setup)

    # independent reference: classic fixed-step RK4 on the same staged system
    h = 5e-4
    n = round(sc.horizon_s / h)
    t_fault, t_clear = sc.fault_times(smib_case)
    nets = {
        stage: setup.build_net(stage, setup.mean_shunts[None])
        for stage in ("pre-fault", "fault-on", "post-fault")
    }
    x = setup.x0[None].copy()
    work = WindowWork(setup.machines, 1, 1)
    ref = [x[0].copy()]
    for i in range(n):
        t = i * h
        stage = (
            "pre-fault"
            if t < t_fault - 1e-12
            else ("fault-on" if t < t_clear - 1e-12 else "post-fault")
        )
        net = nets[stage]
        k1 = derivative(x, net, work)
        k2 = derivative(x + 0.5 * h * k1, net, work)
        k3 = derivative(x + 0.5 * h * k2, net, work)
        k4 = derivative(x + h * k3, net, work)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ref.append(x[0].copy())
    ref = np.array(ref)
    # compare rotor angles on the coarse grid; the reference's stage
    # boundaries are aligned to its own fine grid, giving O(h_ref) offsets
    k = smib_case.n_gen
    coarse = ref[::2, :k]
    err = np.max(np.abs(tr.states[:, :k] - coarse))
    assert err < 1e-3


def test_global_order_of_a_staged_run(smib_case):
    # a whole run, fault and clearing included, has global error O(h^N) at
    # order N: halving h divides the rotor-angle error against an N = 12,
    # h = 0.005 reference by 2^N.  At h = 0.02 the fault (0.25 s) and the
    # clearing (0.35 s) each split a window; at h = 0.01 both fall on the
    # grid.  Every run records on the same 0.1 s grid
    sc = Scenario(
        horizon_s=2.0, fault_bus=1, fault_start_s=0.25, fault_duration_cycles=6
    )
    setup = SimulationSetup.build(smib_case, sc)
    k = smib_case.n_gen

    def angles(order, h, out_stride):
        config = SolverConfig(order=order, window=h)
        tr = simulate_sas(smib_case, sc, config, setup=setup, out_stride=out_stride)
        return tr.states[:, :k]

    ref = angles(12, 0.005, 20)
    for order in (2, 3, 4):
        errs = [np.max(np.abs(angles(order, h, s) - ref)) for h, s in ((0.02, 5), (0.01, 10))]
        assert np.log2(errs[0] / errs[1]) == pytest.approx(order, abs=0.3)


def test_window_must_not_exceed_resample(smib_case):
    sc = Scenario(horizon_s=1.0, stochastic_buses=(1,), sigma_rel=0.01, resample_dt=0.1)
    setup = SimulationSetup.build(smib_case, sc)
    from stochsim.noise import build_noise_path

    path = build_noise_path(0, 2, 1.0, 0.1)
    with pytest.raises(ValueError):
        simulate_sas(smib_case, sc, SolverConfig(window=0.2), path, setup=setup)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(order=0)
    with pytest.raises(ValueError):
        SolverConfig(window=0.0)


@pytest.fixture(scope="module")
def ieee39_windows(ieee39_case, repo_root):
    # 17 caseC runs on the post-fault network, loads and states perturbed by 5%
    scenario = load_scenario(repo_root / "scenarios" / "caseC.json")
    setup = SimulationSetup.build(ieee39_case, scenario)
    rng = np.random.default_rng(39)
    shunts = perturbed_shunts(setup, rng, 17)
    x = setup.x0 * (1.0 + 0.05 * rng.standard_normal((17, setup.x0.size)))
    return setup, setup.build_net("post-fault", shunts), x


def runs_of(net: ReducedNetwork, rows) -> ReducedNetwork:
    return ReducedNetwork(y=net.y[rows], recovery=net.recovery[rows])


@pytest.mark.parametrize("order", [1, 2, 4, 6, 9])
def test_ieee39_window_identical_alone_and_in_any_batch(ieee39_windows, order):
    # each run's coefficients take the same bits alone, in the batch of 17,
    # in the reversed batch and in reused work arrays
    setup, net, x = ieee39_windows
    machines = setup.machines
    batch = coefficients(x, net, machines, order)
    reverse = slice(None, None, -1)
    work = WindowWork(machines, 17, order)
    backwards = window(work, x[reverse], runs_of(net, reverse))
    in_work = window(work, x, net)  # the arrays the reversed batch wrote
    assert batch.shape == (17, x.shape[1], order + 1)
    assert np.array_equal(in_work, batch)
    work_one = WindowWork(machines, 1, order)
    for i in range(17):
        one = slice(i, i + 1)
        alone = coefficients(x[one], runs_of(net, one), machines, order)
        assert np.array_equal(alone[0], batch[i])
        assert np.array_equal(backwards[16 - i], batch[i])
        reused = window(work_one, x[one], runs_of(net, one))
        assert np.array_equal(reused[0], batch[i])
    assert not np.array_equal(batch[0], batch[1])


def test_window_at_the_highest_order(ieee39_windows):
    # the per-order tables at their last entry: a 2-run window at MAX_ORDER
    # builds, is finite and gives each run the bits it has alone
    setup, net, x = ieee39_windows
    two = slice(0, 2)
    batch = coefficients(x[two], runs_of(net, two), setup.machines, MAX_ORDER)
    assert batch.shape == (2, x.shape[1], MAX_ORDER + 1)
    assert np.isfinite(batch).all()
    for i in range(2):
        one = slice(i, i + 1)
        alone = coefficients(x[one], runs_of(net, one), setup.machines, MAX_ORDER)
        assert np.array_equal(alone[0], batch[i])


def test_work_arrays_keep_nothing_between_windows(ieee39_windows):
    # windows over different states and networks, alternating in one set of
    # work arrays, each give the bits of a call with fresh arrays; a result
    # is a view of the work arrays, which the next window overwrites
    setup, post, x = ieee39_windows
    machines = setup.machines
    rng = np.random.default_rng(4)
    shunts = perturbed_shunts(setup, rng, 17)
    nets = [post, setup.build_net("fault-on", shunts), setup.build_net("pre-fault", shunts)]
    states = [x, x[::-1].copy(), setup.x0 + 0.1 * rng.standard_normal(x.shape)]
    work = WindowWork(machines, 17, 4)
    last = None
    for i in range(9):
        args = (states[i % 3], nets[(i * 2) % 3])
        work.set_state(args[0])
        got = window_coefficients(args[1], work)
        assert np.shares_memory(got, work.coeffs)
        if last is not None:
            assert not np.array_equal(got, last)  # overwritten in place
        assert np.array_equal(got.reshape(17, -1, 5), coefficients(*args, machines, 4))
        last = got.copy()
    # a stack of another size does not fit the arrays
    with pytest.raises(ValueError):
        work.set_state(x[:3])


def injection_derivative(state, y, m):
    """The model's time derivative from the complex-form ``dynamics._injections``."""
    delta, omega, eqp, edp = split_state(state)
    _, _, i_q, i_d, _, _, p_e = _injections(delta, eqp, edp, y, m)
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


def test_ieee39_order_one_is_the_right_hand_side(ieee39_windows):
    # rhs, the kernel's order-0 pass, and the order-1 coefficients of a
    # window both equal the derivative written from the complex-form
    # injections, for 3-run stacks of random states at random loads on
    # every stage
    setup, _, x = ieee39_windows
    machines = setup.machines
    rng = np.random.default_rng(12)
    work = WindowWork(machines, 3, 1)
    for stage in ("pre-fault", "fault-on", "post-fault"):
        net = setup.build_net(stage, perturbed_shunts(setup, rng, 3))
        states = x[:3] + 0.1 * rng.standard_normal((3, x.shape[1]))
        want = injection_derivative(states, net.y, machines)
        assert np.all(np.abs(want) > 1e-6)  # no entry is near a cancellation
        f = derivative(states, net, work)
        c = coefficients(states, net, machines, 3)
        assert np.array_equal(c[..., 0], states)
        assert np.max(np.abs(f - want) / np.abs(want)) < 1e-12
        assert np.max(np.abs(c[..., 1] - want) / np.abs(want)) < 1e-12
