import numpy as np
import pytest

from stochsim.sas import MachineMap, SolverConfig, simulate_sas, window_coefficients
from stochsim.scenario import SimulationSetup, load_scenario, Scenario
from stochsim.series import series_eval
from stochsim import smib as sm
from stochsim.dynamics import rhs
from stochsim.network import ReducedNetwork


def test_constant_series_static_state(smib_case):
    # at the pre-fault equilibrium every derivative vanishes, so the window
    # series is constant and evaluates to the initial state anywhere
    setup = SimulationSetup.build(smib_case, Scenario(horizon_s=1.0))
    net = setup.build_net("pre-fault", setup.mean_pq[None])
    mmap = MachineMap.from_machines(setup.machines)
    c = window_coefficients(setup.x0[None], net, mmap, order=4)[0]
    assert np.max(np.abs(c[:, 1:])) < 1e-9
    for t in (0.0, 0.1, 0.5):
        assert np.allclose(series_eval(c, t), setup.x0, rtol=0, atol=1e-9)


def test_local_error_order_scaling():
    # one window on the SMIB embedding: the order-N partial sum differs from
    # an order-16 reference by O(h^(N+1)), so halving h divides the error by
    # 2^(N+1)
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    mmap = MachineMap.from_machines(machines)
    state = sm.smib_state(p, 0.7, p.omega_r + 1.0)
    ref = window_coefficients(state, net, mmap, 16)
    for order in (1, 2, 3, 4):
        c = window_coefficients(state, net, mmap, order)
        errs = [
            np.max(np.abs(series_eval(c, h) - series_eval(ref, h)))
            for h in (0.01, 0.005)
        ]
        measured = np.log2(errs[0] / errs[1])
        assert measured == pytest.approx(order + 1, abs=0.3)


def test_window_coefficients_match_oracle():
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    c = window_coefficients(
        sm.smib_state(p, 0.7, p.omega_r + 1.0),
        net,
        MachineMap.from_machines(machines),
        order=2,
    )
    d_hand, w_hand = sm.smib_window_coefficients(p, 0.7, p.omega_r + 1.0)
    assert c.shape == (4 * machines.n_gen, 3)
    assert np.allclose(c[0], d_hand, rtol=1e-10)
    assert np.allclose(c[2], w_hand, rtol=1e-10)


def test_window_evaluation_restores_initial_state():
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    state = sm.smib_state(p, 0.3, p.omega_r - 0.5)
    c = window_coefficients(state, net, MachineMap.from_machines(machines), order=2)
    assert np.array_equal(series_eval(c, 0.0), state)


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
        stage: setup.build_net(stage, setup.mean_pq[None])
        for stage in ("pre-fault", "fault-on", "post-fault")
    }
    x = setup.x0[None].copy()
    ref = [x[0].copy()]
    for i in range(n):
        t = i * h
        stage = (
            "pre-fault"
            if t < t_fault - 1e-12
            else ("fault-on" if t < t_clear - 1e-12 else "post-fault")
        )
        net = nets[stage]
        k1 = rhs(x, net, setup.machines)
        k2 = rhs(x + 0.5 * h * k1, net, setup.machines)
        k3 = rhs(x + 0.5 * h * k2, net, setup.machines)
        k4 = rhs(x + h * k3, net, setup.machines)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ref.append(x[0].copy())
    ref = np.array(ref)
    # compare rotor angles on the coarse grid; the reference's stage
    # boundaries are aligned to its own fine grid, giving O(h_ref) offsets
    k = smib_case.n_gen
    coarse = ref[::2, :k]
    err = np.max(np.abs(tr.states[:, :k] - coarse))
    assert err < 1e-3


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
    pq = setup.mean_pq * (1.0 + 0.05 * rng.standard_normal((17,) + setup.mean_pq.shape))
    x = setup.x0 * (1.0 + 0.05 * rng.standard_normal((17, setup.x0.size)))
    return setup, setup.build_net("post-fault", pq), x


def runs_of(net: ReducedNetwork, rows) -> ReducedNetwork:
    return ReducedNetwork(y=net.y[rows], recovery=net.recovery[rows])


@pytest.mark.parametrize("order", [1, 2, 4, 6, 9])
def test_ieee39_window_identical_alone_and_in_any_batch(ieee39_windows, order):
    # each run's coefficients take the same bits alone, unbatched, in the
    # batch of 17 and in the reversed batch
    setup, net, x = ieee39_windows
    mmap = MachineMap.from_machines(setup.machines)
    batch = window_coefficients(x, net, mmap, order)
    reverse = slice(None, None, -1)
    backwards = window_coefficients(x[reverse], runs_of(net, reverse), mmap, order)
    assert batch.shape == (17, x.shape[1], order + 1)
    for i in range(17):
        one = slice(i, i + 1)
        alone = window_coefficients(x[one], runs_of(net, one), mmap, order)
        unbatched = window_coefficients(x[i], runs_of(net, i), mmap, order)
        assert np.array_equal(alone[0], batch[i])
        assert np.array_equal(unbatched, batch[i])
        assert np.array_equal(backwards[16 - i], batch[i])
    assert not np.array_equal(batch[0], batch[1])


def test_ieee39_order_one_is_the_right_hand_side(ieee39_windows):
    # dynamics.rhs is a separate implementation of the model: the order-1
    # coefficients are the time derivative at the window start
    setup, net, x = ieee39_windows
    c = window_coefficients(x, net, MachineMap.from_machines(setup.machines), 3)
    f = rhs(x, net, setup.machines)
    assert np.array_equal(c[..., 0], x)
    assert np.all(np.abs(f) > 1e-6)  # no entry is near a cancellation
    assert np.max(np.abs(c[..., 1] - f) / np.abs(f)) < 1e-12
