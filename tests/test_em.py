import math

import numpy as np
import pytest

from stochsim.dynamics import WindowWork
from stochsim.em import EMConfig, euler_det_step, simulate_em
from stochsim.noise import build_noise_path, load_schedule
from stochsim.sas import SolverConfig, simulate_sas, window_step
from stochsim.scenario import Scenario, SimulationSetup, load_scenario
from stochsim import smib as sm

from test_batch import perturbed_shunts


def euler(state, net, work, dt):
    """One Euler step of a (4K,) state or an (R, 4K) stack in ``work``, as a
    copy of its shape."""
    work.set_state(state)
    euler_det_step(net, work, dt)
    return work.state.reshape(np.shape(state)).copy()


def test_em_sde_step_stationary_variance():
    # Euler-Maruyama turns the OU equation into the AR(1) recursion
    # eps' = (1 - a dt) eps + b dW, whose stationary variance is
    # b^2 / (2a - a^2 dt): at a dt = 0.1 that is 5.3% above the continuum
    # b^2/2a = 1, and b off by 5% moves it by about 10%. 2,000 variables of
    # one path, 600 rows each after a burn-in of 50 rows (bias
    # (1 - a dt)^100 = 3e-5), pool N = 1.2e6 draws whose lag-1 correlation
    # 1 - a dt = 0.9 leaves an effective share (1 - 0.81) / (1 + 0.81) =
    # 0.105, so the relative SE is sqrt(2/(0.105 N)) = 0.40%; the 2%
    # tolerance spans 5 SE.
    a, b, dt = 5.0, math.sqrt(10.0), 0.02
    n_vars, burn_in, rows = 2_000, 50, 600
    path = build_noise_path(42, n_vars, (burn_in + rows) * dt, dt)
    eps = load_schedule(np.zeros(n_vars), a, np.full(n_vars, b), [path], dt, euler=True)[0]
    target = b**2 / (2.0 * a - a**2 * dt)
    assert np.var(eps[burn_in:]) == pytest.approx(target, rel=0.02)


def test_euler_det_step_scalar_decay():
    # packaged form of x' = -x via a single-machine zero-coupling system is
    # overkill; the scalar contract is the arithmetic itself
    from stochsim.dynamics import MachineSet, pack_state
    from stochsim.network import ReducedNetwork

    net = ReducedNetwork(
        y=np.zeros((1, 1), dtype=complex),
        recovery=np.zeros((0, 1), dtype=complex),
    )
    m = MachineSet(
        H=np.array([1.0]), D=np.array([0.0]),
        xd=np.array([0.3]), xdp=np.array([0.3]),
        xq=np.array([0.3]), xqp=np.array([0.3]),
        Td0p=np.array([1.0]), Tq0p=np.array([1.0]),
        omega_r=1.0, efd=np.array([0.0]), pm=np.array([0.0]),
    )
    # e'_q decays as de'_q/dt = (efd - e'_q)/Td0p = -e'_q here
    x = pack_state([0.0], [1.0], [1.0], [0.0])
    out = euler(x, net, WindowWork(m, 1, 1), 0.1)
    assert out[2] == pytest.approx(0.9)


def test_euler_step_matches_smib_hand_update():
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    d0, w0 = 0.8, p.omega_r + 1.2
    state = sm.smib_state(p, d0, w0)
    dt = 1e-3
    out = euler(state, net, WindowWork(machines, 1, 1), dt)
    dd, dw = sm.smib_rhs(p, d0, w0)
    assert out[0] == pytest.approx(d0 + dt * dd, rel=1e-12)
    assert out[2] == pytest.approx(w0 + dt * dw, rel=1e-10)


def test_euler_step_is_the_order_one_window(ieee39_case, repo_root):
    # rhs is the series kernel's order-0 pass, so an Euler step takes the
    # bits of the order-1 window evaluated at the step, for every stage and
    # a stack of 5 runs at perturbed states and loads
    scenario = load_scenario(repo_root / "scenarios" / "caseC.json")
    setup = SimulationSetup.build(ieee39_case, scenario)
    rng = np.random.default_rng(25)
    x = setup.x0 * (1.0 + 0.05 * rng.standard_normal((5, setup.x0.size)))
    shunts = perturbed_shunts(setup, rng, 5)
    step_work, window_work = WindowWork(setup.machines, 5, 1), WindowWork(setup.machines, 5, 1)
    for stage in ("pre-fault", "fault-on", "post-fault"):
        net = setup.build_net(stage, shunts)
        for dt in (1e-3, 0.0123):
            step = euler(x, net, step_work, dt)
            window_work.set_state(x)
            window_step(net, window_work, dt)
            window = window_work.state.reshape(x.shape)
            assert np.array_equal(step, window)
            assert not np.array_equal(step, x)


def test_em_equilibrium_preserved(smib_case):
    sc = Scenario(horizon_s=2.0)
    setup = SimulationSetup.build(smib_case, sc)
    tr = simulate_em(smib_case, sc, EMConfig(), setup=setup)
    assert np.max(np.abs(tr.states - setup.x0)) < 1e-7


def test_em_determinism_same_seed(smib_case):
    sc = Scenario(horizon_s=1.0, stochastic_buses=(1,), sigma_rel=0.02)
    setup = SimulationSetup.build(smib_case, sc)
    path = build_noise_path((9, 0), setup.n_noise_vars(), 1.0, sc.resample_dt)
    tr1 = simulate_em(smib_case, sc, EMConfig(), path, setup=setup)
    tr2 = simulate_em(smib_case, sc, EMConfig(), path, setup=setup)
    assert np.array_equal(tr1.states, tr2.states)


def test_em_first_order_richardson(smib_case):
    # deterministic fault run: halving dt halves the error vs a tight
    # reference, SAS at order 6 on the same 4e-3 grid (its own error is
    # orders of magnitude below Euler's)
    sc = Scenario(
        horizon_s=1.5, fault_bus=1, fault_start_s=0.2, fault_duration_cycles=3
    )
    setup = SimulationSetup.build(smib_case, sc)
    ref = simulate_sas(smib_case, sc, SolverConfig(order=6, window=4e-3), setup=setup)
    k = smib_case.n_gen
    errs = []
    for dt, stride in ((4e-3, 1), (2e-3, 2)):
        tr = simulate_em(smib_case, sc, EMConfig(dt=dt), setup=setup, out_stride=stride)
        assert np.array_equal(tr.times, ref.times)
        errs.append(np.max(np.abs(tr.states[:, :k] - ref.states[:, :k])))
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(2.0, abs=0.3)


def test_em_shared_path_tracks_sas(smib_case):
    # on a shared noise path Euler converges to the SAS trajectory at first
    # order: halving dt halves the gap, and the Richardson extrapolation
    # 2 x(dt/2) - x(dt) cancels the O(dt) term and lands on SAS
    sc = Scenario(
        horizon_s=3.0,
        fault_bus=1,
        fault_start_s=0.25,
        fault_duration_cycles=3,
        stochastic_buses=(1,),
        sigma_rel=0.02,
    )
    setup = SimulationSetup.build(smib_case, sc)
    path = build_noise_path((5, 0), setup.n_noise_vars(), 3.0, sc.resample_dt)
    k = smib_case.n_gen
    tr_s = simulate_sas(smib_case, sc, SolverConfig(), path, setup=setup)
    tr_e = simulate_em(smib_case, sc, EMConfig(dt=1e-3), path, setup=setup)
    tr_h = simulate_em(
        smib_case, sc, EMConfig(dt=5e-4), path, setup=setup, out_stride=2
    )
    assert not (tr_s.diverged or tr_e.diverged or tr_h.diverged)
    # all three are recorded on the common 1 ms grid
    assert np.array_equal(tr_e.times, tr_s.times)
    assert np.array_equal(tr_h.times, tr_s.times)
    sas, full, half = (tr.states[:, :k] for tr in (tr_s, tr_e, tr_h))
    gap_full = np.max(np.abs(full - sas))
    gap_half = np.max(np.abs(half - sas))
    assert gap_full / gap_half == pytest.approx(2.0, abs=0.3)
    richardson = 2.0 * half - full
    assert np.max(np.abs(richardson - sas)) < 0.1 * gap_full


def test_em_paper_sde_mode_runs(smib_case):
    sc = Scenario(horizon_s=0.5, stochastic_buses=(1,), sigma_rel=0.02)
    setup = SimulationSetup.build(smib_case, sc)
    cfg = EMConfig(dt=1e-3, mode="paper-sde")
    path = build_noise_path((1, 0), setup.n_noise_vars(), 0.5, cfg.dt)
    tr = simulate_em(smib_case, sc, cfg, path, setup=setup)
    assert not tr.diverged
    # loads move every step, so the state wanders off equilibrium slightly
    assert np.max(np.abs(tr.states - setup.x0)) > 0


def test_em_paper_sde_requires_matching_path(smib_case):
    sc = Scenario(horizon_s=0.5, stochastic_buses=(1,), sigma_rel=0.02)
    setup = SimulationSetup.build(smib_case, sc)
    cfg = EMConfig(dt=1e-3, mode="paper-sde")
    path = build_noise_path((1, 0), setup.n_noise_vars(), 0.5, 0.1)
    with pytest.raises(ValueError):
        simulate_em(smib_case, sc, cfg, path, setup=setup)


def test_sas_requires_path_on_resample_grid(smib_case):
    # a 0.05 s path covers the 0.1 s scenario with rows to spare, but its
    # OU steps would run at half the resample interval
    sc = Scenario(horizon_s=0.5, stochastic_buses=(1,), sigma_rel=0.02)
    setup = SimulationSetup.build(smib_case, sc)
    path = build_noise_path((1, 0), setup.n_noise_vars(), 0.5, 0.05)
    with pytest.raises(ValueError, match="load step"):
        simulate_sas(smib_case, sc, SolverConfig(window=0.01), path, setup=setup)


def test_em_shared_path_requires_path_on_resample_grid(smib_case):
    sc = Scenario(horizon_s=0.5, stochastic_buses=(1,), sigma_rel=0.02)
    setup = SimulationSetup.build(smib_case, sc)
    cfg = EMConfig(dt=1e-3, mode="shared-path")
    path = build_noise_path((1, 0), setup.n_noise_vars(), 0.5, cfg.dt)
    with pytest.raises(ValueError, match="load step"):
        simulate_em(smib_case, sc, cfg, path, setup=setup)


def test_em_config_validation():
    with pytest.raises(ValueError):
        EMConfig(dt=0.0)
    with pytest.raises(ValueError):
        EMConfig(mode="heun")
