"""``run_simulation`` against a plain loop over the public kernels."""

from dataclasses import replace

import numpy as np
import pytest

from stochsim.dynamics import WindowWork, rhs, split_state
from stochsim.em import EMConfig, simulate_em_batch
from stochsim.network import bus_voltages
from stochsim.noise import build_noise_path
from stochsim.sas import SolverConfig, simulate_sas_batch, window_coefficients
from stochsim.scenario import SimulationSetup, load_scenario

from test_series import evaluate


def plain_run(setup, h, order, euler, out_stride):
    """States and monitored voltages of one run whose loads stay at their means.

    A step of ``h`` is a window of order ``order`` (window coefficients and
    their Horner sum) or, with ``euler``, x + h f(x).  A stage event on the
    grid switches the network before its step; one inside a step splits
    that step at the event.  Each output row's voltages are those of its
    state under the network of the step that reached it.
    """
    sc = setup.scenario
    n_steps = round(sc.horizon_s / h)
    # every load is at its mean, so a stage's network is the same at each load instant
    nets = {stage: setup.build_net(stage, setup.mean_shunts[None]) for stage in setup.stages}
    events = list(zip(sc.fault_times(setup.case), ("fault-on", "post-fault")))
    work = WindowWork(setup.machines, 1, order)

    def advance(x, net, dt):
        work.set_state(x)
        if euler:
            return x + dt * rhs(net, work).reshape(x.shape)
        return evaluate(window_coefficients(net, work).reshape(x.size, order + 1), dt)

    stage, x = "pre-fault", setup.x0.copy()
    states, recoveries = [x], [nets[stage].recovery[0]]
    for k in range(n_steps):
        t = k * h
        for t_ev, new_stage in events:
            if abs(t_ev - t) <= 1e-9:
                stage = new_stage
        split = False
        for t_ev, new_stage in events:
            if t + 1e-9 < t_ev < (k + 1) * h - 1e-9:
                x = advance(x, nets[stage], t_ev - t)
                stage, t, split = new_stage, t_ev, True
        x = advance(x, nets[stage], (k + 1) * h - t if split else h)
        if (k + 1) % out_stride == 0:
            states.append(x)
            recoveries.append(nets[stage].recovery[0])
    states = np.array(states)
    delta, _, eqp, edp = split_state(states)
    emf = (eqp - 1j * edp) * np.exp(1j * delta)
    return states, np.abs(bus_voltages(np.array(recoveries), emf))


@pytest.mark.parametrize(
    "solver, h, out_stride",
    [("sas-2", 0.01, 2), ("sas-6", 0.05, 1), ("shared-path", 1e-3, 10), ("paper-sde", 1e-3, 10)],
)
def test_runs_equal_a_plain_loop_over_the_kernels(ieee39_case, repo_root, solver, h, out_stride):
    # noise-free fault39 with two stochastic buses at zero noise: the loads
    # are resampled (at every step for paper-sde) and stay at their means;
    # the clearing at 1 + 1/6 s splits a step, and both runs of the batch
    # take the plain loop's states and voltages bit for bit
    scenario = replace(
        load_scenario(repo_root / "scenarios" / "fault39.json"),
        horizon_s=1.5,
        stochastic_buses=(3, 4),
        sigma_rel=0.0,
        monitor_buses=(30, 4),
    )
    setup = SimulationSetup.build(ieee39_case, scenario)
    _, t_clear = scenario.fault_times(ieee39_case)
    assert abs(t_clear / h - round(t_clear / h)) > 0.1  # off the grid
    euler = not solver.startswith("sas")
    if euler:
        order = 1
        simulate, config = simulate_em_batch, EMConfig(h, solver)
        load_dt = h if solver == "paper-sde" else scenario.resample_dt
    else:
        order = int(solver[4:])
        simulate, config, load_dt = simulate_sas_batch, SolverConfig(order, h), scenario.resample_dt
    paths = [build_noise_path((3, i), setup.n_noise_vars(), 1.5, load_dt) for i in range(2)]
    states, volts = plain_run(setup, h, order, euler, out_stride)
    runs = simulate(setup, config, paths, out_stride)
    # the split step runs as two windows; the fault starts on a load
    # instant, where one rebuild serves both, and the clearing rebuilds once more
    n_steps = round(1.5 / h)
    n_loads = round(1.5 / load_dt)
    for tr in runs:
        assert (tr.windows, tr.rebuilds) == (n_steps + 1, n_loads + 1)
        assert np.array_equal(tr.states, states)
        assert np.array_equal(tr.voltages, volts)
    assert np.abs(states[-1] - states[0]).max() > 1e-3  # the fault acted
