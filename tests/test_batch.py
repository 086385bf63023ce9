"""A run's trajectory does not depend on the batch it is simulated in."""

import numpy as np
import pytest

from stochsim import scenario as scenario_mod
from stochsim.em import EMConfig, simulate_em_batch
from stochsim.noise import build_noise_path
from stochsim.sas import SolverConfig, simulate_sas_batch
from stochsim.scenario import Scenario, SimulationSetup

SCENARIO = Scenario(
    horizon_s=1.0,
    fault_bus=1,
    fault_start_s=0.2,
    fault_duration_cycles=3,
    stochastic_buses=(1,),
    sigma_rel=0.02,
    monitor_buses=(1,),
)


def assert_same_run(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states, equal_nan=True)
    assert np.array_equal(a.voltages, b.voltages, equal_nan=True)
    assert (a.diverged, a.t_diverged, a.diverged_column) == (
        b.diverged,
        b.t_diverged,
        b.diverged_column,
    )


@pytest.mark.parametrize("solver", ["sas", "em-paper-sde"])
def test_run_identical_alone_and_in_any_batch(smib_case, solver):
    # each stacked operation treats a run's row on its own, so a run gives
    # the same bits alone (R=1), first in a batch of five and last in it
    setup = SimulationSetup.build(smib_case, SCENARIO)
    if solver == "sas":
        simulate, config = simulate_sas_batch, SolverConfig(order=4, window=0.01)
        dt = SCENARIO.resample_dt
    else:
        simulate, config = simulate_em_batch, EMConfig(dt=1e-3, mode="paper-sde")
        dt = config.dt
    paths = [build_noise_path((7, i), setup.n_noise_vars(), 1.0, dt) for i in range(5)]
    batch = simulate(setup, config, paths)
    backwards = simulate(setup, config, paths[::-1])[::-1]
    for i, path in enumerate(paths):
        alone = simulate(setup, config, [path])[0]
        assert not alone.diverged
        assert np.isfinite(alone.voltages).all()
        assert_same_run(alone, batch[i])
        assert_same_run(alone, backwards[i])
    # the runs differ from each other, so the comparison has teeth
    assert not np.array_equal(batch[0].states, batch[1].states)
    assert not np.array_equal(batch[0].voltages, batch[1].voltages)


def test_runs_count_windows_and_rebuilds(smib_case, monkeypatch):
    # at h = 0.02 the clearing time 0.25 falls inside the step 0.24-0.26,
    # which runs as two windows; the loads change every 5 steps and the fault
    # starts on a load instant (k = 10), where one rebuild serves both
    setup = SimulationSetup.build(smib_case, SCENARIO)
    config, h = SolverConfig(order=2, window=0.02), 0.02
    paths = [build_noise_path((5, i), setup.n_noise_vars(), 1.0, 0.1) for i in range(6)]
    free = simulate_sas_batch(setup, config, paths)
    # 50 steps plus the split; the first build, 9 load changes and the clearing
    assert [(tr.windows, tr.rebuilds) for tr in free] == [(51, 11)] * 6

    # a limit between the runs' peak |state| stops three runs early
    peaks = sorted(np.abs(tr.states).max() for tr in free)
    monkeypatch.setattr(scenario_mod, "DIVERGENCE_LIMIT", 0.5 * (peaks[2] + peaks[3]))
    limited = simulate_sas_batch(setup, config, paths)
    assert sum(tr.diverged for tr in limited) == 3
    for tr, ref in zip(limited, free):
        if not tr.diverged:
            assert (tr.windows, tr.rebuilds) == (51, 11)
            continue
        steps = round(tr.t_diverged / h)  # the run took steps 0 .. steps-1
        split = steps > 12
        assert tr.windows == steps + split < 51
        assert tr.rebuilds == 1 + (steps - 1) // 5 + split
        assert np.array_equal(tr.states[:steps], ref.states[:steps])
