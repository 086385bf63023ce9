import numpy as np

from stochsim.ensemble import run_ensemble
from stochsim.sas import SolverConfig
from stochsim.scenario import Scenario, SimulationSetup


def test_ensemble_identical_whatever_jobs(smib_case):
    # runs are seeded by index and assembled in run order, so worker
    # processes change nothing, bit for bit
    sc = Scenario(
        horizon_s=1.0,
        fault_bus=1,
        fault_start_s=0.2,
        fault_duration_cycles=3,
        stochastic_buses=(1,),
        sigma_rel=0.02,
    )
    setup = SimulationSetup.build(smib_case, sc)
    config = SolverConfig(order=4, window=0.01)
    serial, parallel = (
        run_ensemble(smib_case, sc, "sas", config, 4, 7, jobs=jobs, setup=setup)
        for jobs in (1, 2)
    )
    assert serial.run_seeds == parallel.run_seeds
    assert [tr.diverged for tr in serial.trajectories] == [
        tr.diverged for tr in parallel.trajectories
    ]
    for a, b in zip(serial.trajectories, parallel.trajectories):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states, equal_nan=True)
    # the runs differ from each other, so the comparison has teeth
    assert not np.array_equal(
        serial.trajectories[0].states, serial.trajectories[1].states
    )
