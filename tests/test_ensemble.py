import dataclasses
import functools

import numpy as np
import pytest

from stochsim import ensemble as ensemble_mod
from stochsim import scenario as scenario_mod
from stochsim.ensemble import StabilityCriterion, run_ensemble, run_passes, stability_report
from stochsim.noise import build_noise_path
from stochsim.sas import SolverConfig, simulate_sas
from stochsim.scenario import Scenario, SimulationSetup

from test_batch import SCENARIO, assert_same_run

_WORKER_INIT = ensemble_mod._worker_init


def _worker_init_with_limit(limit, *args):
    """Pool initializer that applies a patched divergence limit in the worker.

    Worker processes start from a fresh import, so a limit patched in the
    test process does not reach them by itself.
    """
    scenario_mod.DIVERGENCE_LIMIT = limit
    _WORKER_INIT(*args)


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
        run_ensemble(setup, config, 4, 7, jobs=jobs)
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


def test_divergence_inside_a_batch(smib_case, monkeypatch):
    # a limit between the runs' peak |state| trips some runs of a batch and
    # not others; every run must match its solo run, whatever the batch
    setup = SimulationSetup.build(smib_case, SCENARIO)
    config = SolverConfig(order=4, window=0.01)
    n_runs, seed = 6, 11
    free = run_ensemble(setup, config, n_runs, seed)
    assert free.batch_sizes == [n_runs]
    peaks = sorted(np.abs(tr.states).max() for tr in free.trajectories)
    assert peaks[2] < peaks[3]
    limit = 0.5 * (peaks[2] + peaks[3])
    monkeypatch.setattr(scenario_mod, "DIVERGENCE_LIMIT", limit)
    monkeypatch.setattr(
        ensemble_mod, "_worker_init", functools.partial(_worker_init_with_limit, limit)
    )
    serial, parallel = (
        run_ensemble(setup, config, n_runs, seed, jobs=j)
        for j in (1, 2)
    )
    assert serial.batch_sizes == [n_runs] and parallel.batch_sizes == [3, 3]
    assert [tr.diverged for tr in serial.trajectories] == [
        tr.diverged for tr in parallel.trajectories
    ]
    assert sum(tr.diverged for tr in serial.trajectories) == 3
    h = config.window
    for i, (tr, ref) in enumerate(zip(serial.trajectories, free.trajectories)):
        path = build_noise_path((seed, i), setup.n_noise_vars(), 1.0, SCENARIO.resample_dt)
        alone = simulate_sas(smib_case, SCENARIO, config, path, setup=setup)
        assert_same_run(alone, tr)
        assert_same_run(alone, parallel.trajectories[i])
        if not tr.diverged:
            assert np.array_equal(tr.states, ref.states)
            continue
        # NaN from the first output time at or past the limit; the same
        # states as without a limit before it
        row = round(tr.t_diverged / h)
        assert np.abs(ref.states[row]).max() >= limit
        assert np.abs(ref.states[:row]).max() < limit
        assert np.isnan(tr.states[row:]).all() and np.isnan(tr.voltages[row:]).all()
        assert np.array_equal(tr.states[:row], ref.states[:row])
        assert tr.diverged_column == "g1.omega"  # the rotor speed is the largest entry


def test_quiet_run_passes_and_diverged_run_fails(smib_case):
    # no fault and no noise: the run stays at the pre-fault state, so it
    # passes even a tiny ball, in speed and in angle; marked diverged, the
    # same states fail
    setup = SimulationSetup.build(smib_case, Scenario(horizon_s=2.0))
    quiet = run_ensemble(setup, SolverConfig(order=4, window=0.01), 1, 0)
    tr = quiet.trajectories[0]
    for variables in ("speed", "angle"):
        crit = StabilityCriterion(t_s=1.0, r0=1e-6, x_eq=setup.x0, variables=variables)
        assert run_passes(tr, crit)
        report = stability_report(quiet, crit)
        assert report["runs"] == [True] and report["probability"] == 1.0
        assert report["criterion"] == {
            "t_s": 1.0, "r0": 1e-6, "variables": variables, "norm": "inf"
        }
        assert not run_passes(dataclasses.replace(tr, diverged=True, t_diverged=1.5), crit)


def test_stability_probability_grows_with_radius(smib_case):
    # load noise alone spreads the runs' largest deviations (speed about
    # 0.05-0.10 rad/s, angle 0.010-0.019 rad), so the grid crosses them
    sc = Scenario(horizon_s=1.0, stochastic_buses=(1,), sigma_rel=0.05)
    setup = SimulationSetup.build(smib_case, sc)
    ens = run_ensemble(setup, SolverConfig(order=4, window=0.01), 8, 3)
    radii = np.linspace(0.0025, 0.12, 48)
    for variables in ("speed", "angle"):
        probs = [
            stability_report(
                ens, StabilityCriterion(t_s=0.5, r0=r0, x_eq=setup.x0, variables=variables)
            )["probability"]
            for r0 in radii
        ]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        assert probs[0] == 0.0 and probs[-1] == 1.0
        assert len(set(probs)) > 3  # the curve passes through partial values


def test_stability_variables_are_speed_or_angle():
    with pytest.raises(ValueError, match="speed"):
        StabilityCriterion(t_s=1.0, r0=0.1, x_eq=np.zeros(8), variables="eqp")
