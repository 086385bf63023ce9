import dataclasses
import functools
import multiprocessing

import numpy as np
import pytest

from stochsim import ensemble as ensemble_mod
from stochsim import scenario as scenario_mod
from stochsim.em import EMConfig
from stochsim.ensemble import (
    StabilityCriterion,
    batch_size,
    confidence_envelope,
    ensemble_stats,
    pdf_evolution,
    run_ensemble,
    run_passes,
    stability_report,
)
from stochsim.noise import build_noise_path
from stochsim.sas import SolverConfig, simulate_sas
from stochsim.scenario import Scenario, SimulationSetup, load_scenario

from test_batch import SCENARIO, assert_same_run

_WORKER_INIT = ensemble_mod._worker_init


def _worker_init_with_limit(limit, *args):
    """Pool initializer that applies a patched divergence limit in the worker.

    Worker processes start from a fresh import, so a limit patched in the
    test process does not reach them by itself.
    """
    scenario_mod.DIVERGENCE_LIMIT = limit
    _WORKER_INIT(*args)


def test_ensemble_identical_whatever_jobs(smib_case, monkeypatch):
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
    serial = run_ensemble(setup, config, 4, 7)
    with monkeypatch.context() as mp:  # batches of 2, so two workers run
        mp.setattr(ensemble_mod, "batch_size", lambda setup, config: 2)
        parallel = run_ensemble(setup, config, 4, 7, jobs=2)
    assert serial.batch_sizes == [4] and parallel.batch_sizes == [2, 2]
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
    serial = run_ensemble(setup, config, n_runs, seed)
    with monkeypatch.context() as mp:  # batches of 3, so two workers run
        mp.setattr(ensemble_mod, "batch_size", lambda setup, config: 3)
        parallel = run_ensemble(setup, config, n_runs, seed, jobs=2)
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


def test_one_batch_starts_no_workers(smib_case, monkeypatch):
    # an ensemble that fits in one batch runs in this process at any --jobs
    setup = SimulationSetup.build(smib_case, SCENARIO)
    config = SolverConfig(order=4, window=0.01)
    serial = run_ensemble(setup, config, 3, 5)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    parallel = run_ensemble(setup, config, 3, 5, jobs=2)
    assert serial.batch_sizes == parallel.batch_sizes == [3]
    for a, b in zip(serial.trajectories, parallel.trajectories):
        assert_same_run(a, b)


def _shipped_setup(case, repo_root, name, **changes):
    scenario = load_scenario(repo_root / "scenarios" / f"{name}.json")
    return SimulationSetup.build(case, dataclasses.replace(scenario, **changes))


def test_batch_size_of_the_shipped_scenarios(ieee39_case, repo_root):
    # a caseC run's load rows are 67 KB, so series and shared-path Euler
    # batches hold 64 runs; paper-sde Euler runs one at a time by rule, also
    # where its rows would fit (caseA's are 640 KB)
    case_a = _shipped_setup(ieee39_case, repo_root, "caseA")
    case_c = _shipped_setup(ieee39_case, repo_root, "caseC")
    fault39 = _shipped_setup(ieee39_case, repo_root, "fault39")
    assert fault39.n_noise_vars() == 0
    assert batch_size(case_c, SolverConfig(order=6, window=0.05)) == 64
    assert batch_size(case_c, EMConfig(mode="shared-path")) == 64
    assert batch_size(case_a, EMConfig(mode="paper-sde")) == 1
    assert batch_size(case_c, EMConfig(mode="paper-sde")) == 1
    assert batch_size(fault39, SolverConfig(order=6, window=0.05)) == 64


def test_batch_size_of_a_long_horizon_is_bounded_by_its_load_bytes(
    ieee39_case, repo_root
):
    # 100 s at the 0.1 s resample interval: 42 variables * 1,000 rows * 8 B
    # = 336,000 B a run, so 64 runs would take 21.5 MB and 24 fit in 8 MiB
    config = SolverConfig(order=6, window=0.05)
    long_c = _shipped_setup(ieee39_case, repo_root, "caseC", horizon_s=100.0)
    assert batch_size(long_c, config) == 2**23 // 336_000 == 24
    # a run whose rows alone exceed the budget still gets a batch of one
    endless = _shipped_setup(ieee39_case, repo_root, "caseC", horizon_s=1e5)
    assert batch_size(endless, config) == 1


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_raises(smib_case, monkeypatch, jobs):
    # with batches of 1, two runs exceed one batch, so the worker count is used
    setup = SimulationSetup.build(smib_case, SCENARIO)
    monkeypatch.setattr(ensemble_mod, "batch_size", lambda setup, config: 1)
    with pytest.raises(ValueError, match="jobs"):
        run_ensemble(setup, SolverConfig(order=4, window=0.01), 2, 5, jobs=jobs)


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


def test_statistics_ignore_run_order(smib_case):
    # every statistic reduces over runs in sorted order, so a permuted
    # ensemble gives the same bits
    sc = Scenario(horizon_s=1.0, stochastic_buses=(1,), sigma_rel=0.05)
    setup = SimulationSetup.build(smib_case, sc)
    ens = run_ensemble(setup, SolverConfig(order=4, window=0.01), 12, 3)
    order = np.random.default_rng(0).permutation(ens.n_runs)
    shuffled = dataclasses.replace(
        ens,
        trajectories=[ens.trajectories[i] for i in order],
        run_seeds=[ens.run_seeds[i] for i in order],
    )
    for variable in ("g1.delta", "g1.omega"):
        vals, permuted = ens.values(variable), shuffled.values(variable)
        for got, want in zip(
            ensemble_stats(permuted) + confidence_envelope(permuted),
            ensemble_stats(vals) + confidence_envelope(vals),
        ):
            assert np.array_equal(got, want)
        # the band is made of order statistics: the sorted matrix gives it too
        for got, want in zip(
            confidence_envelope(np.sort(vals, axis=0)), confidence_envelope(vals)
        ):
            assert np.array_equal(got, want)
        rows = [0, 25, 50, 100]  # t = 0, 0.25, 0.5 and 1 s
        mean, std = ensemble_stats(vals)
        times, means, stds = pdf_evolution(ens, mean, std, rows)
        assert times.tolist() == [0.0, 0.25, 0.5, 1.0]
        assert np.array_equal(means, mean[rows]) and np.array_equal(stds, std[rows])
    crit = StabilityCriterion(t_s=0.5, r0=0.07, x_eq=setup.x0)
    prob = stability_report(ens, crit)["probability"]
    assert 0.0 < prob < 1.0  # some runs pass and some fail
    assert stability_report(shuffled, crit)["probability"] == prob


def test_confidence_envelope_domain(smib_case):
    setup = SimulationSetup.build(smib_case, Scenario(horizon_s=0.2))
    ens = run_ensemble(setup, SolverConfig(order=4, window=0.01), 10, 0)
    vals = ens.values("g1.delta")
    low, high = confidence_envelope(vals, 1.0)
    assert np.array_equal(low, high)  # identical runs: a zero-width band
    for level in (-0.1, 1.1):
        with pytest.raises(ValueError, match="level"):
            confidence_envelope(vals, level)
    with pytest.raises(ValueError, match="10 runs"):
        confidence_envelope(vals[:9])


def test_stability_variables_are_speed_or_angle():
    with pytest.raises(ValueError, match="speed"):
        StabilityCriterion(t_s=1.0, r0=0.1, x_eq=np.zeros(8), variables="eqp")
