"""A run's trajectory does not depend on the batch it is simulated in."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stochsim import scenario as scenario_mod
from stochsim.em import EMConfig, simulate_em_batch
from stochsim.noise import NoisePath, build_noise_path, load_schedule
from stochsim.sas import SolverConfig, simulate_sas_batch
from stochsim.scenario import Scenario, SimulationSetup, load_scenario

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

    # a fault inside the step 0.20-0.22 (0.205 to 0.2133) runs that step as
    # three windows, with a rebuild at each event
    short = replace(SCENARIO, fault_start_s=0.205, fault_duration_cycles=0.5)
    runs = simulate_sas_batch(SimulationSetup.build(smib_case, short), config, paths)
    assert [(tr.windows, tr.rebuilds) for tr in runs] == [(52, 12)] * 6
    # a start 5e-10 past the grid point 0.2 counts as on it: no split
    near = replace(SCENARIO, fault_start_s=0.2 + 5e-10)
    runs = simulate_sas_batch(SimulationSetup.build(smib_case, near), config, paths)
    assert [(tr.windows, tr.rebuilds) for tr in runs] == [(51, 11)] * 6

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


def test_em_divergence_inside_a_batch(smib_case, monkeypatch):
    # paper-sde runs read a new load row at every step, by the batch
    # positions still running once a run has left: a NaN in one path's
    # noise (column 100) stops that run at t = 0.102, and a limit between
    # the other runs' peak |state| stops two of them after the fault
    setup = SimulationSetup.build(smib_case, SCENARIO)
    config = EMConfig(dt=1e-3, mode="paper-sde")
    paths = [build_noise_path((13, i), setup.n_noise_vars(), 1.0, config.dt) for i in range(6)]
    xi = paths[4].xi.copy()
    xi[:, 100] = np.nan
    paths[4] = NoisePath(paths[4].seed, paths[4].dt, xi)
    free = simulate_em_batch(setup, config, paths)
    assert [tr.diverged for tr in free] == [False] * 4 + [True, False]
    peaks = sorted(np.abs(tr.states).max() for tr in free if not tr.diverged)
    assert peaks[2] < peaks[3]
    monkeypatch.setattr(scenario_mod, "DIVERGENCE_LIMIT", 0.5 * (peaks[2] + peaks[3]))
    batch = simulate_em_batch(setup, config, paths)
    assert sum(tr.diverged for tr in batch) == 3
    assert batch[4].t_diverged == pytest.approx(0.102)
    assert min(tr.t_diverged for tr in batch if tr.diverged and tr is not batch[4]) > 0.2
    for tr, ref, path in zip(batch, free, paths):
        alone = simulate_em_batch(setup, config, [path])[0]
        assert_same_run(alone, tr)
        if tr.diverged:
            steps = round(tr.t_diverged / config.dt)  # the run took steps 0 .. steps-1
            assert np.isnan(tr.states[steps:]).all()
            assert np.array_equal(tr.states[:steps], ref.states[:steps])
    # the runs leave with voltages still queued, and the pass before each
    # leave reads the records of the runs still in the stack
    assert_voltage_oracle(setup, config.dt, True, paths, batch)


def test_paper_sde_voltages_a_queue_at_a_time(smib_case, monkeypatch):
    # a paper-sde network serves one record, but the voltages are computed
    # in passes: one once the stack's queued run records reach the bound,
    # one before a run leaves (a NaN in run 2's noise at column 500 stops it
    # at t = 0.502) and one at the end, each one _emf call over its records
    setup = SimulationSetup.build(smib_case, SCENARIO)
    config = EMConfig(dt=1e-3, mode="paper-sde")
    paths = [build_noise_path((9, i), setup.n_noise_vars(), 1.0, config.dt) for i in range(3)]
    xi = paths[2].xi.copy()
    xi[:, 500] = np.nan
    paths[2] = NoisePath(paths[2].seed, paths[2].dt, xi)
    passes = []  # (runs, records) of each _emf call
    emf = scenario_mod._emf

    def counted(states):
        passes.append(states.shape[:2])
        return emf(states)

    monkeypatch.setattr(scenario_mod, "_emf", counted)
    runs = simulate_em_batch(setup, config, paths)
    assert [tr.diverged for tr in runs] == [False, False, True]
    assert runs[2].t_diverged == pytest.approx(0.502)

    bound = scenario_mod.VOLTAGE_BLOCK
    records = {3: 502, 2: 1001 - 502}  # per stack size, the records it holds
    for r, n_rec in records.items():
        sizes = [n for runs_in, n in passes if runs_in == r]
        assert sum(sizes) == n_rec  # every record of the stack once
        # a pass is due as soon as the queued run records reach the bound
        assert all(bound <= r * n < bound + r for n in sizes[:-1])
        assert 0 < r * sizes[-1] < bound + r
    assert len(passes) == sum(math.ceil(n / math.ceil(bound / r)) for r, n in records.items())
    assert len(passes) < 1001 / 50  # far below one pass per record


@pytest.mark.parametrize("name, kind", [("caseC", slice), ("caseA", np.ndarray)])
def test_stochastic_load_rows_write_as_their_index(ieee39_case, repo_root, name, kind):
    # every load bus in order (caseC) is a slice, so a resample writes the
    # loads by a view; a subset (caseA, buses 3 and 4) is an index array;
    # both write the same loads as the index of each stochastic bus
    setup = SimulationSetup.build(
        ieee39_case, load_scenario(repo_root / "scenarios" / f"{name}.json")
    )
    assert isinstance(setup.spec_rows, kind)
    load_buses = sorted(setup.mean_loads)
    stoch = setup.scenario.resolve_stochastic_buses(ieee39_case)
    index = np.array([load_buses.index(b) for b in stoch])
    rows = np.random.default_rng(0).standard_normal((3, setup.n_noise_vars()))
    got = np.repeat(setup.mean_pq[None], 3, axis=0)
    want = got.copy()
    got[:, setup.spec_rows] = rows.reshape(3, -1, 2)
    want[:, index] = rows.reshape(3, -1, 2)
    assert np.array_equal(got, want)
    assert np.array_equal(setup.ou_mean, setup.mean_pq[index].ravel())


def assert_voltage_oracle(setup, h, em_continuous, paths, runs):
    # every recorded voltage at t_{k+1} is |recovery_k @ E(x_{k+1})|, with the
    # network of step k rebuilt here from the run's own load rows and the
    # stage in force at the end of step k, one run at a time
    sc = setup.scenario
    spr = 1 if em_continuous else round(sc.resample_dt / h)
    events = sc.fault_times(setup.case) or ()
    stages = ("pre-fault", "fault-on", "post-fault")
    for path, tr in zip(paths, runs):
        rows = load_schedule(setup.ou_mean, setup.ou_a, setup.ou_b, path, euler=em_continuous)
        assert tr.voltages.shape == (tr.times.size, len(sc.monitor_buses))
        for i, x in enumerate(tr.states):
            if np.isnan(x).any():
                assert np.isnan(tr.voltages[i]).all()
                continue
            k = i - 1  # the step that ends at this record; -1 for the start
            pq = setup.mean_pq.copy()
            if k >= spr:
                pq[setup.spec_rows] = rows[k // spr].reshape(-1, 2)
            stage = stages[sum(t_ev < (k + 1) * h - 1e-9 for t_ev in events)]
            recovery = setup.build_net(stage, pq[None]).recovery
            expected = np.abs(recovery @ scenario_mod._emf(x[None])[..., None])[0, :, 0]
            assert np.array_equal(tr.voltages[i], expected), (i, stage)


def test_voltages_of_a_split_step(smib_case):
    # the fault starts inside the step 0.24-0.26 and clears inside the step
    # 0.28-0.30, at 0.295; each runs as two windows with a rebuild between
    # them, and the records before each split keep the network they had
    late = replace(SCENARIO, fault_start_s=0.245)
    setup = SimulationSetup.build(smib_case, late)
    paths = [build_noise_path((5, i), setup.n_noise_vars(), 1.0, 0.1) for i in range(4)]
    runs = simulate_sas_batch(setup, SolverConfig(order=2, window=0.02), paths)
    assert runs[0].windows == 52
    assert_voltage_oracle(setup, 0.02, False, paths, runs)


def test_voltages_of_paper_sde_euler(smib_case):
    # paper-sde loads change at every step, so every record has its own network
    setup = SimulationSetup.build(smib_case, SCENARIO)
    config = EMConfig(dt=1e-3, mode="paper-sde")
    paths = [build_noise_path((9, i), setup.n_noise_vars(), 1.0, config.dt) for i in range(3)]
    runs = simulate_em_batch(setup, config, paths)
    assert runs[0].rebuilds == runs[0].windows == 1000
    assert_voltage_oracle(setup, config.dt, True, paths, runs)


@pytest.mark.parametrize("leave", ["one", "all"])
def test_voltages_when_runs_leave(smib_case, monkeypatch, leave):
    # the peak |state| comes at the clearing, t = 0.25, five steps into the
    # fault-on network: a limit just under the largest peak stops that run
    # there, and one under the smallest peak stops every run; the records
    # that a run leaves under its network keep their voltages
    setup = SimulationSetup.build(smib_case, SCENARIO)
    config, h = SolverConfig(order=2, window=0.01), 0.01
    paths = [build_noise_path((5, i), setup.n_noise_vars(), 1.0, 0.1) for i in range(6)]
    peaks = sorted(np.abs(tr.states).max() for tr in simulate_sas_batch(setup, config, paths))
    limit = 0.5 * (peaks[-2] + peaks[-1]) if leave == "one" else 0.999 * peaks[0]
    monkeypatch.setattr(scenario_mod, "DIVERGENCE_LIMIT", limit)
    runs = simulate_sas_batch(setup, config, paths)
    left = [tr for tr in runs if tr.diverged]
    assert len(left) == (1 if leave == "one" else 6)
    for tr in left:
        assert round(tr.t_diverged / h) == 25
        assert np.isfinite(tr.voltages[: round(tr.t_diverged / h)]).all()
    assert_voltage_oracle(setup, h, False, paths, runs)


def test_no_monitored_bus(smib_case):
    # without a monitored bus the voltages are an empty column set and the
    # states are those of the monitored run
    setup = SimulationSetup.build(smib_case, SCENARIO)
    bare = SimulationSetup.build(smib_case, replace(SCENARIO, monitor_buses=()))
    config = SolverConfig(order=2, window=0.02)
    paths = [build_noise_path((5, i), setup.n_noise_vars(), 1.0, 0.1) for i in range(3)]
    runs = simulate_sas_batch(bare, config, paths)
    for tr, ref in zip(runs, simulate_sas_batch(setup, config, paths)):
        assert tr.voltages.shape == (51, 0)
        assert np.array_equal(tr.states, ref.states)
    assert_voltage_oracle(bare, 0.02, False, paths, runs)
