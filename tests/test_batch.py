"""A run's trajectory does not depend on the batch it is simulated in."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from stochsim import scenario as scenario_mod
from stochsim.dynamics import WindowWork
from stochsim.em import EMConfig, simulate_em_batch
from stochsim.network import NetworkCondition, reduce_to_load_buses
from stochsim.noise import NoisePath, build_noise_path, load_schedule
from stochsim.powerflow import solve_power_flow
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


# a short caseA: the loads of its two stochastic buses vary, and the other
# 19 are folded into each stage's network
CASE_A = Scenario(
    horizon_s=0.5,
    fault_bus=3,
    fault_start_s=0.2,
    fault_duration_cycles=3,
    trip_branches=((3, 4),),
    stochastic_buses=(3, 4),
    sigma_rel=0.02,
    monitor_buses=(30, 4),
)


def mean_load_values(setup):
    """(S, 2) mean P and Q of the stochastic buses, in ``resolve_stochastic_buses`` order."""
    stoch = setup.scenario.resolve_stochastic_buses(setup.case)
    return np.array([setup.mean_loads[b] for b in stoch], dtype=float).reshape(-1, 2)


def perturbed_shunts(setup, rng, n_runs):
    """(R, S) shunts of the mean loads perturbed by 5%, built from P and Q afresh."""
    mean = mean_load_values(setup)
    return setup.stages["pre-fault"].shunts(
        mean * (1.0 + 0.05 * rng.standard_normal((n_runs,) + mean.shape))
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


@pytest.mark.parametrize("solver", ["sas", "em-paper-sde", "em-shared-path"])
def test_run_identical_alone_and_in_any_batch(smib_case, ieee39_case, solver):
    # each stacked operation treats a run's row on its own, so a run gives
    # the same bits alone (R=1), first in a batch of five and last in it:
    # on smib, whose one load varies, and on a caseA whose fixed loads are
    # folded into each stage
    dt = SCENARIO.resample_dt  # the path grid, except for paper-sde
    if solver == "sas":
        simulate, config = simulate_sas_batch, SolverConfig(order=4, window=0.01)
    elif solver == "em-shared-path":
        simulate, config = simulate_em_batch, EMConfig(dt=1e-3, mode="shared-path")
    else:
        simulate, config = simulate_em_batch, EMConfig(dt=1e-3, mode="paper-sde")
        dt = config.dt
    for case, sc in ((smib_case, SCENARIO), (ieee39_case, CASE_A)):
        setup = SimulationSetup.build(case, sc)
        n_vars = setup.n_noise_vars()
        paths = [build_noise_path((7, i), n_vars, sc.horizon_s, dt) for i in range(5)]
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
    # the runs leave with records still listed, and the pass before each
    # leave reads the records of the runs still in the stack
    assert_voltage_oracle(setup, config.dt, True, paths, batch)


def test_paper_sde_voltages_a_queue_at_a_time(smib_case, monkeypatch):
    # a paper-sde network serves one record, but the voltages are computed
    # in passes: one once the stack's listed run records reach the bound,
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
        # a pass is due as soon as the listed run records reach the bound
        assert all(bound <= r * n < bound + r for n in sizes[:-1])
        assert 0 < r * sizes[-1] < bound + r
    assert len(passes) == sum(math.ceil(n / math.ceil(bound / r)) for r, n in records.items())
    assert len(passes) < 1001 / 50  # far below one pass per record


def test_stages_keep_the_stochastic_buses_only(ieee39_case, repo_root):
    # caseA keeps K + 2 nodes per stage, its stochastic buses 3 and 4 in
    # that order; caseC keeps every load bus, as a reduction that varies
    # them all
    def build(name):
        sc = load_scenario(repo_root / "scenarios" / f"{name}.json")
        return SimulationSetup.build(ieee39_case, sc)

    setup = build("caseA")
    assert setup.mean_shunts.shape == (2,)
    for first in setup.stages.values():
        assert first.vm2.shape == (2,) and first.load_block((3,)).y_ll.shape == (3, 2, 2)
    mean = [(ieee39_case.load_at(b).p, ieee39_case.load_at(b).q) for b in (3, 4)]
    assert np.array_equal(setup.ou_mean, np.ravel(mean))

    setup = build("caseC")
    sc = setup.scenario
    conditions = {
        "pre-fault": NetworkCondition("pre-fault"),
        "fault-on": NetworkCondition("fault-on", fault_bus=sc.fault_bus),
        "post-fault": NetworkCondition("post-fault", removed_branches=sc.trip_branches),
    }
    profile = solve_power_flow(ieee39_case)
    monitor = [ieee39_case.bus_index(b) for b in sc.monitor_buses]
    assert setup.stages.keys() == conditions.keys()
    for name, first in setup.stages.items():
        want = reduce_to_load_buses(
            ieee39_case, conditions[name], profile, monitor, ieee39_case.load_buses
        )
        for field in fields(first):
            assert np.array_equal(getattr(first, field.name), getattr(want, field.name))


def assert_voltage_oracle(setup, h, em_continuous, paths, runs, out_stride=1):
    # every recorded voltage at t_{k+1} is |recovery_k @ E(x_{k+1})|, with the
    # network of step k rebuilt here from the run's own load rows and the
    # stage in force at the end of step k, one run at a time; record i is
    # written at the end of step i * out_stride - 1, and the last at the horizon
    sc = setup.scenario
    spr = 1 if em_continuous else round(sc.resample_dt / h)
    events = sc.fault_times(setup.case) or ()
    stages = ("pre-fault", "fault-on", "post-fault")
    for path, tr in zip(paths, runs):
        rows = load_schedule(
            setup.ou_mean, sc.drift_a, setup.ou_b, [path], path.dt, euler=em_continuous
        )[0]
        assert tr.voltages.shape == (tr.times.size, len(sc.monitor_buses))
        assert tr.times[-1] == pytest.approx(sc.horizon_s)
        for i, x in enumerate(tr.states):
            if np.isnan(x).any():
                assert np.isnan(tr.voltages[i]).all()
                continue
            k = i * out_stride - 1  # the step that ends at this record; -1 for the start
            pq = rows[k // spr].reshape(-1, 2) if k >= spr else mean_load_values(setup)
            stage = stages[sum(t_ev < (k + 1) * h - 1e-9 for t_ev in events)]
            shunts = setup.stages[stage].shunts(pq[None])
            recovery = setup.build_net(stage, shunts).recovery
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


@pytest.mark.parametrize("solver, out_stride", [("sas", 2), ("sas", 5), ("em-paper-sde", 3)])
def test_voltages_at_an_output_stride(smib_case, solver, out_stride):
    # a record every out_stride steps keeps the network of its own step: the
    # split-step series case (50 steps of 0.02 s) and paper-sde Euler, whose
    # every step has its own network, over 900 steps of 1 ms
    if solver == "sas":
        sc, h, load_dt = replace(SCENARIO, fault_start_s=0.245), 0.02, SCENARIO.resample_dt
        simulate, config = simulate_sas_batch, SolverConfig(order=2, window=h)
    else:
        sc, h, load_dt = replace(SCENARIO, horizon_s=0.9), 1e-3, 1e-3
        simulate, config = simulate_em_batch, EMConfig(dt=h, mode="paper-sde")
    setup = SimulationSetup.build(smib_case, sc)
    n_vars = setup.n_noise_vars()
    paths = [build_noise_path((5, i), n_vars, sc.horizon_s, load_dt) for i in range(3)]
    runs = simulate(setup, config, paths, out_stride)
    assert runs[0].times.size == round(sc.horizon_s / h) // out_stride + 1
    assert_voltage_oracle(setup, h, solver != "sas", paths, runs, out_stride)


@pytest.mark.parametrize("solver", ["sas", "em"])
@pytest.mark.parametrize("out_stride", [3, 0])
def test_output_stride_must_divide_the_steps(smib_case, solver, out_stride):
    # a stride that leaves steps over would drop the end of the run, and 0
    # writes no record: both are refused with the stride and the step count
    setup = SimulationSetup.build(smib_case, SCENARIO)
    if solver == "sas":
        simulate, config, steps = simulate_sas_batch, SolverConfig(window=0.01), 100
    else:
        simulate, config, steps = simulate_em_batch, EMConfig(dt=1e-3), 1000
    path = build_noise_path((5, 0), setup.n_noise_vars(), 1.0, SCENARIO.resample_dt)
    with pytest.raises(ValueError, match=f"stride {out_stride} does not divide the {steps} steps"):
        simulate(setup, config, [path], out_stride)


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
    # a pass per record, the default passes and one pass before each leave
    # and at the end: the size of a pass never changes a voltage
    for block in (1, scenario_mod.VOLTAGE_BLOCK, 10**9):
        monkeypatch.setattr(scenario_mod, "VOLTAGE_BLOCK", block)
        runs = simulate_sas_batch(setup, config, paths)
        left = [tr for tr in runs if tr.diverged]
        assert len(left) == (1 if leave == "one" else 6)
        for tr in left:
            assert round(tr.t_diverged / h) == 25
            assert np.isfinite(tr.voltages[: round(tr.t_diverged / h)]).all()
        assert_voltage_oracle(setup, h, False, paths, runs)


@pytest.mark.parametrize("solver", ["sas", "em-shared-path"])
def test_work_arrays_rebuilt_when_runs_leave(smib_case, monkeypatch, solver):
    # a limit just under the largest peak |state| stops one run of six
    # after the fault; run_simulation then builds work arrays for the five
    # left, and every run keeps the bits of its solo run.  Each network it
    # builds in its per-batch load/load blocks, on all three stages,
    # at both stage switches and after the run has left, has the bits of a
    # network built afresh from the run's own P and Q
    setup = SimulationSetup.build(smib_case, SCENARIO)
    sc = setup.scenario
    if solver == "sas":
        simulate, config, h, seed = simulate_sas_batch, SolverConfig(order=3, window=0.01), 0.01, 5
    else:
        simulate, config, h, seed = simulate_em_batch, EMConfig(dt=1e-3), 1e-3, 7
    paths = [build_noise_path((seed, i), setup.n_noise_vars(), 1.0, 0.1) for i in range(6)]
    peaks = sorted(np.abs(tr.states).max() for tr in simulate(setup, config, paths))
    assert peaks[-2] < peaks[-1]
    monkeypatch.setattr(scenario_mod, "DIVERGENCE_LIMIT", 0.5 * (peaks[-2] + peaks[-1]))
    built = []

    class CountedWork(WindowWork):
        def __init__(self, machines, n_runs, order):
            built.append(n_runs)
            super().__init__(machines, n_runs, order)

    monkeypatch.setattr(scenario_mod, "WindowWork", CountedWork)
    nets = []
    build_net = SimulationSetup.build_net

    def recorded(self, stage, shunts, y_ll=None):
        assert y_ll is not None  # run_simulation passes its block of the stage
        net = build_net(self, stage, shunts, y_ll)
        nets.append((stage, net.y.copy(), net.recovery.copy()))
        return net

    monkeypatch.setattr(SimulationSetup, "build_net", recorded)
    runs = simulate(setup, config, paths)
    monkeypatch.setattr(SimulationSetup, "build_net", build_net)
    assert built == [6, 5]
    assert [tr.diverged for tr in runs].count(True) == 1
    # the rebuild times: the start, one resample, the fault start on a load
    # instant, the clearing at 0.25 s, then a resample every 0.1 s
    rebuilds = [(0.0, "pre-fault"), (0.1, "pre-fault"), (0.2, "fault-on"), (0.25, "post-fault")]
    rebuilds += [(0.1 * j, "post-fault") for j in range(3, 10)]
    assert [stage for stage, _, _ in nets] == [stage for _, stage in rebuilds]
    spr = round(sc.resample_dt / h)
    rows = load_schedule(setup.ou_mean, sc.drift_a, setup.ou_b, paths, sc.resample_dt)
    for (t, stage), (_, y, recovery) in zip(rebuilds, nets):
        k = round(t / h)  # the runs that diverged at or before t have left
        here = [i for i, tr in enumerate(runs) if tr.t_diverged is None or tr.t_diverged > t]
        assert len(here) == (6 if t < 0.25 else 5)
        assert y.shape[0] == len(here)
        for pos, i in enumerate(here):
            pq = rows[i][k // spr].reshape(-1, 2) if k >= spr else mean_load_values(setup)
            first = setup.stages[stage]
            fresh = first.with_loads(first.shunts(pq[None]))
            assert np.array_equal(y[pos], fresh.y[0])
            assert np.array_equal(recovery[pos], fresh.recovery[0])
    for tr, path in zip(runs, paths):
        assert_same_run(simulate(setup, config, [path])[0], tr)


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
