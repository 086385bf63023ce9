"""Scenarios (fault + noise description) and the shared simulation driver.

The driver owns everything both solvers have in common: the stage schedule
(pre-fault / fault-on / post-fault with exact event times, splitting steps
at stage boundaries), resampling of the stochastic loads, network rebuilds,
divergence detection and output recording, for a batch of runs at once.
Solvers plug in a stepper that advances a stack of run states across one
segment under a frozen stack of networks.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .case import SystemCase, bus_id, number_keys, read_record
from .dynamics import MachineSet, init_dynamic_state, split_state
from .network import (
    LoadBusNetwork,
    NetworkCondition,
    ReducedNetwork,
    bus_voltages,
    reduce_to_load_buses,
)
from .noise import NoisePath, load_schedule
from .powerflow import solve_power_flow
from .trajectory import Trajectory, packed_column

DIVERGENCE_LIMIT = 1e6  # any state beyond this magnitude marks the run unstable
# Run records (records times runs in the stack) whose voltages run_simulation
# queues before it computes them in one pass.  On caseC sizes (K=10, one
# monitored bus) a pass costs 0.34-0.56 us a run record from 128 to 1,024 run
# records, against 0.98 us at 64, and each holds about 1.5 KB of temporaries:
# a bound of 256 records whatever the stack raised the peak RSS of a 20-run
# order-6 caseC call by 5 MB.
VOLTAGE_BLOCK = 256


class ScenarioError(ValueError):
    """Scenario file is malformed or inconsistent with the case."""


@dataclass(frozen=True)
class Scenario:
    """Disturbance plus stochastic-load description for one study.

    ``stochastic_buses`` may be a list of load bus ids or "all";
    ``fault_bus`` of None means an undisturbed run.
    """

    horizon_s: float
    fault_bus: int | None = None
    fault_start_s: float = 1.0
    fault_duration_cycles: float = 10.0
    trip_branches: tuple[tuple[int, int], ...] = ()
    stochastic_buses: tuple[int, ...] | str = ()
    sigma_rel: float = 0.0
    drift_a: float = 0.5
    resample_dt: float = 0.1
    monitor_buses: tuple[int, ...] = ()

    def fault_times(self, case: SystemCase) -> tuple[float, float] | None:
        """(start, clearing) times in seconds, or None without a fault."""
        if self.fault_bus is None:
            return None
        return (
            self.fault_start_s,
            self.fault_start_s + self.fault_duration_cycles / case.frequency_hz,
        )

    def resolve_stochastic_buses(self, case: SystemCase) -> tuple[int, ...]:
        load_buses = sorted(ld.bus for ld in case.loads)
        if isinstance(self.stochastic_buses, str):
            if self.stochastic_buses != "all":
                raise ScenarioError("stochastic_buses must be a list or 'all'")
            return tuple(load_buses)
        return tuple(sorted(self.stochastic_buses))

    def validate_against(self, case: SystemCase) -> None:
        if self.horizon_s <= 0:
            raise ScenarioError("horizon_s must be positive")
        if self.trip_branches and self.fault_bus is None:
            raise ScenarioError("trip_branches need a fault_bus")
        if self.fault_bus is not None:
            case.bus_index(self.fault_bus)
            if self.fault_start_s < 0:
                raise ScenarioError("fault_start_s must be nonnegative")
            if self.fault_duration_cycles <= 0:
                raise ScenarioError("fault duration must be positive")
            _, t_clear = self.fault_times(case)
            if self.horizon_s <= t_clear:
                raise ScenarioError("horizon must extend beyond fault clearing")
            for a, b in self.trip_branches:
                if not case.has_branch(a, b):
                    raise ScenarioError(f"tripped branch {a}-{b} not in case")
        load_buses = {ld.bus for ld in case.loads}
        stoch = self.resolve_stochastic_buses(case)
        if len(set(stoch)) != len(stoch):
            raise ScenarioError(f"stochastic_buses lists a bus twice: {list(stoch)}")
        for bus in stoch:
            if bus not in load_buses:
                raise ScenarioError(f"stochastic bus {bus} carries no load")
        monitor = list(self.monitor_buses)
        if len(set(monitor)) != len(monitor):
            raise ScenarioError(f"monitor_buses lists a bus twice: {monitor}")
        for bus in monitor:
            case.bus_index(bus)
        if self.sigma_rel < 0:
            raise ScenarioError("sigma_rel must be nonnegative")
        if self.resample_dt <= 0 or self.drift_a <= 0:
            raise ScenarioError("resample_dt and drift_a must be positive")


def _bus_ids(value, size: int | None = None) -> tuple[int, ...]:
    """A list of bus ids, of ``size`` entries if given."""
    if isinstance(value, (str, dict)) or size not in (None, len(value)):
        raise ValueError("not a list of bus ids")
    return tuple(bus_id(b) for b in value)


_SCENARIO_KEYS = {
    "name": None,
    "fault_bus": ("fault_bus", lambda v: None if v is None else bus_id(v)),
    "trip_branches": ("trip_branches", lambda v: tuple(_bus_ids(p, 2) for p in v)),
    "stochastic_buses": (
        "stochastic_buses",
        lambda v: v if isinstance(v, str) else _bus_ids(v),
    ),
    "monitor_buses": ("monitor_buses", _bus_ids),
    **number_keys("horizon_s", "fault_start_s", "fault_duration_cycles"),
    **number_keys("sigma_rel", "drift_a", "resample_dt"),
}


def parse_scenario(text: str) -> Scenario:
    """Parse a JSON scenario document.

    ``_SCENARIO_KEYS`` lists its keys and :class:`Scenario` the default of
    each optional one.  A malformed or unknown key is a ScenarioError; the
    key ``name`` is accepted and not read.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be a JSON object")
    return read_record(Scenario, doc, "scenario", _SCENARIO_KEYS, ScenarioError)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


@dataclass
class SimulationSetup:
    """Pre-fault solution and the network of each stage, shared by all runs.

    Each stage's network is Kron-reduced in two steps (see
    :mod:`stochsim.network`).  ``build`` runs the first once per stage:
    ``stages`` holds the network over the generator internal nodes and the
    load buses, loads excluded, with the recovery of the monitored buses
    only.  :meth:`build_net` runs the second at each rebuild.  The
    stochastic loads are the OU means ``ou_mean``, drift ``ou_a`` and
    diffusions ``ou_b`` (see :mod:`stochsim.noise`): entry 2*i is the P,
    entry 2*i+1 the Q of the i-th load bus that ``spec_rows`` picks.
    Immutable after construction; safe to share across concurrent workers.
    """

    case: SystemCase
    scenario: Scenario
    machines: MachineSet  # with efd/pm inputs
    x0: np.ndarray
    mean_loads: dict[int, tuple[float, float]]
    # per stage, the network reduced to the internal nodes and the load
    # buses, with the recovery of the monitored buses only
    stages: dict[str, LoadBusNetwork]
    mean_pq: np.ndarray  # (L, 2) mean P and Q of the load buses
    # position of each stochastic bus among the load buses; a slice when they
    # are every load bus in order, so a resample writes the loads by a view
    spec_rows: slice | np.ndarray
    ou_mean: np.ndarray  # mean of each noise variable
    ou_a: float  # OU drift a, the same for every variable
    ou_b: np.ndarray  # OU diffusion b of each noise variable

    @classmethod
    def build(cls, case: SystemCase, scenario: Scenario) -> "SimulationSetup":
        scenario.validate_against(case)
        profile = solve_power_flow(case)

        mean_loads = {ld.bus: (ld.p, ld.q) for ld in case.loads}

        conditions = {"pre-fault": NetworkCondition("pre-fault")}
        if scenario.fault_bus is not None:
            conditions["fault-on"] = NetworkCondition(
                "fault-on", fault_bus=scenario.fault_bus
            )
            conditions["post-fault"] = NetworkCondition(
                "post-fault", removed_branches=scenario.trip_branches
            )
        monitor_rows = [case.bus_index(b) for b in scenario.monitor_buses]
        stages = {
            stage: reduce_to_load_buses(case, cond, profile, monitor_rows)
            for stage, cond in conditions.items()
        }

        load_buses = sorted(mean_loads)
        mean_pq = np.array([mean_loads[b] for b in load_buses], dtype=float).reshape(-1, 2)
        stoch = scenario.resolve_stochastic_buses(case)
        rows = [load_buses.index(b) for b in stoch]
        every = rows == list(range(len(load_buses)))
        spec_rows = slice(0, len(rows)) if every else np.array(rows, dtype=int)
        ou_mean = mean_pq[spec_rows].flatten()
        a = scenario.drift_a
        pre_fault = stages["pre-fault"].with_loads(mean_pq)
        init = init_dynamic_state(case, profile, pre_fault)
        return cls(
            case=case,
            scenario=scenario,
            machines=init.machines,
            x0=init.state,
            mean_loads=mean_loads,
            stages=stages,
            mean_pq=mean_pq,
            spec_rows=spec_rows,
            ou_mean=ou_mean,
            ou_a=a,
            ou_b=scenario.sigma_rel * np.abs(ou_mean) * math.sqrt(2.0 * a),
        )

    def build_net(self, stage: str, pq: np.ndarray) -> ReducedNetwork:
        """Reduced networks of one stage for a stack of load values.

        ``pq`` is (R, L, 2): the P and Q of every load bus, in sorted
        load-bus order, for each of R runs.  Only the second reduction step
        runs, on the stage's cached first one: one stacked L x L solve gives
        (R, K, K) ``y`` and the (R, m, K) ``recovery`` of the m monitored
        buses, all that the recorded voltages need.
        """
        return self.stages[stage].with_loads(pq)

    def n_noise_vars(self) -> int:
        return self.ou_mean.size


def _exact_multiple(big: float, small: float) -> int:
    """How many steps ``small`` make up ``big``; ValueError unless a whole number."""
    m = round(big / small)
    if m < 1 or abs(m * small - big) > 1e-9:
        raise ValueError(f"{big} is not an integer multiple of the step {small}")
    return m


def _emf(state: np.ndarray) -> np.ndarray:
    """Internal EMFs (e'q - j e'd) exp(j delta) of (..., 4K) packed states."""
    delta, _, eqp, edp = split_state(state)
    return (eqp - 1j * edp) * np.exp(1j * delta)


def _write_loads(
    setup: SimulationSetup, path: NoisePath | None, dt: float, euler: bool, out
) -> None:
    """Write the :func:`load_schedule` of ``path`` into the (n, 2S) rows ``out``.

    The path must hold the setup's noise variables on the load step ``dt``
    and cover the n rows.
    """
    if path is None:
        raise ValueError("a noise path is required for stochastic runs")
    if path.n_vars != setup.n_noise_vars() or path.n_steps < out.shape[0]:
        raise ValueError("noise path does not cover this scenario")
    if abs(path.dt - dt) > 1e-12:
        raise ValueError(f"noise path step {path.dt} differs from the load step {dt}")
    load_schedule(setup.ou_mean, setup.ou_a, setup.ou_b, path, euler=euler, out=out)


def run_simulation(
    setup: SimulationSetup,
    h: float,
    step_fn,
    solver: str,
    paths: Iterable[NoisePath | None],
    em_continuous: bool = False,
    out_stride: int = 1,
) -> list[Trajectory]:
    """Drive a batch of runs, one per noise path, on the output grid of step ``h``.

    The runs share the stage schedule, the step grid and the load instants;
    only their load values differ, so they advance together as an (R, 4K)
    stack.  ``step_fn(states, net, dt)`` advances the stack across one
    segment with a frozen (R, K, K) stack of networks.  Stage boundaries are
    honored exactly by splitting the enclosing step.  Every run's loads come
    from its :func:`load_schedule`: held for a resample interval, or with
    ``em_continuous`` stepped by Euler-Maruyama at every step, and the
    reduced networks are rebuilt whenever they change.  A run whose state
    turns non-finite or huge is marked diverged, with the time and the first
    packed-state column past ``DIVERGENCE_LIMIT``, and leaves the stack; its
    remaining rows stay NaN.  Every operation treats each run's row on its
    own, so a run's trajectory is bit-identical alone and in any batch.
    Each trajectory counts the ``step_fn`` calls (``windows``, split segments
    included) and the network rebuilds while its run was in the stack.

    The load rows of the batch are one (R, n, 2S) array: entry [i, j] holds
    the 2S stochastic P and Q values (noise-grid order) that run i holds from
    load instant j, and n is the number of load values a run consumes.  Each
    run's schedule is written straight into its slot, and a resample reads
    the rows of the running runs with one index.  The voltages recorded at
    t_{k+1} are those of the state at t_{k+1} under the network of step k,
    before any rebuild at t_{k+1}.  A step records the states only.  When a
    network is replaced (a rebuild, a split step's rebuild), its records are
    queued with its ``recovery``; a paper-sde Euler network serves one
    record, a series-solver network a resample interval of them.  The
    queued voltages are computed in one pass, one EMF evaluation of the
    queued states and one stacked product with their gathered recoveries,
    once the queued records times the runs in the stack reach
    ``VOLTAGE_BLOCK`` (the network in force queues its records so far),
    before runs leave the stack and at the end.  Each voltage is the product
    of its own record's EMFs and recovery, so it does not depend on the pass
    it is computed in.

    ``paths`` holds one entry per run (None serves a deterministic
    scenario), each on the load step (``resample_dt``, or ``h`` with
    ``em_continuous``).  It is iterated once, into a list that gives R, and
    a run's noise path is released as soon as its load rows are written.
    Returns the trajectories in the order of ``paths``.
    """
    sc = setup.scenario
    case = setup.case
    n_steps = _exact_multiple(sc.horizon_s, h)
    paths = list(paths)
    r = len(paths)
    if r == 0:
        raise ValueError("a batch needs at least one run")

    spr = None  # steps per load value; None without stochastic loads
    loads = None  # (R, n, 2S) load rows
    if setup.n_noise_vars():
        spr = 1 if em_continuous else _exact_multiple(sc.resample_dt, h)
        need = math.ceil(n_steps / spr - 1e-12)  # load values a run consumes
        load_dt = h if em_continuous else sc.resample_dt  # the paths' step
        loads = np.empty((r, need, setup.n_noise_vars()))
        for i in range(r):
            _write_loads(setup, paths[i], load_dt, em_continuous, out=loads[i])
            paths[i] = None  # no path outlives its load rows
    spec_rows = setup.spec_rows

    # each stage event either switches the stage before step k, when within
    # 1e-9 of the grid point k*h, or splits the step k that contains it
    switch_at: dict[int, str] = {}
    split_in: dict[int, list[tuple[float, str]]] = {}
    for t_ev, new_stage in zip(sc.fault_times(case) or (), ("fault-on", "post-fault")):
        k = round(t_ev / h)
        if abs(t_ev - k * h) <= 1e-9:
            switch_at[k] = new_stage
        else:
            split_in.setdefault(math.floor(t_ev / h), []).append((t_ev, new_stage))

    stage = "pre-fault"
    pq = np.repeat(setup.mean_pq[None], r, axis=0)
    net = setup.build_net(stage, pq)
    n_windows, n_rebuilds = 0, 1  # step_fn and build_net calls so far
    counts = [(0, 0)] * r  # per run, (n_windows, n_rebuilds) when it leaves

    n_rec = n_steps // out_stride + 1
    k4 = setup.x0.shape[0]
    times = np.arange(n_rec) * (out_stride * h)
    states = np.full((r, n_rec, k4), np.nan)
    n_mon = len(sc.monitor_buses)
    volts = np.full((r, n_rec, n_mon), np.nan)
    active = np.arange(r)  # batch positions of the runs still integrating
    rows = slice(None)  # ``active`` as an index: a slice while every run is in
    t_div: list[float | None] = [None] * r
    div_col: list[str | None] = [None] * r
    gen_buses = tuple(g.bus for g in case.generators)

    queue: list[tuple[np.ndarray, int]] = []  # (recovery, records) per network
    done = queued = 0  # records before these have their voltages, their network queued

    def enqueue(n_done: int, current_net: ReducedNetwork) -> None:
        """Queue the records ``queued`` up to ``n_done``, all under ``current_net``."""
        nonlocal queued
        if n_mon and n_done > queued:
            queue.append((current_net.recovery, n_done - queued))
        queued = n_done

    def voltages(n_done: int, current_net: ReducedNetwork) -> None:
        """Queue the records up to ``n_done``, then every queued voltage in one pass."""
        nonlocal done
        enqueue(n_done, current_net)
        if queue:
            # (R, m, K) recoveries joined to (R, networks, m, K), then one per record
            recovery = np.concatenate([rec for rec, _ in queue], axis=1)
            recovery = recovery.reshape(active.size, len(queue), n_mon, -1)
            if len(queue) < queued - done:  # a network serves several records
                recovery = np.repeat(recovery, [n for _, n in queue], axis=1)
            emf = _emf(states[rows, done:queued])
            volts[rows, done:queued] = np.abs(bus_voltages(recovery, emf))
            queue.clear()
        done = queued

    x = np.repeat(setup.x0[None], r, axis=0)
    states[:, 0] = x

    for k in range(n_steps):
        resample = spr is not None and k > 0 and k % spr == 0
        if resample:
            pq[:, spec_rows] = loads[rows, k // spr].reshape(active.size, -1, 2)
        if resample or k in switch_at:
            enqueue(k // out_stride + 1, net)
            stage = switch_at.get(k, stage)
            net = setup.build_net(stage, pq)
            n_rebuilds += 1

        a = k * h
        for tb, new_stage in split_in.get(k, ()):
            x = step_fn(x, net, tb - a)
            enqueue(k // out_stride + 1, net)
            stage = new_stage
            net = setup.build_net(stage, pq)
            n_windows += 1
            n_rebuilds += 1
            a = tb
        x = step_fn(x, net, (k + 1) * h - a if k in split_in else h)
        n_windows += 1

        if not np.abs(x).max() < DIVERGENCE_LIMIT:  # NaN trips it as well
            voltages(k // out_stride + 1, net)
            ok = np.abs(x).max(axis=-1) < DIVERGENCE_LIMIT
            for j in np.flatnonzero(~ok):
                t_div[active[j]] = (k + 1) * h
                counts[active[j]] = (n_windows, n_rebuilds)
                bad = np.flatnonzero(~(np.abs(x[j]) < DIVERGENCE_LIMIT))[0]
                div_col[active[j]] = packed_column(gen_buses, bad)
            active, x, pq = active[ok], x[ok], pq[ok]
            rows = active
            if not active.size:
                break
            net = replace(net, y=net.y[ok], recovery=net.recovery[ok])
        if (k + 1) % out_stride == 0:
            n_done = (k + 1) // out_stride + 1
            states[rows, n_done - 1] = x
            if (n_done - done) * active.size >= VOLTAGE_BLOCK:
                voltages(n_done, net)

    if active.size:
        voltages(n_rec, net)
    for i in active:
        counts[i] = (n_windows, n_rebuilds)
    return [
        Trajectory(
            times=times,
            states=states[i],
            gen_buses=gen_buses,
            solver=solver,
            monitor_buses=tuple(sc.monitor_buses),
            voltages=volts[i],
            diverged=t_div[i] is not None,
            t_diverged=t_div[i],
            diverged_column=div_col[i],
            windows=counts[i][0],
            rebuilds=counts[i][1],
        )
        for i in range(r)
    ]
