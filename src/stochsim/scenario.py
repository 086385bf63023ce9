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
from functools import partial

import numpy as np

from .case import SystemCase, bus_id, number_keys, read_record
from .dynamics import MachineSet, WindowWork, init_dynamic_state, split_state
from .network import (
    LoadBlock,
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
# Run records (records times runs in the stack) that run_simulation lists
# before it computes their voltages in one pass.  On caseC sizes (K=10, one
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
        if isinstance(self.stochastic_buses, str):
            if self.stochastic_buses != "all":
                raise ScenarioError("stochastic_buses must be a list or 'all'")
            return case.load_buses
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
        stoch = self.resolve_stochastic_buses(case)
        if len(set(stoch)) != len(stoch):
            raise ScenarioError(f"stochastic_buses lists a bus twice: {list(stoch)}")
        for bus in stoch:
            if bus not in case.load_buses:
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


@dataclass(frozen=True)
class SimulationSetup:
    """Pre-fault solution and the network of each stage, shared by all runs.

    Each stage's network is Kron-reduced in two steps (see
    :mod:`stochsim.network`).  ``build`` runs the first once per stage:
    ``stages`` holds the network over the generator internal nodes and the
    S stochastic load buses, the other loads folded in at their mean, with
    the recovery of the monitored buses only.  :meth:`build_net` runs the
    second at each rebuild, from the stochastic buses' shunts;
    ``mean_shunts`` are those of their mean loads.  The stochastic loads
    are the OU means ``ou_mean`` and diffusions ``ou_b`` (see
    :mod:`stochsim.noise`): entry 2*i is the P, entry 2*i+1 the Q of the
    i-th stochastic bus of :meth:`Scenario.resolve_stochastic_buses`.
    Their drift is the scenario's ``drift_a``, the same for every variable.
    Immutable after construction; safe to share across concurrent workers.
    """

    case: SystemCase
    scenario: Scenario
    machines: MachineSet  # with efd/pm inputs
    x0: np.ndarray
    mean_loads: dict[int, tuple[float, float]]
    # per stage, the network reduced to the internal nodes and the
    # stochastic buses, with the recovery of the monitored buses only
    stages: dict[str, LoadBusNetwork]
    mean_shunts: np.ndarray  # (S,) complex shunts of the stochastic buses' mean P and Q
    ou_mean: np.ndarray  # mean of each noise variable
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
        stoch = scenario.resolve_stochastic_buses(case)
        stages = {
            stage: reduce_to_load_buses(case, cond, profile, monitor_rows, stoch)
            for stage, cond in conditions.items()
        }

        mean_pq = np.array([mean_loads[b] for b in stoch], dtype=float).reshape(-1, 2)
        ou_mean = mean_pq.flatten()
        mean_shunts = stages["pre-fault"].shunts(mean_pq)
        pre_fault = stages["pre-fault"].with_loads(mean_shunts)
        x0, machines = init_dynamic_state(case, profile, pre_fault)
        return cls(
            case=case,
            scenario=scenario,
            machines=machines,
            x0=x0,
            mean_loads=mean_loads,
            stages=stages,
            mean_shunts=mean_shunts,
            ou_mean=ou_mean,
            ou_b=scenario.sigma_rel * np.abs(ou_mean) * math.sqrt(2.0 * scenario.drift_a),
        )

    def build_net(
        self, stage: str, shunts: np.ndarray, block: LoadBlock | None = None
    ) -> ReducedNetwork:
        """Reduced networks of one stage for a stack of load shunts.

        ``shunts`` is (R, S) complex: the shunts of the stochastic buses,
        in :meth:`Scenario.resolve_stochastic_buses` order, for each of R
        runs (see :meth:`LoadBusNetwork.shunts`).  ``block`` is the caller's
        :class:`LoadBlock` of this stage for the R runs
        (:meth:`LoadBusNetwork.load_block`), whose diagonal the rebuild
        overwrites; without it a fresh one is made.  Only the second
        reduction step runs, on the stage's cached first one: one stacked
        S x S solve gives (R, K, K) ``y`` and the
        (R, m, K) ``recovery`` of the m monitored buses, all that the
        recorded voltages need.
        """
        return self.stages[stage].with_loads(shunts, block)

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


def run_simulation(
    setup: SimulationSetup,
    h: float,
    step_fn,
    order: int,
    solver: str,
    paths: Iterable[NoisePath | None],
    em_continuous: bool = False,
    out_stride: int = 1,
) -> list[Trajectory]:
    """Drive a batch of runs, one per noise path, on the output grid of step ``h``.

    The runs share the stage schedule, the step grid and the load instants;
    only their load values differ, so they advance together as an (R, 4K)
    stack.  The stack lives in the order-0 state slab of its
    :class:`WindowWork` of series order ``order``, which this function owns:
    the states are written in once per batch and again when runs leave.
    ``step_fn(net, work, dt)`` advances them across one segment with a
    frozen (R, K, K) stack of networks and leaves the new states in that
    slab; ``dt`` is a 0-d float64 array, made once for the full step ``h``,
    so numpy multiplies by it without converting a Python float per call.
    Each record copies the states from there.  The divergence test is two
    calls bound with the work arrays: np.abs of the state slab into one
    buffer, and np.maximum.reduce of that buffer.
    Stage boundaries are honored exactly by splitting the enclosing step.
    Every run's loads come from its :func:`load_schedule`: held for a
    resample interval, or with ``em_continuous`` stepped by Euler-Maruyama
    at every step, and the reduced networks are rebuilt whenever they
    change.  A run whose state turns non-finite or huge is marked diverged,
    with the time and the first packed-state column past
    ``DIVERGENCE_LIMIT``, and leaves the stack; its remaining rows stay NaN.
    Every operation treats each run's row on its own, so a run's trajectory
    is bit-identical alone and in any batch.  A record is written every
    ``out_stride`` steps, which must divide the step count.  Each trajectory
    counts the ``step_fn`` calls (``windows``, split segments included) and
    the network rebuilds while its run was in the stack.

    The shunt rows of the batch are one (R, n, S) complex array: entry
    [i, j] holds the shunts of the S stochastic load buses that run i holds
    from load instant j, and n is the number of load values a run consumes.
    One :func:`load_schedule` recursion writes every run's P and Q values
    (noise-grid order) straight into its slot as (R, n, 2S) rows, which are
    turned into their shunts in place, once per batch; a resample takes the
    running runs' row of the new load instant, by one index, as the held
    (R, S) shunts.  Each stage's :class:`LoadBlock` and the work arrays
    are made once per batch as well, and a rebuild writes only the block's
    diagonal (see :meth:`SimulationSetup.build_net`).  When runs leave, the
    shunts and the states are cut to the runs left, and fresh blocks and
    work arrays are made for them: no rebuild writes off a block's
    diagonal, so a fresh block holds what the cut one would.

    The voltages recorded at t_{k+1} are those of the state at t_{k+1}
    under the network of step k, before any rebuild at t_{k+1}.  A step
    records the states only, and lists the ``recovery`` of the network in
    force once for the consecutive records it serves, with their count: a
    series network serves a resample interval of records, a paper-sde one a
    single record.  The voltages of the listed records are computed in one
    pass, one EMF evaluation of their states and one stacked product with
    their recoveries, each repeated over its records, once the listed
    records times the runs in the stack reach ``VOLTAGE_BLOCK``, before
    runs leave the stack and at the end.  Each voltage is the product of
    its own record's EMFs and recovery, so it does not depend on the pass
    it is computed in.

    ``paths`` holds one entry per run (None serves a deterministic
    scenario), each on the load step (``resample_dt``, or ``h`` with
    ``em_continuous``); :func:`load_schedule` checks that every path is
    given, holds the setup's noise variables, covers the n load values and
    steps at the load step.  ``paths`` is iterated once, into a list that
    gives R, and the noise paths are released as soon as the load rows are
    written.
    Returns the trajectories in the order of ``paths``.
    """
    sc = setup.scenario
    case = setup.case
    n_steps = _exact_multiple(sc.horizon_s, h)
    if out_stride < 1 or n_steps % out_stride:
        raise ValueError(f"output stride {out_stride} does not divide the {n_steps} steps")
    paths = list(paths)
    r = len(paths)
    if r == 0:
        raise ValueError("a batch needs at least one run")

    spr = None  # steps per load value; None without stochastic loads
    loads = None  # (R, n, S) shunt rows
    if setup.n_noise_vars():
        spr = 1 if em_continuous else _exact_multiple(sc.resample_dt, h)
        need = math.ceil(n_steps / spr - 1e-12)  # load values a run consumes
        load_dt = h if em_continuous else sc.resample_dt  # the paths' step
        loads = np.empty((r, need, setup.n_noise_vars()))
        load_schedule(
            setup.ou_mean, sc.drift_a, setup.ou_b, paths, load_dt, euler=em_continuous, out=loads
        )
        paths = None  # no path outlives its load rows
        # each (P, Q) pair, read as P + jQ, becomes its load's shunt in place
        loads = setup.stages["pre-fault"].to_shunts(loads.view(complex))

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
    shunts = np.repeat(setup.mean_shunts[None], r, axis=0)

    def load_blocks(n_runs: int) -> dict[str, LoadBlock]:  # one per stage
        return {name: first.load_block((n_runs,)) for name, first in setup.stages.items()}

    blocks = load_blocks(r)
    net = setup.build_net(stage, shunts, blocks[stage])
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

    listed: list[np.ndarray] = []  # the network recoveries of the records from ``done`` on
    spans: list[int] = []  # how many consecutive records each listed recovery serves
    done = 0  # records before this one have their voltages

    def voltages() -> None:
        """The voltages of the listed records, in one pass."""
        nonlocal done
        end = done + sum(spans)
        if n_mon and spans:
            # (R, m, K) recoveries, each repeated over its records: (R, records, m, K)
            recovery = np.repeat(np.stack(listed, axis=1), spans, axis=1)
            emf = _emf(states[rows, done:end])
            volts[rows, done:end] = np.abs(bus_voltages(recovery, emf))
        listed.clear()
        spans.clear()
        done = end

    def record(j: int) -> None:
        """Record the state at row ``j`` and list the network it is recorded under."""
        states_4k[rows, j] = work.state
        if listed and listed[-1] is net.recovery:
            spans[-1] += 1
        else:
            listed.append(net.recovery)
            spans.append(1)

    def divergence_test(work: WindowWork):
        """A buffer of |state| and two bound calls: one fills it, one gives its peak."""
        magnitude = np.empty_like(work.state_slab)
        fill = partial(np.abs, work.state_slab, magnitude)
        return magnitude, fill, partial(np.maximum.reduce, magnitude, None)  # over every axis

    work = WindowWork(setup.machines, r, order)
    work.set_state(np.repeat(setup.x0[None], r, axis=0))
    magnitude, fill_magnitude, peak = divergence_test(work)
    h_0d = np.array(h, dtype=float)  # the step as numpy multiplies by it
    states_4k = states.reshape(r, n_rec, 4, -1)  # (R, records, 4, K) view of the records
    record(0)

    for k in range(n_steps):
        resample = spr is not None and k > 0 and k % spr == 0
        if resample:
            shunts = loads[rows, k // spr]
        if resample or k in switch_at:
            stage = switch_at.get(k, stage)
            net = setup.build_net(stage, shunts, blocks[stage])
            n_rebuilds += 1

        a = k * h
        for tb, new_stage in split_in.get(k, ()):
            step_fn(net, work, np.array(tb - a))
            stage = new_stage
            net = setup.build_net(stage, shunts, blocks[stage])
            n_windows += 1
            n_rebuilds += 1
            a = tb
        step_fn(net, work, np.array((k + 1) * h - a) if k in split_in else h_0d)
        n_windows += 1

        fill_magnitude()
        if not peak() < DIVERGENCE_LIMIT:  # NaN trips it as well
            voltages()
            per_run = magnitude.reshape(4, active.size, -1).swapaxes(0, 1)
            ok = per_run.max(axis=(1, 2)) < DIVERGENCE_LIMIT
            for j in np.flatnonzero(~ok):
                t_div[active[j]] = (k + 1) * h
                counts[active[j]] = (n_windows, n_rebuilds)
                bad = np.flatnonzero(~(per_run[j].ravel() < DIVERGENCE_LIMIT))[0]
                div_col[active[j]] = packed_column(gen_buses, bad)
            active, shunts = active[ok], shunts[ok]
            rows = active
            if not active.size:
                break
            blocks = load_blocks(active.size)
            net = replace(net, y=net.y[ok], recovery=net.recovery[ok])
            left = WindowWork(setup.machines, active.size, order)
            left.set_state(work.state[ok])
            work = left
            magnitude, fill_magnitude, peak = divergence_test(work)
        if (k + 1) % out_stride == 0:
            j = (k + 1) // out_stride
            record(j)
            if (j + 1 - done) * active.size >= VOLTAGE_BLOCK:
                voltages()
    if active.size:
        voltages()
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
            t_diverged=t_div[i],
            diverged_column=div_col[i],
            windows=counts[i][0],
            rebuilds=counts[i][1],
        )
        for i in range(r)
    ]
