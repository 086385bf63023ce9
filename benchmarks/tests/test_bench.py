"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_times, totals_by_name  # noqa: E402
from workloads import WORKLOADS, cli_argv, master_seed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def prog():
    return run.Program(ROOT)


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b", 9.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 0.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)
    assert totals_by_name(spans)["b"] == (2, pytest.approx(4.5))


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("c", 2.0, 6.0, 0),
        Span("c", 4.0, 8.0, 0),  # overlaps the first child
        Span("c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_wraps_functions_and_classmethods_then_restores():
    mod = types.ModuleType("fake")

    class Owner:
        @classmethod
        def make(cls, x):
            return mod.leaf(x) + 1

    mod.leaf = lambda x: 2 * x
    original_leaf, original_make = mod.leaf, vars(Owner)["make"]
    tracer = Tracer([(mod, "leaf", "leaf"), (Owner, "make", "make"), (mod, "gone", "gone")])
    with tracer:
        assert tracer.span("root", Owner.make, 3) == 7
    assert mod.leaf is original_leaf and vars(Owner)["make"] is original_make
    assert tracer.missing == ["fake.gone"]
    spans = tracer.finished()
    assert [(s.name, s.parent) for s in spans] == [("root", None), ("make", 0), ("leaf", 1)]
    assert all(s.end >= s.start for s in spans)


def test_wrappers_sit_where_the_callers_look(prog, tmp_path):
    """A traced caseC run at the CLI defaults reports one window per step."""
    w = WORKLOADS["ieee39-sas"]
    tracer = Tracer(run.trace_targets(prog))
    call = run.run_call(prog, cli_argv(w, ROOT, 0, tmp_path / "sas", runs=1), 1, tracer)
    assert call.rc == 0 and call.failed == 0
    assert tracer.missing == []
    m = run.layer_metrics(tracer.finished(), 1)
    assert m["sas.window_calls"] == 20_001  # 20 s at h=1e-3, plus the clearing split
    assert m["network.build_net_calls"] == 201
    assert m["powerflow.calls"] == 1  # a single run writes no stability file
    assert m["dynamics.rhs_calls"] == 0
    assert sum(m[k] for k in run.SELF_TIME) == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_em_workload_traces_rhs_and_rebuilds_every_step(prog, tmp_path):
    doc = json.loads((ROOT / "scenarios" / "caseC.json").read_text())
    doc["horizon_s"] = 2.0
    scenario = tmp_path / "short.json"
    scenario.write_text(json.dumps(doc))
    argv = cli_argv(WORKLOADS["ieee39-em"], ROOT, 0, tmp_path / "em", runs=2)
    argv[argv.index("--scenario") + 1] = str(scenario)
    tracer = Tracer(run.trace_targets(prog))
    call = run.run_call(prog, argv, 2, tracer)
    assert call.rc == 0 and call.stats_rows == call.grid_rows == 2001
    m = run.layer_metrics(tracer.finished(), 2)
    assert m["dynamics.rhs_calls"] == 2001
    assert m["network.build_net_calls"] == 2001
    assert m["sas.window_calls"] == 0
    assert m["powerflow.calls"] == 1  # the 2 s horizon ends before t_s: no stability


def test_speed_probe_scales_to_the_reference_speed():
    probe = run.SpeedProbe()
    # probes every 0.05 s, at twice the reference duration: a half-speed CPU
    probe.starts = [0.05 * i for i in range(1, 20)]
    probe.durations = [2 * run.PROBE_REF_S] * 19
    assert probe.busy(0.0, 0.5) == pytest.approx(9 * 2 * run.PROBE_REF_S)
    assert probe.factor(0.0, 0.5) == pytest.approx(0.5)
    assert probe.scaled(0.0, 0.5) == pytest.approx((0.5 - 18 * run.PROBE_REF_S) * 0.5)
    # a short window takes its speed from the probes around it
    probe.durations[5] = run.PROBE_REF_S
    assert probe.factor(0.26, 0.27) == pytest.approx((0.5 * 7 + 1.0) / 8)
    with pytest.raises(ValueError):
        probe.factor(2.0, 2.5)


def test_speed_probe_samples_while_code_runs():
    with run.SpeedProbe(interval=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(probe.durations) >= 5
    assert 0.0 < probe.scaled(t0, t1) and probe.busy(t0, t1) < t1 - t0


def test_bridge_refinement_sums_back_to_the_coarse_increments():
    rng = np.random.default_rng(7)
    coarse = rng.standard_normal((3, 400))
    fine = reference.bridge_refine(coarse, 10, np.random.default_rng(8))
    assert fine.shape == (3, 4000)
    h = 1e-3
    summed = math.sqrt(h / 10) * fine.reshape(3, 400, 10).sum(axis=2)
    np.testing.assert_allclose(summed, math.sqrt(h) * coarse, rtol=0, atol=1e-15)
    # the sub-increments are standard normal in units of the fine step
    assert abs(fine.std() - 1.0) < 0.05


def test_angle_error_is_zero_on_the_reference_itself():
    from stochsim import Trajectory

    ref = reference.load_reference("sas", 0)
    delta = np.asarray(ref["delta"])
    states = np.zeros((delta.shape[0], 4 * delta.shape[1]))
    states[:, : delta.shape[1]] = delta
    traj = Trajectory(
        times=np.asarray(ref["times"]), states=states,
        gen_buses=tuple(ref["gen_buses"]), solver="sas",
    )
    assert reference.angle_error(traj, ref) == 0.0
    states[-1, 3] += 1e-3
    assert reference.angle_error(traj, ref) == pytest.approx(1e-3)


def test_metric_names_and_units_follow_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    assert set(e2e) == set(run.END_TO_END)
    assert set(layers) == set(run.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for name, (unit, better) in run.END_TO_END.items():
        assert (e2e[name]["unit"], e2e[name]["better"]) == (unit, better)
    for name, unit in run.PER_LAYER.items():
        assert layers[name]["unit"] == unit
    for m in [*e2e.values(), *layers.values(), *bench["workloads"]]:
        assert NAME.fullmatch(m["name"]), m["name"]
    for m in [*e2e.values(), *layers.values()]:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_seed_changes_the_generated_inputs(tmp_path):
    from stochsim import build_noise_path

    w = WORKLOADS["ieee39-sas"]
    assert cli_argv(w, ROOT, master_seed(5), tmp_path) == cli_argv(w, ROOT, master_seed(5), tmp_path)
    assert cli_argv(w, ROOT, master_seed(5), tmp_path) != cli_argv(w, ROOT, master_seed(6), tmp_path)
    assert master_seed(-1) >= 0
    a = build_noise_path((master_seed(5), 0), 42, 20.0, 0.1).xi
    b = build_noise_path((master_seed(6), 0), 42, 20.0, 0.1).xi
    assert not np.array_equal(a, b)
