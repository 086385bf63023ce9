import collections
import errno
import json
import tracemalloc

import numpy as np
import pytest

from stochsim import cli, ensemble, smib, validate
from stochsim.case import load_case
from stochsim.em import EMConfig, simulate_em_batch
from stochsim.network import ReductionError
from stochsim.noise import build_noise_path
from stochsim.powerflow import PowerFlowError, solve_power_flow
from stochsim.scenario import Scenario, SimulationSetup, load_scenario, parse_scenario
from stochsim.trajectory import Trajectory
from stochsim.validate import CheckResult, check_smib_coefficients

from test_batch import assert_same_run

NAN, INF = float("nan"), float("inf")


def write_scenario(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_smib_case(repo_root, tmp_path, edit) -> str:
    """The SMIB case file after ``edit`` changed its parsed JSON in place."""
    doc = json.loads((repo_root / "cases" / "smib.json").read_text())
    edit(doc)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_argv(repo_root, scenario, out, *extra, case=None) -> list[str]:
    return [
        "run",
        "--case", case or str(repo_root / "cases" / "smib.json"),
        "--scenario", scenario,
        "--out", str(out),
        *extra,
    ]


def test_run_succeeds_with_exit_0(repo_root, tmp_path):
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2})
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out")) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert (tmp_path / "out" / "trajectory.csv").is_file()


def test_repeated_runs_write_identical_files(repo_root, tmp_path):
    # a stochastic fault ensemble written twice at --jobs 1 and once at
    # --jobs 2 gives the same bytes
    scenario = write_scenario(
        tmp_path,
        {
            "horizon_s": 2.0,
            "fault_bus": 1,
            "fault_start_s": 0.2,
            "fault_duration_cycles": 3,
            "stochastic_buses": [1],
            "sigma_rel": 0.02,
        },
    )
    flags = ("--runs", "3", "--order", "4", "--window", "0.01", "--ts", "1.0")
    outs = [tmp_path / name for name in ("a", "b", "parallel")]
    for out, jobs in zip(outs, ("1", "1", "2")):
        argv = run_argv(repo_root, scenario, out, *flags, "--jobs", jobs)
        with pytest.MonkeyPatch.context() as mp:
            if jobs == "2":  # batches of 2, so the 3 runs need the two workers
                mp.setattr(ensemble, "batch_size", lambda setup, config: 2)
            assert cli.main(argv) == 0
    for name in ("stats.csv", "pdf.csv", "stability.json"):
        first = (outs[0] / name).read_bytes()
        assert first
        assert all((out / name).read_bytes() == first for out in outs[1:])
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    assert [m["batch_sizes"] for m in manifests] == [[3], [3], [1, 2]]
    for m in manifests:
        assert m["t_diverged"] == [None] * 3
        assert m["diverged_column"] == [None] * 3
        assert len(m["run_seconds"]) == 3
        # 200 steps; the first build, 19 load changes and the clearing at
        # t = 0.25 (the fault starts on the load instant t = 0.2)
        assert m["windows"] == [200] * 3
        assert m["rebuilds"] == [21] * 3


def test_interleaved_calls_in_one_process_repeat_their_stats(repo_root, tmp_path):
    # caseC and caseA series ensembles (every load bus a slice, two an index
    # array), caseC with the fault and trip moved to bus 4 (other fault-on
    # and post-fault networks) and a paper-sde ensemble, 2 s of each, called
    # four times in turn in one process: no state outlives a call, so each
    # flag set writes the same stats.csv every time, whatever ran before it
    case = str(repo_root / "cases" / "ieee39.json")
    scenarios = {}
    for name, source, edit in (
        ("caseC", "caseC", {}),
        ("caseA", "caseA", {}),
        ("bus4", "caseC", {"fault_bus": 4, "trip_branches": [[4, 5]]}),
    ):
        doc = json.loads((repo_root / "scenarios" / f"{source}.json").read_text())
        doc.update(horizon_s=2.0, **edit)
        (tmp_path / name).mkdir()
        scenarios[name] = write_scenario(tmp_path / name, doc)
    series = ("--runs", "3", "--order", "6", "--window", "0.05")
    flag_sets = {
        "caseC-sas": (scenarios["caseC"], *series),
        "caseA-sas": (scenarios["caseA"], *series),
        "paper-sde": (scenarios["caseC"], "--runs", "2", "--solver", "em", "--em-mode",
                      "paper-sde"),
        "bus4-sas": (scenarios["bus4"], *series),
    }
    written = collections.defaultdict(list)
    for i in range(4):
        for name, (scenario, *flags) in flag_sets.items():
            out = tmp_path / f"{name}-{i}"
            assert cli.main(run_argv(repo_root, scenario, out, *flags, case=case)) == 0
            written[name].append((out / "stats.csv").read_bytes())
    for name, files in written.items():
        assert len(files[0].splitlines()) > 20, name
        assert all(f == files[0] for f in files[1:]), name
    assert len({files[0] for files in written.values()}) == len(flag_sets)


def test_scenario_without_horizon_exits_2(repo_root, tmp_path):
    scenario = write_scenario(tmp_path, {"fault_bus": 1})
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out")) == 2


def test_zero_runs_exits_2(repo_root, tmp_path):
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2})
    argv = run_argv(repo_root, scenario, tmp_path / "out", "--runs", "0")
    assert cli.main(argv) == 2


def test_power_flow_failure_exits_2(repo_root, tmp_path):
    def overload(doc):  # generation far beyond the tie line's transfer limit
        next(b for b in doc["buses"] if b["id"] == 1)["p_gen"] = 9.0

    case = write_smib_case(repo_root, tmp_path, overload)
    with pytest.raises(PowerFlowError):
        solve_power_flow(load_case(case))
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2})
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out", case=case)) == 2


def test_case_without_loads_runs(repo_root, tmp_path):
    case = write_smib_case(repo_root, tmp_path, lambda doc: doc.update(loads=[]))
    scenario = write_scenario(
        tmp_path,
        {"horizon_s": 0.5, "fault_bus": 1, "fault_start_s": 0.1, "fault_duration_cycles": 3},
    )
    flags = ("--order", "4", "--window", "0.01")
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out", *flags, case=case)) == 0


def test_reduction_failure_exits_2(repo_root, tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise ReductionError("interior admittance block is singular")

    monkeypatch.setattr(cli.SimulationSetup, "build", singular)
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2})
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out")) == 2


def test_failed_write_leaves_no_partial_file(repo_root, tmp_path, monkeypatch):
    # the disk fills after the header and the first row block of a 501-row
    # trajectory.csv: exit 3, neither the file nor its temporary file is
    # left, and the manifest records the failure
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.writes += 1
            if self.writes > 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(text)

    def open_filling(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FullDisk(fh) if path.endswith("trajectory.csv.tmp") else fh

    monkeypatch.setattr(cli, "open", open_filling, raising=False)
    scenario = write_scenario(tmp_path, {"horizon_s": 0.5})
    out = tmp_path / "out"
    assert cli.main(run_argv(repo_root, scenario, out)) == 3
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_trajectory_written_in_bounded_memory(tmp_path):
    # a caseC-sized run, 20,001 rows of 41 columns, makes a file of over
    # 16 MB; written in row blocks, the writer holds a fraction of one MB
    rng = np.random.default_rng(5)
    tr = Trajectory(
        times=np.arange(20_001) * 1e-3,
        states=rng.standard_normal((20_001, 40)),
        gen_buses=tuple(range(30, 40)),
        solver="sas",
        monitor_buses=(30,),
        voltages=rng.random((20_001, 1)),
    )
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        cli._write_atomic(str(path), tr.csv_blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 16_000_000
    assert peak < 4_000_000


def test_missing_case_file_exits_3(tmp_path):
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2})
    argv = [
        "run",
        "--case", str(tmp_path / "no-such-case.json"),
        "--scenario", scenario,
        "--out", str(tmp_path / "out"),
    ]
    assert cli.main(argv) == 3


def test_failed_validation_exits_1(repo_root, monkeypatch):
    failing = CheckResult("injected", False, 1.0, 0.1)
    passing = CheckResult("clean", True, 0.0, 0.1)
    case = str(repo_root / "cases" / "smib.json")
    monkeypatch.setattr(cli, "run_all", lambda *a, **k: [passing, failing])
    assert cli.main(["validate", "--case", case]) == 1
    monkeypatch.setattr(cli, "run_all", lambda *a, **k: [passing])
    assert cli.main(["validate", "--case", case]) == 0


def test_injected_smib_error_fails_its_check(monkeypatch):
    # hand omega terms off by a relative 1e-3 must fail the equivalence check
    assert check_smib_coefficients().passed
    exact = smib.smib_window_coefficients

    def perturbed(*args):
        d_hand, w_hand = exact(*args)
        return d_hand, w_hand * (1.0 + 1e-3)

    monkeypatch.setattr(smib, "smib_window_coefficients", perturbed)
    assert not check_smib_coefficients().passed


def test_smib_oracle_checks_the_production_entry(monkeypatch):
    # the closed-form check runs its 100 states as one (100, 8) stack
    # through the kernel entry the solver's batches use
    exact = validate.window_coefficients
    stacks = []

    def counted(net, work):
        states = work.state.reshape(len(work.emf), -1)  # the (R, 4K) stack written in
        stacks.append((states.shape, len(work.emf), len(work.orders)))
        return exact(net, work)

    monkeypatch.setattr(validate, "window_coefficients", counted)
    assert check_smib_coefficients().passed
    assert stacks == [((100, 8), 100, 2)]


@pytest.mark.parametrize(
    "doc, names",
    [
        ({"horizon_s": None}, "field 'horizon_s'"),
        ([{"horizon_s": 0.2}], "top level"),
        ({"horizon_s": 0.2, "fault_bus": [1]}, "field 'fault_bus'"),
        ({"horizon_s": 0.2, "trip_branches": [1]}, "field 'trip_branches'"),
        ({"horizon_s": 0.2, "trip_branches": [[1, 2, 3]]}, "field 'trip_branches'"),
        ({"horizon_s": 0.2, "monitor_buses": "1"}, "field 'monitor_buses'"),
        ({"horizon_s": 0.2, "sigma_rel": {"value": 0.1}}, "field 'sigma_rel'"),
        ({"horizon_s": 0.2, "monitor_buses": [2.9]}, "field 'monitor_buses'"),
        ({"horizon_s": 2.0, "fault_bus": 1.5}, "field 'fault_bus'"),
        ({"horizon_s": 2.0, "fault_bus": True}, "field 'fault_bus'"),
        (
            {"horizon_s": 2.0, "fault_bus": 1, "trip_branches": [[1.2, 2.8]]},
            "field 'trip_branches'",
        ),
        (
            {"horizon_s": 0.2, "stochastic_buses": [1.9], "sigma_rel": 0.02},
            "field 'stochastic_buses'",
        ),
        (
            {"horizon_s": 0.2, "stochastic_buses": ["1"], "sigma_rel": 0.02},
            "field 'stochastic_buses'",
        ),
        # json reads NaN and Infinity as floats
        ({"horizon_s": INF}, "field 'horizon_s'"),
        (
            {"horizon_s": 0.2, "stochastic_buses": [1], "sigma_rel": NAN},
            "field 'sigma_rel'",
        ),
        ({"horizon_s": 2.0, "fault_bus": 1, "fault_start_s": NAN}, "field 'fault_start_s'"),
        (
            {"horizon_s": 2.0, "fault_bus": 1, "fault_duration_cycles": INF},
            "field 'fault_duration_cycles'",
        ),
        ({"horizon_s": 0.2, "drift_a": -INF}, "field 'drift_a'"),
        ({"horizon_s": 0.2, "resample_dt": NAN}, "field 'resample_dt'"),
        ({"horizon_s": "0.2"}, "field 'horizon_s'"),
        (
            {"horizon_s": 0.2, "stochastic_buses": "all", "sigma_rel": True},
            "field 'sigma_rel'",
        ),
        # a misspelled key is refused, not dropped for the default
        ({"horizon_s": 0.2, "sigma_rell": 0.05}, "unknown field(s) 'sigma_rell'"),
        ({"horizon_s": 0.2, "monitor_bus": [1]}, "unknown field(s) 'monitor_bus'"),
        ({"name": "no horizon", "sigma_rel": 0.02}, "missing field 'horizon_s'"),
    ],
    ids=["null-horizon", "top-level-list", "list-fault-bus", "int-branch",
         "triple-branch", "string-monitor-buses", "object-sigma",
         "fractional-monitor-bus", "fractional-fault-bus", "bool-fault-bus",
         "fractional-branch", "fractional-stochastic-bus", "string-stochastic-bus",
         "infinite-horizon", "nan-sigma", "nan-fault-start", "infinite-fault-duration",
         "minus-infinite-drift", "nan-resample-dt", "string-horizon", "bool-sigma",
         "misspelled-sigma", "misspelled-monitor", "missing-horizon"],
)
def test_malformed_scenario_exits_2(repo_root, tmp_path, capsys, doc, names):
    # the message names what is malformed: the field, or the top level
    scenario = write_scenario(tmp_path, doc)
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "error: invalid-input" in err
    assert names in err


def test_malformed_case_exits_2(repo_root, tmp_path, capsys):
    def null_resistance(doc):
        doc["branches"][0]["r"] = None

    case = write_smib_case(repo_root, tmp_path, null_resistance)
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2})
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out", case=case)) == 2
    assert "branches[0]: field 'r'" in capsys.readouterr().err


def test_non_finite_case_value_exits_2(repo_root, tmp_path, capsys):
    # a NaN inertia used to run, diverge at once and still exit 0
    def nan_inertia(doc):
        doc["generators"][0]["H"] = NAN

    case = write_smib_case(repo_root, tmp_path, nan_inertia)
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2})
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out", case=case)) == 2
    assert "generators[0]: field 'H'" in capsys.readouterr().err


def test_scenario_defaults_come_from_the_dataclass():
    # a field the document omits takes the Scenario default
    assert parse_scenario('{"horizon_s": 1}') == Scenario(horizon_s=1.0)


@pytest.mark.parametrize(
    "doc, message",
    [
        # two OU processes for one bus: both draw noise, one would be dropped
        ({"stochastic_buses": [1, 1], "sigma_rel": 0.02}, "twice"),
        # fault-on and clearing both before t = 0: no fault-on stage
        ({"fault_bus": 1, "fault_start_s": -1.0}, "fault_start_s"),
        # one bus monitored twice: its voltage columns would repeat
        ({"monitor_buses": [1, 1]}, "twice"),
        # a trip without a fault: no stage would ever trip the line
        ({"trip_branches": [[1, 2]]}, "trip_branches need a fault_bus"),
    ],
)
def test_inconsistent_scenario_exits_2(repo_root, tmp_path, capsys, doc, message):
    scenario = write_scenario(tmp_path, {"horizon_s": 0.5, **doc})
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out")) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ("--stats-vars", "g99.omega"),
        ("--stats-vars", "g1.omega,v2"),
        ("--stats-vars", "g1.speed"),
        ("--stats-vars", "g1.omega,g1.omega"),
        ("--jobs", "0"),
        ("--jobs", "-1"),
        ("--r0", "0"),
        ("--r0", "nan"),
        ("--ts", "nan"),
        ("--ts", "-1"),
        ("--seed", "-1"),
        ("--window", "nan"),
        ("--solver", "em", "--dt", "nan"),
        ("--order", "100000000"),
    ],
    ids=lambda flags: "=".join(flags),
)
def test_bad_flag_exits_2_before_running(repo_root, tmp_path, monkeypatch, flags):
    def no_runs(*args, **kwargs):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(cli, "run_ensemble", no_runs)
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2, "monitor_buses": [1]})
    argv = run_argv(repo_root, scenario, tmp_path / "out", "--runs", "2", *flags)
    assert cli.main(argv) == 2


def test_pdf_snapshots_skip_seconds_off_the_output_grid(repo_root, tmp_path):
    # 0.4 s windows reach whole seconds only at t = 2 and 4
    scenario = write_scenario(tmp_path, {"horizon_s": 4.0})
    flags = ("--runs", "2", "--order", "4", "--window", "0.4")
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out", *flags)) == 0
    rows = (tmp_path / "out" / "pdf.csv").read_text().splitlines()[1:]
    assert rows and {float(row.split(",")[1]) for row in rows} == {2.0, 4.0}


def test_pdf_csv_of_a_horizon_under_one_second_is_its_header(repo_root, tmp_path):
    scenario = write_scenario(tmp_path, {"horizon_s": 0.5})
    argv = run_argv(repo_root, scenario, tmp_path / "out", "--runs", "2")
    assert cli.main(argv) == 0
    assert (tmp_path / "out" / "pdf.csv").read_text() == "variable,t,mean,std,n\n"


def test_pdf_moments_equal_the_stats_cells(repo_root, tmp_path):
    # each pdf.csv mean and std is the stats.csv cell at its time, to the
    # last digit: both come from one ensemble_stats call per variable
    doc = {"horizon_s": 4.0, "stochastic_buses": [1], "sigma_rel": 0.05, "monitor_buses": [1]}
    scenario = write_scenario(tmp_path, doc)
    flags = ("--runs", "20", "--order", "4", "--window", "0.05", "--stats-vars", "all")
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out", *flags)) == 0
    header, *rows = (tmp_path / "out" / "stats.csv").read_text().splitlines()
    stats = {row.split(",")[0]: dict(zip(header.split(","), row.split(","))) for row in rows}
    snaps = (tmp_path / "out" / "pdf.csv").read_text().splitlines()[1:]
    assert len(snaps) == 4 * 9  # four whole seconds of nine variables
    for snap in snaps:
        var, t, mean, std, n = snap.split(",")
        assert n == "20"
        assert (mean, std) == (stats[t][f"{var}.mean"], stats[t][f"{var}.std"])


def test_statistics_stack_each_variable_once(repo_root, tmp_path, monkeypatch):
    # stats.csv and pdf.csv of a 10-run ensemble read each variable's
    # (n_runs, T) matrix once, and take each statistic of it once
    calls = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(ensemble.Ensemble, "values")
    for name in ("ensemble_stats", "confidence_envelope", "pdf_evolution"):
        count(cli, name)
    scenario = write_scenario(tmp_path, {"horizon_s": 2.0, "monitor_buses": [1]})
    flags = ("--runs", "10", "--order", "4", "--window", "0.05",
             "--stats-vars", "g1.delta,g1.omega,v1")
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out", *flags)) == 0
    assert calls == {
        "values": 3, "ensemble_stats": 3, "confidence_envelope": 3, "pdf_evolution": 3
    }
    header = (tmp_path / "out" / "stats.csv").read_text().splitlines()[0]
    assert header.count(".q05") == 3
    assert len((tmp_path / "out" / "pdf.csv").read_text().splitlines()) == 1 + 3 * 2


def test_saved_trajectories_and_noise_paths(repo_root, tmp_path):
    # run 0 of a batch of three writes the trajectory it writes alone, and
    # each dumped noise path reads back to the path its run seed builds
    doc = {"horizon_s": 0.5, "stochastic_buses": [1], "sigma_rel": 0.02}
    scenario = write_scenario(tmp_path, doc)
    flags = ("--seed", "7", "--order", "4", "--window", "0.01")
    many, one = tmp_path / "many", tmp_path / "one"
    argv = run_argv(repo_root, scenario, many, *flags, "--runs", "3",
                    "--save-trajectories", "--dump-noise")
    assert cli.main(argv) == 0
    assert cli.main(run_argv(repo_root, scenario, one, *flags)) == 0
    run0 = (many / "trajectory_000.csv").read_bytes()
    assert run0 == (one / "trajectory.csv").read_bytes()

    case = load_case(repo_root / "cases" / "smib.json")
    setup = SimulationSetup.build(case, load_scenario(scenario))
    n_vars = setup.n_noise_vars()
    for i in range(3):
        xi = build_noise_path((7, i), n_vars, 0.5, setup.scenario.resample_dt).xi
        rows = (many / f"noise_{i:03d}.csv").read_text().splitlines()[1:]
        got = np.array([float(row.split(",")[2]) for row in rows]).reshape(n_vars, -1)
        assert got.shape == xi.shape and np.array_equal(got, xi)
    artifacts = json.loads((many / "manifest.json").read_text())["artifacts"]
    names = [f"{kind}_{i:03d}.csv" for kind in ("trajectory", "noise") for i in range(3)]
    assert {str(many / name) for name in names} <= set(artifacts)


def test_paper_sde_runs_consume_and_dump_the_dt_grid_path(repo_root, tmp_path, monkeypatch):
    # a paper-sde run consumes the path of its seed on the dt grid, and
    # --dump-noise writes that same path
    doc = {"horizon_s": 0.1, "stochastic_buses": [1], "sigma_rel": 0.02}
    scenario = write_scenario(tmp_path, doc)
    ensembles = []

    def run_ensemble(*args, **kwargs):
        ensembles.append(ensemble.run_ensemble(*args, **kwargs))
        return ensembles[-1]

    monkeypatch.setattr(cli, "run_ensemble", run_ensemble)
    out = tmp_path / "out"
    argv = run_argv(repo_root, scenario, out, "--seed", "7", "--solver", "em",
                    "--em-mode", "paper-sde", "--runs", "2", "--dump-noise")
    assert cli.main(argv) == 0

    setup = SimulationSetup.build(load_case(repo_root / "cases" / "smib.json"),
                                  load_scenario(scenario))
    config = EMConfig(dt=1e-3, mode="paper-sde")
    n_vars = setup.n_noise_vars()
    for i, run in enumerate(ensembles[0].trajectories):
        path = build_noise_path((7, i), n_vars, 0.1, config.dt)
        rows = (out / f"noise_{i:03d}.csv").read_text().splitlines()[1:]
        got = np.array([float(row.split(",")[2]) for row in rows]).reshape(n_vars, -1)
        assert got.shape == path.xi.shape and np.array_equal(got, path.xi)
        assert_same_run(run, simulate_em_batch(setup, config, [path])[0])


def test_progress_after_every_batch(repo_root, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ensemble, "batch_size", lambda setup, config: 2)
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2})
    argv = run_argv(repo_root, scenario, tmp_path / "out", "--runs", "5",
                    "--order", "4", "--window", "0.01")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "completed 2/5 runs", "completed 4/5 runs", "completed 5/5 runs"
    ]


def test_known_stats_variables_are_written(repo_root, tmp_path):
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2, "monitor_buses": [1]})
    argv = run_argv(repo_root, scenario, tmp_path / "out", "--runs", "2",
                    "--order", "4", "--window", "0.01", "--stats-vars", "g2.eqp, v1")
    assert cli.main(argv) == 0
    header = (tmp_path / "out" / "stats.csv").read_text().splitlines()[0]
    assert header == "t,g2.eqp.mean,g2.eqp.std,v1.mean,v1.std"
