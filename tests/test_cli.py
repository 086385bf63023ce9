import json

import pytest

from stochsim import cli
from stochsim.case import load_case
from stochsim.network import ReductionError
from stochsim.powerflow import PowerFlowError, solve_power_flow
from stochsim.validate import CheckResult, check_smib_coefficients


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


def test_injected_smib_error_fails_its_check():
    assert check_smib_coefficients().passed
    assert not check_smib_coefficients(inject_error=1e-3).passed
