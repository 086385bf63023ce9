import json

from stochsim import cli
from stochsim.validate import CheckResult, check_smib_coefficients


def write_scenario(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_argv(repo_root, scenario, out, *extra) -> list[str]:
    return [
        "run",
        "--case", str(repo_root / "cases" / "smib.json"),
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


def test_scenario_without_horizon_exits_2(repo_root, tmp_path):
    scenario = write_scenario(tmp_path, {"fault_bus": 1})
    assert cli.main(run_argv(repo_root, scenario, tmp_path / "out")) == 2


def test_zero_runs_exits_2(repo_root, tmp_path):
    scenario = write_scenario(tmp_path, {"horizon_s": 0.2})
    argv = run_argv(repo_root, scenario, tmp_path / "out", "--runs", "0")
    assert cli.main(argv) == 2


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
