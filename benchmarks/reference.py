"""Tight accuracy references for the benchmark, and the script that makes them.

The benchmark reports the rotor-angle error of run 0 of master seed 0 (the
CLI default) against a reference computed here for the same noise draw and
committed next to this file, with the config in ``reference/config.json``:

- ``sas``: the series solver at a high order and short window (N=10,
  h=5e-3), on the same 0.1 s piecewise-constant load path the SAS
  workloads consume.  A second solve at N=8, h=0.01 is recorded as the
  reference's own error estimate.
- ``em``: the paper-sde Euler-Maruyama scheme at dt=1e-4, on a Brownian
  bridge refinement of run 0's own dt=1e-3 increments, so the fine path is
  the same Brownian motion the dt=1e-3 run sees.  A solve on the refinement
  summed to dt=2e-4 gives the reference's own error estimate.

Regenerate from the repository root (the EM reference takes a few minutes)::

    PYTHONPATH=src python3 benchmarks/reference.py [sas|em ...]
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "reference"
KINDS = ("sas", "em")


def load_config() -> dict:
    with open(REF_DIR / "config.json", encoding="utf-8") as fh:
        return json.load(fh)


def reference_path(kind: str, seed: int) -> Path:
    return REF_DIR / f"{kind}_seed{seed}.json"


def bridge_refine(xi: np.ndarray, refine: int, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal draws of a ``refine``-times finer Brownian path.

    ``xi`` is (n_vars, n_steps): the increment over coarse step k is
    sqrt(dt) * xi[:, k].  Each coarse increment is split into ``refine``
    sub-increments drawn from the Brownian bridge conditioned on it: for
    i.i.d. normals Z, Z_i - mean(Z) is independent of the sum, so adding the
    coarse increment's share back gives the conditional law.  In units of
    the fine step, sqrt(dt/refine) * sum(fine block) = sqrt(dt) * xi.
    """
    n_vars, n_steps = xi.shape
    z = rng.standard_normal((n_vars, n_steps, refine))
    fine = z - z.mean(axis=2, keepdims=True) + (xi / math.sqrt(refine))[:, :, None]
    return fine.reshape(n_vars, n_steps * refine)


def _delta_on_grid(traj, grid_s: float, n_points: int) -> np.ndarray:
    """(n_points, K) rotor angles of a trajectory at multiples of ``grid_s``."""
    step = float(traj.times[1] - traj.times[0])
    stride = round(grid_s / step)
    if stride < 1 or abs(stride * step - grid_s) > 1e-9:
        raise ValueError(f"output step {step} does not divide the grid {grid_s}")
    k = traj.n_gen
    rows = traj.states[: stride * (n_points - 1) + 1 : stride, :k]
    if rows.shape[0] != n_points:
        raise ValueError("trajectory is shorter than the reference grid")
    return rows


def angle_error(traj, ref: dict) -> float:
    """Max |delta - delta_ref| in rad over all machines and reference times."""
    if tuple(traj.gen_buses) != tuple(ref["gen_buses"]):
        raise ValueError("generator order differs from the reference")
    want = np.asarray(ref["delta"])
    got = _delta_on_grid(traj, ref["grid_s"], want.shape[0])
    return float(np.max(np.abs(got - want)))


def load_reference(kind: str, seed: int) -> dict:
    with open(reference_path(kind, seed), encoding="utf-8") as fh:
        return json.load(fh)


def _solve(kind: str, cfg: dict, root: Path, check: bool):
    from stochsim import EMConfig, NoisePath, SimulationSetup, SolverConfig
    from stochsim import build_noise_path, load_case, load_scenario, simulate_em, simulate_sas

    case = load_case(root / cfg["case"])
    scenario = load_scenario(root / cfg["scenario"])
    setup = SimulationSetup.build(case, scenario)
    seed = (cfg["master_seed"], cfg["run_index"])  # SeedSequence of ensemble run i
    n_vars, horizon, grid = setup.n_noise_vars(), scenario.horizon_s, cfg["grid_s"]
    if kind == "sas":
        c = cfg["sas"]
        order, window = (c["check_order"], c["check_window"]) if check else (c["order"], c["window"])
        path = build_noise_path(seed, n_vars, horizon, scenario.resample_dt)
        return simulate_sas(
            case, scenario, SolverConfig(order=order, window=window), path,
            setup=setup, out_stride=round(grid / window),
        )
    c = cfg["em"]
    coarse = build_noise_path(seed, n_vars, horizon, c["coarse_dt"])
    xi = bridge_refine(coarse.xi, c["refine"], np.random.default_rng(c["bridge_seed"]))
    dt = c["coarse_dt"] / c["refine"]
    if check:  # the same Brownian path at twice the step
        xi = (xi[:, 0::2] + xi[:, 1::2]) / math.sqrt(2.0)
        dt *= 2.0
    path = NoisePath(seed=coarse.seed, dt=dt, xi=xi)
    return simulate_em(
        case, scenario, EMConfig(dt=dt, mode=c["mode"]), path,
        setup=setup, out_stride=round(grid / dt),
    )


def make_reference(kind: str, root: Path) -> dict:
    """Solve the reference and its check solve; return the file content."""
    cfg = load_config()
    ref_traj = _solve(kind, cfg, root, check=False)
    n_points = round(ref_traj.times[-1] / cfg["grid_s"]) + 1
    delta = _delta_on_grid(ref_traj, cfg["grid_s"], n_points)
    check = _delta_on_grid(_solve(kind, cfg, root, check=True), cfg["grid_s"], n_points)
    if ref_traj.diverged or not np.isfinite(delta).all():
        raise RuntimeError(f"{kind} reference run diverged")
    return {
        "kind": kind,
        "config": {k: cfg[k] for k in ("case", "scenario", "master_seed", "run_index")}
        | {"solver": cfg[kind]},
        "grid_s": cfg["grid_s"],
        "gen_buses": list(ref_traj.gen_buses),
        "check_max_diff_rad": float(np.max(np.abs(check - delta))),
        "times": [round(i * cfg["grid_s"], 12) for i in range(n_points)],
        "delta": delta.tolist(),
    }


def main(argv: list[str]) -> int:
    root = BENCH_DIR.parent
    kinds = argv or list(KINDS)
    for kind in kinds:
        if kind not in KINDS:
            print(f"unknown reference {kind!r}; choose from {KINDS}", file=sys.stderr)
            return 2
    for kind in kinds:
        t0 = time.perf_counter()
        doc = make_reference(kind, root)
        path = reference_path(kind, doc["config"]["master_seed"])
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"{path.name}: check diff {doc['check_max_diff_rad']:.3e} rad, "
              f"{time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
