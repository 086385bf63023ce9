"""Benchmark of stochsim Monte Carlo ensembles on the IEEE 39-bus caseC scenario.

Run from the repository root::

    python3 benchmarks/run.py --workload ieee39-sas --seed 0 --seconds 24 --trace 0

``--trace 0`` repeats the workload's `stochsim run` call, in this process
through ``stochsim.cli.main``, until ``--seconds`` have passed and reports
the end-to-end metrics, in seconds at a reference CPU speed (see
``SpeedProbe``).  ``--trace 1`` alternates an untraced call with a traced
one and reports the per-layer metrics.  Every call's
outputs are checked.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the full record, with
the environment, is written to ``.bench_out/<workload>/result-trace<t>.json``.
README.md next to this file defines every metric.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_BEFORE = {v: os.environ.get(v) for v in THREAD_VARS}
# One BLAS thread per process, set before numpy loads and inherited by the
# ensemble's worker processes, so --jobs 2 never runs more threads than cores.
os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from reference import angle_error, load_config, load_reference  # noqa: E402
from spans import Tracer, totals_by_name  # noqa: E402
from workloads import CASE, SCENARIO, WORKLOADS, cli_argv, master_seed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# Set-up takes milliseconds, so it is timed in batches of repeats lasting
# at least this long, spread over the whole measurement, each long enough
# for several speed probes.
SETUP_BATCH_S = 0.5

# name -> (unit, better); the order is the order of the printed report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "runs_per_s": ("1/s", "higher"),
    "run_s_p50": ("s", "lower"),
    "total_s": ("s", "lower"),
    "angle_err_rad": ("rad", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}
# self-time metrics: every span name maps to exactly one, so they sum to trace.wall_s
SELF_TIME = {
    "case.load_s": "case.load",
    "scenario.setup_s": "scenario.setup",
    "powerflow.solve_s": "powerflow.solve",
    "dynamics.equilibrium_s": "dynamics.equilibrium",
    "ensemble.run_self_s": "ensemble.run",
    "noise.path_s": "noise.path",
    "noise.schedule_s": "noise.schedule",
    "scenario.driver_self_s": "scenario.driver",
    "network.build_net_s": "network.build_net",
    "sas.window_s": "sas.window",
    "series.eval_s": "series.eval",
    "dynamics.rhs_s": "dynamics.rhs",
    "ensemble.stats_s": "ensemble.stats",
    "ensemble.stability_s": "ensemble.stability",
    "cli.output_self_s": "cli.run",
}
# span names also reported as calls per run and microseconds per call
PER_RUN_CALLS = ("network.build_net", "sas.window", "dynamics.rhs")
PER_LAYER = (
    {name: "s" for name in SELF_TIME}
    | {f"{m}_calls": "count" for m in PER_RUN_CALLS}
    | {f"{m}_us": "us" for m in PER_RUN_CALLS}
    | {
        "powerflow.calls": "count",
        "cli.output_bytes": "bytes",
        "cli.stats_rows": "count",
        "ensemble.parallel_eff": "ratio",
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
    }
)


def trace_targets(prog) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every layer boundary on the run path.

    Each owner is the namespace the caller resolves the name in at call
    time: the CLI module for what ``cmd_run`` calls, the solver modules for
    what the steppers call, the class for methods.
    """
    cli, scenario, sas, em = prog.cli, prog.scenario, prog.sas, prog.em
    setup_cls = scenario.SimulationSetup
    return [
        (cli, "load_case", "case.load"),
        (cli, "load_scenario", "scenario.setup"),
        (setup_cls, "build", "scenario.setup"),
        (scenario, "solve_power_flow", "powerflow.solve"),
        (prog.dynamics, "solve_power_flow", "powerflow.solve"),
        (cli, "solve_equilibrium", "dynamics.equilibrium"),
        (cli, "run_ensemble", "ensemble.run"),
        (prog.ensemble, "build_noise_path", "noise.path"),
        (scenario, "load_schedule", "noise.schedule"),
        (sas, "run_simulation", "scenario.driver"),
        (em, "run_simulation", "scenario.driver"),
        (setup_cls, "build_net", "network.build_net"),
        (sas, "window_coefficients", "sas.window"),
        (sas, "series_eval", "series.eval"),
        (em, "rhs", "dynamics.rhs"),
        (cli, "ensemble_stats", "ensemble.stats"),
        (cli, "confidence_envelope", "ensemble.stats"),
        (cli, "pdf_evolution", "ensemble.stats"),
        (cli, "stability_report", "ensemble.stability"),
    ]


_PROBE_RNG = np.random.default_rng(1710)
PROBE_A = _PROBE_RNG.random((10, 10))
PROBE_B = _PROBE_RNG.random((30, 30)) + 30.0 * np.eye(30)
PROBE_V = np.ones(10)
# Duration of probe_kernel at the reference speed, about its median on the
# 2-vCPU virtual machine the README's figures come from.  Scaled times are
# seconds at that speed; any fixed value would do, as long as it is the same
# on the commits being compared.
PROBE_REF_S = 5.0e-4


def probe_kernel() -> float:
    """A fixed piece of work, about 0.5 ms, that does not depend on stochsim.

    The mix resembles a run's: interpreter work, products of small matrices
    and a small dense solve.
    """
    acc = 0.0
    x = PROBE_A
    for i in range(60):
        acc += float((x @ PROBE_V)[i % 10])
        x = x * 0.999
    for i in range(6):
        acc += float(np.linalg.solve(PROBE_B, PROBE_B[:, i])[0])
    counts: dict[int, int] = {}
    for i in range(200):
        counts[i & 31] = counts.get(i & 31, 0) + i
    return acc


class SpeedProbe:
    """Samples the CPU speed the measured code sees, while it runs.

    The CPUs of a shared virtual machine change speed, by up to 2x, for
    seconds to minutes at a time, with other tenants' load; a run that
    falls in a slow stretch is slow as a whole.  A SIGALRM timer runs
    ``probe_kernel`` every ``interval`` seconds in this process, so each
    sample is taken on the CPU, and at the moment, the measured code runs
    on.  ``scaled`` converts the wall time of an interval into seconds at
    the reference speed: the time minus the probes inside it, times the
    mean speed the probes around it saw.  A change to the program changes
    the wall time but not the probes.
    """

    MIN_PROBES = 8

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(20):  # warm up: the first calls are slower
            probe_kernel()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def _within(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self.durations[lo:hi]

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in probes."""
        return sum(self._within(t0, t1))

    def factor(self, t0: float, t1: float) -> float:
        """Reference-speed seconds per wall second over [t0, t1].

        The mean of ``PROBE_REF_S`` / duration over the probes in the
        window, each probe a sample of the speed at its moment.  A window
        shorter than ``MIN_PROBES`` intervals is widened about its middle.
        """
        half = max(t1 - t0, self.MIN_PROBES * self.interval) / 2
        mid = (t0 + t1) / 2
        d = self._within(mid - half, mid + half)
        if not d:
            raise ValueError(f"no speed probe within {half:.3g} s of {mid:.6g}")
        return statistics.fmean(PROBE_REF_S / x for x in d)

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] without probes, at the reference speed."""
        return (t1 - t0 - self.busy(t0, t1)) * self.factor(t0, t1)


class Program:
    """The stochsim modules of this checkout, imported from its ``src``."""

    def __init__(self, root: Path):
        src = root / "src"
        sys.path.insert(0, str(src))
        import stochsim
        from stochsim import cli, dynamics, em, ensemble, network, sas, scenario

        if Path(stochsim.__file__).resolve().parent != (src / "stochsim").resolve():
            raise ImportError(f"stochsim was imported from {stochsim.__file__}, not {src}")
        self.stochsim, self.cli, self.dynamics, self.em = stochsim, cli, dynamics, em
        self.ensemble, self.network, self.sas, self.scenario = ensemble, network, sas, scenario


@dataclass
class Call:
    """One `stochsim run` call and the checks of its outputs."""

    argv: list[str]
    runs: int
    rc: int | None = None
    start: float = 0.0  # perf_counter at the call's start and end
    end: float = 0.0
    ensemble_start: float | None = None  # the same, of run_ensemble
    ensemble_end: float | None = None
    failed: int = 0
    error: str | None = None
    ensemble_seconds: float | None = None
    run_seconds: list[float] = field(default_factory=list)
    scaled: dict = field(default_factory=dict)  # set by scale_call
    diverged: list[bool] = field(default_factory=list)
    stats_sha256: str | None = None
    stats_rows: int = 0
    grid_rows: int = 0
    out_bytes: int = 0
    first_run: object = None  # Trajectory of run 0, kept only when asked

    @property
    def wall(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            k: v for k, v in self.__dict__.items() if k not in ("argv", "first_run")
        } | {"argv": [a.replace(str(ROOT), ".") for a in self.argv], "wall": self.wall}


def run_call(prog, argv: list[str], runs: int, tracer=None, keep_first=False) -> Call:
    """Run ``stochsim run`` in-process and check what it produced.

    A run fails when the call does not exit 0, or when its trajectory holds
    a non-finite value without being marked diverged.
    """
    call = Call(argv=argv, runs=runs, failed=runs)
    out = Path(argv[argv.index("--out") + 1])
    shutil.rmtree(out, ignore_errors=True)
    captured = []
    real = prog.cli.run_ensemble

    def capture(*args, **kwargs):
        call.ensemble_start = time.perf_counter()
        ens = real(*args, **kwargs)
        call.ensemble_end = time.perf_counter()
        captured.append(ens)
        return ens

    prog.cli.run_ensemble = capture
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            call.start = time.perf_counter()
            if tracer is None:
                call.rc = prog.cli.main(argv)
            else:
                with tracer:
                    call.rc = tracer.span("cli.run", prog.cli.main, argv)
            call.end = time.perf_counter()
    except Exception:  # a crash is a failed call, reported, not a benchmark abort
        call.error = traceback.format_exc()
    finally:
        prog.cli.run_ensemble = real

    if call.rc == 0 and len(captured) == 1 and captured[0].n_runs == runs:
        ens = captured[0]
        call.failed = sum(
            1
            for tr in ens.trajectories
            if not tr.diverged
            and not (np.isfinite(tr.states).all() and np.isfinite(tr.voltages).all())
        )
        call.diverged = [bool(tr.diverged) for tr in ens.trajectories]
        call.grid_rows = int(ens.times.shape[0])
        if keep_first:
            call.first_run = ens.trajectories[0]
    elif call.rc is not None and call.error is None:
        call.error = f"exit code {call.rc}"
    manifest = out / "manifest.json"
    if manifest.is_file():
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        call.ensemble_seconds = doc.get("total_seconds")
        call.run_seconds = doc.get("run_seconds", [])
    stats = out / "stats.csv"
    if stats.is_file():
        data = stats.read_bytes()
        call.stats_sha256 = hashlib.sha256(data).hexdigest()
        call.stats_rows = data.count(b"\n") - 1
    if out.is_dir():
        call.out_bytes = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return call


def scale_call(call: Call, probe: SpeedProbe) -> None:
    """Set the call's times at the reference speed (``Call.scaled``).

    The runs of a --jobs 1 ensemble follow one another, so each run's
    interval is rebuilt from the ensemble's start and the runs' durations,
    and scaled with the speed during it.
    """
    runs = []
    t = call.ensemble_start
    for r in call.run_seconds:
        runs.append(probe.scaled(t, t + r))
        t += r
    call.scaled = {
        "total_s": probe.scaled(call.start, call.end),
        "ensemble_s": probe.scaled(call.ensemble_start, call.ensemble_end),
        "run_seconds": runs,
    }


def time_setup(prog, root: Path, probe: SpeedProbe) -> list[float]:
    """Times of everything `stochsim run` does outside the runs, scaled.

    Loading the case and scenario, ``SimulationSetup.build`` and the
    pre-fault equilibrium solve the stability criterion uses; repeated for
    ``SETUP_BATCH_S`` and scaled with the speed over the batch.
    """
    st = prog.stochsim
    spans = []
    while not spans or spans[-1][1] - spans[0][0] < SETUP_BATCH_S:
        t0 = time.perf_counter()
        case = st.load_case(root / CASE)
        scenario = st.load_scenario(root / SCENARIO)
        setup = st.SimulationSetup.build(case, scenario)
        st.solve_equilibrium(
            case, prog.network.NetworkCondition("pre-fault"), dict(setup.mean_loads)
        )
        spans.append((t0, time.perf_counter()))
    k = probe.factor(spans[0][0], spans[-1][1])
    return [(t1 - t0 - probe.busy(t0, t1)) * k for t0, t1 in spans]


def layer_metrics(spans, runs: int) -> dict[str, float]:
    """Per-layer metrics of one traced call from its spans."""
    agg = totals_by_name(spans)
    m = {metric: agg.get(name, (0, 0.0))[1] for metric, name in SELF_TIME.items()}
    for name in PER_RUN_CALLS:
        count, busy = agg.get(name, (0, 0.0))
        m[f"{name}_calls"] = count / runs
        m[f"{name}_us"] = busy / count * 1e6 if count else 0.0
    m["powerflow.calls"] = agg.get("powerflow.solve", (0, 0.0))[0]
    root = spans[0]
    m["trace.wall_s"] = root.end - root.start
    return m


def environment(root: Path, prog) -> dict:
    """Machine, build and thread settings the numbers were measured under."""
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for path in sorted((root / "src" / "stochsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": _git_revision(root),
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "num_threads_set_by_benchmark": {
            v: {"before": THREADS_BEFORE[v], "set": "1"} for v in THREAD_VARS
        },
        "stochsim": prog.stochsim.__version__,
    }


def _git_revision(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_end_to_end(prog, w, seed: int, seconds: float, out: Path):
    """Timed calls of the workload, the accuracy check and set-up repeats."""
    ref_cfg = load_config()
    ref_seed = ref_cfg["master_seed"]
    # Run 0 of the reference's master seed, for the accuracy metric; it also
    # warms the process up before anything is timed.
    accuracy = run_call(
        prog, cli_argv(w, ROOT, ref_seed, out / "accuracy", runs=1), 1, keep_first=True
    )
    angle_err = None
    if accuracy.first_run is not None:
        angle_err = angle_error(accuracy.first_run, load_reference(w.reference, ref_seed))
        accuracy.first_run = None
    tolerance = ref_cfg["tolerance_rad"][w.reference]

    calls = []
    argv = cli_argv(w, ROOT, seed, out / "run")
    with SpeedProbe() as probe:
        setup_times = time_setup(prog, ROOT, probe)
        t_start = time.perf_counter()
        while not calls or time.perf_counter() - t_start < seconds:
            calls.append(run_call(prog, argv, w.runs))
            if len(calls) == 1:
                # after a fixed amount of work, so the figure does not grow
                # with the number of calls a faster program fits into the time
                maxrss_kb = {
                    "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                }
            setup_times += time_setup(prog, ROOT, probe)
    ok = [c for c in calls if c.rc == 0 and c.ensemble_end is not None and c.run_seconds]
    for c in ok:
        scale_call(c, probe)

    gates = {
        "exit code 0 on every call": all(c.rc == 0 for c in [accuracy, *calls]),
        "non-diverged trajectories finite": all(c.failed == 0 for c in [accuracy, *calls]),
        "stats.csv has one row per output time": all(
            c.stats_rows == c.grid_rows > 0 for c in calls
        ),
        "repeated calls give byte-identical stats.csv": len({c.stats_sha256 for c in calls}) == 1,
        f"angle error within {tolerance} rad": angle_err is not None and angle_err <= tolerance,
    }
    all_calls = [accuracy, *calls]
    attempted = sum(c.runs for c in all_calls)
    failed = sum(c.failed for c in all_calls)
    metrics = {}
    if ok and angle_err is not None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "runs_per_s": statistics.median(c.runs / c.scaled["ensemble_s"] for c in ok),
            "run_s_p50": statistics.median(s for c in ok for s in c.scaled["run_seconds"]),
            "total_s": statistics.median(c.scaled["total_s"] for c in ok),
            "angle_err_rad": angle_err,
            "peak_rss_mb": (maxrss_kb["self"] + maxrss_kb["children"]) / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
    detail = {
        "setup_times_scaled_s": setup_times,
        "accuracy": accuracy.record() | {"angle_err_rad": angle_err, "tolerance_rad": tolerance},
        "calls": [c.record() for c in calls],
        "ru_maxrss_kb_after_first_call": maxrss_kb,
        "speed_probe": {
            "interval_s": probe.interval,
            "reference_s": PROBE_REF_S,
            "samples": len(probe.durations),
            "median_s": statistics.median(probe.durations),
            "quartiles_s": statistics.quantiles(probe.durations, n=4),
        },
    }
    return metrics, gates, attempted, failed, detail


@dataclass
class Round:
    """One untraced and one traced call of a workload, both at --jobs 1.

    ``parallel`` is an extra untraced call at the workload's
    ``parallel_jobs``, made when that is above 1.
    """

    parallel: Call | None
    base: Call
    traced: Call
    layers: dict
    missing: list[str]

    def calls(self) -> list[Call]:
        return [c for c in (self.parallel, self.base, self.traced) if c is not None]


def measure_layers(prog, w, seed: int, seconds: float, out: Path):
    """Untraced and traced calls in turn; per-layer metrics from the traced ones."""
    rounds = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        parallel = None
        if w.parallel_jobs > 1:
            argv = cli_argv(w, ROOT, seed, out / "parallel", jobs=w.parallel_jobs)
            parallel = run_call(prog, argv, w.runs)
        base = run_call(prog, cli_argv(w, ROOT, seed, out / "untraced"), w.runs)
        tracer = Tracer(trace_targets(prog))
        traced = run_call(prog, cli_argv(w, ROOT, seed, out / "traced"), w.runs, tracer)
        spans = tracer.finished()
        layers = layer_metrics(spans, w.runs) if spans else {}
        rounds.append(Round(parallel, base, traced, layers, tracer.missing))
        del spans, tracer

    calls = [c for r in rounds for c in r.calls()]
    attempted = sum(c.runs for c in calls)
    failed = sum(c.failed for c in calls)
    gates = {
        "exit code 0 on every call": all(c.rc == 0 for c in calls),
        "non-diverged trajectories finite": all(c.failed == 0 for c in calls),
        "every wrapper installed": not any(r.missing for r in rounds),
        "layer self times sum to the traced wall time": all(
            r.layers
            and abs(sum(r.layers[k] for k in SELF_TIME) - r.layers["trace.wall_s"])
            <= 1e-9 * r.layers["trace.wall_s"]
            for r in rounds
        ),
        "traced and untraced calls give byte-identical stats.csv": all(
            r.base.stats_sha256 is not None and r.base.stats_sha256 == r.traced.stats_sha256
            for r in rounds
        ),
    }
    if w.parallel_jobs > 1:
        gate = f"--jobs {w.parallel_jobs} and --jobs 1 give identical stats.csv and diverged flags"
        gates[gate] = all(
            r.parallel.stats_sha256 == r.traced.stats_sha256
            and r.parallel.diverged == r.traced.diverged
            for r in rounds
        )
    metrics = {}
    good = [r for r in rounds if r.layers and all(c.rc == 0 for c in r.calls())]
    if good:
        metrics = {name: statistics.median(r.layers[name] for r in good) for name in good[0].layers}
        metrics["ensemble.parallel_eff"] = statistics.median(
            sum(c.run_seconds) / (w.parallel_jobs * c.ensemble_seconds)
            for c in (r.parallel or r.base for r in good)
        )
        metrics["cli.output_bytes"] = statistics.median(r.traced.out_bytes for r in good)
        metrics["cli.stats_rows"] = statistics.median(r.traced.stats_rows for r in good)
        metrics["trace.overhead_frac"] = (
            statistics.median(r.traced.wall for r in good)
            / statistics.median(r.base.wall for r in good)
            - 1.0
        )
    detail = {
        "rounds": [
            {
                "parallel": r.parallel.record() if r.parallel else None,
                "untraced": r.base.record(),
                "traced": r.traced.record(),
                "layers": r.layers,
                "missing_wrappers": r.missing,
            }
            for r in rounds
        ]
    }
    return metrics, gates, attempted, failed, detail


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing starts with a pool."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    missing = [p for p in ("src/stochsim/__init__.py", CASE, SCENARIO) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a stochsim checkout; missing {missing}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    prog = Program(ROOT)
    w = WORKLOADS[args.workload]
    seed = master_seed(args.seed)
    out = OUT_DIR / w.name
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, gates, attempted, failed, detail = measure(prog, w, seed, args.seconds, out)
    finally:
        _stop_resource_tracker()

    units = PER_LAYER if args.trace else {k: u for k, (u, _) in END_TO_END.items()}
    result = {
        "correct": all(gates.values()) and failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "master_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "gates": gates,
        "result": result,
        "environment": environment(ROOT, prog),
        "detail": detail,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    for name, passed in gates.items():
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    print(f"{w.name}: {failed} of {attempted} runs failed (failed_frac {failed / attempted:.4g})")
    for name, m in result["metrics"].items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    if set(metrics) != set(units):
        print(f"error: metrics missing: {sorted(set(units) - set(metrics))}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
