import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochsim.noise import NoisePath, build_noise_path, load_schedule, path_to_csv
from stochsim.scenario import Scenario, SimulationSetup, load_scenario
from stochsim.validate import _ou_rows as ou_rows


def test_exact_step_deterministic_decay():
    # one unit draw in noise column 0 and none after it: row 1 is the noise
    # scale b sqrt((1 - e^{-2a dt}) / 2a), and each later row decays by e^{-a dt}
    a, b, dt = 0.5, 0.7, 0.3
    xi = np.zeros((1, 20))
    xi[0, 0] = 1.0
    vals = load_schedule(np.zeros(1), a, np.array([b]), [NoisePath((0,), dt, xi)], dt)[0, :, 0]
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(b * math.sqrt(-math.expm1(-2 * a * dt) / (2 * a)))
    assert vals[2:] == pytest.approx(vals[1] * np.exp(-a * dt * np.arange(1, 19)))


def test_exact_step_brownian_limit():
    # a -> 0 reduces each step to a plain Brownian increment b sqrt(dt) xi
    b, dt = 0.7, 0.25
    path = build_noise_path(3, 8, 50.0, dt)
    vals = load_schedule(np.zeros(8), 1e-12, np.full(8, b), [path], dt)[0]
    walk = np.cumsum(b * math.sqrt(dt) * path.xi[:, :-1], axis=1).T
    assert np.all(vals[0] == 0.0)
    assert np.allclose(vals[1:], walk, rtol=1e-6, atol=1e-9)


def test_exact_step_stationary_variance_monte_carlo():
    # the transition is exact for any step, so sample at two correlation
    # times: 1,000 variables of one path, 100 rows each after a burn-in of
    # 5 rows (bias e^-20), give 1e5 near-independent draws (effective
    # share (1 - e^-4) / (1 + e^-4) = 0.964) that estimate b^2/2a to 0.46%
    a, b = 0.5, 1.0
    x = ou_rows(a, b, 123, 1_000, 4.0, 5, 100)
    assert np.var(x) == pytest.approx(b**2 / (2 * a), rel=0.02)


def test_autocorrelation_decay():
    # the lag-5 correlation of rows 0.1 s apart (tau = 0.5 s), pooled over
    # 500 variables of one path after a burn-in of 100 rows (bias e^-10),
    # has variance 1.81/n by Bartlett's formula: n = 97,500 pairs give an
    # SE of 0.0043, so 0.05 spans 12 SE
    a, dt, lag = 0.5, 0.1, 5
    x = ou_rows(a, 1.0, 99, 500, dt, 100, 200)
    corr = np.corrcoef(x[:-lag].ravel(), x[lag:].ravel())[0, 1]
    assert corr == pytest.approx(math.exp(-a * lag * dt), abs=0.05)


def test_noise_path_determinism():
    a = build_noise_path(42, 4, 10.0, 0.1)
    b = build_noise_path(42, 4, 10.0, 0.1)
    assert np.array_equal(a.xi, b.xi)
    c = build_noise_path(43, 4, 10.0, 0.1)
    assert a.xi[0, 0] != c.xi[0, 0]


def test_noise_path_shape_and_normality():
    path = build_noise_path(7, 5, 2000.0, 0.1)
    assert path.xi.shape == (5, 20000)
    pooled = path.xi.ravel()
    assert abs(pooled.mean()) < 0.02
    assert pooled.var() == pytest.approx(1.0, abs=0.02)


def test_noise_path_seed_sequence_form():
    a = build_noise_path((11, 3), 2, 1.0, 0.1)
    b = build_noise_path((11, 3), 2, 1.0, 0.1)
    assert np.array_equal(a.xi, b.xi)
    assert a.seed == (11, 3)


def test_load_schedule_zero_sigma_constant():
    mean = np.array([3.22, 0.024])
    path = build_noise_path(1, 2, 5.0, 0.1)
    vals = load_schedule(mean, 0.5, np.zeros(2), [path], 0.1)[0]
    assert np.all(vals[:, 0] == 3.22)
    assert np.all(vals[:, 1] == 0.024)


def test_load_schedule_first_interval_is_mean():
    mean = np.array([3.22, 0.024])
    path = build_noise_path(1, 2, 5.0, 0.1)
    vals = load_schedule(mean, 0.5, 0.05 * mean, [path], 0.1)[0]
    assert vals.shape == (path.n_steps, 2)
    assert vals[0, 0] == 3.22
    assert vals[1, 0] != 3.22


def test_load_schedule_pooled_std(smib_case):
    # b as production sets it, sigma_rel * |mean| * sqrt(2a), gives each
    # load the stationary deviation sigma_rel * |mean|
    sc = Scenario(horizon_s=1.0, stochastic_buses=(1,), sigma_rel=0.02)
    setup = SimulationSetup.build(smib_case, sc)
    assert list(setup.ou_mean) == [0.6, 0.25]
    pooled = []
    for seed in range(40):
        path = build_noise_path(seed, 2, 100.0, 0.1)
        vals = load_schedule(setup.ou_mean, setup.scenario.drift_a, setup.ou_b, [path], 0.1)[0]
        pooled.append(vals[200:])
    pooled = np.concatenate(pooled)
    assert pooled.std(axis=0) == pytest.approx(0.02 * setup.ou_mean, rel=0.05)


def test_load_schedule_columns_follow_noise_row_order():
    # column j is the scalar exact-step recursion driven by noise row j,
    # with the mean and the diffusion of variable j
    mean = np.array([3.2, 0.4, 5.0, 1.8])
    b = np.array([0.05, 0.05, 0.02, 0.02]) * mean
    path = build_noise_path(2, 4, 3.0, 0.1)
    vals = load_schedule(mean, 0.5, b, [path], 0.1)[0]
    decay = math.exp(-0.5 * path.dt)
    scale = math.sqrt(-math.expm1(-2 * 0.5 * path.dt) / (2 * 0.5))
    for j in range(4):
        eps = 0.0
        for k in range(path.n_steps):
            assert vals[k, j] == pytest.approx(mean[j] + eps, rel=1e-14, abs=1e-15)
            eps = eps * decay + b[j] * scale * path.xi[j, k]


@pytest.mark.parametrize(
    "euler, coefficients",
    [
        (
            False,
            lambda a, b, dt: (np.exp(-a * dt), b * np.sqrt(-np.expm1(-2 * a * dt) / (2 * a))),
        ),
        (True, lambda a, b, dt: (1.0 - a * dt, b * math.sqrt(dt))),
    ],
    ids=["exact", "euler"],
)
def test_load_schedule_follows_ar1_recursion(euler, coefficients):
    # both discretizations are one recursion from the mean in row 0: row k
    # is eps_k = d eps_{k-1} + s xi_{k-1}, with each variable's own (a, b);
    # (d, s) is the exact transition or the Euler-Maruyama step
    mean = np.array([3.2, 0.4, 5.0, 1.8])
    a = np.array([0.5, 0.5, 2.0, 2.0])
    b = np.array([0.05, 0.05, 0.02, 0.02]) * mean * np.sqrt(2.0 * a)
    dt = 1e-3
    path = build_noise_path(6, 4, 0.5, dt)
    vals = load_schedule(mean, a, b, [path], dt, euler=euler)[0]
    assert vals.shape == (path.n_steps, 4)
    assert np.array_equal(vals[0], mean)
    d, s = coefficients(a, b, dt)
    eps = np.zeros(4)
    for k in range(1, path.n_steps):
        eps = d * eps + s * path.xi[:, k - 1]
        assert np.array_equal(vals[k], mean + eps)
    # the two (d, s) pairs differ: so do the schedules after row 0
    other = load_schedule(mean, a, b, [path], dt, euler=not euler)[0]
    assert not np.array_equal(vals[1:], other[1:])


@pytest.mark.parametrize("euler", [False, True], ids=["exact", "euler"])
@pytest.mark.parametrize("name", ["caseC", "caseA"])
def test_stacked_schedules_equal_each_run_alone(ieee39_case, repo_root, name, euler):
    # one recursion over a batch's (R, n, 2S) rows gives every run the bits
    # of its own schedule, for every load bus in order (caseC) and for the
    # index rows of a subset (caseA); a stack without ``out`` is as long as
    # its first path
    setup = SimulationSetup.build(
        ieee39_case, load_scenario(repo_root / "scenarios" / f"{name}.json")
    )
    sc = setup.scenario
    n_vars = setup.n_noise_vars()
    dt = 1e-3 if euler else sc.resample_dt
    paths = [build_noise_path((11, i), n_vars, (3 + i) * 40 * dt, dt) for i in range(4)]
    args = (setup.ou_mean, sc.drift_a, setup.ou_b)
    rows = np.empty((4, 100, n_vars))
    load_schedule(*args, paths, dt, euler=euler, out=rows)
    stack = load_schedule(*args, paths, dt, euler=euler)
    assert stack.shape == (4, 120, n_vars)
    for path, got, whole in zip(paths, rows, stack):
        alone = load_schedule(*args, [path], dt, euler=euler)[0]
        assert np.array_equal(got, alone[:100])
        assert np.array_equal(whole, alone[:120])
    assert not np.array_equal(rows[0], rows[1])


@pytest.mark.parametrize("euler", [False, True], ids=["exact", "euler"])
def test_load_schedule_refuses_bad_paths(euler):
    # with either (d, s) pair, every path of a stack must step at the one
    # dt, cover the rows and hold the schedule's variables
    mean, a, b = np.array([1.0, 2.0]), np.array([0.5, 2.0]), np.array([0.1, 0.3])
    first = build_noise_path(1, 2, 1.0, 0.1)
    cases = [
        ("load step", build_noise_path(2, 2, 1.0, 0.05), None),
        ("does not cover", build_noise_path(2, 2, 0.5, 0.1), np.empty((2, 10, 2))),
        ("does not cover", build_noise_path(2, 3, 1.0, 0.1), None),
        ("required", None, None),
    ]
    for match, second, out in cases:
        with pytest.raises(ValueError, match=match):
            load_schedule(mean, a, b, [first, second], 0.1, euler=euler, out=out)


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=30, deadline=None)
def test_affine_shift_independent_of_mean(m1, m2):
    # identical OU parameters, different means: the deviations agree with
    # the mean-zero schedule
    b = np.array([0.03, 0.0])
    path = build_noise_path(5, 2, 3.0, 0.1)
    base = load_schedule(np.zeros(2), 0.5, b, [path], 0.1)[0, :, 0]
    for m in (m1, m2):
        eps = load_schedule(np.array([m, 0.0]), 0.5, b, [path], 0.1)[0, :, 0] - np.float64(m)
        assert np.allclose(eps, base, atol=1e-12)


def test_path_csv_roundtrip_header():
    path = build_noise_path(1, 2, 0.3, 0.1)
    text = "".join(path_to_csv(path))
    lines = text.strip().split("\n")
    assert lines[0] == "variable,step,xi"
    assert len(lines) == 1 + 2 * 3
    for line, (var, step) in zip(lines[1:], np.ndindex(2, 3)):
        assert line.split(",")[:2] == [str(var), str(step)]
        assert float(line.split(",")[2]) == path.xi[var, step]
