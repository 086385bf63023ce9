import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochsim.noise import (
    NoisePath,
    OUParams,
    build_noise_path,
    load_schedule,
    ou_closed_form,
    ou_em_step,
    ou_exact_step,
    path_to_csv,
)
from stochsim.scenario import Scenario, SimulationSetup
from stochsim.smib import ou_moments


def test_ou_params_domain():
    with pytest.raises(ValueError):
        OUParams(0.0, 1.0)
    with pytest.raises(ValueError):
        OUParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        OUParams(1.0, -0.1)


def test_exact_step_deterministic_decay():
    p = OUParams(0.5, 0.0)
    out = ou_exact_step(2.0, p.a, p.b, 0.3, 1.234)
    assert out == pytest.approx(2.0 * math.exp(-0.15))


def test_exact_step_brownian_limit():
    # a -> 0 reduces to a plain Brownian increment
    p = OUParams(1e-12, 0.7)
    dt, xi = 0.25, -1.1
    out = ou_exact_step(0.4, p.a, p.b, dt, xi)
    assert out == pytest.approx(0.4 + 0.7 * math.sqrt(dt) * xi, rel=1e-6)


def test_exact_step_stationary_variance_monte_carlo():
    # the transition is exact for any step, so sample at two correlation
    # times; 1e5 near-independent draws estimate the variance to ~0.5%
    p = OUParams(0.5, 1.0)
    rng = np.random.default_rng(123)
    n = 100_000
    dt = 4.0
    eps = 0.0
    samples = np.empty(n)
    for i in range(n):
        eps = ou_exact_step(eps, p.a, p.b, dt, rng.standard_normal())
        samples[i] = eps
    assert np.var(samples) == pytest.approx(ou_moments(p, 0.0, math.inf)[1], rel=0.02)


def test_exact_step_transition_composition():
    # two half steps compose to one full step in distribution: the decay
    # factors match exactly and the variances to 1e-12
    p = OUParams(0.7, 1.3)
    dt = 0.2
    decay_full = math.exp(-p.a * dt)
    decay_half = math.exp(-p.a * dt / 2.0)
    assert decay_half * decay_half == pytest.approx(decay_full, rel=1e-15)
    stationary = ou_moments(p, 0.0, math.inf)[1]
    var_full = stationary * -math.expm1(-2 * p.a * dt)
    var_half = stationary * -math.expm1(-p.a * dt)
    composed = var_half * decay_half**2 + var_half
    assert composed == pytest.approx(var_full, rel=1e-12)


def test_autocorrelation_decay():
    p = OUParams(0.5, 1.0)
    dt, lag = 0.1, 5  # tau = 0.5 s
    rng = np.random.default_rng(99)
    n = 100_000
    x = np.empty(n)
    eps = 0.0
    for i in range(n):
        eps = ou_exact_step(eps, p.a, p.b, dt, rng.standard_normal())
        x[i] = eps
    x = x[1000:]
    corr = np.corrcoef(x[:-lag], x[lag:])[0, 1]
    assert corr == pytest.approx(math.exp(-p.a * lag * dt), abs=0.05)


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
    vals = load_schedule(mean, 0.5, np.zeros(2), path)
    assert np.all(vals[:, 0] == 3.22)
    assert np.all(vals[:, 1] == 0.024)


def test_load_schedule_first_interval_is_mean():
    mean = np.array([3.22, 0.024])
    path = build_noise_path(1, 2, 5.0, 0.1)
    vals = load_schedule(mean, 0.5, 0.05 * mean, path)
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
        vals = load_schedule(setup.ou_mean, setup.ou_a, setup.ou_b, path)
        pooled.append(vals[200:])
    pooled = np.concatenate(pooled)
    assert pooled.std(axis=0) == pytest.approx(0.02 * setup.ou_mean, rel=0.05)


def test_load_schedule_columns_follow_noise_grid_order():
    # column j is the scalar exact-step recursion driven by noise row j,
    # with the mean and the diffusion of variable j
    mean = np.array([3.2, 0.4, 5.0, 1.8])
    b = np.array([0.05, 0.05, 0.02, 0.02]) * mean
    path = build_noise_path(2, 4, 3.0, 0.1)
    vals = load_schedule(mean, 0.5, b, path)
    for j in range(4):
        eps = 0.0
        for k in range(path.n_steps):
            assert vals[k, j] == pytest.approx(mean[j] + eps, rel=1e-14, abs=1e-15)
            eps = ou_exact_step(eps, 0.5, b[j], path.dt, path.xi[j, k])


def test_euler_load_schedule_follows_em_recursion():
    # the paper-sde schedule on the integration grid: the mean in row 0,
    # then row k is one Euler-Maruyama step from row k-1 driven by noise
    # column k-1, dW = sqrt(dt) xi, with each variable's own (a, b)
    mean = np.array([3.2, 0.4, 5.0, 1.8])
    a = np.array([0.5, 0.5, 2.0, 2.0])
    b = np.array([0.05, 0.05, 0.02, 0.02]) * mean * np.sqrt(2.0 * a)
    dt = 1e-3
    path = build_noise_path(6, 4, 0.5, dt)
    vals = load_schedule(mean, a, b, path, euler=True)
    assert vals.shape == (path.n_steps, 4)
    assert np.array_equal(vals[0], mean)
    eps = np.zeros(4)
    for k in range(1, path.n_steps):
        eps = ou_em_step(eps, a, b, dt, math.sqrt(dt) * path.xi[:, k - 1])
        assert np.array_equal(vals[k], mean + eps)
    # not the exact transition: the two schedules differ after row 0
    assert not np.array_equal(vals[1:], load_schedule(mean, a, b, path)[1:])


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=30, deadline=None)
def test_affine_shift_independent_of_mean(m1, m2):
    # identical OU parameters, different means: the deviations agree with
    # the mean-zero schedule
    b = np.array([0.03, 0.0])
    path = build_noise_path(5, 2, 3.0, 0.1)
    base = load_schedule(np.zeros(2), 0.5, b, path)[:, 0]
    for m in (m1, m2):
        eps = load_schedule(np.array([m, 0.0]), 0.5, b, path)[:, 0] - np.float64(m)
        assert np.allclose(eps, base, atol=1e-12)


def test_ou_closed_form_deterministic():
    p = OUParams(0.8, 0.0)
    assert ou_closed_form(1.5, p, 2.0, np.zeros(100)) == pytest.approx(
        1.5 * math.exp(-1.6)
    )


def test_ou_closed_form_brownian_limit():
    p = OUParams(1e-12, 1.0)
    rng = np.random.default_rng(3)
    m = 1000
    db = rng.standard_normal(m) * math.sqrt(2.0 / m)
    out = ou_closed_form(0.3, p, 2.0, db)
    assert out == pytest.approx(0.3 + db.sum(), rel=1e-6)


def test_ou_closed_form_moments():
    # the left-endpoint sum is Gaussian with mean eps0 e^{-at} and variance
    # b^2 sum_i e^{-2a(t - s_i)} dt, 0.5% below the continuum value at m = 200.
    # Over N paths the relative SEs are 0.93 / (eps0 e^{-at} sqrt(N)) = 0.34%
    # for the mean and sqrt(2/N) = 0.58% for the variance, so the 3%
    # tolerances span 8.7 and 5.2 SE.
    p = OUParams(0.5, 1.0)
    t, m, n_paths = 2.0, 200, 60_000
    rng = np.random.default_rng(17)
    db = rng.standard_normal((n_paths, m)) * math.sqrt(t / m)
    eps0 = 3.0
    vals = ou_closed_form(eps0, p, t, db)
    s = np.arange(m) * (t / m)
    var_ref = p.b**2 * np.sum(np.exp(-2 * p.a * (t - s))) * (t / m)
    assert vals.mean() == pytest.approx(eps0 * math.exp(-p.a * t), rel=0.03)
    assert vals.var() == pytest.approx(var_ref, rel=0.03)


def test_path_csv_roundtrip_header():
    path = build_noise_path(1, 2, 0.3, 0.1)
    text = "".join(path_to_csv(path))
    lines = text.strip().split("\n")
    assert lines[0] == "variable,step,xi"
    assert len(lines) == 1 + 2 * 3
    for line, (var, step) in zip(lines[1:], np.ndindex(2, 3)):
        assert line.split(",")[:2] == [str(var), str(step)]
        assert float(line.split(",")[2]) == path.xi[var, step]
