import math

import numpy as np
import pytest

from stochsim import smib as sm
from stochsim.noise import OUParams, ou_closed_form
from stochsim.sas import window_coefficients


def test_k_coefficients_all_ones_hand_values():
    # every branch admittance is (1-j)/2; the hand evaluation of the printed
    # recipe gives the frozen values below
    p = sm.SMIBParams(rs=1.0, xdp=1.0, r=1.0, x=1.0, rl=1.0, xl=1.0, ep=1.0)
    k1, k2, k3, k4, k5 = sm.k_coefficients(p)
    assert k1 == pytest.approx(-3.0)
    assert k2 == pytest.approx(3.0)
    assert k3 == pytest.approx(1.0 / 3.0)
    assert k4 == pytest.approx(1.5)
    assert k5 == pytest.approx(-1.5)


def test_k_coefficients_zero_conductance_singularity():
    # a purely reactive circuit zeroes the conductance sum behind k2
    p = sm.SMIBParams(rs=0.0, xdp=0.3, r=0.0, x=0.4, rl=0.0, xl=2.0)
    with pytest.raises(sm.SingularityError, match="G_L"):
        sm.k_coefficients(p)


def test_k_coefficients_admittance_scaling():
    # scaling every admittance by lam scales k1 and k2 by lam; impedances
    # scale by 1/lam
    p = sm.SMIBParams()
    lam = 1.7
    scaled = sm.SMIBParams(
        rs=p.rs / lam, xdp=p.xdp / lam, r=p.r / lam, x=p.x / lam,
        rl=p.rl / lam, xl=p.xl / lam,
    )
    k = sm.k_coefficients(p)
    ks = sm.k_coefficients(scaled)
    assert ks[0] == pytest.approx(lam * k[0], rel=1e-12)
    assert ks[1] == pytest.approx(lam * k[1], rel=1e-12)


def test_omega_sas_at_zero_time():
    p = sm.SMIBParams()
    assert sm.smib_omega_sas(p, 0.4, p.omega_r + 2.0, 0.0) == p.omega_r + 2.0


def test_omega_sas_equilibrium_bracket():
    p = sm.SMIBParams()
    # solve P_e(delta) = P_m by bisection; there the order-1 term vanishes
    lo, hi = 0.0, 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sm.electric_power(p, mid) < p.pm:
            lo = mid
        else:
            hi = mid
    d_eq = 0.5 * (lo + hi)
    d_coeffs, w_coeffs = sm.smib_window_coefficients(p, d_eq, p.omega_r)
    assert abs(w_coeffs[1]) < 1e-9
    assert abs(d_coeffs[1]) == 0.0


def test_series_engine_matches_oracle_coefficientwise():
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    rng = np.random.default_rng(11)
    for _ in range(25):
        d0 = rng.uniform(-1.2, 1.2)
        w0 = p.omega_r + rng.uniform(-3.0, 3.0)
        coeffs = window_coefficients(sm.smib_state(p, d0, w0), net, machines, 2)
        d_hand, w_hand = sm.smib_window_coefficients(p, d0, w0)
        assert np.allclose(coeffs[0], d_hand, rtol=1e-10, atol=1e-12)
        assert np.allclose(coeffs[2], w_hand, rtol=1e-10, atol=1e-12)


def brownian(rng, t, m):
    dt = t / m
    db = rng.standard_normal(m) * math.sqrt(dt)
    times = np.linspace(0.0, t, m + 1)
    b = np.concatenate([[0.0], np.cumsum(db)])
    return times, b


def test_rl_terms_deterministic_monomials():
    p = sm.SMIBParams(a1=0.8, b1=0.0)
    times, b = brownian(np.random.default_rng(0), 0.5, 100)
    terms = sm.rl_sas_terms(p, 2.0, 0.5, times, b)
    for n, term in enumerate(terms):
        assert term == pytest.approx(
            (-0.8) ** n * 2.0 * 0.5**n / math.factorial(n), rel=1e-12
        )


def test_rl_terms_at_zero_time():
    p = sm.SMIBParams(a1=0.8, b1=0.4)
    times = np.array([0.0])
    b = np.array([0.0])
    terms = sm.rl_sas_terms(p, 2.0, 0.0, times, b)
    assert terms == (2.0, 0.0, 0.0)


def test_xl_terms_use_xl_initial_value():
    p = sm.SMIBParams(a2=0.8, b2=0.0)
    times, b = brownian(np.random.default_rng(0), 0.5, 100)
    terms = sm.xl_sas_terms(p, 1.3, 0.5, times, b)
    assert terms[1] == pytest.approx(-0.8 * 1.3 * 0.5, rel=1e-12)


def test_rl_partial_sums_remainder_bound():
    # a1 t <= 0.2: the order-2 truncation error stays below the cubic bound
    p = sm.SMIBParams(a1=0.5, b1=0.3)
    rng = np.random.default_rng(21)
    t = 0.4  # a1 t = 0.2
    for _ in range(10):
        times, b = brownian(rng, t, 4000)
        terms = sm.rl_sas_terms(p, 2.0, t, times, b)
        closed = sm.rl_closed_form(p, 2.0, t, times, b)
        err = abs(sum(terms) - closed)
        bound = (p.a1 * t) ** 3 / 6.0 * (2.0 + p.b1 * np.max(np.abs(b)))
        assert err <= bound + 1e-6


def test_rl_series_converges_to_closed_form_deterministic():
    # with b1 = 0 the partial sums are the exponential's Taylor polynomials
    p = sm.SMIBParams(a1=0.9, b1=0.0)
    t = 0.8
    times = np.array([0.0, t])
    b = np.zeros(2)
    partial = 0.0
    closed = 2.0 * math.exp(-p.a1 * t)
    errs = []
    for n in range(7):
        partial += sm.ou_sas_term(p.a1, 0.0, 2.0, t, times, b, n)
        errs.append(abs(partial - closed))
    assert errs[-1] < errs[0] * 1e-4
    # remainder is factorially small
    assert errs[6] <= 2.0 * (p.a1 * t) ** 7 / math.factorial(7) * math.exp(p.a1 * t)


def test_maclaurin_identity_deterministic_part():
    # deterministic parts of the terms are exactly the exponential series terms
    p = sm.SMIBParams(a1=0.7, b1=0.5)
    t = 0.6
    times, b = brownian(np.random.default_rng(2), t, 500)
    for n in range(3):
        stoch_free = sm.ou_sas_term(p.a1, 0.0, 3.0, t, times, np.zeros_like(b), n)
        assert stoch_free == (-p.a1) ** n * 3.0 * t**n / math.factorial(n)


def test_rl_closed_form_deterministic():
    p = sm.SMIBParams(a1=0.5, b1=0.0)
    times = np.linspace(0, 2.0, 50)
    assert sm.rl_closed_form(p, 2.5, 2.0, times, np.zeros(50)) == pytest.approx(
        2.5 * math.exp(-1.0)
    )


def test_rl_closed_form_moments():
    # the left-endpoint discretization keeps the analytic mean; its variance
    # is the left Riemann sum of b1^2 e^{-2 a1 (t - s)}, which is the analytic
    # variance times x / (e^x - 1) with x = 2 a1 t / m, 0.5% below it at
    # m = 200. Over N paths the relative SEs are 0.34% for the mean and
    # sqrt(2/N) = 0.58% for the variance, so the 3% tolerances span 8.7 and
    # 5.2 SE.
    p = sm.SMIBParams(a1=0.5, b1=1.0)
    rng = np.random.default_rng(8)
    t, m, n_paths = 2.0, 200, 60_000
    rl0 = 3.0
    # one row per path: the same draws as n_paths calls of brownian()
    db = rng.standard_normal((n_paths, m)) * math.sqrt(t / m)
    times = np.linspace(0.0, t, m + 1)
    b = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(db, axis=1)], axis=1)
    vals = sm.rl_closed_form(p, rl0, t, times, b)
    mean_ref, var_ref = sm.ou_moments(OUParams(p.a1, p.b1), rl0, t)
    x = 2.0 * p.a1 * t / m
    assert vals.mean() == pytest.approx(mean_ref, rel=0.03)
    assert vals.var() == pytest.approx(var_ref * x / math.expm1(x), rel=0.03)


def test_rl_closed_form_agrees_with_noise_module():
    p = sm.SMIBParams(a1=0.5, b1=0.8)
    rng = np.random.default_rng(31)
    t = 1.5
    times, b = brownian(rng, t, 300)
    ours = sm.rl_closed_form(p, 0.9, t, times, b)
    theirs = ou_closed_form(0.9, OUParams(p.a1, p.b1), t, np.diff(b))
    assert ours == pytest.approx(theirs, abs=1e-12)
