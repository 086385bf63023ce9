import numpy as np
import pytest

from stochsim import smib as sm
from stochsim.sas import WindowWork, window_coefficients


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
    work = WindowWork(machines, 1, 2)
    rng = np.random.default_rng(11)
    for _ in range(25):
        d0 = rng.uniform(-1.2, 1.2)
        w0 = p.omega_r + rng.uniform(-3.0, 3.0)
        work.set_state(sm.smib_state(p, d0, w0)[None])
        coeffs = window_coefficients(net, work).reshape(1, -1, 3)[0]
        d_hand, w_hand = sm.smib_window_coefficients(p, d0, w0)
        assert np.allclose(coeffs[0], d_hand, rtol=1e-10, atol=1e-12)
        assert np.allclose(coeffs[2], w_hand, rtol=1e-10, atol=1e-12)
