import json
import math

import numpy as np
import pytest

from stochsim.case import parse_case
from stochsim.network import NetworkCondition, assemble_bus_matrix
from stochsim.powerflow import (
    PowerFlowError,
    _jacobian,
    injected_power,
    scheduled_injections,
    solve_power_flow,
)


def two_bus_case(r, x, p_load, q_load):
    doc = {
        "system": {"frequency_hz": 60.0, "base_mva": 100.0},
        "buses": [
            {"id": 1, "type": "slack", "v_setpoint": 1.0},
            {"id": 2, "type": "PQ"},
        ],
        "branches": [{"from": 1, "to": 2, "r": r, "x": x}],
        "generators": [
            {"bus": 1, "H": 4.0, "D": 1.0, "xd": 1.0, "xdp": 0.3,
             "xq": 0.8, "xqp": 0.3, "Td0p": 6.0, "Tq0p": 1.0}
        ],
        "loads": [{"bus": 2, "P": p_load, "Q": q_load}],
    }
    return parse_case(json.dumps(doc))


def test_single_bus_trivial():
    doc = {
        "system": {"frequency_hz": 60.0, "base_mva": 100.0},
        "buses": [{"id": 1, "type": "slack", "v_setpoint": 1.03}],
        "branches": [],
        "generators": [
            {"bus": 1, "H": 4.0, "D": 1.0, "xd": 1.0, "xdp": 0.3,
             "xq": 0.8, "xqp": 0.3, "Td0p": 6.0, "Tq0p": 1.0}
        ],
        "loads": [],
    }
    # a bus with no branches makes the Jacobian empty; the flat start is the answer
    case = parse_case(json.dumps(doc))
    v = solve_power_flow(case)
    assert v[0] == pytest.approx(1.03)


def test_two_bus_against_closed_form():
    # independent oracle: with slack V1 = 1+0j and a PQ load (P, Q) behind
    # z = r+jx, writing W = V2 gives |W|^2 - W = -(P+jQ) conj(z), so
    # Im(W) = Q r - P x and Re(W) solves a quadratic.
    r, x, p, q = 0.02, 0.2, 0.5, 0.2
    b = q * r - p * x
    a = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * (b * b + p * r + q * x)))
    expected = a + 1j * b

    case = two_bus_case(r, x, p, q)
    v = solve_power_flow(case)
    assert v[1] == pytest.approx(expected, abs=1e-9)


def test_two_bus_heavy_load_diverges():
    case = two_bus_case(0.0, 0.5, 3.0, 1.0)  # far beyond the transfer limit
    with pytest.raises(PowerFlowError) as err:
        solve_power_flow(case)
    assert err.value.mismatch > 0


def test_ieee39_converges_and_is_self_consistent(ieee39_case):
    v = solve_power_flow(ieee39_case)
    s = injected_power(ieee39_case, v)
    sched = scheduled_injections(ieee39_case)
    types = [b.type for b in ieee39_case.buses]
    for i, btype in enumerate(types):
        if btype == "PQ":
            assert abs(s[i] - sched[i]) < 1e-6
        elif btype == "PV":
            assert abs(s[i].real - sched[i].real) < 1e-6
            assert abs(v[i]) == pytest.approx(ieee39_case.buses[i].v_setpoint, abs=1e-9)
    # voltage profile sane
    assert np.all(np.abs(v) > 0.9) and np.all(np.abs(v) < 1.1)


def test_ieee39_jacobian_is_the_mismatch_derivative(ieee39_case):
    # the Jacobian formed by entries equals central differences of the
    # injected P (PV and PQ buses) and Q (PQ buses) in the angles (PV and
    # PQ buses) and magnitudes (PQ buses), at a perturbed ieee39 point
    ybus = assemble_bus_matrix(ieee39_case, NetworkCondition("pre-fault"))
    types = np.array([b.type for b in ieee39_case.buses])
    pq = np.flatnonzero(types == "PQ")
    pvpq = np.flatnonzero(types != "slack")
    rng = np.random.default_rng(7)
    v0 = solve_power_flow(ieee39_case)
    va = np.angle(v0) + 0.05 * rng.standard_normal(v0.size)
    vm = np.abs(v0) * (1.0 + 0.03 * rng.standard_normal(v0.size))
    x0 = np.concatenate([va[pvpq], vm[pq]])

    def injections(x):
        a, m = va.copy(), vm.copy()
        a[pvpq], m[pq] = x[: pvpq.size], x[pvpq.size :]
        v = m * np.exp(1j * a)
        s = v * np.conj(ybus @ v)
        return np.concatenate([s.real[pvpq], s.imag[pq]])

    n, head, tail = x0.size, slice(0, pvpq.size), slice(pvpq.size, None)
    blocks = [
        ((head, head), np.ix_(pvpq, pvpq)),
        ((head, tail), np.ix_(pvpq, pq)),
        ((tail, head), np.ix_(pq, pvpq)),
        ((tail, tail), np.ix_(pq, pq)),
    ]
    jac = _jacobian(ybus, vm * np.exp(1j * va), vm, blocks, np.empty((n, n)))
    eps = 1e-6
    numeric = np.stack(
        [(injections(x0 + eps * e) - injections(x0 - eps * e)) / (2 * eps) for e in np.eye(n)],
        axis=1,
    )
    assert np.abs(jac - numeric).max() < 1e-8 * np.abs(numeric).max()
    assert np.abs(numeric).max() > 10.0
