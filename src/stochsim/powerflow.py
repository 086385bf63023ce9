"""Newton-Raphson power flow on the case's bus admittance matrix.

Loads are treated as constant-power injections here; they are folded into
the admittance matrix only later, when the dynamic network is built.
"""

from __future__ import annotations

import numpy as np

from .case import SystemCase
from .network import assemble_bus_matrix, NetworkCondition


class PowerFlowError(RuntimeError):
    """Newton iteration failed to converge; carries the final mismatch norm."""

    def __init__(self, msg: str, mismatch: float):
        super().__init__(msg)
        self.mismatch = mismatch


def scheduled_injections(case: SystemCase) -> np.ndarray:
    """Complex scheduled injection per bus: generation minus load."""
    s = np.zeros(case.n_bus, dtype=complex)
    for b in case.buses:
        s[case.bus_index(b.id)] += b.p_gen
    for ld in case.loads:
        s[case.bus_index(ld.bus)] -= ld.p + 1j * ld.q
    return s


def injected_power(case: SystemCase, profile: np.ndarray) -> np.ndarray:
    """Complex power injected into the network at each bus for a voltage profile."""
    ybus = assemble_bus_matrix(case, NetworkCondition("pre-fault"))
    return profile * np.conj(ybus @ profile)


def solve_power_flow(case: SystemCase) -> np.ndarray:
    """Solve the pre-fault steady state from a flat start.

    Returns the complex bus voltage profile in case bus order.  Power
    mismatch at every non-slack bus is driven below 1e-8 p.u.; raises
    :class:`PowerFlowError` after 50 iterations.
    """
    n = case.n_bus
    ybus = assemble_bus_matrix(case, NetworkCondition("pre-fault"))
    s_sched = scheduled_injections(case)

    types = np.array([b.type for b in case.buses])
    slack = np.flatnonzero(types == "slack")
    pv = np.flatnonzero(types == "PV")
    pq = np.flatnonzero(types == "PQ")
    pvpq = np.sort(np.concatenate([pv, pq]))

    # flat start: setpoint magnitudes on slack/PV, 1.0 elsewhere, zero angles
    vm = np.ones(n)
    va = np.zeros(n)
    for i in np.concatenate([slack, pv]):
        vm[i] = case.buses[i].v_setpoint
    va[slack] = case.buses[slack[0]].angle

    npvpq = len(pvpq)
    for _ in range(50):
        v = vm * np.exp(1j * va)
        s_calc = v * np.conj(ybus @ v)
        dp = (s_sched - s_calc).real[pvpq]
        dq = (s_sched - s_calc).imag[pq]
        mismatch = np.concatenate([dp, dq])
        norm = np.max(np.abs(mismatch)) if mismatch.size else 0.0
        if norm < 1e-8:
            return v

        # complex-form power flow Jacobian
        ibus = ybus @ v
        diag_v = np.diag(v)
        diag_i = np.diag(ibus)
        diag_e = np.diag(v / vm)
        ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
        ds_dvm = diag_v @ np.conj(ybus @ diag_e) + np.conj(diag_i) @ diag_e

        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])

        step = np.linalg.solve(jac, mismatch)
        va[pvpq] += step[:npvpq]
        vm[pq] += step[npvpq:]

    raise PowerFlowError(
        "power flow did not converge in 50 iterations "
        f"(final mismatch {norm:.3e} p.u.)",
        mismatch=norm,
    )
