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


def _jacobian(ybus: np.ndarray, v: np.ndarray, vm: np.ndarray, blocks, out) -> np.ndarray:
    """The Newton Jacobian of the injected power at ``v``, written into ``out``.

    ``vm`` is |v|.  Rows are P at the PV and PQ buses, then Q at the PQ
    buses; columns the angles of the PV and PQ buses, then the magnitudes
    of the PQ buses.  ``blocks`` holds the (rows, columns) slices of the
    four blocks of ``out``, each with its ``np.ix_`` index set among the
    buses.  The bus derivatives of S = v conj(Y v) are formed by entries,
    from m = v[:, None] conj(Y v[None, :]) and the currents i = Y v:
    dS/d(angle) = j (diag(v conj(i)) - m) and
    dS/d|v| = m / |v|[None, :] + diag(conj(i) v / |v|).
    """
    cur = ybus @ v
    m = v[:, None] * np.conj(ybus * v)
    diag = np.diag_indices(v.size)
    ds_dva = m * -1j
    ds_dva[diag] += 1j * v * np.conj(cur)
    ds_dvm = m / vm
    ds_dvm[diag] += np.conj(cur) * v / vm
    for (place, ix), part in zip(blocks, (ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag)):
        out[place] = part[ix]
    return out


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
    jac = np.empty((npvpq + len(pq), npvpq + len(pq)))
    head, tail = slice(0, npvpq), slice(npvpq, None)  # (P, angle) entries first
    sides = ((head, pvpq), (tail, pq))
    blocks = [((r, c), np.ix_(a, b)) for r, a in sides for c, b in sides]
    for _ in range(50):
        v = vm * np.exp(1j * va)
        s_calc = v * np.conj(ybus @ v)
        dp = (s_sched - s_calc).real[pvpq]
        dq = (s_sched - s_calc).imag[pq]
        mismatch = np.concatenate([dp, dq])
        norm = np.max(np.abs(mismatch)) if mismatch.size else 0.0
        if norm < 1e-8:
            return v

        step = np.linalg.solve(_jacobian(ybus, v, vm, blocks, jac), mismatch)
        va[pvpq] += step[:npvpq]
        vm[pq] += step[npvpq:]

    raise PowerFlowError(
        "power flow did not converge in 50 iterations "
        f"(final mismatch {norm:.3e} p.u.)",
        mismatch=norm,
    )
