"""Bus admittance assembly, load folding and Kron reduction.

The dynamic model sees the network as a reduced admittance matrix over the
generator internal nodes.  Loads enter as constant shunt impedances computed
at the pre-fault solved voltage; a three-phase fault is a very large shunt
at the faulted bus; clearing removes the tripped branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .case import SystemCase

STAGES = ("pre-fault", "fault-on", "post-fault")

FAULT_SHUNT = 1e7  # near-short admittance grounding the faulted bus, p.u.


class ReductionError(RuntimeError):
    """Interior network block is singular and cannot be eliminated."""


@dataclass(frozen=True)
class NetworkCondition:
    """Which network topology applies: stage plus fault/trip information."""

    stage: str
    fault_bus: int | None = None
    removed_branches: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.stage == "fault-on" and self.fault_bus is None:
            raise ValueError("fault-on condition requires a fault bus")
        if self.removed_branches and self.stage != "post-fault":
            raise ValueError("removed branches apply to the post-fault stage only")
        object.__setattr__(
            self,
            "removed_branches",
            tuple(tuple(pair) for pair in self.removed_branches),
        )

    def validate_against(self, case: SystemCase) -> None:
        if self.fault_bus is not None:
            case.bus_index(self.fault_bus)
        for a, b in self.removed_branches:
            if not case.has_branch(a, b):
                raise ValueError(f"removed branch {a}-{b} does not exist in the case")


@dataclass(frozen=True)
class ReducedNetwork:
    """Admittance over generator internal nodes plus the bus-voltage recovery map.

    ``y`` is K x K complex; ``recovery`` maps internal EMFs to the n bus
    voltages (V_bus = recovery @ E).  ``stage`` and ``loads`` record what the
    matrix was built from.  Instances are immutable and safe to share.
    """

    y: np.ndarray
    recovery: np.ndarray
    gen_buses: tuple[int, ...]
    bus_ids: tuple[int, ...]
    stage: str
    loads: dict = field(compare=False, default_factory=dict)

    def __post_init__(self):
        self.y.setflags(write=False)
        self.recovery.setflags(write=False)

    @property
    def n_gen(self) -> int:
        return self.y.shape[0]

    def bus_voltages(self, emf: np.ndarray) -> np.ndarray:
        """Complex voltages of all (eliminated) network buses for internal EMFs."""
        return self.recovery @ emf


def load_to_admittance(p: float, q: float, v: complex) -> complex:
    """Constant-impedance equivalent of a (P, Q) load at bus voltage ``v``.

    Returns (P - jQ) / |V|^2.
    """
    vm2 = abs(v) ** 2
    if vm2 == 0.0:
        raise ValueError("load bus voltage magnitude must be nonzero")
    return (p - 1j * q) / vm2


def assemble_bus_matrix(case: SystemCase, condition: NetworkCondition) -> np.ndarray:
    """Dense bus admittance matrix for a network condition, without loads.

    Branch model: series impedance r + jx, total charging b split between the
    ends, off-nominal tap ratio on the from side (no phase shift), so the
    matrix stays symmetric.
    """
    n = case.n_bus
    y = np.zeros((n, n), dtype=complex)
    removed = [set(pair) for pair in condition.removed_branches]
    for br in case.branches:
        if condition.stage == "post-fault" and {br.from_bus, br.to_bus} in removed:
            continue
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        ys = 1.0 / (br.r + 1j * br.x)
        ysh = 1j * br.b / 2.0
        t = br.tap if br.tap != 0.0 else 1.0
        y[i, i] += (ys + ysh) / (t * t)
        y[j, j] += ys + ysh
        y[i, j] -= ys / t
        y[j, i] -= ys / t
    if condition.stage == "fault-on":
        k = case.bus_index(condition.fault_bus)
        y[k, k] += FAULT_SHUNT
    return y


def augmented_matrix(case: SystemCase, y_bus: np.ndarray) -> np.ndarray:
    """A bus matrix extended by the generator internal nodes.

    The (n+K) matrix orders the n network buses first and the K internal
    nodes after; each internal node connects to its terminal bus through
    the branch admittance 1/(Rs + j xdp).
    """
    n, k = case.n_bus, case.n_gen
    y = np.zeros((n + k, n + k), dtype=complex)
    y[:n, :n] = y_bus
    for g_idx, gen in enumerate(case.generators):
        i = case.bus_index(gen.bus)
        m = n + g_idx
        ys = 1.0 / (gen.Rs + 1j * gen.xdp)
        y[m, m] += ys
        y[i, i] += ys
        y[m, i] -= ys
        y[i, m] -= ys
    return y


def kron_reduce(y_full: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schur-complement elimination of all nodes not in ``keep``.

    Returns the reduced matrix over the kept nodes and the recovery matrix
    that reconstructs eliminated-node voltages from kept-node voltages.
    """
    n = y_full.shape[0]
    keep = np.asarray(keep, dtype=int)
    elim = np.setdiff1d(np.arange(n), keep)
    if elim.size == 0:
        return y_full.copy(), np.zeros((0, keep.size), dtype=complex)
    y_aa = y_full[np.ix_(keep, keep)]
    y_ab = y_full[np.ix_(keep, elim)]
    y_ba = y_full[np.ix_(elim, keep)]
    y_bb = y_full[np.ix_(elim, elim)]
    try:
        x = np.linalg.solve(y_bb, y_ba)
    except np.linalg.LinAlgError as exc:
        raise ReductionError("interior admittance block is singular") from exc
    return y_aa - y_ab @ x, -x


def build_reduced_network(
    case: SystemCase,
    condition: NetworkCondition,
    loads: dict[int, tuple[float, float]],
    profile: np.ndarray,
) -> ReducedNetwork:
    """Reduce the stage network plus load shunts to the generator internal nodes.

    ``loads`` maps bus id to the current (P, Q) values; it must cover exactly
    the case's load buses.  ``profile`` is the pre-fault solved voltage
    profile at which load impedances are fixed.  The generator internal
    nodes are appended after the load shunts and every network bus is
    eliminated.
    """
    condition.validate_against(case)
    if set(loads) != {ld.bus for ld in case.loads}:
        raise ValueError("loads must cover exactly the case's load buses")

    n, k = case.n_bus, case.n_gen
    y_bus = assemble_bus_matrix(case, condition)
    for bus_id, (p, q) in loads.items():
        i = case.bus_index(bus_id)
        y_bus[i, i] += load_to_admittance(p, q, profile[i])
    y = augmented_matrix(case, y_bus)
    y_red, recovery = kron_reduce(y, np.arange(n, n + k))
    return ReducedNetwork(
        y=y_red,
        recovery=recovery,
        gen_buses=tuple(g.bus for g in case.generators),
        bus_ids=tuple(b.id for b in case.buses),
        stage=condition.stage,
        loads=dict(loads),
    )
