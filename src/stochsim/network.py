"""Bus admittance assembly, load shunts and Kron reduction.

The dynamic model sees the network as a reduced admittance matrix over the
generator internal nodes, each joined to its bus by one branch.  Loads enter
as constant shunt impedances computed at the pre-fault solved voltage; a
three-phase fault is a very large shunt at the faulted bus; clearing removes
the tripped branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    ``y`` is (..., K, K) complex; ``recovery`` (..., n, K) maps internal EMFs
    to the n bus voltages (V_bus = recovery @ E).  Leading axes, when
    present, index runs that share a stage but not their load values.
    Instances are immutable and safe to share.
    """

    y: np.ndarray
    recovery: np.ndarray

    def __post_init__(self):
        self.y.setflags(write=False)
        self.recovery.setflags(write=False)

    @cached_property
    def y_real(self) -> np.ndarray:
        """``y`` = G + jB in real form, the (..., 2K, 2K) matrix [[G, -B], [B, G]].

        It maps the stacked real and imaginary parts of the EMFs to those of
        the currents.  Built on first use and kept with this network.
        """
        g, b = self.y.real, self.y.imag
        out = np.block([[g, -b], [b, g]])
        out.setflags(write=False)
        return out

    def bus_voltages(self, emf: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Complex voltages of the network buses at ``rows`` (default: all).

        ``emf`` is (..., K), with the same leading axes as ``recovery``.
        """
        return (self.recovery[..., rows, :] @ emf[..., None])[..., 0]


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


def schur_complement(
    y_aa: np.ndarray, y_ab: np.ndarray, y_ba: np.ndarray, y_bb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the b nodes: y_aa - y_ab y_bb^-1 y_ba and the recovery -y_bb^-1 y_ba.

    Any block may carry leading stack axes; each stacked matrix is solved
    on its own, so its result does not depend on the rest of the stack.
    ``y_ba`` gets as many axes as ``y_bb`` before the solve: numpy 1.x
    reads a right-hand side with one axis fewer as a stack of vectors.
    """
    lead = (None,) * max(y_bb.ndim - y_ba.ndim, 0)
    try:
        x = np.linalg.solve(y_bb, y_ba[lead])
    except np.linalg.LinAlgError as exc:
        raise ReductionError("interior admittance block is singular") from exc
    return y_aa - y_ab @ x, -x


def stage_blocks(case: SystemCase, condition: NetworkCondition):
    """Kron blocks of a stage's network, loads excluded: keep the K generator
    internal nodes, eliminate the n buses.

    Each internal node joins its bus through one branch y_s = 1/(Rs + j xdp),
    so the blocks are diag(y_s) (internal/internal), -y_s at each generator's
    bus (internal/bus, and its transpose bus/internal) and the stage's bus
    matrix plus y_s at the generator buses (bus/bus), in that order.  Only
    the bus/bus block differs between stages.  Entries are sums onto zero,
    as in an assembled matrix, so a -0.0 part reads +0.0.
    """
    condition.validate_against(case)
    rows = np.array([case.bus_index(gen.bus) for gen in case.generators])
    ys = np.array([1.0 / (gen.Rs + 1j * gen.xdp) for gen in case.generators])
    y_bb = assemble_bus_matrix(case, condition)
    y_bb[rows, rows] += ys  # distinct rows: a case has one generator per bus
    y_ab = np.zeros((case.n_gen, case.n_bus), dtype=complex)
    y_ab[np.arange(case.n_gen), rows] -= ys
    return np.diag(0.0 + ys), y_ab, np.ascontiguousarray(y_ab.T), y_bb


def reduce_with_loads(
    blocks, rows: np.ndarray, vm2: np.ndarray, pq: np.ndarray
) -> ReducedNetwork:
    """Reduce a stage's network plus load shunts to the generator internal nodes.

    ``blocks`` come from :func:`stage_blocks`; ``pq`` is (..., L, 2), the P
    and Q of the L load buses at bus positions ``rows`` for each leading
    index.  Each load becomes the constant-impedance shunt (P - jQ) / |V|^2,
    with ``vm2`` the |V|^2 at which the impedances are fixed; the shunts join
    the diagonal of a copy of the bus/bus block and one stacked
    :func:`schur_complement` eliminates the buses, so ``y`` is (..., K, K)
    and ``recovery`` (..., n, K).
    """
    y_aa, y_ab, y_ba, y_bb = blocks
    y = np.empty(pq.shape[:-2] + y_bb.shape, dtype=y_bb.dtype)
    y[...] = y_bb
    y[..., rows, rows] += (pq[..., 0] - 1j * pq[..., 1]) / vm2
    y_red, recovery = schur_complement(y_aa, y_ab, y_ba, y)
    return ReducedNetwork(y=y_red, recovery=recovery)


def build_reduced_network(
    case: SystemCase,
    condition: NetworkCondition,
    loads: dict[int, tuple[float, float]],
    profile: np.ndarray,
) -> ReducedNetwork:
    """The reduced network of one stage at one set of load values.

    ``loads`` maps bus id to the current (P, Q) values; it must cover exactly
    the case's load buses.  ``profile`` is the pre-fault solved voltage
    profile at which load impedances are fixed.  Fresh
    :func:`stage_blocks` go through :func:`reduce_with_loads`.
    """
    if set(loads) != {ld.bus for ld in case.loads}:
        raise ValueError("loads must cover exactly the case's load buses")
    buses = sorted(loads)
    rows = np.array([case.bus_index(b) for b in buses], dtype=int)
    vm2 = np.abs(profile[rows]) ** 2
    if not np.all(vm2 > 0.0):
        raise ValueError("load bus voltage magnitude must be nonzero")
    pq = np.array([loads[b] for b in buses], dtype=float).reshape(-1, 2)
    return reduce_with_loads(stage_blocks(case, condition), rows, vm2, pq)
