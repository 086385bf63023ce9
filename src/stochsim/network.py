"""Bus admittance assembly, load shunts and Kron reduction.

The dynamic model sees the network as a reduced admittance matrix over the
generator internal nodes, each joined to its bus by one branch.  Loads enter
as constant shunt impedances computed at the pre-fault solved voltage; a
three-phase fault is a very large shunt at the faulted bus; clearing removes
the tripped branches.

The reduction runs in two steps.  :func:`reduce_to_load_buses` eliminates
the buses that carry no load, once per network condition, which leaves the
internal nodes and the load buses.  :meth:`LoadBusNetwork.with_loads` adds
the load shunts to the load-bus diagonal and eliminates the load buses, so a
change of the loads costs one L x L solve per run.
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

    ``y`` is (..., K, K) complex; ``recovery`` (..., m, K) maps internal EMFs
    to the voltages of the m buses the reduction was asked for
    (V = recovery @ E).  Leading axes, when present, index runs that share a
    stage but not their load values.  Instances are immutable and safe to
    share.
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
        k = g.shape[-1]
        out = np.empty(g.shape[:-2] + (2 * k, 2 * k))
        out[..., :k, :k] = out[..., k:, k:] = g
        out[..., k:, :k] = b
        np.negative(b, out=out[..., :k, k:])
        out.setflags(write=False)
        return out

    def bus_voltages(self, emf: np.ndarray) -> np.ndarray:
        """Complex voltages of the recovered buses, (..., m).

        ``emf`` is (..., K), with the same leading axes as ``recovery``.
        """
        return (self.recovery @ emf[..., None])[..., 0]


def assemble_bus_matrix(case: SystemCase, condition: NetworkCondition) -> np.ndarray:
    """Dense bus admittance matrix for a network condition, without loads.

    Branch model: series impedance r + jx, total charging b split between the
    ends, off-nominal tap ratio on the from side (no phase shift), so the
    matrix stays symmetric.
    """
    removed = [set(pair) for pair in condition.removed_branches]
    ends, diag, off = [], [], []  # per branch: (from, to) positions and entries
    for br in case.branches:
        if condition.stage == "post-fault" and {br.from_bus, br.to_bus} in removed:
            continue
        ys = 1.0 / (br.r + 1j * br.x)
        ysh = 1j * br.b / 2.0
        t = br.tap if br.tap != 0.0 else 1.0
        ends += [case.bus_index(br.from_bus), case.bus_index(br.to_bus)]
        diag += [(ys + ysh) / (t * t), ys + ysh]
        off += [ys / t, ys / t]
    # unbuffered: each entry sums its branches one after another, in file order
    ends = np.array(ends, dtype=int)
    y = np.zeros((case.n_bus, case.n_bus), dtype=complex)
    np.add.at(y, (ends, ends), diag)
    np.subtract.at(y, (ends, ends.reshape(-1, 2)[:, ::-1].ravel()), off)
    if condition.stage == "fault-on":
        k = case.bus_index(condition.fault_bus)
        y[k, k] += FAULT_SHUNT
    return y


def _interior_solve(y_bb: np.ndarray, y_ba: np.ndarray) -> np.ndarray:
    """y_bb^-1 y_ba, each stacked matrix of ``y_bb`` solved on its own.

    ``y_ba`` gets as many axes as ``y_bb`` before the solve: numpy 1.x
    reads a right-hand side with one axis fewer as a stack of vectors.
    """
    lead = (None,) * max(y_bb.ndim - y_ba.ndim, 0)
    try:
        return np.linalg.solve(y_bb, y_ba[lead])
    except np.linalg.LinAlgError as exc:
        raise ReductionError("interior admittance block is singular") from exc


def schur_complement(
    y_aa: np.ndarray, y_ab: np.ndarray, y_ba: np.ndarray, y_bb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the b nodes: y_aa - y_ab y_bb^-1 y_ba and the recovery -y_bb^-1 y_ba.

    Any block may carry leading stack axes; each stacked matrix is solved
    on its own, so its result does not depend on the rest of the stack.
    """
    x = _interior_solve(y_bb, y_ba)
    return y_aa - y_ab @ x, -x


@dataclass(frozen=True)
class LoadBusNetwork:
    """A stage's network reduced to its K internal nodes and L load buses.

    The first reduction step: the buses that carry no load are eliminated
    once per network condition, loads excluded.  What is left is linear in
    the kept values, the K internal EMFs and then the L load-bus voltages.
    ``outputs`` (K+m, K+L) maps them to the K internal-node currents, then
    to the voltages of the m buses the recovery keeps; ``load_kcl``
    (L, K+L) maps them to the current each load bus draws from the network,
    which its load shunt must balance.  ``vm2`` is the |V|^2 of each load
    bus at which its impedance is fixed.  Safe to share across runs.
    """

    outputs: np.ndarray
    load_kcl: np.ndarray
    vm2: np.ndarray

    def with_loads(self, pq: np.ndarray) -> ReducedNetwork:
        """The second reduction step: the reduced network at a stack of load values.

        ``pq`` is (..., L, 2), the P and Q of the load buses for each
        leading index.  Each load becomes the constant-impedance shunt
        (P - jQ) / |V|^2 on the diagonal of a copy of the load/load block,
        and one stacked L x L solve with K right-hand sides eliminates the
        load buses from every output at once, as the Schur complement of
        :func:`schur_complement` without its recovery of the load buses:
        ``y`` is (..., K, K) and ``recovery`` (..., m, K).  This is the
        exact Schur identity, for any load values.
        """
        n_load = self.vm2.size
        k = self.load_kcl.shape[1] - n_load
        shunts = (pq[..., 0] - 1j * pq[..., 1]) / self.vm2
        lead = shunts.shape[:-1]
        y_ll = np.empty(lead + (n_load, n_load), dtype=complex)
        y_ll[...] = self.load_kcl[:, k:]
        # a fresh array reshapes to a view: its diagonal is every (L+1)-th entry
        y_ll.reshape(lead + (-1,))[..., :: n_load + 1] += shunts
        x = _interior_solve(y_ll, self.load_kcl[:, :k])
        out = self.outputs[:, :k] - self.outputs[:, k:] @ x
        return ReducedNetwork(y=out[..., :k, :], recovery=out[..., k:, :])


def reduce_to_load_buses(
    case: SystemCase, condition: NetworkCondition, profile: np.ndarray, rows
) -> LoadBusNetwork:
    """The first reduction step of one network condition, loads excluded.

    The nodes are ordered as the K internal nodes, the case's L load buses
    in sorted load-bus order, then the other buses.  Each internal node
    joins its bus through one branch y_s = 1/(Rs + j xdp); with the stage's
    bus matrix this stamps the (K+n) network, and one
    :func:`schur_complement` eliminates the buses that carry no load.
    ``profile`` is the pre-fault solved voltage profile at which load
    impedances are fixed; ``rows`` are the bus positions whose voltages the
    recovery gives.
    """
    condition.validate_against(case)
    k, n = case.n_gen, case.n_bus
    load_buses = sorted(ld.bus for ld in case.loads)
    loads = np.array([case.bus_index(b) for b in load_buses], dtype=int)
    vm2 = np.abs(profile[loads]) ** 2
    if not np.all(vm2 > 0.0):
        raise ValueError("load bus voltage magnitude must be nonzero")
    is_load = np.zeros(n, dtype=bool)
    is_load[loads] = True
    order = np.concatenate([loads, np.flatnonzero(~is_load)])  # bus positions
    at = k + np.argsort(order)  # node of each bus position
    gens = at[[case.bus_index(gen.bus) for gen in case.generators]]
    ys = np.array([1.0 / (gen.Rs + 1j * gen.xdp) for gen in case.generators])
    y = np.zeros((k + n, k + n), dtype=complex)
    y[k:, k:] = assemble_bus_matrix(case, condition)[np.ix_(order, order)]
    y[gens, gens] += ys  # distinct nodes: a case has one generator per bus
    internal = np.arange(k)
    y[internal, internal] = ys
    y[internal, gens] = y[gens, internal] = -ys
    m = k + loads.size  # the kept nodes
    y_red, rec = schur_complement(y[:m, :m], y[:m, m:], y[m:, :m], y[m:, m:])
    # each bus voltage from the kept values (internal EMFs, load-bus voltages)
    to_bus = np.concatenate([np.eye(m)[k:], rec])[at[rows] - k]
    return LoadBusNetwork(
        outputs=np.concatenate([y_red[:k], to_bus]), load_kcl=y_red[k:], vm2=vm2
    )

