"""Bus admittance assembly, load shunts and Kron reduction.

The dynamic model sees the network as a reduced admittance matrix over the
generator internal nodes, each joined to its bus by one branch.  Loads enter
as constant shunt impedances computed at the pre-fault solved voltage; a
three-phase fault is a very large shunt at the faulted bus; clearing removes
the tripped branches.

The reduction runs in two steps.  :func:`reduce_to_load_buses` keeps the
internal nodes and the S load buses whose loads vary, once per network
condition: every other load is stamped in as its mean shunt, and those
buses are eliminated with the buses that carry no load (Kron reduction in
steps equals Kron reduction at once).  :meth:`LoadBusNetwork.shunts` turns
load values P + jQ into their shunts, and :meth:`LoadBusNetwork.with_loads`
adds the shunts to the diagonal of the load/load block and eliminates the
varying load buses, so a change of the loads costs one S x S solve per run.
The caller may own that block: a :class:`LoadBlock` made once by
:meth:`LoadBusNetwork.load_block`, a (..., S, S) stack of which each
rebuild writes only the diagonal, with the stacked operands the rebuild
reads.
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

    ``y`` is (..., K, K) complex; ``recovery`` (..., m, K) maps internal EMFs
    to the voltages of the m buses the reduction was asked for
    (V = recovery @ E).  Leading axes, when present, index runs that share a
    stage but not their load values.  Instances are immutable and safe to
    share.
    """

    y: np.ndarray
    recovery: np.ndarray

    def __post_init__(self):
        for a in (self.y, self.recovery):
            if a.flags.writeable:
                a.setflags(write=False)


def bus_voltages(recovery: np.ndarray, emf: np.ndarray) -> np.ndarray:
    """Complex voltages V = recovery @ E of the recovered buses, (..., m).

    ``recovery`` is (..., m, K) and ``emf`` (..., K), with leading axes that
    broadcast: a network's ``recovery`` with the EMFs of one instant, or
    the recoveries of several networks gathered with the EMFs they serve.
    """
    return (recovery @ emf[..., None])[..., 0]


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
    if y_ba.ndim < y_bb.ndim:
        y_ba = y_ba[(None,) * (y_bb.ndim - y_ba.ndim)]
    try:
        return np.linalg.solve(y_bb, y_ba)
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
    """A stage's network reduced to its K internal nodes and S varying load buses.

    The first reduction step: the loads that do not vary are folded in at
    their mean shunts, and their buses are eliminated once per network
    condition with the buses that carry no load.  What is left is linear in
    the kept values, the K internal EMFs and then the S varying load-bus
    voltages.  ``out_k`` (K+m, K) and ``out_l`` (K+m, S) map them to the K
    internal-node currents, then to the voltages of the m buses the
    recovery keeps; ``kcl_k`` (S, K) and ``kcl_l`` (S, S) map them to the
    current each varying load bus draws from the network, which its load
    shunt must balance.  ``vm2`` is the |V|^2 of each varying load bus at
    which its impedance is fixed, as complex numbers: the divisor of the
    load shunts.  Safe to share across runs: the load/load blocks that
    :meth:`with_loads` writes belong to its caller, never to the instance.
    """

    out_k: np.ndarray
    out_l: np.ndarray
    kcl_k: np.ndarray
    kcl_l: np.ndarray
    vm2: np.ndarray

    def shunts(self, pq: np.ndarray) -> np.ndarray:
        """The constant-impedance shunts (P - jQ) / |V|^2 of load values, (..., S) complex.

        ``pq`` is (..., S, 2), the P and Q of every varying load bus for each
        leading index, of any layout and real dtype; it is copied, never
        changed.
        """
        s_load = np.array(pq, dtype=float, order="C").view(complex)[..., 0]
        return self.to_shunts(s_load)

    def to_shunts(self, s_load: np.ndarray) -> np.ndarray:
        """Turn (..., S) complex loads P + jQ into their shunts in place, and return them."""
        np.conjugate(s_load, out=s_load)
        s_load /= self.vm2
        return s_load

    def load_block(self, lead: tuple[int, ...]) -> "LoadBlock":
        """A fresh :class:`LoadBlock` of this network for a (*lead) stack of runs.

        It holds ``kcl_l``, ``kcl_k`` and ``out_k`` stacked over ``lead``,
        made once so that :meth:`with_loads` reads them as they are.  A
        batch makes one per stage, and fresh ones for the runs left when
        runs leave.
        """
        y_ll = np.empty(lead + self.kcl_l.shape, dtype=complex)
        y_ll[...] = self.kcl_l
        rhs, out_k = (np.broadcast_to(a, lead + a.shape).copy() for a in (self.kcl_k, self.out_k))
        return LoadBlock(y_ll, rhs, out_k)

    def with_loads(self, shunts: np.ndarray, block: "LoadBlock | None" = None) -> ReducedNetwork:
        """The second reduction step: the reduced network at a stack of load shunts.

        ``shunts`` is (..., S) complex, the :meth:`shunts` of the varying
        load buses for each leading index.  They are added to the diagonal
        of the load/load block, and one stacked S x S solve with K
        right-hand sides eliminates those buses from every output at once,
        as the Schur complement of :func:`schur_complement` without its
        recovery of the load buses: ``y`` is (..., K, K) and ``recovery``
        (..., m, K).  This is the exact Schur identity, for any load values.
        ``block``, a :class:`LoadBlock` of this network from
        :meth:`load_block`, is written in place: only its diagonal changes,
        to ``kcl_l``'s diagonal plus the shunts, so it serves any number of
        rebuilds.  Its diagonal view and its stacks are read as they are,
        with no slice or index made per rebuild and no operand broadcast.
        A block whose diagonal is not the shape of ``shunts`` is refused.
        Without it a fresh block is made.
        """
        if block is None:
            block = self.load_block(shunts.shape[:-1])
        elif block.diagonal.shape != shunts.shape:
            raise ValueError(
                f"a load/load block of shape {block.y_ll.shape} does not fit "
                f"shunts of shape {shunts.shape}"
            )
        np.add(block.fixed, shunts, out=block.diagonal)
        out = self.out_l @ _interior_solve(block.y_ll, block.rhs)
        np.subtract(block.out_k, out, out=out)
        out.setflags(write=False)  # once, for both of its views
        k = out.shape[-1]
        return ReducedNetwork(y=out[..., :k, :], recovery=out[..., k:, :])


@dataclass(frozen=True)
class LoadBlock:
    """A caller's load/load block of one stage for a stack of runs.

    ``y_ll`` is a C-contiguous (..., S, S) complex stack of
    :class:`LoadBusNetwork`'s ``kcl_l``, ``rhs`` the (..., S, K) stack of
    its ``kcl_k``, the right-hand sides of a rebuild's solve, and ``out_k``
    the (..., K+m, K) stack of its ``out_k``, so that no operand of a
    rebuild broadcasts.  ``diagonal`` is the (..., S) view of ``y_ll``'s
    diagonal, every (S+1)-th entry of the contiguous block, and ``fixed`` a
    copy of the values it holds when the block is made.
    :meth:`LoadBusNetwork.with_loads` writes ``fixed`` plus the load shunts
    into ``diagonal`` and nowhere else, so the rest of the block keeps what
    it was made with.  A block of another layout, or whose stacks do not
    fit it, raises ``ValueError``.
    """

    y_ll: np.ndarray
    rhs: np.ndarray
    out_k: np.ndarray
    diagonal: np.ndarray = field(init=False)
    fixed: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.y_ll.flags.c_contiguous:
            raise ValueError("the load/load block must be C-contiguous")
        lead, n_load = self.y_ll.shape[:-2], self.y_ll.shape[-1]
        k = self.rhs.shape[-1]
        fits = self.rhs.shape[:-1] == lead + (n_load,)
        if not fits or self.out_k.shape[: len(lead)] + self.out_k.shape[-1:] != lead + (k,):
            raise ValueError(
                f"stacks of shape {self.rhs.shape} and {self.out_k.shape} do not fit "
                f"a load/load block of shape {self.y_ll.shape}"
            )
        diagonal = self.y_ll.reshape(lead + (n_load * n_load,))[..., :: n_load + 1]
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "fixed", diagonal.copy())


def reduce_to_load_buses(
    case: SystemCase, condition: NetworkCondition, profile: np.ndarray, rows, varying
) -> LoadBusNetwork:
    """The first reduction step of one network condition, varying loads excluded.

    ``varying`` are the S load buses whose loads change, in the order the
    shunts give them.  The nodes are ordered as the K internal nodes, the
    ``varying`` buses, then the other buses.  Each internal node joins its
    bus through one branch y_s = 1/(Rs + j xdp); with the stage's bus matrix
    and the mean shunt (P - jQ)/|V|^2 of every other load this stamps the
    (K+n) network, and one :func:`schur_complement` eliminates the buses
    that are not kept.  ``profile`` is the pre-fault solved voltage profile
    at which load impedances are fixed, nonzero at every load bus; ``rows``
    are the bus positions whose voltages the recovery gives.
    """
    condition.validate_against(case)
    k, n = case.n_gen, case.n_bus
    loads = np.array([case.bus_index(b) for b in case.load_buses], dtype=int)
    if not np.all(np.abs(profile[loads]) > 0.0):
        raise ValueError("load bus voltage magnitude must be nonzero")
    kept = np.array([case.bus_index(b) for b in varying], dtype=int)
    vm2 = (np.abs(profile[kept]) ** 2).astype(complex)
    is_kept = np.zeros(n, dtype=bool)
    is_kept[kept] = True
    order = np.concatenate([kept, np.flatnonzero(~is_kept)])  # bus positions
    at = k + np.argsort(order)  # node of each bus position
    gens = at[[case.bus_index(gen.bus) for gen in case.generators]]
    ys = np.array([1.0 / (gen.Rs + 1j * gen.xdp) for gen in case.generators])
    y = np.zeros((k + n, k + n), dtype=complex)
    y[k:, k:] = assemble_bus_matrix(case, condition)[np.ix_(order, order)]
    for ld in case.loads:
        i = case.bus_index(ld.bus)
        if not is_kept[i]:
            y[at[i], at[i]] += np.conj(ld.p + 1j * ld.q) / abs(profile[i]) ** 2
    y[gens, gens] += ys  # distinct nodes: a case has one generator per bus
    internal = np.arange(k)
    y[internal, internal] = ys
    y[internal, gens] = y[gens, internal] = -ys
    m = k + kept.size  # the kept nodes
    y_red, rec = schur_complement(y[:m, :m], y[:m, m:], y[m:, :m], y[m:, m:])
    # each bus voltage from the kept values (internal EMFs, load-bus voltages)
    to_bus = np.concatenate([np.eye(m)[k:], rec])[at[rows] - k]
    outputs = np.concatenate([y_red[:k], to_bus])
    return LoadBusNetwork(
        out_k=outputs[:, :k],
        out_l=outputs[:, k:],
        kcl_k=y_red[k:, :k],
        kcl_l=y_red[k:, k:],
        vm2=vm2,
    )
