from dataclasses import replace

import numpy as np
import pytest

from stochsim.case import Load

from stochsim.network import (
    LoadBlock,
    LoadBusNetwork,
    NetworkCondition,
    ReducedNetwork,
    ReductionError,
    assemble_bus_matrix,
    bus_voltages,
    reduce_to_load_buses,
    schur_complement,
)
from stochsim.powerflow import solve_power_flow
from stochsim.scenario import SimulationSetup, load_scenario
from stochsim import smib as sm

CONDITIONS = [
    NetworkCondition("pre-fault"),
    NetworkCondition("fault-on", fault_bus=3),
    NetworkCondition("post-fault", removed_branches=((3, 4),)),
]


def gather_blocks(y, keep):
    """Kept/kept, kept/eliminated, eliminated/kept and eliminated/eliminated blocks."""
    elim = np.setdiff1d(np.arange(y.shape[0]), keep)
    pairs = ((keep, keep), (keep, elim), (elim, keep), (elim, elim))
    return tuple(y[np.ix_(rows, cols)] for rows, cols in pairs)


def full_network_solve(case, cond, pq, v):
    """``y`` and ``recovery`` of one dense solve of the full (n+K) network.

    Stamps the bus matrix, each generator's branch 1/(Rs + j xdp) to its
    internal node and the shunts of the (L, 2) loads ``pq``, in sorted
    load-bus order; with zero bus injections, unit internal EMFs (one per
    column) give the bus voltages and the internal-node currents.
    """
    n, k = case.n_bus, case.n_gen
    y = np.zeros((n + k, n + k), dtype=complex)
    y[:n, :n] = assemble_bus_matrix(case, cond)
    for bus, (p, q) in zip(sorted(ld.bus for ld in case.loads), pq):
        i = case.bus_index(bus)
        y[i, i] += (p - 1j * q) / abs(v[i]) ** 2
    for g, gen in enumerate(case.generators):
        ends = [case.bus_index(gen.bus), n + g]
        ys = 1.0 / (gen.Rs + 1j * gen.xdp)
        y[ends, ends] += ys
        y[ends, ends[::-1]] -= ys
    v_bus = np.linalg.solve(y[:n, :n], -y[:n, n:])
    return y[n:, :n] @ v_bus + y[n:, n:], v_bus


def load_pq(loads):
    """(L, 2) P and Q of a bus -> (P, Q) mapping, in sorted load-bus order."""
    return np.array([loads[b] for b in sorted(loads)], dtype=float).reshape(-1, 2)


def reduce_all_buses(case, cond, v, loads):
    """Both reduction steps at ``loads``, with the recovery of every bus."""
    first = reduce_to_load_buses(case, cond, v, np.arange(case.n_bus), case.load_buses)
    return first.with_loads(first.shunts(load_pq(loads)))


def assert_rel_close(got, want, rel):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def test_load_shunt_unit_values():
    # one internal node and one load bus: the load-bus recovery is
    # -y_lg / (y_ll + shunt), so the shunt (P - jQ) / |V|^2 can be read back
    y_lg, y_ll = -2 + 1j, 2 - 1j
    # the internal-node current, then the load-bus voltage, from E and from V
    out_k = np.array([[2 - 1j], [0.0]])
    out_l = np.array([[-2 + 1j], [1.0]])
    cases = (
        (1.0, 0.0, 1.0 + 0j, 1.0 + 0j),
        (0.0, 0.0, 0.7 + 0.2j, 0.0),
        (1.0, 0.5, 2.0 + 0j, 0.25 - 0.125j),
    )
    for p, q, v, shunt in cases:
        kcl_l = np.array([[y_ll]])
        vm2 = np.abs([v]).astype(complex) ** 2
        first = LoadBusNetwork(out_k, out_l, np.array([[y_lg]]), kcl_l, vm2)
        assert first.shunts(np.array([[p, q]])) == pytest.approx([shunt], abs=1e-15)
        net = first.with_loads(first.shunts(np.array([[p, q]])))
        assert -y_lg / net.recovery[0, 0] - y_ll == pytest.approx(shunt, abs=1e-14)
        assert np.array_equal(kcl_l, [[y_ll]])  # the cached block is unchanged


def test_zero_load_voltage_rejected(smib_case):
    # a load at a zero voltage has no impedance, whether it varies or is folded
    v = solve_power_flow(smib_case)
    v[smib_case.bus_index(smib_case.loads[0].bus)] = 0.0
    for varying in (smib_case.load_buses, ()):
        with pytest.raises(ValueError, match="nonzero"):
            reduce_to_load_buses(smib_case, NetworkCondition("pre-fault"), v, [], varying)


def test_stacked_loads_match_one_network_each(ieee39_case):
    # a (R, L, 2) stack of loads gives each run the network that both
    # reduction steps, taken afresh for its loads alone, give it
    v = solve_power_flow(ieee39_case)
    buses = sorted(ld.bus for ld in ieee39_case.loads)
    mean = np.array([(ieee39_case.load_at(b).p, ieee39_case.load_at(b).q) for b in buses])
    rng = np.random.default_rng(4)
    pq = mean * (1.0 + 0.05 * rng.standard_normal((3,) + mean.shape))
    cond = NetworkCondition("post-fault", removed_branches=((3, 4),))
    first = reduce_to_load_buses(ieee39_case, cond, v, np.arange(ieee39_case.n_bus), buses)
    stack = first.with_loads(first.shunts(pq))
    assert stack.y.shape == (3, 10, 10) and stack.recovery.shape == (3, 39, 10)
    for i in range(3):
        one = reduce_all_buses(ieee39_case, cond, v, dict(zip(buses, pq[i])))
        assert np.array_equal(stack.y[i], one.y)
        assert np.array_equal(stack.recovery[i], one.recovery)


def test_loads_of_any_layout_or_dtype_convert(ieee39_case):
    # the loads are read as the P + jQ pairs of a C-contiguous float copy:
    # a strided view, a reversed view, integer values and a contiguous float
    # array give the bits of the contiguous float call, and stay unchanged
    v = solve_power_flow(ieee39_case)
    cond = NetworkCondition("pre-fault")
    first = reduce_to_load_buses(ieee39_case, cond, v, [29], ieee39_case.load_buses)
    rng = np.random.default_rng(5)
    wide = rng.uniform(0.5, 3.0, (3, first.vm2.size, 4))
    ints = rng.integers(1, 4, (3, first.vm2.size, 2))
    for pq in (wide[..., ::2], wide[::-1, :, 1:3], ints, wide[..., :2].copy()):
        before = pq.copy()
        got = first.shunts(pq)
        want = first.shunts(np.ascontiguousarray(pq, dtype=np.float64))
        assert got.shape == (3, first.vm2.size) and got.dtype == complex
        assert np.array_equal(got, want)
        assert np.array_equal(pq, before)
        s_load = pq[..., 0] + 1j * pq[..., 1]
        np.testing.assert_allclose(got, np.conjugate(s_load) / first.vm2, rtol=1e-15)


def test_a_reused_load_block_keeps_the_bits_of_a_fresh_one(ieee39_case):
    # one caller-owned block per stage serves rebuilds at changing loads,
    # stages taking turns: each network has the bits of a fresh block's,
    # and only the block's diagonal ever changes
    v = solve_power_flow(ieee39_case)
    buses = ieee39_case.load_buses
    firsts = [reduce_to_load_buses(ieee39_case, cond, v, [3, 29], buses) for cond in CONDITIONS]
    blocks = [first.load_block((4,)) for first in firsts]
    rng = np.random.default_rng(26)
    for _ in range(3):
        for first, block in zip(firsts, blocks):
            pq = rng.uniform(0.5, 3.0, (4, first.vm2.size, 2))
            shunts = first.shunts(pq)
            got = first.with_loads(shunts, block)
            want = first.with_loads(shunts)
            assert np.array_equal(got.y, want.y)
            assert np.array_equal(got.recovery, want.recovery)
            off = ~np.eye(first.vm2.size, dtype=bool)
            y_ll = block.y_ll
            assert np.array_equal(y_ll[:, off], np.broadcast_to(first.kcl_l[off], (4, off.sum())))
            diagonal = np.diagonal(y_ll, axis1=1, axis2=2)
            assert np.array_equal(diagonal, np.diagonal(first.kcl_l) + shunts)
            assert np.shares_memory(block.diagonal, y_ll)
            for stack, a in ((block.rhs, first.kcl_k), (block.out_k, first.out_k)):
                assert np.array_equal(stack, np.broadcast_to(a, (4,) + a.shape))
    # a block is made on a C-contiguous stack only, as its diagonal is a
    # view of every (S+1)-th entry
    with pytest.raises(ValueError, match="C-contiguous"):
        LoadBlock(blocks[0].y_ll[::2], blocks[0].rhs[::2], blocks[0].out_k[::2])
    with pytest.raises(ValueError, match="do not fit"):
        LoadBlock(blocks[0].y_ll, blocks[0].rhs[:1], blocks[0].out_k)
    # a block of another stack shape is refused, and left as it was
    before = blocks[0].y_ll.copy()
    with pytest.raises(ValueError, match=r"\(4, 21, 21\).*\(1, 21\)"):
        firsts[0].with_loads(shunts[:1], blocks[0])
    assert np.array_equal(blocks[0].y_ll, before)


def test_rebuilt_networks_are_read_only(ieee39_case, repo_root):
    # every network a rebuild hands out, and one cut down to the runs that
    # are left, refuses writes into its admittance and its recovery
    setup = SimulationSetup.build(ieee39_case, load_scenario(repo_root / "scenarios" / "caseC.json"))
    first = setup.stages["post-fault"]
    shunts = np.stack([setup.mean_shunts] * 2)
    net = setup.build_net("post-fault", shunts)
    nets = [
        first.with_loads(shunts, first.load_block((2,))),
        first.with_loads(shunts),
        net,
        replace(net, y=net.y[[0]], recovery=net.recovery[[0]]),
    ]
    for rebuilt in nets:
        for a in (rebuilt.y, rebuilt.recovery):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0, 0] = 0.0


@pytest.mark.parametrize("cond", CONDITIONS, ids=lambda cond: cond.stage)
def test_stage_network_matches_full_network_solve(ieee39_case, cond):
    # both reduction steps at the mean loads against a dense solve of the
    # full network: the currents and bus voltages of random internal EMFs
    case = ieee39_case
    v = solve_power_flow(case)
    loads = {ld.bus: (ld.p, ld.q) for ld in case.loads}
    y_full, rec_full = full_network_solve(case, cond, load_pq(loads), v)
    rng = np.random.default_rng(11)
    k = case.n_gen
    e = rng.uniform(0.9, 1.1, k) * np.exp(1j * rng.uniform(-1.0, 1.0, k))
    net = reduce_all_buses(case, cond, v, loads)
    assert np.abs(net.y @ e - y_full @ e).max() < 1e-10
    assert np.abs(net.recovery @ e - rec_full @ e).max() < 1e-10


@pytest.mark.parametrize("n_runs", [1, 3])
@pytest.mark.parametrize("cond", CONDITIONS, ids=lambda cond: cond.stage)
def test_two_step_reduction_matches_full_network_solve(ieee39_case, cond, n_runs):
    # random loads on the varying buses and the case's mean loads on the
    # others, which the first step folds in: caseA's buses, 8 of the 21 load
    # buses in shuffled order, none and all; the monitored buses are a
    # generator bus without load (30), a load bus (4) and a generator bus
    # with a load (39)
    case = ieee39_case
    v = solve_power_flow(case)
    buses = case.load_buses
    rng = np.random.default_rng(12 + n_runs)
    shuffled = tuple(rng.permutation(buses)[:8].tolist())
    assert list(shuffled) != sorted(shuffled)
    mean = np.array([(case.load_at(b).p, case.load_at(b).q) for b in buses])
    rows = [case.bus_index(b) for b in (30, 4, 39)]
    assert case.load_at(30) is None and case.load_at(4) and case.load_at(39)
    for varying in ((3, 4), shuffled, (), buses):
        at = [buses.index(b) for b in varying]
        pq = np.repeat(mean[None], n_runs, axis=0)
        pq[:, at] *= rng.uniform(0.5, 1.5, (n_runs, len(at), 2))
        first = reduce_to_load_buses(case, cond, v, rows, varying)
        assert first.kcl_l.shape == (len(varying),) * 2
        stack = first.with_loads(first.shunts(pq[:, at]))
        assert stack.y.shape == (n_runs, 10, 10) and stack.recovery.shape == (n_runs, 3, 10)
        for i in range(n_runs):
            y_full, rec_full = full_network_solve(case, cond, pq[i], v)
            assert_rel_close(stack.y[i], y_full, 1e-12)
            assert_rel_close(stack.recovery[i], rec_full[rows], 1e-12)
            # the run alone, unstacked and as a stack of one, takes the same bits
            for one_pq in (pq[i, at], pq[i : i + 1, at]):
                one = first.with_loads(first.shunts(one_pq))
                assert np.array_equal(one.y.reshape(stack.y[i].shape), stack.y[i])
                assert np.array_equal(one.recovery.reshape(3, 10), stack.recovery[i])


@pytest.mark.parametrize("where", ["none", "every bus"])
def test_two_step_reduction_edge_cases_match_full_network_solve(ieee39_case, where):
    # no load leaves an empty second-step solve; a load on every bus leaves
    # nothing to eliminate in the first step
    rng = np.random.default_rng(5)
    on = [b.id for b in ieee39_case.buses] if where == "every bus" else []
    case = replace(
        ieee39_case,
        loads=tuple(Load(b, *rng.uniform(0.1, 1.0, 2)) for b in on),
    )
    v = solve_power_flow(ieee39_case)
    loads = {ld.bus: (ld.p, ld.q) for ld in case.loads}
    net = reduce_all_buses(case, CONDITIONS[2], v, loads)
    y_full, rec_full = full_network_solve(case, CONDITIONS[2], load_pq(loads), v)
    assert_rel_close(net.y, y_full, 1e-12)
    assert_rel_close(net.recovery, rec_full, 1e-12)


def test_kron_noop_when_nothing_to_eliminate():
    y = np.array([[1.0 - 2j, -1.0 + 2j], [-1.0 + 2j, 1.0 - 2j]])
    y_red, rec = schur_complement(*gather_blocks(y, np.array([0, 1])))
    assert np.array_equal(y_red, y)
    assert rec.shape == (0, 2)


def test_kron_three_node_chain_hand_computed():
    # chain 1-2-3 with a shunt at node 2; eliminating node 2 by hand:
    # Yred_11 = y12 - y12^2/S, Yred_13 = -y12*y23/S, S = y12+y23+ysh
    y12 = 2.0 - 1.0j
    y23 = 1.0 - 3.0j
    ysh = 0.5 - 0.1j
    s = y12 + y23 + ysh
    y = np.array(
        [
            [y12, -y12, 0],
            [-y12, s, -y23],
            [0, -y23, y23],
        ]
    )
    y_red, rec = schur_complement(*gather_blocks(y, np.array([0, 2])))
    assert y_red[0, 0] == pytest.approx(y12 - y12**2 / s, rel=1e-14)
    assert y_red[0, 1] == pytest.approx(-y12 * y23 / s, rel=1e-14)
    assert y_red[1, 1] == pytest.approx(y23 - y23**2 / s, rel=1e-14)
    # recovery reproduces the interior voltage
    e = np.array([1.1 + 0.2j, 0.95 - 0.1j])
    v2 = rec @ e
    # interior KCL: y12 (V2 - E1) + y23 (V2 - E3) + ysh V2 = 0
    residual = y12 * (v2[0] - e[0]) + y23 * (v2[0] - e[1]) + ysh * v2[0]
    assert abs(residual) < 1e-12


def test_kron_exactness_on_random_networks():
    # currents from the reduced matrix must equal a dense solve of the full
    # network with zero interior injections
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_keep, n_elim = 2, rng.integers(1, 4)
        n = n_keep + n_elim
        y = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.8:
                    yb = rng.uniform(0.5, 3.0) - 1j * rng.uniform(0.5, 8.0)
                    y[i, j] -= yb
                    y[j, i] -= yb
                    y[i, i] += yb
                    y[j, j] += yb
        for i in range(n):
            y[i, i] += rng.uniform(0.05, 0.3) - 1j * rng.uniform(-0.1, 0.1)
        keep = np.arange(n_keep)
        y_red, _ = schur_complement(*gather_blocks(y, keep))
        assert np.allclose(y_red, y_red.T, atol=1e-13)  # symmetry preserved

        e = rng.standard_normal(n_keep) + 1j * rng.standard_normal(n_keep)
        elim = np.arange(n_keep, n)
        v_int = np.linalg.solve(y[np.ix_(elim, elim)], -y[np.ix_(elim, keep)] @ e)
        i_full = y[np.ix_(keep, keep)] @ e + y[np.ix_(keep, elim)] @ v_int
        assert np.allclose(y_red @ e, i_full, atol=1e-10)


def _solve_numpy1(a, b, _solve=np.linalg.solve):
    # numpy < 2 reads b as a stack of vectors whenever b.ndim == a.ndim - 1
    if b.ndim == a.ndim - 1:
        return _solve(a, b[..., None])[..., 0]
    return _solve(a, b)


@pytest.mark.parametrize("solve", [np.linalg.solve, _solve_numpy1])
def test_schur_complement_of_a_stack_matches_each_matrix(monkeypatch, solve):
    # unstacked outer blocks under a stacked y_bb, with as many runs as
    # columns, so that either reading of solve's right-hand side is shape-valid
    monkeypatch.setattr(np.linalg, "solve", solve)
    rng = np.random.default_rng(3)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    r = m = k = 3
    y_aa, y_ab, y_ba = cplx(k, k), cplx(k, m), cplx(m, k)
    y_bb = cplx(r, m, m) + 4 * np.eye(m)
    y_red, rec = schur_complement(y_aa, y_ab, y_ba, y_bb)
    assert y_red.shape == (r, k, k) and rec.shape == (r, m, k)
    for i in range(r):
        y_i, rec_i = schur_complement(y_aa, y_ab, y_ba, y_bb[i])
        assert np.array_equal(y_red[i], y_i) and np.array_equal(rec[i], rec_i)

    net = ReducedNetwork(y=y_red, recovery=rec)
    e = cplx(r, 2, k)  # two EMF vectors per run
    v = bus_voltages(net.recovery[:, None], e)
    assert v.shape == (r, 2, m)
    for i in range(r):
        for j in range(2):
            np.testing.assert_allclose(v[i, j], rec[i] @ e[i, j], rtol=1e-13)


def test_kron_singular_interior_raises():
    y = np.zeros((2, 2), dtype=complex)  # isolated interior node
    y[0, 0] = 1.0
    with pytest.raises(ReductionError):
        schur_complement(*gather_blocks(y, np.array([0])))


def test_fault_stage_grounds_bus(smib_case):
    v = solve_power_flow(smib_case)
    loads = {ld.bus: (ld.p, ld.q) for ld in smib_case.loads}
    cond = NetworkCondition("fault-on", fault_bus=1)
    net = reduce_all_buses(smib_case, cond, v, loads)
    e = np.array([1.1 * np.exp(0.3j), 1.0 + 0j])
    vb = bus_voltages(net.recovery, e)
    assert abs(vb[0]) < 1e-5  # faulted bus held at (near) zero


def test_reduced_matrix_symmetric(ieee39_case):
    v = solve_power_flow(ieee39_case)
    loads = {ld.bus: (ld.p, ld.q) for ld in ieee39_case.loads}
    net = reduce_all_buses(ieee39_case, NetworkCondition("pre-fault"), v, loads)
    assert np.allclose(net.y, net.y.T, atol=1e-12)
    assert net.y.shape == (10, 10)


def test_post_fault_removes_branch(ieee39_case):
    pre = assemble_bus_matrix(ieee39_case, NetworkCondition("pre-fault"))
    post = assemble_bus_matrix(
        ieee39_case,
        NetworkCondition("post-fault", removed_branches=((3, 4),)),
    )
    i, j = ieee39_case.bus_index(3), ieee39_case.bus_index(4)
    assert pre[i, j] != 0
    assert post[i, j] == 0


def test_smib_reduction_matches_k_algebra():
    # the Fig-2 circuit: reduced self/transfer admittances are tied to the
    # hand k-coefficients by k3 = E'^2 G11, k4/(k1 k2) = G12, k5/(k1 k2) = B12
    p = sm.SMIBParams(rs=0.01, xdp=0.3, r=0.02, x=0.4, rl=2.0, xl=1.0, ep=1.1)
    net, _ = sm.smib_embedding(p)
    k1, k2, k3, k4, k5 = sm.k_coefficients(p)
    assert k3 == pytest.approx(p.ep**2 * net.y[0, 0].real, rel=1e-12)
    assert k4 / (k1 * k2) == pytest.approx(net.y[0, 1].real, rel=1e-12)
    assert k5 / (k1 * k2) == pytest.approx(net.y[0, 1].imag, rel=1e-12)


def test_condition_validation():
    with pytest.raises(ValueError):
        NetworkCondition("fault-on")  # fault bus missing
    with pytest.raises(ValueError):
        NetworkCondition("mid-fault")
    with pytest.raises(ValueError):
        NetworkCondition("pre-fault", removed_branches=((1, 2),))
