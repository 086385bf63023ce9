import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochsim import smib as sm
from stochsim.dynamics import WindowWork
from stochsim.sas import window_step
from stochsim.series import (
    cauchy_operands,
    dot_coeff,
    product_coeffs,
    series_eval,
    sin_cos_coeff,
    sin_cos_operands,
)

# Series here are order-major (N+1, K) stacks, one column per machine; a
# pair stack (N+1, 2, K) holds two series side by side.


def stack(a, order: int) -> np.ndarray:
    """(order+1, 1) stack of the coefficient list ``a``, truncated or zero-padded."""
    a = np.asarray(a, dtype=float)[: order + 1]
    c = np.zeros((order + 1, 1))
    c[: a.shape[0], 0] = a
    return c


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two (N+1, K) stacks, built one order at a time."""
    return np.stack(
        [
            product_coeffs(*cauchy_operands(a[:, None], b[:, None], n))()[0, 0]
            for n in range(a.shape[0])
        ]
    )


def run(calls) -> None:
    """Run a kernel's bound calls in turn."""
    for call in calls:
        call()


def evaluate(c, t):
    """sum(c_n t^n) of a (..., N+1) stack, on a copy that ``series_eval`` may overwrite."""
    c = np.array(c, dtype=float)
    return series_eval(c, t, c[..., 0])


def derivative(x: np.ndarray) -> np.ndarray:
    """Coefficients of x', (j+1) x_{j+1}, with a zero top order."""
    dx = np.zeros_like(x)
    dx[:-1] = np.arange(1, x.shape[0])[:, None] * x[1:]
    return dx


def sin_cos(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truncated sine and cosine of a (N+1, K) stack, built one order at a time."""
    sc = np.zeros((x.shape[0], 2, x.shape[1]))
    sc[0] = np.sin(x[0]), np.cos(x[0])
    dx = derivative(x)
    for n in range(1, x.shape[0]):
        run(sin_cos_coeff(*sin_cos_operands(dx, sc, n), sc[n]))
    return sc[:, 0], sc[:, 1]


def test_mul_one_plus_t_times_one_minus_t():
    assert np.allclose(mul(stack([1, 1], 2), stack([1, -1], 2)), [[1], [0], [-1]])


def test_product_coeffs_gives_every_pair():
    # (1 + t, 2 - t) x (1 - t, 3): entry [i, j] is the product of a_i and b_j
    a = np.stack([stack([1, 1], 2), stack([2, -1], 2)], axis=1)
    b = np.stack([stack([1, -1], 2), stack([3], 2)], axis=1)
    pairs = np.stack([product_coeffs(*cauchy_operands(a, b, n))() for n in range(3)])
    assert pairs.shape == (3, 2, 2, 1)
    assert np.allclose(pairs[:, 0, 0, 0], [1, 0, -1])
    assert np.allclose(pairs[:, 1, 0, 0], [2, -3, 1])
    assert np.allclose(pairs[:, 0, 1, 0], [3, 3, 0])
    assert np.allclose(pairs[:, 1, 1, 0], [6, -3, 0])


def test_dot_coeff_sums_the_pair_products():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 4, 2, 3))
    dot = np.stack([dot_coeff(*cauchy_operands(a, b, n))() for n in range(4)])
    assert np.allclose(dot, mul(a[:, 0], b[:, 0]) + mul(a[:, 1], b[:, 1]), atol=1e-14)


def test_sin_of_t_taylor():
    assert np.allclose(sin_cos(stack([0, 1, 0], 3))[0], [[0], [1], [0], [-1 / 6]])


def test_trig_of_constant_series():
    c0 = 0.83
    s, c = sin_cos(stack([c0], 2))
    assert np.allclose(s, [[np.sin(c0)], [0], [0]])
    assert np.allclose(c, [[np.cos(c0)], [0], [0]])


def test_cos_of_t():
    assert np.allclose(sin_cos(stack([0, 1], 4))[1], [[1], [0], [-0.5], [0], [1 / 24]])


def test_kernels_read_only_the_orders_they_need():
    # the solver fills order n after calling the kernels at order n, so the
    # kernels must not read later orders: NaN there must not leak
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 5, 2, 3))
    x = rng.standard_normal((5, 3))
    s, c = sin_cos(x)
    sc = np.stack([s, c], axis=1)
    for n in range(5):
        a_n, b_n, x_n = a.copy(), b.copy(), x.copy()
        a_n[n + 1 :] = b_n[n + 1 :] = x_n[n + 1 :] = np.nan
        ops, ops_n = cauchy_operands(a, b, n), cauchy_operands(a_n, b_n, n)
        assert np.array_equal(product_coeffs(*ops_n)(), product_coeffs(*ops)())
        assert np.array_equal(dot_coeff(*ops_n)(), dot_coeff(*ops)())
        if n == 0:
            continue
        sc_n = sc.copy()
        sc_n[n:] = np.nan
        got = np.empty_like(sc[n])
        run(sin_cos_coeff(*sin_cos_operands(derivative(x_n), sc_n, n), got))
        assert np.array_equal(got, sc[n])


def test_eval_horner_matches_polyval():
    c = np.array([0.3, -1.2, 0.05, 2.0])
    t = 0.37
    assert evaluate(c, t) == pytest.approx(np.polyval(c[::-1], t))


def test_eval_on_stack():
    c = np.array([[1.0, 1.0, 0.5], [2.0, 0.0, -1.0]])
    out = evaluate(c, 0.1)
    assert out == pytest.approx([1.105, 1.99])


def test_eval_writes_out_and_may_alias_the_constant_term():
    # the partial sums overwrite c_N only, and the sum lands in out, which
    # may be c_0 itself (the window kernel's order-0 state slab), with the
    # bits of the same Horner steps written out here
    rng = np.random.default_rng(3)
    t = 0.37
    for n_terms in (1, 2, 5):
        c = rng.standard_normal((4, 3, n_terms))
        want = c[..., -1] * t if n_terms > 1 else c[..., 0].copy()
        for k in range(n_terms - 2, 0, -1):
            want = (want + c[..., k]) * t
        if n_terms > 1:
            want = want + c[..., 0]
        apart, aliased = c.copy(), c.copy()
        out = np.empty(c.shape[:-1])
        assert series_eval(apart, t, out) is out
        c_0 = aliased[..., 0]
        assert series_eval(aliased, t, c_0) is c_0
        assert np.array_equal(out, want) and np.array_equal(c_0, want)
        assert np.array_equal(apart[..., :-1], c[..., :-1])  # below c_N, c is kept


def test_eval_without_out_sums_into_the_constant_term():
    # series_eval(c, t) is the in-place form of series_eval(c, t, out): its
    # sum lands in c_0 with the bits the sum into out has, at a float t and
    # at the 0-d t that run_simulation passes
    rng = np.random.default_rng(4)
    for n_terms in (1, 2, 5):
        c = rng.standard_normal((4, 3, n_terms))
        apart = c.copy()
        out = np.empty(c.shape[:-1])
        series_eval(apart, 0.37, out)
        for t in (0.37, np.array(0.37)):
            in_place = c.copy()
            got = series_eval(in_place, t)
            assert got.base is in_place and np.shares_memory(got, in_place[..., 0])
            assert np.array_equal(in_place[..., 0], out)


@pytest.mark.parametrize("order", [1, 2, 5])
def test_window_step_takes_a_float_or_a_0d_length(order):
    # three windows of a 3-run SMIB stack: a window length given as the
    # 0-d float64 array that run_simulation passes steps to the bits of the float
    p = sm.SMIBParams()
    net, machines = sm.smib_embedding(p)
    states = np.stack([sm.smib_state(p, d, p.omega_r + 1.0) for d in (0.3, 0.7, 1.1)])
    stepped = []
    for dt in (0.01, np.array(0.01)):
        work = WindowWork(machines, len(states), order)
        work.set_state(states)
        for _ in range(3):
            window_step(net, work, dt)
        stepped.append(work.state.copy())
    assert not np.array_equal(stepped[0], states.reshape(stepped[0].shape))
    assert np.array_equal(*stepped)


coeffs = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=5
)


@given(coeffs, coeffs)
@settings(max_examples=100, deadline=None)
def test_mul_commutes(a, b):
    n = max(len(a), len(b)) - 1
    ab = mul(stack(a, n), stack(b, n))
    ba = mul(stack(b, n), stack(a, n))
    assert np.allclose(ab, ba, atol=1e-12)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=100, deadline=None)
def test_mul_distributes_over_add(a, b, c):
    n = max(len(a), len(b), len(c)) - 1
    a, b, c = stack(a, n), stack(b, n), stack(c, n)
    assert np.allclose(mul(a, b + c), mul(a, b) + mul(a, c), atol=1e-10)


@given(coeffs)
@settings(max_examples=100, deadline=None)
def test_sin_cos_pythagoras(a):
    n = len(a) - 1
    s, c = sin_cos(stack(a, n))
    expected = np.zeros((n + 1, 1))
    expected[0, 0] = 1.0
    assert np.allclose(mul(s, s) + mul(c, c), expected, atol=1e-9)


@given(coeffs, st.floats(min_value=-0.01, max_value=0.01))
@settings(max_examples=100, deadline=None)
def test_truncated_product_evaluates_consistently(a, t):
    # the truncated square tracks the squared evaluation up to the dropped
    # tail, which is bounded by (sum|a_i|)^2 * t^(n+1) for |t| < 1
    n = len(a) - 1
    sq = mul(stack(a, n), stack(a, n))
    bound = (np.sum(np.abs(a)) ** 2 + 1.0) * abs(t) ** (n + 1) + 1e-12
    assert abs(evaluate(sq[:, 0], t) - evaluate(a, t) ** 2) <= bound
