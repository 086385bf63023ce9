"""Truncated power-series kernels on a local window clock.

The kernels work on order-major stacks: a (N+1, ..., K) array whose entry
[n] holds the order-n coefficients, so that sum(c[n] * t^n) is the series.
A pair stack (N+1, ..., 2, K) holds two series side by side, such as
(sin x, cos x).  The last axis may be any flat axis of independent series,
and any axes between the order axis and the last one or two index further
independent series.  The solver passes runs × generators as the last axis
and no axes between, so order n of a pair is one contiguous (2, R·K) slab
that a plain first-axis index reaches.

The solver builds its series one order at a time, so the kernels return the
order-n coefficient of a composition from the coefficients of orders below
n (or up to n for products): Cauchy products for multiplications and the
coupled recurrences for sin/cos.  Each is one two-operand einsum, written
into ``out`` when given.  :func:`series_eval` takes the other layout,
(..., N+1), order last, which the transpose of an order-major stack gives
without a copy.
"""

from __future__ import annotations

import numpy as np

# Highest series order accepted.  The accuracy/cost frontier measured on
# caseC lies at N <= 10; the bound keeps a mistyped order from asking for
# a coefficient array of gigabytes.
MAX_ORDER = 50

# entry n holds the divisors (n, -n) of the sin/cos recurrences at order n:
# s' = x' c, c' = -x' s
_SIN_COS_DIVISORS = np.array([[1.0], [-1.0]]) * np.arange(MAX_ORDER + 1)[:, None, None]


def product_coeffs(a: np.ndarray, b: np.ndarray, n: int, out=None) -> np.ndarray:
    """Order-n Cauchy coefficients of every product a_i * b_j.

    ``a`` is (N+1, ..., P, K) and ``b`` (N+1, ..., Q, K); the result is
    (..., P, Q, K), entry [..., i, j, k] the order-n coefficient of
    a[:, ..., i, k] * b[:, ..., j, k].  Reads orders 0..n of both.
    """
    return np.einsum("m...ak,m...bk->...abk", a[: n + 1], b[n::-1], out=out)


def dot_coeff(a: np.ndarray, b: np.ndarray, n: int, out=None) -> np.ndarray:
    """Order-n coefficient of sum_j a_j * b_j for (N+1, ..., P, K) stacks.

    The result is (..., K); reads orders 0..n of both.
    """
    return np.einsum("m...jk,m...jk->...k", a[: n + 1], b[n::-1], out=out)


def sin_cos_coeff(dx: np.ndarray, sc: np.ndarray, n: int, out=None) -> np.ndarray:
    """Order-n coefficients (s_n, c_n) of sin x and cos x, for n >= 1.

    ``dx`` holds the coefficients of the derivative x', dx[j] =
    (j+1) x_{j+1}, order first like ``sc``, the (N+1, ..., 2, K) pair stack
    of (sin x, cos x).  From s' = x' c and c' = -x' s,
    s_n = sum(dx_j c_{n-1-j}) / n and c_n = -sum(dx_j s_{n-1-j}) / n over
    j < n <= ``MAX_ORDER``.  Returns the (..., 2, K) pair; reads dx below
    order n and sc below order n.
    """
    t = np.einsum("m...k,m...jk->...jk", dx[:n], sc[n - 1 :: -1])
    return np.divide(t[..., ::-1, :], _SIN_COS_DIVISORS[n], out=out)


def series_eval(c: np.ndarray, t: float):
    """Horner evaluation of sum(c_n t^n) on a float (..., N+1) stack.

    The sum is formed in one new (...) array, in place: out = c_N, then
    out *= t; out += c_n for n = N-1 down to 0.  On the order-last view of
    an order-major stack, as the window kernel returns it, each c[..., n]
    is the slab of order n.
    """
    c = np.asarray(c)
    out = c[..., -1].copy()
    for k in range(c.shape[-1] - 2, -1, -1):
        out *= t
        out += c[..., k]
    return out
