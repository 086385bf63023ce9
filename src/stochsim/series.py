"""Truncated power-series kernels on a local window clock.

The kernels work on order-major stacks: a (N+1, ..., K) array whose entry
[n] holds the order-n coefficients, so that sum(c[n] * t^n) is the series.
A pair stack (N+1, ..., 2, K) holds two series side by side, such as
(sin x, cos x).  The last axis may be any flat axis of independent series,
and any axes between the order axis and the last one or two index further
independent series.  The solver passes runs × generators as the last axis
and no axes between, so order n of a pair is one (2, R·K) slab that a plain
first-axis index reaches.

The solver builds its series one order at a time, so the kernels give the
order-n coefficient of a composition from the coefficients of orders below
n (or up to n for products): Cauchy products for multiplications and the
coupled recurrences for sin/cos.  Each is one two-operand einsum on the
views of one order that :func:`cauchy_operands` or :func:`sin_cos_operands`
cut, and sin/cos divides its sums by a tile of (n, -n) the shape of its
output.  A kernel returns its numpy calls with every operand bound, ``out``
included, so the solver binds each order once for all its windows and runs
it with no Python frame of the kernel's own.  :func:`series_eval` takes the
other layout, (..., N+1), order last, which the transpose of an
order-major stack gives without a copy.
"""

from __future__ import annotations

from functools import partial

import numpy as np

# Highest series order accepted.  The accuracy/cost frontier measured on
# caseC lies at N <= 10; the bound keeps a mistyped order from asking for
# a coefficient array of gigabytes.
MAX_ORDER = 50


def cauchy_operands(a: np.ndarray, b: np.ndarray, n: int):
    """Orders 0..n of ``a`` and n..0 of ``b``: the order-n Cauchy operands."""
    return a[: n + 1], b[n::-1]


def sin_cos_operands(dx: np.ndarray, sc: np.ndarray, n: int):
    """Operands of :func:`sin_cos_coeff` at order n >= 1: orders below n of
    ``dx``, the terms (j+1) x_{j+1} of x', orders n-1..0 of the (sin x, cos x)
    pair stack ``sc`` with the pair reversed to (cos, sin), and the divisors
    (n, -n) tiled to one order's (..., 2, K) pair, so that the divide
    broadcasts nothing."""
    divisors = np.empty(sc.shape[1:])
    divisors[..., 0, :], divisors[..., 1, :] = n, -n
    return dx[:n], sc[n - 1 :: -1, ..., ::-1, :], divisors


def product_coeffs(a: np.ndarray, b: np.ndarray, out=None) -> partial:
    """Order-n Cauchy coefficients of every product a_i * b_j, as one bound call.

    ``(a, b)`` are :func:`cauchy_operands` of (N+1, ..., P, K) and
    (N+1, ..., Q, K) stacks; the call's result is (..., P, Q, K), entry
    [..., i, j, k] the order-n coefficient of a[:, ..., i, k] * b[:, ..., j, k],
    written into ``out`` when given.
    """
    return partial(np.einsum, "m...ak,m...bk->...abk", a, b, out=out)


def dot_coeff(a: np.ndarray, b: np.ndarray, out=None) -> partial:
    """Order-n coefficient of sum_j a_j * b_j, as one bound call, from the
    :func:`cauchy_operands` of two (N+1, ..., P, K) stacks; the call's
    result is (..., K), written into ``out`` when given."""
    return partial(np.einsum, "m...jk,m...jk->...k", a, b, out=out)


def sin_cos_coeff(dx: np.ndarray, cs: np.ndarray, divisors: np.ndarray, out: np.ndarray):
    """Order-n coefficients (s_n, c_n) of sin x and cos x, for n >= 1, as two
    bound calls to run in turn.

    ``(dx, cs, divisors)`` are the :func:`sin_cos_operands` of order n and
    ``out`` the (..., 2, K) pair they fill.  From s' = x' c and c' = -x' s,
    s_n = sum(dx_j c_{n-1-j}) / n and c_n = -sum(dx_j s_{n-1-j}) / n over
    j < n: the einsum writes the sums into ``out``, which the divide then
    scales in place.
    """
    return (
        partial(np.einsum, "m...k,m...jk->...jk", dx, cs, out=out),
        partial(np.divide, out, divisors, out),
    )


def series_eval(c: np.ndarray, t, out: np.ndarray | None = None) -> np.ndarray:
    """Horner evaluation of sum(c_n t^n) on a float (..., N+1) stack, into ``out``.

    The partial sums are formed in place of the top term c_N, which they
    overwrite: c_N t, then += c_n and *= t for n = N-1 down to 1.  The last
    add, of c_0, writes into ``out``, which may be c_0 itself.  Without
    ``out`` the sum lands in c_0, with one view of c_0 as both the addend
    and the output, numpy's in-place form: the window kernel evaluates so
    into the order-0 state slab, where the next window starts.  At N = 0,
    c_0 is copied into ``out``.  ``t`` is a float, or a 0-d float64 array,
    which numpy multiplies by without converting a Python scalar each call.
    On the order-last view of an order-major stack, as the window kernel
    reads it, each c[..., n] is the slab of order n.  Returns ``out``, or
    c_0 without it.
    """
    top, c_0 = c[..., -1], c[..., 0]
    if out is None:
        out = c_0
    if c.shape[-1] == 1:
        np.copyto(out, top)
        return out
    np.multiply(top, t, top)
    for k in range(c.shape[-1] - 2, 0, -1):
        top += c[..., k]
        top *= t
    return np.add(top, c_0, out)
