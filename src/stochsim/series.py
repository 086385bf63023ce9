"""Truncated power-series kernels on a local window clock.

A series stack is a (..., K, N+1) coefficient array whose entry [..., k, :]
represents sum(c[..., k, n] * t^n); leading axes index independent runs.
The solver builds its series one order at a time, so the kernels return the
order-n coefficient of a composition from the coefficients of orders below
n (or up to n for products): Cauchy products for multiplications and the
coupled recurrences for sin/cos.
"""

from __future__ import annotations

import numpy as np


def cauchy_coeff(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Order-n Cauchy coefficient of a*b for (..., K, N+1) stacks."""
    if n == 0:
        return a[..., 0] * b[..., 0]
    return np.einsum("...km,...km->...k", a[..., : n + 1], b[..., n::-1])


def sin_cos_coeff(
    x: np.ndarray, s: np.ndarray, c: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Order-n coefficients of sin(x) and cos(x) for (..., K, N+1) stacks.

    ``s`` and ``c`` must hold the sin/cos coefficients of orders below n;
    with m x_m the derivative terms, s_n = sum(m x_m c_{n-m}) / n and
    c_n = -sum(m x_m s_{n-m}) / n.
    """
    if n == 0:
        return np.sin(x[..., 0]), np.cos(x[..., 0])
    m = np.arange(1, n + 1)
    mx = m * x[..., 1 : n + 1]
    s_n = np.einsum("...km,...km->...k", mx, c[..., n - 1 :: -1][..., :n]) / n
    c_n = -np.einsum("...km,...km->...k", mx, s[..., n - 1 :: -1][..., :n]) / n
    return s_n, c_n


def series_eval(c: np.ndarray, t: float):
    """Horner evaluation of sum(c_n t^n); works on (..., N+1) stacks."""
    c = np.asarray(c)
    out = c[..., -1].copy()
    for k in range(c.shape[-1] - 2, -1, -1):
        out = out * t + c[..., k]
    return out
