"""Ornstein-Uhlenbeck load noise and reproducible noise paths.

Each stochastic variable follows d(eps) = -a*eps dt + b dW and shifts a load
around its mean: P_L(t) = P_L0 + eps_P(t), Q_L(t) = Q_L0 + eps_Q(t).  The
series solver and shared-path Euler resample the values on a fixed interval
by the exact transition and hold them constant in between, so their
trajectories are comparable path by path; paper-sde Euler takes an
Euler-Maruyama step of the load SDE at every integration step instead.
A study's loads are vectors in noise-grid order: the means, the drift a and
the diffusion b = sigma_rel * |mean| * sqrt(2a), which makes the stationary
deviation sigma_rel * |mean| (see ``SimulationSetup``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .trajectory import csv_rows

ArrayLike = float | np.ndarray  # one variable, or an array of variables or paths


@dataclass(frozen=True)
class OUParams:
    """Mean-reversion rate ``a`` (1/s) and diffusion magnitude ``b`` (p.u./sqrt(s))."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("OU drift parameter a must be positive")
        if self.b < 0.0:
            raise ValueError("OU diffusion parameter b must be nonnegative")


def _exact_transition(a: ArrayLike, b: ArrayLike, dt: float):
    """Decay exp(-a dt) and noise scale b sqrt((1 - exp(-2 a dt)) / (2a)) of an exact step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    decay = np.exp(-a * dt)
    return decay, b * np.sqrt(-np.expm1(-2.0 * a * dt) / (2.0 * a))


def ou_exact_step(
    eps: ArrayLike, a: ArrayLike, b: ArrayLike, dt: float, xi: ArrayLike
) -> ArrayLike:
    """Advance OU variables by ``dt`` using the exact transition law.

    eps' = eps * exp(-a dt) + b * sqrt((1 - exp(-2 a dt)) / (2a)) * xi
    with ``xi`` standard-normal draws.  Distributionally exact for any step;
    the update applies element by element.
    """
    decay, std = _exact_transition(a, b, dt)
    return eps * decay + std * xi


def ou_em_step(
    eps: ArrayLike, a: ArrayLike, b: ArrayLike, dt: float, dw: ArrayLike
) -> ArrayLike:
    """One Euler-Maruyama step of d(eps) = -a eps dt + b dW.

    ``dw`` holds Brownian increments with variance dt; the update applies
    element by element.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return eps + (-a * eps * dt + b * dw)


def ou_closed_form(eps0: float, p: OUParams, t: float, db: np.ndarray) -> ArrayLike:
    """Evaluate the closed-form OU solution on discretized Brownian paths.

    ``db`` holds Brownian increments over a uniform partition of [0, t]
    along its last axis, one path per leading index; the stochastic
    integral uses left endpoints:
    eps(t) = exp(-a t) * (eps0 + b * sum_i exp(a s_i) dB_i).
    """
    db = np.asarray(db, dtype=float)
    m = db.shape[-1]
    if m == 0:
        return eps0 * math.exp(-p.a * t)
    s = np.arange(m) * (t / m)
    integral = np.sum(np.exp(p.a * s) * db, axis=-1)
    return math.exp(-p.a * t) * (eps0 + p.b * integral)


@dataclass(frozen=True)
class NoisePath:
    """Seeded grid of standard-normal draws, indexed by (variable, step).

    The grid is fully determined by (seed, n_vars, horizon, dt) and is drawn
    in one shot, so it does not depend on consumption order.  Ensemble run i
    derives its seed from the master seed as SeedSequence([master, i]).
    """

    seed: tuple
    dt: float
    xi: np.ndarray  # shape (n_vars, n_steps)

    def __post_init__(self):
        self.xi.setflags(write=False)

    @property
    def n_vars(self) -> int:
        return self.xi.shape[0]

    @property
    def n_steps(self) -> int:
        return self.xi.shape[1]


def build_noise_path(seed, n_vars: int, horizon: float, dt: float) -> NoisePath:
    """Draw the ceil(horizon/dt) x n_vars grid of N(0,1) deviates for one run."""
    if horizon <= 0.0 or dt <= 0.0:
        raise ValueError("horizon and dt must be positive")
    n_steps = int(math.ceil(horizon / dt - 1e-12))
    entropy = (seed,) if np.isscalar(seed) else tuple(seed)
    rng = np.random.default_rng(np.random.SeedSequence(list(entropy)))
    xi = rng.standard_normal((n_vars, n_steps))
    return NoisePath(seed=entropy, dt=dt, xi=xi)


def load_schedule(
    mean: np.ndarray,
    a: ArrayLike,
    b: np.ndarray,
    path: NoisePath,
    euler: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(n_steps, n_vars) array of piecewise-constant load values.

    Column j is variable j of the noise grid: its mean ``mean[j]`` plus an
    OU deviation with drift ``a`` (one rate, or one per variable) and
    diffusion ``b[j]``, driven by noise row j.  Each deviation starts at
    zero (load at its mean over the first interval) and row k is the value
    held on [k*dt, (k+1)*dt), dt = ``path.dt``.  Row k follows from row k-1
    and noise column k-1 by the exact transition, or with ``euler`` by the
    Euler-Maruyama step with dW = sqrt(dt) * xi, which is the paper's SDE
    discretized on the integration grid.  The values are written into
    ``out`` when given, an (n, n_vars) array with n <= n_steps that takes
    the first n rows; ``out`` is returned.
    """
    eps = np.empty((path.n_steps, mean.shape[0])) if out is None else out
    n = eps.shape[0]
    eps[0] = 0.0
    # row k holds its noise until the recursion reaches it
    xi = path.xi[:, : n - 1].T
    if euler:
        np.multiply(math.sqrt(path.dt), xi, out=eps[1:])
        for k in range(1, n):
            eps[k] = ou_em_step(eps[k - 1], a, b, path.dt, eps[k])
    else:
        eps[1:] = xi
        decay, std = _exact_transition(a, b, path.dt)
        for k in range(1, n):  # ou_exact_step, its coefficients computed once
            eps[k] = eps[k - 1] * decay + std * eps[k]
    eps += mean
    return eps


def path_to_csv(path: NoisePath) -> Iterator[str]:
    """A noise path as ``variable,step,xi`` CSV text, in blocks, for external audit."""
    yield "variable,step,xi\n"
    step = np.arange(path.n_steps)
    for var, xi in enumerate(path.xi):
        yield from csv_rows([np.full(path.n_steps, var), step, xi])
