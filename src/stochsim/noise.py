"""Ornstein-Uhlenbeck load noise and reproducible noise paths.

Each stochastic variable follows d(eps) = -a*eps dt + b dW and shifts a load
around its mean: P_L(t) = P_L0 + eps_P(t), Q_L(t) = Q_L0 + eps_Q(t).  The
series solver and shared-path Euler resample the values on a fixed interval
by the exact transition and hold them constant in between, so their
trajectories are comparable path by path; paper-sde Euler takes an
Euler-Maruyama step of the load SDE at every integration step instead.
:func:`load_schedule` runs both by one AR(1) recursion, the only OU update,
and is the one function that turns noise paths into load rows: it takes a
batch's paths on one step and checks each of them itself.
A study's loads are vectors in noise-grid order: the means, the drift a and
the diffusion b = sigma_rel * |mean| * sqrt(2a), which makes the stationary
deviation sigma_rel * |mean| (see ``SimulationSetup``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .trajectory import csv_rows


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
    a: float | np.ndarray,
    b: np.ndarray,
    paths: Sequence[NoisePath | None],
    dt: float,
    euler: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(R, n, n_vars) stack of piecewise-constant load values, one slab per path.

    Column j of a slab is variable j of the noise grid: its mean ``mean[j]``
    plus an OU deviation with drift ``a`` (one rate, or one per variable)
    and diffusion ``b[j]``, driven by noise row j of the slab's path.  Each
    deviation starts at zero (load at its mean over the first interval) and
    row k is the value held on [k*dt, (k+1)*dt).  Row k follows from row k-1
    and noise column k-1 by one AR(1) recursion

        eps_k = d * eps_{k-1} + s * xi_{k-1}.

    By default (d, s) = (exp(-a dt), b * sqrt((1 - exp(-2a dt)) / (2a))),
    the exact transition, which is distributionally exact for any dt.  With
    ``euler``, (d, s) = (1 - a dt, b * sqrt(dt)), the Euler-Maruyama step of
    the paper's SDE on the integration grid.  (d, s) is computed once, for
    every path.

    n is the row count of ``out`` when given, else the first path's
    ``n_steps``.  Every path must be a :class:`NoisePath` (ValueError
    "a noise path is required"), hold the ``mean.shape[0]`` variables and
    cover the n rows ("does not cover"), and step at ``dt`` ("differs from
    the load step").  One recursion walks the rows of every path at once,
    multiplying into one buffer and adding in place, so a row allocates
    nothing, and each path takes the bits it takes alone.  The values are
    written into ``out`` when given, an (R, n, n_vars) array, which is
    returned.
    """
    if any(path is None for path in paths):
        raise ValueError("a noise path is required for stochastic runs")
    n = paths[0].n_steps if out is None else out.shape[1]
    for path in paths:
        if path.n_vars != mean.shape[0] or path.n_steps < n:
            raise ValueError("noise path does not cover this scenario")
        if abs(path.dt - dt) > 1e-12:
            raise ValueError(f"noise path step {path.dt} differs from the load step {dt}")
    if out is None:
        out = np.empty((len(paths), n, mean.shape[0]))
    if euler:
        d, s = 1.0 - a * dt, b * np.sqrt(dt)
    else:
        d, s = np.exp(-a * dt), b * np.sqrt(-np.expm1(-2.0 * a * dt) / (2.0 * a))
    out[:, 0] = 0.0
    # row k holds its noise term until the recursion reaches it
    for path, rows in zip(paths, out):
        np.multiply(s, path.xi[:, : n - 1].T, out=rows[1:])
    term = np.empty(out.shape[::2])
    steps = out.swapaxes(0, 1)
    for prev, cur in zip(steps, steps[1:]):
        np.multiply(prev, d, out=term)
        np.add(cur, term, out=cur)
    out += mean
    return out


def path_to_csv(path: NoisePath) -> Iterator[str]:
    """A noise path as ``variable,step,xi`` CSV text, in blocks, for external audit."""
    yield "variable,step,xi\n"
    step = np.arange(path.n_steps)
    for var, xi in enumerate(path.xi):
        yield from csv_rows([np.full(path.n_steps, var), step, xi])
