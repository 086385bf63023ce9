"""Time-stamped simulation output and its CSV form."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


FIELDS = ("delta", "omega", "eqp", "edp")  # per-generator variables, in block order


def columns(gen_buses, monitor_buses) -> list[str]:
    """Output column names in file order.

    delta, omega, eqp and edp of each generator, then v<bus> of each
    monitored bus.
    """
    gen = [f"g{bus}.{name}" for bus in gen_buses for name in FIELDS]
    return gen + [f"v{b}" for b in monitor_buses]


def packed_column(gen_buses, index: int) -> str:
    """Column name of entry ``index`` of a packed [delta | omega | eqp | edp] state."""
    k = len(gen_buses)
    return f"g{gen_buses[index % k]}.{FIELDS[index // k]}"


# Rows per text block of a CSV artifact: a block's text and the Python
# floats it is formatted from stay well under a megabyte at 42 columns.
_BLOCK_ROWS = 256


def csv_rows(columns) -> Iterator[str]:
    """Row i of the equal-length ``columns`` as CSV lines, in blocks of text.

    Numbers are written with 17 significant digits, so they read back bit
    for bit, and strings (a column of numpy string dtype) as they are.
    Each block holds at most ``_BLOCK_ROWS`` rows, formatted from the
    block's ``tolist()``, so no more than one block of text exists at once.
    """
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%s" if c.dtype.kind in "US" else "%.17g" for c in cols) + "\n"
    n = len(cols[0]) if cols else 0
    for i in range(0, n, _BLOCK_ROWS):
        block = zip(*[c[i : i + _BLOCK_ROWS].tolist() for c in cols])
        yield "".join([row % cells for cells in block])


def csv_blocks(header, columns) -> Iterator[str]:
    """CSV text in blocks: the ``header`` line, then :func:`csv_rows` of ``columns``."""
    yield ",".join(header) + "\n"
    yield from csv_rows(columns)


@dataclass
class Trajectory:
    """States sampled on a uniform output grid for one simulation run.

    ``states`` is (T, 4K) in block layout [delta | omega | eqp | edp];
    ``voltages`` holds |V| of the monitored buses, (T, n_mon).  A diverged
    run keeps NaN rows from ``t_diverged`` onward; ``diverged_column``
    names the first packed-state entry that reached the divergence limit or
    turned non-finite.  ``windows`` and ``rebuilds`` count the solver
    steps (a step split at a stage boundary counts each segment) and the
    network rebuilds the run took part in.
    """

    times: np.ndarray
    states: np.ndarray
    gen_buses: tuple[int, ...]
    solver: str
    monitor_buses: tuple[int, ...] = ()
    voltages: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    t_diverged: float | None = None
    diverged_column: str | None = None
    windows: int = 0
    rebuilds: int = 0

    @property
    def diverged(self) -> bool:
        """Whether the run diverged, read from ``t_diverged``."""
        return self.t_diverged is not None

    @property
    def n_gen(self) -> int:
        return len(self.gen_buses)

    @cached_property
    def columns(self) -> list[str]:
        """Output column names in file order, made once per trajectory."""
        return columns(self.gen_buses, self.monitor_buses)

    def value(self, column: str) -> np.ndarray:
        """Series of one variable named in :attr:`columns`."""
        try:
            i = self.columns.index(column)
        except ValueError:
            raise KeyError(f"unknown column {column!r}") from None
        g, f = divmod(i, len(FIELDS))  # generator-major in the columns
        if g < self.n_gen:
            return self.states[:, f * self.n_gen + g]
        return self.voltages[:, i - len(FIELDS) * self.n_gen]

    def csv_blocks(self) -> Iterator[str]:
        """Fixed 17-significant-digit CSV, one row per output step, in blocks of text."""
        k = self.n_gen
        gen = [self.states[:, f * k + g] for g in range(k) for f in range(len(FIELDS))]
        return csv_blocks(["t"] + self.columns, [self.times, *gen, *self.voltages.T])
