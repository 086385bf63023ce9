"""Time-stamped simulation output and its CSV form."""

from __future__ import annotations

from dataclasses import dataclass, field

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


def csv_text(header, columns) -> str:
    """CSV text: the ``header`` line, then row i of the equal-length ``columns``.

    Numbers are written with 17 significant digits, so they read back bit
    for bit, and strings as they are.  The text is built one row at a time.
    """
    lines = [",".join(header)]
    for row in zip(*columns):
        # float() first: a numpy scalar formats more slowly
        cells = [x if isinstance(x, str) else f"{float(x):.17g}" for x in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class Trajectory:
    """States sampled on a uniform output grid for one simulation run.

    ``states`` is (T, 4K) in block layout [delta | omega | eqp | edp];
    ``voltages`` holds |V| of the monitored buses, (T, n_mon).  A diverged
    run keeps NaN rows from the divergence time onward; ``diverged_column``
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
    diverged: bool = False
    t_diverged: float | None = None
    diverged_column: str | None = None
    windows: int = 0
    rebuilds: int = 0

    @property
    def n_gen(self) -> int:
        return len(self.gen_buses)

    @property
    def columns(self) -> list[str]:
        return columns(self.gen_buses, self.monitor_buses)

    def value(self, column: str) -> np.ndarray:
        """Series of one variable named in :attr:`columns`."""
        try:
            i = self.columns.index(column)
        except ValueError:
            raise KeyError(f"unknown column {column!r}") from None
        k = self.n_gen
        if i >= 4 * k:
            return self.voltages[:, i - 4 * k]
        return self.states[:, (i % 4) * k + i // 4]

    def to_csv(self) -> str:
        """Fixed 17-significant-digit CSV, one row per output step."""
        cols = self.columns
        return csv_text(["t"] + cols, [self.times] + [self.value(c) for c in cols])
