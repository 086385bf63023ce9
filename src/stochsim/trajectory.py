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
        k = self.n_gen
        header = "t," + ",".join(self.columns)
        # interleave the block layout per generator for the file
        order = []
        for g in range(k):
            order += [g, k + g, 2 * k + g, 3 * k + g]
        data = self.states[:, order]
        lines = [header]
        has_v = len(self.monitor_buses) > 0
        for i in range(self.times.shape[0]):
            row = [f"{self.times[i]:.17g}"]
            row += [f"{x:.17g}" for x in data[i]]
            if has_v:
                row += [f"{x:.17g}" for x in self.voltages[i]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
