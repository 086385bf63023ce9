"""System case files: buses, branches, generators and loads.

A case is a single JSON document with sections ``system``, ``buses``,
``branches``, ``generators`` and ``loads``.  All electrical quantities are
per-unit on the system MVA base; angles are in radians.  See
``cases/ieee39.json`` for the full schema in use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


class CaseError(ValueError):
    """Raised when a case file violates the schema or an invariant."""


BUS_TYPES = ("slack", "PV", "PQ")


@dataclass(frozen=True)
class Bus:
    id: int
    type: str
    v_setpoint: float = 1.0
    angle: float = 0.0
    p_gen: float = 0.0  # scheduled active generation, p.u.


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b: float = 0.0  # total line charging susceptance, p.u.
    tap: float = 0.0  # transformer ratio on the from side; 0 means a plain line

    def matches(self, a: int, b: int) -> bool:
        return {self.from_bus, self.to_bus} == {a, b}


@dataclass(frozen=True)
class GeneratorParams:
    """Two-axis machine constants.

    ``H`` in seconds, ``D`` in p.u. torque per p.u. speed deviation,
    reactances and stator resistance in p.u., time constants in seconds,
    ``omega_r`` the rated angular frequency in rad/s.
    """

    bus: int
    H: float
    D: float
    xd: float
    xdp: float
    xq: float
    xqp: float
    Td0p: float
    Tq0p: float
    Rs: float = 0.0
    omega_r: float = 2.0 * math.pi * 60.0


@dataclass(frozen=True)
class Load:
    bus: int
    p: float
    q: float


@dataclass(frozen=True)
class SystemCase:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[GeneratorParams, ...]
    loads: tuple[Load, ...]
    frequency_hz: float
    _bus_pos: dict[int, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "_bus_pos", {b.id: i for i, b in enumerate(self.buses)}
        )

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_gen(self) -> int:
        return len(self.generators)

    def bus_index(self, bus_id: int) -> int:
        """Position of a bus id in the case ordering."""
        try:
            return self._bus_pos[bus_id]
        except KeyError:
            raise CaseError(f"unknown bus id {bus_id}") from None

    def has_branch(self, a: int, b: int) -> bool:
        return any(br.matches(a, b) for br in self.branches)

    def load_at(self, bus_id: int) -> Load | None:
        for ld in self.loads:
            if ld.bus == bus_id:
                return ld
        return None


def bus_id(value) -> int:
    """A bus id as read from JSON: an integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"bus id must be an integer, not {value!r}")
    return value


def finite_float(value) -> float:
    """``float(value)``, refusing NaN and the infinities, which JSON files may hold."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {value!r}")
    return x


def _field(record: dict, key: str, where: str, convert=finite_float, default=None):
    """``convert(record[key])``; ``default`` when absent, required without one."""
    if key not in record:
        if default is None:
            raise CaseError(f"{where}: missing field '{key}'")
        return default
    try:
        return convert(record[key])
    except (TypeError, ValueError):
        raise CaseError(f"{where}: field '{key}' is invalid: {record[key]!r}") from None


def _records(doc: dict, section: str) -> list[dict]:
    records = doc[section]
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        raise CaseError(f"section '{section}' must be a list of JSON objects")
    return records


def parse_case(text: str) -> SystemCase:
    """Parse and validate a JSON case document.

    Raises :class:`CaseError` naming the offending field for schema
    violations, and for every invariant breach (duplicate bus ids, dangling
    branch endpoints, missing slack, non-positive impedances, ...).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(f"not valid JSON (line {exc.lineno}): {exc.msg}") from exc

    if not isinstance(doc, dict):
        raise CaseError("top level must be a JSON object")
    for section in ("system", "buses", "branches", "generators", "loads"):
        if section not in doc:
            raise CaseError(f"missing section '{section}'")

    sysrec = doc["system"]
    if not isinstance(sysrec, dict):
        raise CaseError("section 'system' must be a JSON object")
    freq = _field(sysrec, "frequency_hz", "system")
    if freq <= 0:
        raise CaseError("system: frequency_hz must be positive")
    omega_r = 2.0 * math.pi * freq

    buses = []
    for i, rec in enumerate(_records(doc, "buses")):
        where = f"buses[{i}]"
        btype = _field(rec, "type", where, str)
        if btype not in BUS_TYPES:
            raise CaseError(f"{where}: type must be one of {BUS_TYPES}, got {btype!r}")
        buses.append(
            Bus(
                id=_field(rec, "id", where, bus_id),
                type=btype,
                v_setpoint=_field(rec, "v_setpoint", where, default=1.0),
                angle=_field(rec, "angle", where, default=0.0),
                p_gen=_field(rec, "p_gen", where, default=0.0),
            )
        )

    branches = []
    for i, rec in enumerate(_records(doc, "branches")):
        where = f"branches[{i}]"
        branches.append(
            Branch(
                from_bus=_field(rec, "from", where, bus_id),
                to_bus=_field(rec, "to", where, bus_id),
                r=_field(rec, "r", where),
                x=_field(rec, "x", where),
                b=_field(rec, "b", where, default=0.0),
                tap=_field(rec, "tap", where, default=0.0),
            )
        )

    gens = []
    for i, rec in enumerate(_records(doc, "generators")):
        where = f"generators[{i}]"
        gens.append(
            GeneratorParams(
                bus=_field(rec, "bus", where, bus_id),
                H=_field(rec, "H", where),
                D=_field(rec, "D", where, default=0.0),
                xd=_field(rec, "xd", where),
                xdp=_field(rec, "xdp", where),
                xq=_field(rec, "xq", where),
                xqp=_field(rec, "xqp", where),
                Td0p=_field(rec, "Td0p", where),
                Tq0p=_field(rec, "Tq0p", where),
                Rs=_field(rec, "Rs", where, default=0.0),
                omega_r=omega_r,
            )
        )

    loads = []
    for i, rec in enumerate(_records(doc, "loads")):
        where = f"loads[{i}]"
        loads.append(
            Load(
                bus=_field(rec, "bus", where, bus_id),
                p=_field(rec, "P", where),
                q=_field(rec, "Q", where),
            )
        )

    case = SystemCase(
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(gens),
        loads=tuple(loads),
        frequency_hz=freq,
    )
    _validate(case)
    return case


def _validate(case: SystemCase) -> None:
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise CaseError(f"duplicate bus id(s): {dup}")
    known = set(ids)

    slack = [b.id for b in case.buses if b.type == "slack"]
    if len(slack) != 1:
        raise CaseError(f"exactly one slack bus required, found {len(slack)}")

    for i, br in enumerate(case.branches):
        for end in (br.from_bus, br.to_bus):
            if end not in known:
                raise CaseError(f"branches[{i}]: endpoint {end} is not a bus")
        if math.hypot(br.r, br.x) <= 0.0:
            raise CaseError(f"branches[{i}]: impedance magnitude must be positive")

    if not case.generators:
        raise CaseError("at least one generator required")
    gen_buses = [g.bus for g in case.generators]
    if len(set(gen_buses)) != len(gen_buses):
        raise CaseError("at most one generator per bus")
    for i, g in enumerate(case.generators):
        where = f"generators[{i}]"
        if g.bus not in known:
            raise CaseError(f"{where}: bus {g.bus} is not a bus")
        if g.H <= 0:
            raise CaseError(f"{where}: H must be positive")
        if g.Td0p <= 0 or g.Tq0p <= 0:
            raise CaseError(f"{where}: Td0p and Tq0p must be positive")
        if not (g.xd >= g.xdp > 0):
            raise CaseError(f"{where}: need xd >= xdp > 0")
        if not (g.xq >= g.xqp > 0):
            raise CaseError(f"{where}: need xq >= xqp > 0")

    for i, ld in enumerate(case.loads):
        if ld.bus not in known:
            raise CaseError(f"loads[{i}]: bus {ld.bus} is not a bus")
    load_buses = [ld.bus for ld in case.loads]
    if len(set(load_buses)) != len(load_buses):
        raise CaseError("at most one load record per bus")


def load_case(path) -> SystemCase:
    """Read a case file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_case(fh.read())
