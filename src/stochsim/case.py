"""System case files: buses, branches, generators and loads.

A case is a single JSON document with sections ``system``, ``buses``,
``branches``, ``generators`` and ``loads``.  All electrical quantities are
per-unit on the system MVA base; angles are in radians.  The key tables
``_SYSTEM_KEYS``, ``_BUS_KEYS``, ``_BRANCH_KEYS``, ``_GENERATOR_KEYS`` and
``_LOAD_KEYS`` list the keys of each record, and the dataclasses below give
each optional key its default.  An unknown key or section is refused.  The
top-level ``name`` and ``system.base_mva`` are accepted and not read.
"""

from __future__ import annotations

import inspect
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


@dataclass(frozen=True, kw_only=True)
class GeneratorParams:
    """Two-axis machine constants.

    ``H`` in seconds, ``D`` in p.u. torque per p.u. speed deviation,
    reactances and stator resistance in p.u., time constants in seconds.
    """

    bus: int
    H: float
    D: float = 0.0
    xd: float
    xdp: float
    xq: float
    xqp: float
    Td0p: float
    Tq0p: float
    Rs: float = 0.0


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
        return any({br.from_bus, br.to_bus} == {a, b} for br in self.branches)

    @property
    def load_buses(self) -> tuple[int, ...]:
        """The load-bus ids in ascending order: the order of every load vector."""
        return tuple(sorted(ld.bus for ld in self.loads))

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
    """A JSON number as a float: strings, booleans, NaN and the infinities are refused.

    JSON files may hold all four where a number belongs; ``float()`` alone
    would read "0.2" and true as numbers.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"not a finite number: {value!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {value!r}")
    return x


def read_record(cls, rec: dict, where: str, keys: dict, error):
    """``cls(**fields)``, the fields read from the JSON object ``rec`` by ``keys``.

    ``keys`` maps each JSON key to (field name, converter), or to None for a
    key that is accepted and not read.  A present key is converted; an
    absent key takes the field's default, and a field without one is
    required.  Any other key is refused.  Each fault is an ``error`` that
    names the key and ``where``.
    """
    values = {}
    for key, value in rec.items():
        try:
            spec = keys[key]
        except KeyError:
            unknown = ", ".join(f"'{k}'" for k in rec if k not in keys)
            raise error(f"{where}: unknown field(s) {unknown}") from None
        if spec is not None:
            name, convert = spec
            try:
                values[name] = convert(value)
            except (TypeError, ValueError):
                raise error(f"{where}: field '{key}' is invalid: {value!r}") from None
    try:
        return cls(**values)
    except TypeError:  # a field without a default is absent: name its key
        params = inspect.signature(cls).parameters
        for key, spec in keys.items():
            if spec and key not in rec and params[spec[0]].default is inspect.Parameter.empty:
                raise error(f"{where}: missing field '{key}'") from None
        raise


def number_keys(*names: str) -> dict:
    """Key table entries of finite numbers read into fields of the same name."""
    return {name: (name, finite_float) for name in names}


_SECTIONS = ("system", "buses", "branches", "generators", "loads")
_SYSTEM_KEYS = {"frequency_hz": ("frequency_hz", finite_float), "base_mva": None}
_BUS_KEYS = {
    "id": ("id", bus_id),
    "type": ("type", str),
    **number_keys("v_setpoint", "angle", "p_gen"),
}
_BRANCH_KEYS = {
    "from": ("from_bus", bus_id),
    "to": ("to_bus", bus_id),
    **number_keys("r", "x", "b", "tap"),
}
_GENERATOR_KEYS = {
    "bus": ("bus", bus_id),
    **number_keys("H", "D", "xd", "xdp", "xq", "xqp", "Td0p", "Tq0p", "Rs"),
}
_LOAD_KEYS = {"bus": ("bus", bus_id), "P": ("p", finite_float), "Q": ("q", finite_float)}


def _records(doc: dict, section: str, cls, keys: dict) -> tuple:
    records = doc[section]
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        raise CaseError(f"section '{section}' must be a list of JSON objects")
    # a list comprehension: a generator would add a resume per record
    return tuple([
        read_record(cls, rec, f"{section}[{i}]", keys, CaseError)
        for i, rec in enumerate(records)
    ])


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
    for section in _SECTIONS:
        if section not in doc:
            raise CaseError(f"missing section '{section}'")
    unknown = [key for key in doc if key not in _SECTIONS and key != "name"]
    if unknown:
        raise CaseError(f"unknown section(s) {', '.join(map(repr, unknown))}")
    if not isinstance(doc["system"], dict):
        raise CaseError("section 'system' must be a JSON object")
    # the system record holds one number, which the callable takes by keyword
    freq = read_record(
        lambda frequency_hz: frequency_hz, doc["system"], "system", _SYSTEM_KEYS, CaseError
    )
    if freq <= 0:
        raise CaseError("system: frequency_hz must be positive")

    case = SystemCase(
        buses=_records(doc, "buses", Bus, _BUS_KEYS),
        branches=_records(doc, "branches", Branch, _BRANCH_KEYS),
        generators=_records(doc, "generators", GeneratorParams, _GENERATOR_KEYS),
        loads=_records(doc, "loads", Load, _LOAD_KEYS),
        frequency_hz=freq,
    )
    _validate(case)
    return case


def _validate(case: SystemCase) -> None:
    for i, bus in enumerate(case.buses):
        if bus.type not in BUS_TYPES:
            raise CaseError(f"buses[{i}]: type must be one of {BUS_TYPES}, got {bus.type!r}")
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
    if len(set(case.load_buses)) != len(case.loads):
        raise CaseError("at most one load record per bus")


def load_case(path) -> SystemCase:
    """Read a case file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_case(fh.read())
