import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest

from stochsim.case import CaseError, load_case, parse_case
from stochsim.dynamics import WindowWork, rhs, split_state
from stochsim.scenario import Scenario, SimulationSetup, load_scenario

NAN, INF = float("nan"), float("inf")
REPO = pathlib.Path(__file__).resolve().parent.parent


def minimal_doc():
    return {
        "system": {"frequency_hz": 60.0, "base_mva": 100.0},
        "buses": [
            {"id": 1, "type": "PV", "v_setpoint": 1.02, "p_gen": 0.5},
            {"id": 2, "type": "slack", "v_setpoint": 1.0},
        ],
        "branches": [{"from": 1, "to": 2, "r": 0.01, "x": 0.1}],
        "generators": [
            {"bus": 1, "H": 4.0, "D": 1.0, "xd": 1.0, "xdp": 0.3,
             "xq": 0.8, "xqp": 0.3, "Td0p": 6.0, "Tq0p": 1.0}
        ],
        "loads": [{"bus": 2, "P": 0.4, "Q": 0.1}],
    }


def test_parse_minimal_case():
    case = parse_case(json.dumps(minimal_doc()))
    assert case.n_bus == 2
    assert case.n_gen == 1
    assert case.bus_index(2) == 1
    doc = minimal_doc()
    del doc["system"]["base_mva"]  # read by nothing, so not required
    assert parse_case(json.dumps(doc)) == case


def test_smib_case_shape(smib_case):
    assert smib_case.n_bus == 2
    # the infinite bus ships as a very large machine, so K = 2
    assert smib_case.n_gen == 2
    assert smib_case.load_at(1).p == pytest.approx(0.6)


def test_50_hz_case_runs_at_its_rated_speed():
    # the rated speed follows frequency_hz: the start state is an equilibrium
    # at 100 pi rad/s, and a 10-cycle fault lasts 0.2 s
    doc = json.loads((REPO / "cases" / "smib.json").read_text())
    doc["system"]["frequency_hz"] = 50.0
    case = parse_case(json.dumps(doc))
    scenario = Scenario(
        horizon_s=1.0, fault_bus=1, fault_start_s=0.2, fault_duration_cycles=10.0
    )
    setup = SimulationSetup.build(case, scenario)
    assert setup.machines.omega_r == 2 * math.pi * 50
    assert np.all(split_state(setup.x0)[1] == 100 * math.pi)
    net = setup.build_net("pre-fault", setup.mean_shunts)
    work = WindowWork(setup.machines, 1, 1)
    work.set_state(setup.x0)
    assert np.max(np.abs(rhs(net, work))) < 1e-9
    assert scenario.fault_times(case) == pytest.approx((0.2, 0.4))


def test_ieee39_case_shape(ieee39_case):
    assert ieee39_case.n_bus == 39
    assert ieee39_case.n_gen == 10
    assert len(ieee39_case.branches) == 46
    assert len(ieee39_case.loads) == 21
    assert [b.type for b in ieee39_case.buses].count("slack") == 1
    assert ieee39_case.has_branch(3, 4)


def test_duplicate_bus_id_rejected():
    doc = minimal_doc()
    doc["buses"].append({"id": 1, "type": "PQ"})
    with pytest.raises(CaseError, match="duplicate bus id"):
        parse_case(json.dumps(doc))


def test_dangling_branch_endpoint_rejected():
    doc = minimal_doc()
    doc["branches"][0]["to"] = 99
    with pytest.raises(CaseError, match="endpoint 99"):
        parse_case(json.dumps(doc))


def test_exactly_one_slack_required():
    doc = minimal_doc()
    doc["buses"][1]["type"] = "PQ"
    with pytest.raises(CaseError, match="slack"):
        parse_case(json.dumps(doc))


def test_zero_impedance_rejected():
    doc = minimal_doc()
    doc["branches"][0]["r"] = 0.0
    doc["branches"][0]["x"] = 0.0
    with pytest.raises(CaseError, match="impedance"):
        parse_case(json.dumps(doc))


def test_generator_required():
    doc = minimal_doc()
    doc["generators"] = []
    with pytest.raises(CaseError, match="generator"):
        parse_case(json.dumps(doc))


def test_reactance_ordering_enforced():
    doc = minimal_doc()
    doc["generators"][0]["xdp"] = 2.0  # xdp > xd
    with pytest.raises(CaseError, match="xd >= xdp"):
        parse_case(json.dumps(doc))


def test_missing_field_names_the_field():
    doc = minimal_doc()
    del doc["generators"][0]["H"]
    with pytest.raises(CaseError, match="generators\\[0\\].*'H'"):
        parse_case(json.dumps(doc))


def test_invalid_json_reports_line():
    with pytest.raises(CaseError, match="line"):
        parse_case("{\n  broken\n}")


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["branches"][0].update(r=None), "branches[0]: field 'r'"),
        (lambda d: d["buses"][0].update(p_gen="high"), "buses[0]: field 'p_gen'"),
        (lambda d: d["generators"][0].update(H=[4.0]), "generators[0]: field 'H'"),
        (lambda d: d["loads"][0].update(bus=None), "loads[0]: field 'bus'"),
        (lambda d: d["system"].update(frequency_hz=None), "system: field 'frequency_hz'"),
        (lambda d: d.update(loads={}), "section 'loads'"),
        (lambda d: d.update(system=[]), "section 'system'"),
        (lambda d: d.update(buses=[1, 2]), "section 'buses'"),
        (lambda d: d["loads"][0].update(bus=1.7), "loads[0]: field 'bus'"),
        (lambda d: d["loads"][0].update(bus="1"), "loads[0]: field 'bus'"),
        (lambda d: d["loads"][0].update(bus=True), "loads[0]: field 'bus'"),
        (lambda d: d["buses"][1].update(id=2.0), "buses[1]: field 'id'"),
        (lambda d: d["branches"][0].update({"to": 2.5}), "branches[0]: field 'to'"),
        (lambda d: d["generators"][0].update(bus=True), "generators[0]: field 'bus'"),
        # json reads NaN and Infinity as floats
        (lambda d: d["generators"][0].update(H=NAN), "generators[0]: field 'H'"),
        (lambda d: d["generators"][0].update(Td0p=INF), "generators[0]: field 'Td0p'"),
        (lambda d: d["loads"][0].update(P=-INF), "loads[0]: field 'P'"),
        (lambda d: d["branches"][0].update(x=NAN), "branches[0]: field 'x'"),
        (lambda d: d["buses"][0].update(v_setpoint=INF), "buses[0]: field 'v_setpoint'"),
        (lambda d: d["system"].update(frequency_hz=NAN), "system: field 'frequency_hz'"),
        (lambda d: d["generators"][0].update(H="4.0"), "generators[0]: field 'H'"),
        (lambda d: d["branches"][0].update(b=True), "branches[0]: field 'b'"),
        (lambda d: d["loads"][0].update(P=10**400), "loads[0]: field 'P'"),
        # a misspelled key is refused, not dropped for the default
        (lambda d: d["generators"][0].update(d=d["generators"][0].pop("D")),
         "generators[0]: unknown field(s) 'd'"),
        (lambda d: d["branches"][0].update(R=d["branches"][0].pop("r")),
         "branches[0]: unknown field(s) 'R'"),
        (lambda d: d["loads"][0].update(p=d["loads"][0].pop("P")),
         "loads[0]: unknown field(s) 'p'"),
        (lambda d: d["system"].update(frequency=50.0), "system: unknown field(s) 'frequency'"),
        (lambda d: d.update(bus=[]), "unknown section(s) 'bus'"),
    ],
    ids=["null-r", "string-p_gen", "list-H", "null-load-bus", "null-frequency",
         "object-loads", "list-system", "int-bus-records", "fractional-load-bus",
         "string-load-bus", "bool-load-bus", "float-bus-id", "fractional-branch-end",
         "bool-generator-bus", "nan-H", "infinite-Td0p", "minus-infinite-P", "nan-x",
         "infinite-v_setpoint", "nan-frequency", "numeric-string-H", "bool-b",
         "huge-integer-P", "misspelled-D", "misspelled-r", "misspelled-P",
         "unknown-system-key", "unknown-section"],
)
def test_malformed_value_names_the_field(edit, field):
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(CaseError, match=re.escape(field)):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize(
    "name", sorted(p.name for p in (REPO / "cases").glob("*.json"))
)
def test_shipped_case_loads(name):
    load_case(REPO / "cases" / name)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in (REPO / "scenarios").glob("*.json"))
)
def test_shipped_scenario_builds_on_ieee39(ieee39_case, name):
    SimulationSetup.build(ieee39_case, load_scenario(REPO / "scenarios" / name))


def test_simulation_setup_is_frozen(smib_case):
    # workers share one setup, so none of its fields can be rebound
    setup = SimulationSetup.build(smib_case, Scenario(horizon_s=1.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setup.x0 = setup.x0.copy()
