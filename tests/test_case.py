import json
import re

import pytest

from stochsim.case import CaseError, parse_case

NAN, INF = float("nan"), float("inf")


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
    assert case.generators[0].omega_r == pytest.approx(2 * 3.141592653589793 * 60)
    assert case.bus_index(2) == 1
    doc = minimal_doc()
    del doc["system"]["base_mva"]  # read by nothing, so not required
    assert parse_case(json.dumps(doc)) == case


def test_smib_case_shape(smib_case):
    assert smib_case.n_bus == 2
    # the infinite bus ships as a very large machine, so K = 2
    assert smib_case.n_gen == 2
    assert smib_case.load_at(1).p == pytest.approx(0.6)


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
    ],
    ids=["null-r", "string-p_gen", "list-H", "null-load-bus", "null-frequency",
         "object-loads", "list-system", "int-bus-records", "fractional-load-bus",
         "string-load-bus", "bool-load-bus", "float-bus-id", "fractional-branch-end",
         "bool-generator-bus", "nan-H", "infinite-Td0p", "minus-infinite-P", "nan-x",
         "infinite-v_setpoint", "nan-frequency", "numeric-string-H", "bool-b",
         "huge-integer-P"],
)
def test_malformed_value_names_the_field(edit, field):
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(CaseError, match=re.escape(field)):
        parse_case(json.dumps(doc))
