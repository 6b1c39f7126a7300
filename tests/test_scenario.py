"""Scenario schema: round trips, digests, error collection, report emission."""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from fabflow import scenario as scenario_module
from fabflow.errors import IoError, ParseError, SchemaVersionUnsupported, ValidationErrors
from fabflow.netflow import build_network, max_flow
from fabflow.scenario import (
    CsvArtifact,
    JsonArtifact,
    ReportBundle,
    canonical_json,
    emit_report,
    fixture_catalog,
    flow_csv_artifact,
    load_fixture,
    resolve_scenario_raw,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)

ALL_FIXTURES = (
    "fig10_optimized",
    "fig9_baseline",
    "planner_small",
    "queueing_adversarial",
    "queueing_reference",
    "table1_bench",
)


def minimal_doc(**extra):
    doc = {"schema_version": 1, "name": "t"}
    doc.update(extra)
    return doc


# --- catalog and round trips -------------------------------------------------

def test_fixture_catalog_is_sorted_and_complete():
    assert tuple(fixture_catalog()) == ALL_FIXTURES


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_round_trip_is_identity(name):
    sc = load_fixture(name)
    again = scenario_from_dict(scenario_to_dict(sc))
    assert again == sc
    assert scenario_digest(again) == scenario_digest(sc)


def test_product_routing_expression_survives_round_trip():
    sc = load_fixture("queueing_adversarial")
    exprs = {expr for _, _, expr in sc.routing}
    assert "p:1*1-p:2" in exprs
    again = scenario_from_dict(scenario_to_dict(sc))
    assert again.routing == sc.routing


# --- digests -----------------------------------------------------------------

def test_digest_ignores_formatting_and_key_order(tmp_path):
    raw = resolve_scenario_raw("fig9_baseline")
    reference = scenario_digest(scenario_from_dict(raw))
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(raw, indent=4), encoding="utf-8")
    spaced = scenario_from_dict(resolve_scenario_raw(str(path)))
    assert scenario_digest(spaced) == reference
    reordered = scenario_from_dict(dict(reversed(list(raw.items()))))
    assert scenario_digest(reordered) == reference


# every run id is derived from these: they must not move
FIXTURE_DIGESTS = {
    "fig10_optimized": "7b85359555bf139edbbfc0b6c4b3e911d62444a97a0e01a8d97b925e486e6d91",
    "fig9_baseline": "41729e0a325379aef7c03b38e8735a6acb24af57fba466f2afdf4769520f1711",
    "planner_small": "f3bd8b9523993e2685b9075e3c0fd9448911b22ba8249a20bc4e8692f1569f6d",
    "queueing_adversarial": "2b07b961dad2321d43dcacb97da7eb06bdb0b29c8616c64a227fa745029f8bad",
    "queueing_reference": "7347f40acbce2238cad9041ff76ced31c4dbe197b2c6562ffa79f291ca245c2b",
    "table1_bench": "68d2049138d27a95fbf3bfa86b25a894bdabf83a392bb89b29ccd4ecdaf146d0",
}


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_digest_is_pinned(name):
    assert scenario_digest(load_fixture(name)) == FIXTURE_DIGESTS[name]


def test_digest_changes_on_semantic_edit():
    raw = resolve_scenario_raw("fig9_baseline")
    reference = scenario_digest(scenario_from_dict(raw))
    raw["network"]["edges"][0]["capacity_kg"] += 1
    assert scenario_digest(scenario_from_dict(raw)) != reference


# ids the string encoder escapes: quote, backslash, controls, non-ASCII,
# a line separator and a character outside the BMP
ODD_IDS = ('"', "\\", "a\"b\\c", "\x00", "\x1f\n\t", "\x7f", "é", "ß\u2028", "\U0001f600", "plain")
EDGE_INTS = st.one_of(st.sampled_from([0, 1, 2 ** 53 - 1]), st.integers(0, 2 ** 53 - 1))
TRANSIT_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1.7976931348623157e308]),
    st.floats(0.0, allow_nan=False, allow_infinity=False),
)
# how an edge spells its optional fields: the last three are read by _req
EDGE_SHAPES = ("usual", "int transit", "no cost", "null transit", "no transit")


@st.composite
def odd_networks(draw):
    """A valid network section of odd ids, extreme edge numbers and edges
    of every spelling."""
    ids = draw(st.lists(
        st.one_of(st.sampled_from(ODD_IDS), st.text(max_size=6)), min_size=2, max_size=7, unique=True
    ))
    kinds = st.sampled_from(["production", "logistics", "destination"])
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda pair: pair[0] != pair[1]),
        max_size=10, unique=True,
    ))
    edges = []
    for frm, to in pairs:
        edge = {
            "from": frm, "to": to, "capacity_kg": draw(EDGE_INTS),
            "cost_milli_per_kg": draw(EDGE_INTS), "transit_time_h": draw(TRANSIT_TIMES),
        }
        shape = draw(st.sampled_from(EDGE_SHAPES))
        if shape == "int transit":
            edge["transit_time_h"] = draw(st.integers(0, 10 ** 6))
        elif shape == "no cost":
            del edge["cost_milli_per_kg"]
        elif shape == "null transit":
            edge["transit_time_h"] = None
        elif shape == "no transit":
            del edge["transit_time_h"]
        edges.append(edge)
    return {"nodes": [{"id": nid, "kind": draw(kinds)} for nid in ids], "edges": edges}


@settings(max_examples=200, deadline=None)
@given(odd_networks(), st.sampled_from(ODD_IDS), st.text(max_size=8))
def test_digest_matches_the_dict_oracle(network, name, text):
    sc = scenario_from_dict(minimal_doc(
        name=name, description=text, metadata={text: [text, 1e16]}, network=network
    ))
    assert scenario_digest(sc) == support.dict_digest(sc)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_digest_matches_the_dict_oracle(name):
    sc = load_fixture(name)
    assert scenario_digest(sc) == support.dict_digest(sc)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_freight_network_digest_matches_the_dict_oracle(seed):
    sc = scenario_from_dict(support.freight_network(seed, n_nodes=120))
    assert scenario_digest(sc) == support.dict_digest(sc)


def test_canonical_json_is_compact_and_sorted():
    text = canonical_json({"b": 1, "a": [1.5, "x"]})
    assert text == '{"a":[1.5,"x"],"b":1}'


# --- schema version gate -----------------------------------------------------

def test_schema_version_rejections():
    with pytest.raises(SchemaVersionUnsupported):
        scenario_from_dict({"name": "t"})
    with pytest.raises(SchemaVersionUnsupported, match="99"):
        scenario_from_dict({"schema_version": 99, "name": "t"})
    with pytest.raises(SchemaVersionUnsupported):
        scenario_from_dict({"schema_version": True, "name": "t"})
    # the version gate fires before any other validation
    with pytest.raises(SchemaVersionUnsupported):
        scenario_from_dict({"schema_version": 99, "bogus_section": 1})


def test_parse_errors(tmp_path):
    # not JSON, not UTF-8, nested too deep, an int too long for the JSON reader
    for content in (b"{not json", b"\xff\xfe x", b"[" * 100_000 + b"]" * 100_000, b"1" * 5000):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            resolve_scenario_raw(str(path))
    with pytest.raises(ParseError):
        scenario_from_dict([1, 2, 3])


# --- error collection --------------------------------------------------------

def test_every_problem_is_collected_in_one_pass():
    doc = {
        "schema_version": 1,
        "name": "",
        "surprise": {},
        "stations": [
            {"id": "A", "kind": "process", "mu_base": 1.0},
            {"id": "A", "kind": "process", "mu_base": 1.0},
            {"id": "B", "kind": "teleport", "mu_base": 1.0},
            {"id": "C", "kind": "process", "mu_base": 1.0},
        ],
        "nominal_p": [0.5, 0.6],
        "routing": [
            {"from": "A", "to": "A", "value": "const:0.1"},
            {"from": "A", "to": "A", "value": "const:0.1"},
            {"from": "Z", "to": "A", "value": "const:0.1"},
            {"from": "A", "to": "C", "value": "p:7"},
        ],
        "limits": {"c_max": 5, "w_star": 1.0, "u": 2.0, "delta_wip_max": 1.0, "bogus": 3},
        "distances": [
            {"from": "X", "to": "X", "distance": 1.0},
            {"from": "X", "to": "Y", "distance": -2.0},
        ],
        "tasks": [
            {
                "task_id": "t1",
                "task_type": "Q",
                "origin": "X",
                "destination": "Y",
                "lot_mass_kg": 1.0,
            }
        ],
    }
    with pytest.raises(ValidationErrors) as exc:
        scenario_from_dict(doc)
    messages = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 9
    for fragment in (
        "unknown top-level sections",
        "non-empty string 'name'",
        "declared twice: A",
        "unknown station kind 'teleport'",
        "sum to 1",
        "declared twice",
        "unknown station 'Z'",
        "p index 7",
        "unknown fields ['bogus']",
        "distance from a node to itself",
        "must be non-negative",
        "unknown task type 'Q'",
    ):
        assert fragment in messages, fragment


# --- hostile edge fields -----------------------------------------------------

class Name(str):
    pass


class Count(int):
    pass


EDGE = {"from": "a", "to": "b", "capacity_kg": 5, "cost_milli_per_kg": 7, "transit_time_h": 1.5}
ABSENT = object()
HOSTILE_EDGE_VALUES = {
    "absent": lambda field: ABSENT,
    "null": lambda field: None,
    "true": lambda field: True,
    "string": lambda field: "5",
    "7.5": lambda field: 7.5,
    "int": lambda field: 5,
    "10**400": lambda field: 10 ** 400,
    "nan": lambda field: math.nan,
    "inf": lambda field: math.inf,
    "-inf": lambda field: -math.inf,
    "str subclass": lambda field: Name(EDGE[field] if field in ("from", "to") else "5"),
    "int subclass": lambda field: Count(5),
}
# for each field and value: the exact problems under network.edges[0], or
# the edge's fields (types included) and the scenario digest; taken from the
# parser before its exact-type fast path was added
HOSTILE_EDGE_ANSWERS = {
    ("from", "absent"): ["missing required field 'from'"],
    ("from", "null"): ["missing required field 'from'"],
    ("from", "true"): ["field 'from' has wrong type"],
    ("from", "string"): ["unknown node '5'"],
    ("from", "7.5"): ["field 'from' has wrong type"],
    ("from", "int"): ["field 'from' has wrong type"],
    ("from", "10**400"): ["field 'from' has wrong type"],
    ("from", "nan"): ["field 'from' has wrong type"],
    ("from", "inf"): ["field 'from' has wrong type"],
    ("from", "-inf"): ["field 'from' has wrong type"],
    ("from", "str subclass"): (
        (Name("a"), "b", 5, Fraction(7, 1000), 1.5),
        "8361bd2b82a3df7e816e83d0f68df8f7cc5011173fc88812fd886adb2613dad8",
    ),
    ("from", "int subclass"): ["field 'from' has wrong type"],
    ("to", "absent"): ["missing required field 'to'"],
    ("to", "null"): ["missing required field 'to'"],
    ("to", "true"): ["field 'to' has wrong type"],
    ("to", "string"): ["unknown node '5'"],
    ("to", "7.5"): ["field 'to' has wrong type"],
    ("to", "int"): ["field 'to' has wrong type"],
    ("to", "10**400"): ["field 'to' has wrong type"],
    ("to", "nan"): ["field 'to' has wrong type"],
    ("to", "inf"): ["field 'to' has wrong type"],
    ("to", "-inf"): ["field 'to' has wrong type"],
    ("to", "str subclass"): (
        ("a", Name("b"), 5, Fraction(7, 1000), 1.5),
        "8361bd2b82a3df7e816e83d0f68df8f7cc5011173fc88812fd886adb2613dad8",
    ),
    ("to", "int subclass"): ["field 'to' has wrong type"],
    ("capacity_kg", "absent"): ["missing required field 'capacity_kg'"],
    ("capacity_kg", "null"): ["missing required field 'capacity_kg'"],
    ("capacity_kg", "true"): ["field 'capacity_kg' has wrong type"],
    ("capacity_kg", "string"): ["field 'capacity_kg' has wrong type"],
    ("capacity_kg", "7.5"): ["field 'capacity_kg' has wrong type"],
    ("capacity_kg", "int"): (
        ("a", "b", 5, Fraction(7, 1000), 1.5),
        "8361bd2b82a3df7e816e83d0f68df8f7cc5011173fc88812fd886adb2613dad8",
    ),
    ("capacity_kg", "10**400"): ["capacity_kg must be at most 2**53 - 1"],
    ("capacity_kg", "nan"): ["field 'capacity_kg' has wrong type"],
    ("capacity_kg", "inf"): ["field 'capacity_kg' has wrong type"],
    ("capacity_kg", "-inf"): ["field 'capacity_kg' has wrong type"],
    ("capacity_kg", "str subclass"): ["field 'capacity_kg' has wrong type"],
    ("capacity_kg", "int subclass"): (
        ("a", "b", Count(5), Fraction(7, 1000), 1.5),
        "8361bd2b82a3df7e816e83d0f68df8f7cc5011173fc88812fd886adb2613dad8",
    ),
    ("cost_milli_per_kg", "absent"): (
        ("a", "b", 5, Fraction(0, 1), 1.5),
        "ab1492b8e4e717e163ef6a89902f4e1f77fd7e4f4221b036493712c8a7cf8aff",
    ),
    ("cost_milli_per_kg", "null"): ["missing required field 'cost_milli_per_kg'"],
    ("cost_milli_per_kg", "true"): ["field 'cost_milli_per_kg' has wrong type"],
    ("cost_milli_per_kg", "string"): ["field 'cost_milli_per_kg' has wrong type"],
    ("cost_milli_per_kg", "7.5"): ["field 'cost_milli_per_kg' has wrong type"],
    ("cost_milli_per_kg", "int"): (
        ("a", "b", 5, Fraction(1, 200), 1.5),
        "68f134d78625d8a455e7ec32caf884fee590a4fdee8b69b972d56955d352923f",
    ),
    ("cost_milli_per_kg", "10**400"): ["cost_milli_per_kg must be at most 2**53 - 1"],
    ("cost_milli_per_kg", "nan"): ["field 'cost_milli_per_kg' has wrong type"],
    ("cost_milli_per_kg", "inf"): ["field 'cost_milli_per_kg' has wrong type"],
    ("cost_milli_per_kg", "-inf"): ["field 'cost_milli_per_kg' has wrong type"],
    ("cost_milli_per_kg", "str subclass"): ["field 'cost_milli_per_kg' has wrong type"],
    ("cost_milli_per_kg", "int subclass"): (
        ("a", "b", 5, Fraction(1, 200), 1.5),
        "68f134d78625d8a455e7ec32caf884fee590a4fdee8b69b972d56955d352923f",
    ),
    ("transit_time_h", "absent"): (
        ("a", "b", 5, Fraction(7, 1000), 0.0),
        "bc28716576a6737431bce181f83a9caee9ad014eafdc7547624ce52fd4ea328d",
    ),
    ("transit_time_h", "null"): (
        ("a", "b", 5, Fraction(7, 1000), 0.0),
        "bc28716576a6737431bce181f83a9caee9ad014eafdc7547624ce52fd4ea328d",
    ),
    ("transit_time_h", "true"): ["field 'transit_time_h' must be a finite number"],
    ("transit_time_h", "string"): ["field 'transit_time_h' must be a finite number"],
    ("transit_time_h", "7.5"): (
        ("a", "b", 5, Fraction(7, 1000), 7.5),
        "629af87787fef57528d4d70c552a94e1177c1c3c8cbc950e641caaee985fd862",
    ),
    ("transit_time_h", "int"): (
        ("a", "b", 5, Fraction(7, 1000), 5.0),
        "85fa210fc62f011fe201943a3ace43d2d49ebd5647fe1388df335eba6be49e64",
    ),
    ("transit_time_h", "10**400"): ["field 'transit_time_h' must be a finite number"],
    ("transit_time_h", "nan"): ["field 'transit_time_h' must be a finite number"],
    ("transit_time_h", "inf"): ["field 'transit_time_h' must be a finite number"],
    ("transit_time_h", "-inf"): ["field 'transit_time_h' must be a finite number"],
    ("transit_time_h", "str subclass"): ["field 'transit_time_h' must be a finite number"],
    ("transit_time_h", "int subclass"): (
        ("a", "b", 5, Fraction(7, 1000), 5.0),
        "85fa210fc62f011fe201943a3ace43d2d49ebd5647fe1388df335eba6be49e64",
    ),
}


@pytest.mark.parametrize("field, label", list(HOSTILE_EDGE_ANSWERS), ids="{0[0]}={0[1]}".format)
def test_hostile_edge_field_gets_the_pinned_answer(field, label):
    edge = dict(EDGE)
    value = HOSTILE_EDGE_VALUES[label](field)
    if value is ABSENT:
        del edge[field]
    else:
        edge[field] = value
    nodes = [{"id": "a", "kind": "production"}, {"id": "b", "kind": "destination"}]
    doc = minimal_doc(network={"nodes": nodes, "edges": [edge]})
    expected = HOSTILE_EDGE_ANSWERS[field, label]
    if isinstance(expected, list):
        with pytest.raises(ValidationErrors) as exc:
            scenario_from_dict(doc)
        assert exc.value.errors == [f"network.edges[0]: {p}" for p in expected]
        return
    sc = scenario_from_dict(doc)
    (got,) = sc.network.edges
    values, digest = expected
    assert tuple(got) == values
    assert [type(v) for v in got] == [type(v) for v in values]
    assert scenario_digest(sc) == digest


class HiddenLength(dict):
    """An edge object whose len() is 0: it fails only the shape check of the
    reader's one-test edge path, so the reader takes it through _req, the
    key check and edge_errors, with the same fields."""

    def __len__(self):
        return 0


# every rule of an edge, and each side of its bounds
EDGE_RULE_INTS = st.one_of(st.sampled_from([-1, 0, 2 ** 53 - 1, 2 ** 53]), st.integers(-5, 10 ** 4))
EDGE_RULE_TRANSITS = st.one_of(
    st.sampled_from([-0.0, 0.0, -5e-324, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.floats(-1.0, 1e6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.fixed_dictionaries({
        "from": st.sampled_from(["a", "b", "c", "zz"]),
        "to": st.sampled_from(["a", "b", "c", "zz"]),
        "capacity_kg": EDGE_RULE_INTS,
        "cost_milli_per_kg": EDGE_RULE_INTS,
        "transit_time_h": EDGE_RULE_TRANSITS,
    }),
    max_size=12,
))
def test_one_test_edges_match_the_req_path(edges):
    # "zz" is undeclared; repeats give parallel edges, "from" == "to" self loops
    nodes = [{"id": nid, "kind": "logistics"} for nid in "abc"]

    def parsed(edge_type):
        errs = []
        section = scenario_module._parse_network(
            {"nodes": nodes, "edges": [edge_type(ed) for ed in edges]}, errs
        )
        return [(tuple(e), [type(v) for v in e]) for e in section.edges], errs

    assert parsed(dict) == parsed(HiddenLength)


def test_unparseable_routing_value_still_has_its_cell_checked():
    raw = resolve_scenario_raw("queueing_reference")
    raw["routing"] += [
        {"from": "IN", "to": "ZZ", "value": "bogus"},
        {"from": "IN", "to": "T", "value": "bogus"},
    ]
    with pytest.raises(ValidationErrors) as exc:
        scenario_from_dict(raw)
    assert exc.value.errors == [
        "routing[8]: unparseable routing factor: 'bogus'",
        "routing[8]: unknown station 'ZZ'",
        "routing[9]: unparseable routing factor: 'bogus'",
        "routing[9]: routing cell declared twice: IN->T",
    ]


def test_transport_station_needs_fleet_context():
    doc = minimal_doc(
        stations=[{"id": "T", "kind": "transport", "mu_base": 1.0, "vehicle_type": 0}],
        nominal_p=[0.5, 0.5],
    )
    with pytest.raises(ValidationErrors, match="no nominal_fleet or fleet_candidates"):
        scenario_from_dict(doc)
    doc_bad_index = minimal_doc(
        stations=[{"id": "T", "kind": "transport", "mu_base": 1.0, "vehicle_type": 3}],
        nominal_p=[0.5, 0.5],
        nominal_fleet=[2],
    )
    with pytest.raises(ValidationErrors, match="outside the 1 declared fleet types"):
        scenario_from_dict(doc_bad_index)


def test_stations_require_nominal_p():
    doc = minimal_doc(stations=[{"id": "A", "kind": "process", "mu_base": 1.0}])
    with pytest.raises(ValidationErrors, match="nominal_p missing"):
        scenario_from_dict(doc)


def test_metaheuristic_params_validation():
    ok = scenario_from_dict(minimal_doc(metaheuristic_params={"ga": {"population": 40}}))
    assert ok.metaheuristic.ga.population == 40
    assert ok.metaheuristic.sa.t_initial == 10.0
    with pytest.raises(ValidationErrors, match="unknown fields"):
        scenario_from_dict(minimal_doc(metaheuristic_params={"ga": {"popsize": 40}}))
    with pytest.raises(ValidationErrors, match="unknown groups"):
        scenario_from_dict(minimal_doc(metaheuristic_params={"pso": {}}))


def test_minimal_document_omits_empty_sections():
    sc = scenario_from_dict(minimal_doc())
    out = scenario_to_dict(sc)
    assert "description" not in out and "metadata" not in out
    assert "network" not in out and "stations" not in out
    assert set(out["metaheuristic_params"]) == {"ga", "sa", "aco"}
    assert "mutation_rate" not in out["metaheuristic_params"]["ga"]


# --- loading and resolving ---------------------------------------------------

def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(IoError):
        resolve_scenario_raw(str(tmp_path / "missing.json"))
    with pytest.raises(IoError):
        resolve_scenario_raw(str(tmp_path))  # a directory
    with pytest.raises(IoError):
        resolve_scenario_raw("a" * 5000)  # a name too long for the file system


def test_load_fixture_unknown_name():
    with pytest.raises(IoError):
        load_fixture("no_such_fixture")


def test_resolve_prefers_path_then_fixture(tmp_path, monkeypatch):
    raw = resolve_scenario_raw("fig9_baseline")
    raw["name"] = "custom_copy"
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert load_fixture(str(path)).name == "custom_copy"
    assert load_fixture("fig9_baseline").name == "fig9_baseline"
    with pytest.raises(IoError, match="neither a readable file nor a bundled fixture"):
        resolve_scenario_raw("definitely_not_here")
    # a file named like a fixture wins over the fixture
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig9_baseline").write_text(json.dumps(raw), encoding="utf-8")
    assert load_fixture("fig9_baseline").name == "custom_copy"


# --- report emission ---------------------------------------------------------

def sample_bundle():
    return ReportBundle(
        run_id="cafe012345678901",
        inputs_digest="d" * 64,
        artifacts=(
            CsvArtifact(name="table.csv", header=("a", "b"), rows=(("1", "2"), ("3", "4"))),
            JsonArtifact(name="summary.json", payload={"z": 1, "a": [1, 2]}),
        ),
    )


def test_emit_report_writes_documented_format(tmp_path):
    written = emit_report(sample_bundle(), tmp_path / "out")
    assert [p.name for p in written] == ["table.csv", "summary.json"]
    csv_bytes = (tmp_path / "out" / "table.csv").read_bytes()
    assert csv_bytes == b"# inputs_digest=" + b"d" * 64 + b"\na,b\n1,2\n3,4\n"
    doc = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert doc == {
        "run_id": "cafe012345678901",
        "inputs_digest": "d" * 64,
        "data": {"z": 1, "a": [1, 2]},
    }
    raw = (tmp_path / "out" / "summary.json").read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


def test_emit_report_is_byte_deterministic(tmp_path):
    first = emit_report(sample_bundle(), tmp_path / "one")
    second = emit_report(sample_bundle(), tmp_path / "two")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_emit_report_rejects_unknown_artifact(tmp_path):
    bundle = ReportBundle(run_id="r", inputs_digest="d", artifacts=("not an artifact",))
    with pytest.raises(IoError):
        emit_report(bundle, tmp_path)


def test_flow_csv_artifact_covers_every_edge():
    sc = load_fixture("fig9_baseline")
    net = build_network(sc)
    flow = max_flow(net)
    art = flow_csv_artifact("flow.csv", net, flow)
    assert art.header == ("from", "to", "capacity_kg", "flow_kg", "cost")
    assert len(art.rows) == len(net.edges)
    total_out = sum(int(r[3]) for r in art.rows if r[0] == net.source)
    assert total_out == flow.value
    costs = {(e.tail, e.head): e.cost_per_kg for e in net.edges}
    assert [r[4] for r in art.rows] == [str(float(costs[r[0], r[1]] * int(r[3]))) for r in art.rows]
