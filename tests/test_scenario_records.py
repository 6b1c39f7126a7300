"""The scenario reader's answers on hostile fields of list records, pinned.

Each case puts one hostile value (or none at all) into one field of a
well-formed record and asserts either the exact ValidationErrors list, or
the parsed record's values with their types and the scenario digest.  The
answers were taken from the reader that spelled each section's fields out
by hand, before one record walk served them all; since then the two
messages that print a 10**400 vehicle_type or range bound cut it with
errors.shown.  Edge fields have their own table in test_scenario.py.
"""
import dataclasses
import math

import pytest

from fabflow.errors import ValidationErrors, shown
from fabflow.netflow import NodeKind
from fabflow.queueing import StationKind
from fabflow.scenario import scenario_digest, scenario_from_dict
from fabflow.scheduler import TaskType


class Name(str):
    pass


class Count(int):
    pass


ABSENT = object()
HOSTILE_VALUES = {
    "absent": lambda good: ABSENT,
    "null": lambda good: None,
    "true": lambda good: True,
    "string": lambda good: "5",
    "7.5": lambda good: 7.5,
    "int": lambda good: 5,
    "10**400": lambda good: 10 ** 400,
    "nan": lambda good: math.nan,
    "inf": lambda good: math.inf,
    "-inf": lambda good: -math.inf,
    "str subclass": lambda good: Name(good if isinstance(good, str) else "5"),
    "int subclass": lambda good: Count(5),
}

S = {"id": "S", "kind": "process", "mu_base": 3.0, "gamma": 1.0}
U = {"id": "U", "kind": "process", "mu_base": 2.0}
T = {"id": "T", "kind": "transport", "mu_base": 0.7, "gamma": 0.5, "vehicle_type": 0}
NODE = {"id": "a", "kind": "production"}
# section -> (the scenario's sections, the record's path in them, the parsed record)
RECORDS = {
    "network.nodes": (
        {"network": {"nodes": [NODE, {"id": "b", "kind": "destination"}]}},
        ("network", "nodes", 0),
        lambda sc: sc.network.nodes[0],
    ),
    "stations": (
        {"stations": [S, T], "nominal_p": [0.5, 0.5], "nominal_fleet": [1] * 6},
        ("stations", 0),
        lambda sc: sc.stations[0],
    ),
    "stations.transport": (
        {"stations": [S, T], "nominal_p": [0.5, 0.5], "nominal_fleet": [1] * 6},
        ("stations", 1),
        lambda sc: sc.stations[1],
    ),
    "fleet_candidates": (
        {"fleet_candidates": [{"min": 1, "max": 3}]},
        ("fleet_candidates", 0),
        lambda sc: sc.fleet_candidates.bounds[0],
    ),
    "routing": (
        {"stations": [S, U], "nominal_p": [0.5, 0.5], "routing": [{"from": "S", "to": "U", "value": "p:0"}]},
        ("routing", 0),
        lambda sc: sc.routing[0],
    ),
    "vehicles": (
        {"vehicles": [{"vehicle_id": "V", "speed": 2.0, "load_time_h": 0.5, "unload_time_h": 0.25, "cost_rate": 1.5}]},
        ("vehicles", 0),
        lambda sc: sc.vehicles[0],
    ),
    "distances": (
        {"distances": [{"from": "a", "to": "b", "distance": 3.0}]},
        ("distances", 0),
        lambda sc: (*next(iter(sc.distances)), *sc.distances.values()),
    ),
    "tasks": (
        {"tasks": [{
            "task_id": "t", "task_type": "A", "origin": "a", "destination": "b",
            "lot_mass_kg": 10.0, "baseline_duration_h": 2.0,
        }]},
        ("tasks", 0),
        lambda sc: sc.tasks[0],
    ),
}
# the fields of each record that take a hostile value: every field, except
# that of the stations only the transport station's vehicle_type does
FIELDS = {
    "network.nodes": ("id", "kind"),
    "stations": ("id", "kind", "mu_base", "gamma"),
    "stations.transport": ("vehicle_type",),
    "fleet_candidates": ("min", "max"),
    "routing": ("from", "to", "value"),
    "vehicles": ("vehicle_id", "speed", "load_time_h", "unload_time_h", "cost_rate"),
    "distances": ("from", "to", "distance"),
    "tasks": ("task_id", "task_type", "origin", "destination", "lot_mass_kg", "baseline_duration_h"),
}
CASES = [
    (section, field, label)
    for section, names in FIELDS.items()
    for field in names
    for label in HOSTILE_VALUES
]


def record_doc(sections, path):
    """The scenario of `sections` and the object at `path` in it; the
    containers down the path are copied, so that no case changes another's."""
    doc = {"schema_version": 1, "name": "t", **sections}
    obj = doc
    for key in path:
        child = obj[key]
        obj[key] = child = dict(child) if isinstance(child, dict) else list(child)
        obj = child
    return doc, obj


def hostile_doc(section, field, label):
    """The section's scenario with `field` of its record set to the hostile value."""
    sections, path, _ = RECORDS[section]
    doc, record = record_doc(sections, path)
    value = HOSTILE_VALUES[label](record[field])
    if value is ABSENT:
        del record[field]
    else:
        record[field] = value
    return doc


def parsed_values(record) -> tuple:
    if dataclasses.is_dataclass(record):
        return tuple(getattr(record, f.name) for f in dataclasses.fields(record))
    return tuple(record)


def hostile_answer(section, field, label):
    """The exact problems of the scenario, or the parsed record and the digest."""
    doc = hostile_doc(section, field, label)
    try:
        sc = scenario_from_dict(doc)
    except ValidationErrors as exc:
        return exc.errors
    return parsed_values(RECORDS[section][2](sc)), scenario_digest(sc)


BIG = 10 ** 400
# for each case: the exact problems, or the parsed record (types included)
# and the scenario digest
HOSTILE_RECORD_ANSWERS = {
    ("network.nodes", "id", "absent"): ["network.nodes[0]: missing required field 'id'"],
    ("network.nodes", "id", "null"): ["network.nodes[0]: missing required field 'id'"],
    ("network.nodes", "id", "true"): ["network.nodes[0]: field 'id' has wrong type"],
    ("network.nodes", "id", "string"): (
        ("5", NodeKind.PRODUCTION),
        "3d20aaa28503e901c5de6dd80e3414f3fe6466169f7f68d5d4e3606c97608641",
    ),
    ("network.nodes", "id", "7.5"): ["network.nodes[0]: field 'id' has wrong type"],
    ("network.nodes", "id", "int"): ["network.nodes[0]: field 'id' has wrong type"],
    ("network.nodes", "id", "10**400"): ["network.nodes[0]: field 'id' has wrong type"],
    ("network.nodes", "id", "nan"): ["network.nodes[0]: field 'id' has wrong type"],
    ("network.nodes", "id", "inf"): ["network.nodes[0]: field 'id' has wrong type"],
    ("network.nodes", "id", "-inf"): ["network.nodes[0]: field 'id' has wrong type"],
    ("network.nodes", "id", "str subclass"): (
        (Name("a"), NodeKind.PRODUCTION),
        "92bfed508b66d50f17c2ebeafeffee2e401c88381369302ad84778cefc15c10e",
    ),
    ("network.nodes", "id", "int subclass"): ["network.nodes[0]: field 'id' has wrong type"],
    ("network.nodes", "kind", "absent"): ["network.nodes[0]: missing required field 'kind'"],
    ("network.nodes", "kind", "null"): ["network.nodes[0]: missing required field 'kind'"],
    ("network.nodes", "kind", "true"): ["network.nodes[0]: field 'kind' has wrong type"],
    ("network.nodes", "kind", "string"): ["network.nodes[0]: unknown node kind '5'"],
    ("network.nodes", "kind", "7.5"): ["network.nodes[0]: field 'kind' has wrong type"],
    ("network.nodes", "kind", "int"): ["network.nodes[0]: field 'kind' has wrong type"],
    ("network.nodes", "kind", "10**400"): ["network.nodes[0]: field 'kind' has wrong type"],
    ("network.nodes", "kind", "nan"): ["network.nodes[0]: field 'kind' has wrong type"],
    ("network.nodes", "kind", "inf"): ["network.nodes[0]: field 'kind' has wrong type"],
    ("network.nodes", "kind", "-inf"): ["network.nodes[0]: field 'kind' has wrong type"],
    ("network.nodes", "kind", "str subclass"): (
        ("a", NodeKind.PRODUCTION),
        "92bfed508b66d50f17c2ebeafeffee2e401c88381369302ad84778cefc15c10e",
    ),
    ("network.nodes", "kind", "int subclass"): ["network.nodes[0]: field 'kind' has wrong type"],
    ("stations", "id", "absent"): ["stations[0]: missing required field 'id'"],
    ("stations", "id", "null"): ["stations[0]: missing required field 'id'"],
    ("stations", "id", "true"): ["stations[0]: field 'id' has wrong type"],
    ("stations", "id", "string"): (
        ("5", StationKind.PROCESS, 3.0, 1.0, None),
        "2b089383646533aecda38873af9fea1bcf66ec2a60b4d66fa9952322af55abfb",
    ),
    ("stations", "id", "7.5"): ["stations[0]: field 'id' has wrong type"],
    ("stations", "id", "int"): ["stations[0]: field 'id' has wrong type"],
    ("stations", "id", "10**400"): ["stations[0]: field 'id' has wrong type"],
    ("stations", "id", "nan"): ["stations[0]: field 'id' has wrong type"],
    ("stations", "id", "inf"): ["stations[0]: field 'id' has wrong type"],
    ("stations", "id", "-inf"): ["stations[0]: field 'id' has wrong type"],
    ("stations", "id", "str subclass"): (
        (Name("S"), StationKind.PROCESS, 3.0, 1.0, None),
        "a10a19ace4d2fbfd7cb276fb1332f1f7f49cd544a8966024db7a5ab0b698f10a",
    ),
    ("stations", "id", "int subclass"): ["stations[0]: field 'id' has wrong type"],
    ("stations", "kind", "absent"): ["stations[0]: missing required field 'kind'"],
    ("stations", "kind", "null"): ["stations[0]: missing required field 'kind'"],
    ("stations", "kind", "true"): ["stations[0]: field 'kind' has wrong type"],
    ("stations", "kind", "string"): ["stations[0]: unknown station kind '5'"],
    ("stations", "kind", "7.5"): ["stations[0]: field 'kind' has wrong type"],
    ("stations", "kind", "int"): ["stations[0]: field 'kind' has wrong type"],
    ("stations", "kind", "10**400"): ["stations[0]: field 'kind' has wrong type"],
    ("stations", "kind", "nan"): ["stations[0]: field 'kind' has wrong type"],
    ("stations", "kind", "inf"): ["stations[0]: field 'kind' has wrong type"],
    ("stations", "kind", "-inf"): ["stations[0]: field 'kind' has wrong type"],
    ("stations", "kind", "str subclass"): (
        ("S", StationKind.PROCESS, 3.0, 1.0, None),
        "a10a19ace4d2fbfd7cb276fb1332f1f7f49cd544a8966024db7a5ab0b698f10a",
    ),
    ("stations", "kind", "int subclass"): ["stations[0]: field 'kind' has wrong type"],
    ("stations", "mu_base", "absent"): ["stations[0]: missing required field 'mu_base'"],
    ("stations", "mu_base", "null"): ["stations[0]: missing required field 'mu_base'"],
    ("stations", "mu_base", "true"): ["stations[0]: field 'mu_base' must be a finite number"],
    ("stations", "mu_base", "string"): ["stations[0]: field 'mu_base' must be a finite number"],
    ("stations", "mu_base", "7.5"): (
        ("S", StationKind.PROCESS, 7.5, 1.0, None),
        "717293fa5d6770e0dc5b5f4e82aab0d64250a9633cc399266b13a47bddd3ef86",
    ),
    ("stations", "mu_base", "int"): (
        ("S", StationKind.PROCESS, 5.0, 1.0, None),
        "9a4316510045481c15c4d20fac6cc89024f4742c04a7eb0fb33bbe42c7344800",
    ),
    ("stations", "mu_base", "10**400"): ["stations[0]: field 'mu_base' must be a finite number"],
    ("stations", "mu_base", "nan"): ["stations[0]: field 'mu_base' must be a finite number"],
    ("stations", "mu_base", "inf"): ["stations[0]: field 'mu_base' must be a finite number"],
    ("stations", "mu_base", "-inf"): ["stations[0]: field 'mu_base' must be a finite number"],
    ("stations", "mu_base", "str subclass"): ["stations[0]: field 'mu_base' must be a finite number"],
    ("stations", "mu_base", "int subclass"): (
        ("S", StationKind.PROCESS, 5.0, 1.0, None),
        "9a4316510045481c15c4d20fac6cc89024f4742c04a7eb0fb33bbe42c7344800",
    ),
    ("stations", "gamma", "absent"): (
        ("S", StationKind.PROCESS, 3.0, 0.0, None),
        "5e9cf211cf5bab0fb3cc7d9ef47a8b308d4073160bc4fcabeaf9361dc88cbc57",
    ),
    ("stations", "gamma", "null"): (
        ("S", StationKind.PROCESS, 3.0, 0.0, None),
        "5e9cf211cf5bab0fb3cc7d9ef47a8b308d4073160bc4fcabeaf9361dc88cbc57",
    ),
    ("stations", "gamma", "true"): ["stations[0]: field 'gamma' must be a finite number"],
    ("stations", "gamma", "string"): ["stations[0]: field 'gamma' must be a finite number"],
    ("stations", "gamma", "7.5"): (
        ("S", StationKind.PROCESS, 3.0, 7.5, None),
        "01740e3429cbd71925430457dd9eb7ba8a82e989aba4524776993873e51991b4",
    ),
    ("stations", "gamma", "int"): (
        ("S", StationKind.PROCESS, 3.0, 5.0, None),
        "9e72fa7e9bdc61c8daefa51648e5caf04949c5b620db0157f0200d2d27b51b50",
    ),
    ("stations", "gamma", "10**400"): ["stations[0]: field 'gamma' must be a finite number"],
    ("stations", "gamma", "nan"): ["stations[0]: field 'gamma' must be a finite number"],
    ("stations", "gamma", "inf"): ["stations[0]: field 'gamma' must be a finite number"],
    ("stations", "gamma", "-inf"): ["stations[0]: field 'gamma' must be a finite number"],
    ("stations", "gamma", "str subclass"): ["stations[0]: field 'gamma' must be a finite number"],
    ("stations", "gamma", "int subclass"): (
        ("S", StationKind.PROCESS, 3.0, 5.0, None),
        "9e72fa7e9bdc61c8daefa51648e5caf04949c5b620db0157f0200d2d27b51b50",
    ),
    ("stations.transport", "vehicle_type", "absent"): [
        "stations[1]: station T: a transport station needs a vehicle_type binding",
    ],
    ("stations.transport", "vehicle_type", "null"): [
        "stations[1]: station T: a transport station needs a vehicle_type binding",
    ],
    ("stations.transport", "vehicle_type", "true"): ["station T: vehicle_type must be an integer"],
    ("stations.transport", "vehicle_type", "string"): ["station T: vehicle_type must be an integer"],
    ("stations.transport", "vehicle_type", "7.5"): ["station T: vehicle_type must be an integer"],
    ("stations.transport", "vehicle_type", "int"): (
        ("T", StationKind.TRANSPORT, 0.7, 0.5, 5),
        "77144645b0316e0536b04898bd429728b42772540f91e872eb868184720ada7f",
    ),
    ("stations.transport", "vehicle_type", "10**400"): [
        f"station T: vehicle_type {shown(BIG)} outside the 6 declared fleet types",
    ],
    ("stations.transport", "vehicle_type", "nan"): ["station T: vehicle_type must be an integer"],
    ("stations.transport", "vehicle_type", "inf"): ["station T: vehicle_type must be an integer"],
    ("stations.transport", "vehicle_type", "-inf"): ["station T: vehicle_type must be an integer"],
    ("stations.transport", "vehicle_type", "str subclass"): ["station T: vehicle_type must be an integer"],
    ("stations.transport", "vehicle_type", "int subclass"): (
        ("T", StationKind.TRANSPORT, 0.7, 0.5, Count(5)),
        "77144645b0316e0536b04898bd429728b42772540f91e872eb868184720ada7f",
    ),
    ("fleet_candidates", "min", "absent"): ["fleet_candidates[0]: missing required field 'min'"],
    ("fleet_candidates", "min", "null"): ["fleet_candidates[0]: missing required field 'min'"],
    ("fleet_candidates", "min", "true"): ["fleet_candidates[0]: field 'min' has wrong type"],
    ("fleet_candidates", "min", "string"): ["fleet_candidates[0]: field 'min' has wrong type"],
    ("fleet_candidates", "min", "7.5"): ["fleet_candidates[0]: field 'min' has wrong type"],
    ("fleet_candidates", "min", "int"): ["fleet_candidates: range 0 is (5, 3); need 0 <= min <= max"],
    ("fleet_candidates", "min", "10**400"): [
        f"fleet_candidates: range 0 is ({shown(BIG)}, 3); need 0 <= min <= max",
    ],
    ("fleet_candidates", "min", "nan"): ["fleet_candidates[0]: field 'min' has wrong type"],
    ("fleet_candidates", "min", "inf"): ["fleet_candidates[0]: field 'min' has wrong type"],
    ("fleet_candidates", "min", "-inf"): ["fleet_candidates[0]: field 'min' has wrong type"],
    ("fleet_candidates", "min", "str subclass"): ["fleet_candidates[0]: field 'min' has wrong type"],
    ("fleet_candidates", "min", "int subclass"): [
        "fleet_candidates: range 0 is (5, 3); need 0 <= min <= max",
    ],
    ("fleet_candidates", "max", "absent"): ["fleet_candidates[0]: missing required field 'max'"],
    ("fleet_candidates", "max", "null"): ["fleet_candidates[0]: missing required field 'max'"],
    ("fleet_candidates", "max", "true"): ["fleet_candidates[0]: field 'max' has wrong type"],
    ("fleet_candidates", "max", "string"): ["fleet_candidates[0]: field 'max' has wrong type"],
    ("fleet_candidates", "max", "7.5"): ["fleet_candidates[0]: field 'max' has wrong type"],
    ("fleet_candidates", "max", "int"): (
        (1, 5),
        "c299d1b75feb4e4ecce9620d09398d5fc52c6b165c7105aad988235af4da7af7",
    ),
    ("fleet_candidates", "max", "10**400"): (
        (1, BIG),
        "b44a87217d12f47c06160f7272913ca0bbaad091258d9ff60b975358debd1d01",
    ),
    ("fleet_candidates", "max", "nan"): ["fleet_candidates[0]: field 'max' has wrong type"],
    ("fleet_candidates", "max", "inf"): ["fleet_candidates[0]: field 'max' has wrong type"],
    ("fleet_candidates", "max", "-inf"): ["fleet_candidates[0]: field 'max' has wrong type"],
    ("fleet_candidates", "max", "str subclass"): ["fleet_candidates[0]: field 'max' has wrong type"],
    ("fleet_candidates", "max", "int subclass"): (
        (1, Count(5)),
        "c299d1b75feb4e4ecce9620d09398d5fc52c6b165c7105aad988235af4da7af7",
    ),
    ("routing", "from", "absent"): ["routing[0]: missing required field 'from'"],
    ("routing", "from", "null"): ["routing[0]: missing required field 'from'"],
    ("routing", "from", "true"): ["routing[0]: field 'from' has wrong type"],
    ("routing", "from", "string"): ["routing[0]: unknown station '5'"],
    ("routing", "from", "7.5"): ["routing[0]: field 'from' has wrong type"],
    ("routing", "from", "int"): ["routing[0]: field 'from' has wrong type"],
    ("routing", "from", "10**400"): ["routing[0]: field 'from' has wrong type"],
    ("routing", "from", "nan"): ["routing[0]: field 'from' has wrong type"],
    ("routing", "from", "inf"): ["routing[0]: field 'from' has wrong type"],
    ("routing", "from", "-inf"): ["routing[0]: field 'from' has wrong type"],
    ("routing", "from", "str subclass"): (
        (Name("S"), "U", "p:0"),
        "b4224de8beaa58b9e33ac369509e2f0fd04eaa312d1c0d6004da14bde4f8c27c",
    ),
    ("routing", "from", "int subclass"): ["routing[0]: field 'from' has wrong type"],
    ("routing", "to", "absent"): ["routing[0]: missing required field 'to'"],
    ("routing", "to", "null"): ["routing[0]: missing required field 'to'"],
    ("routing", "to", "true"): ["routing[0]: field 'to' has wrong type"],
    ("routing", "to", "string"): ["routing[0]: unknown station '5'"],
    ("routing", "to", "7.5"): ["routing[0]: field 'to' has wrong type"],
    ("routing", "to", "int"): ["routing[0]: field 'to' has wrong type"],
    ("routing", "to", "10**400"): ["routing[0]: field 'to' has wrong type"],
    ("routing", "to", "nan"): ["routing[0]: field 'to' has wrong type"],
    ("routing", "to", "inf"): ["routing[0]: field 'to' has wrong type"],
    ("routing", "to", "-inf"): ["routing[0]: field 'to' has wrong type"],
    ("routing", "to", "str subclass"): (
        ("S", Name("U"), "p:0"),
        "b4224de8beaa58b9e33ac369509e2f0fd04eaa312d1c0d6004da14bde4f8c27c",
    ),
    ("routing", "to", "int subclass"): ["routing[0]: field 'to' has wrong type"],
    ("routing", "value", "absent"): ["routing[0]: missing required field 'value'"],
    ("routing", "value", "null"): ["routing[0]: missing required field 'value'"],
    ("routing", "value", "true"): ["routing[0]: field 'value' has wrong type"],
    ("routing", "value", "string"): ["routing[0]: unparseable routing factor: '5'"],
    ("routing", "value", "7.5"): ["routing[0]: field 'value' has wrong type"],
    ("routing", "value", "int"): ["routing[0]: field 'value' has wrong type"],
    ("routing", "value", "10**400"): ["routing[0]: field 'value' has wrong type"],
    ("routing", "value", "nan"): ["routing[0]: field 'value' has wrong type"],
    ("routing", "value", "inf"): ["routing[0]: field 'value' has wrong type"],
    ("routing", "value", "-inf"): ["routing[0]: field 'value' has wrong type"],
    ("routing", "value", "str subclass"): (
        ("S", "U", "p:0"),
        "b4224de8beaa58b9e33ac369509e2f0fd04eaa312d1c0d6004da14bde4f8c27c",
    ),
    ("routing", "value", "int subclass"): ["routing[0]: field 'value' has wrong type"],
    ("vehicles", "vehicle_id", "absent"): ["vehicles[0]: missing required field 'vehicle_id'"],
    ("vehicles", "vehicle_id", "null"): ["vehicles[0]: missing required field 'vehicle_id'"],
    ("vehicles", "vehicle_id", "true"): ["vehicles[0]: field 'vehicle_id' has wrong type"],
    ("vehicles", "vehicle_id", "string"): (
        ("5", 2.0, 0.5, 0.25, 1.5),
        "2d47e0958646e7e972834673a0d6ccda164c3db1bf6bc5b1fccd63ae8106f7a4",
    ),
    ("vehicles", "vehicle_id", "7.5"): ["vehicles[0]: field 'vehicle_id' has wrong type"],
    ("vehicles", "vehicle_id", "int"): ["vehicles[0]: field 'vehicle_id' has wrong type"],
    ("vehicles", "vehicle_id", "10**400"): ["vehicles[0]: field 'vehicle_id' has wrong type"],
    ("vehicles", "vehicle_id", "nan"): ["vehicles[0]: field 'vehicle_id' has wrong type"],
    ("vehicles", "vehicle_id", "inf"): ["vehicles[0]: field 'vehicle_id' has wrong type"],
    ("vehicles", "vehicle_id", "-inf"): ["vehicles[0]: field 'vehicle_id' has wrong type"],
    ("vehicles", "vehicle_id", "str subclass"): (
        (Name("V"), 2.0, 0.5, 0.25, 1.5),
        "0d954c5ba8009fbc54ac75b0769b0613e9bfc7cba9e24d9d041bf2bb0d570f43",
    ),
    ("vehicles", "vehicle_id", "int subclass"): ["vehicles[0]: field 'vehicle_id' has wrong type"],
    ("vehicles", "speed", "absent"): ["vehicles[0]: missing required field 'speed'"],
    ("vehicles", "speed", "null"): ["vehicles[0]: missing required field 'speed'"],
    ("vehicles", "speed", "true"): ["vehicles[0]: field 'speed' must be a finite number"],
    ("vehicles", "speed", "string"): ["vehicles[0]: field 'speed' must be a finite number"],
    ("vehicles", "speed", "7.5"): (
        ("V", 7.5, 0.5, 0.25, 1.5),
        "431fedc2c285eb28f7fd6367a7c293dc1b64c62dd33ad2adba93d7f76e569059",
    ),
    ("vehicles", "speed", "int"): (
        ("V", 5.0, 0.5, 0.25, 1.5),
        "3aeaf855f2e5346567eb5ed2b482c5a76edc678f41738e86c6b3235f612a49ff",
    ),
    ("vehicles", "speed", "10**400"): ["vehicles[0]: field 'speed' must be a finite number"],
    ("vehicles", "speed", "nan"): ["vehicles[0]: field 'speed' must be a finite number"],
    ("vehicles", "speed", "inf"): ["vehicles[0]: field 'speed' must be a finite number"],
    ("vehicles", "speed", "-inf"): ["vehicles[0]: field 'speed' must be a finite number"],
    ("vehicles", "speed", "str subclass"): ["vehicles[0]: field 'speed' must be a finite number"],
    ("vehicles", "speed", "int subclass"): (
        ("V", 5.0, 0.5, 0.25, 1.5),
        "3aeaf855f2e5346567eb5ed2b482c5a76edc678f41738e86c6b3235f612a49ff",
    ),
    ("vehicles", "load_time_h", "absent"): (
        ("V", 2.0, 0.0, 0.25, 1.5),
        "cd24315e0359ef564a12a38902b0b401a4e99d5219ef506fefa2e19fcc872e51",
    ),
    ("vehicles", "load_time_h", "null"): (
        ("V", 2.0, 0.0, 0.25, 1.5),
        "cd24315e0359ef564a12a38902b0b401a4e99d5219ef506fefa2e19fcc872e51",
    ),
    ("vehicles", "load_time_h", "true"): ["vehicles[0]: field 'load_time_h' must be a finite number"],
    ("vehicles", "load_time_h", "string"): ["vehicles[0]: field 'load_time_h' must be a finite number"],
    ("vehicles", "load_time_h", "7.5"): (
        ("V", 2.0, 7.5, 0.25, 1.5),
        "17df7ecbc3b7eca8b49fbf17ba89797ca9ba4b422fcec22fcaeacaad38fe4892",
    ),
    ("vehicles", "load_time_h", "int"): (
        ("V", 2.0, 5.0, 0.25, 1.5),
        "c740694e5649a240dfc917254942e61c224c869cb2ebeab99ecffa92abf09673",
    ),
    ("vehicles", "load_time_h", "10**400"): ["vehicles[0]: field 'load_time_h' must be a finite number"],
    ("vehicles", "load_time_h", "nan"): ["vehicles[0]: field 'load_time_h' must be a finite number"],
    ("vehicles", "load_time_h", "inf"): ["vehicles[0]: field 'load_time_h' must be a finite number"],
    ("vehicles", "load_time_h", "-inf"): ["vehicles[0]: field 'load_time_h' must be a finite number"],
    ("vehicles", "load_time_h", "str subclass"): ["vehicles[0]: field 'load_time_h' must be a finite number"],
    ("vehicles", "load_time_h", "int subclass"): (
        ("V", 2.0, 5.0, 0.25, 1.5),
        "c740694e5649a240dfc917254942e61c224c869cb2ebeab99ecffa92abf09673",
    ),
    ("vehicles", "unload_time_h", "absent"): (
        ("V", 2.0, 0.5, 0.0, 1.5),
        "ffe2a42e1d0c884eca36e5b0203b4c83e3fb43d2410659b908f71b7509fb18a1",
    ),
    ("vehicles", "unload_time_h", "null"): (
        ("V", 2.0, 0.5, 0.0, 1.5),
        "ffe2a42e1d0c884eca36e5b0203b4c83e3fb43d2410659b908f71b7509fb18a1",
    ),
    ("vehicles", "unload_time_h", "true"): ["vehicles[0]: field 'unload_time_h' must be a finite number"],
    ("vehicles", "unload_time_h", "string"): ["vehicles[0]: field 'unload_time_h' must be a finite number"],
    ("vehicles", "unload_time_h", "7.5"): (
        ("V", 2.0, 0.5, 7.5, 1.5),
        "9ce8a853be25e9ec9ed4cc50511202d099b95ee6af74afe33ac29020e4ac8752",
    ),
    ("vehicles", "unload_time_h", "int"): (
        ("V", 2.0, 0.5, 5.0, 1.5),
        "cbf6fc80d741b960a26b575433d6ab0502b0542ebde4d2c73dab2825f36dc14e",
    ),
    ("vehicles", "unload_time_h", "10**400"): ["vehicles[0]: field 'unload_time_h' must be a finite number"],
    ("vehicles", "unload_time_h", "nan"): ["vehicles[0]: field 'unload_time_h' must be a finite number"],
    ("vehicles", "unload_time_h", "inf"): ["vehicles[0]: field 'unload_time_h' must be a finite number"],
    ("vehicles", "unload_time_h", "-inf"): ["vehicles[0]: field 'unload_time_h' must be a finite number"],
    ("vehicles", "unload_time_h", "str subclass"): [
        "vehicles[0]: field 'unload_time_h' must be a finite number",
    ],
    ("vehicles", "unload_time_h", "int subclass"): (
        ("V", 2.0, 0.5, 5.0, 1.5),
        "cbf6fc80d741b960a26b575433d6ab0502b0542ebde4d2c73dab2825f36dc14e",
    ),
    ("vehicles", "cost_rate", "absent"): (
        ("V", 2.0, 0.5, 0.25, 0.0),
        "9e9a0721fe2e4c1be7d2d920e461f59f1245f07d9ba1524d433dd52250f7bddb",
    ),
    ("vehicles", "cost_rate", "null"): (
        ("V", 2.0, 0.5, 0.25, 0.0),
        "9e9a0721fe2e4c1be7d2d920e461f59f1245f07d9ba1524d433dd52250f7bddb",
    ),
    ("vehicles", "cost_rate", "true"): ["vehicles[0]: field 'cost_rate' must be a finite number"],
    ("vehicles", "cost_rate", "string"): ["vehicles[0]: field 'cost_rate' must be a finite number"],
    ("vehicles", "cost_rate", "7.5"): (
        ("V", 2.0, 0.5, 0.25, 7.5),
        "7cc0741672adadd3222a37a41ed262541794969c0debc25b576b36f9337a1b31",
    ),
    ("vehicles", "cost_rate", "int"): (
        ("V", 2.0, 0.5, 0.25, 5.0),
        "9829e558af9d16e5cb951afe69e36bd62d04efcdfad5322bc912a89f6d68312c",
    ),
    ("vehicles", "cost_rate", "10**400"): ["vehicles[0]: field 'cost_rate' must be a finite number"],
    ("vehicles", "cost_rate", "nan"): ["vehicles[0]: field 'cost_rate' must be a finite number"],
    ("vehicles", "cost_rate", "inf"): ["vehicles[0]: field 'cost_rate' must be a finite number"],
    ("vehicles", "cost_rate", "-inf"): ["vehicles[0]: field 'cost_rate' must be a finite number"],
    ("vehicles", "cost_rate", "str subclass"): ["vehicles[0]: field 'cost_rate' must be a finite number"],
    ("vehicles", "cost_rate", "int subclass"): (
        ("V", 2.0, 0.5, 0.25, 5.0),
        "9829e558af9d16e5cb951afe69e36bd62d04efcdfad5322bc912a89f6d68312c",
    ),
    ("distances", "from", "absent"): ["distances[0]: missing required field 'from'"],
    ("distances", "from", "null"): ["distances[0]: missing required field 'from'"],
    ("distances", "from", "true"): ["distances[0]: field 'from' has wrong type"],
    ("distances", "from", "string"): (
        ("5", "b", 3.0),
        "48955a8aec1223b46e0bb85117983a1c5f18c4256a075b207db309568ef6913b",
    ),
    ("distances", "from", "7.5"): ["distances[0]: field 'from' has wrong type"],
    ("distances", "from", "int"): ["distances[0]: field 'from' has wrong type"],
    ("distances", "from", "10**400"): ["distances[0]: field 'from' has wrong type"],
    ("distances", "from", "nan"): ["distances[0]: field 'from' has wrong type"],
    ("distances", "from", "inf"): ["distances[0]: field 'from' has wrong type"],
    ("distances", "from", "-inf"): ["distances[0]: field 'from' has wrong type"],
    ("distances", "from", "str subclass"): (
        (Name("a"), "b", 3.0),
        "ebff4be66740d1f91acdbd887cfd74ab82abf393881d3a5582ba043e4896da91",
    ),
    ("distances", "from", "int subclass"): ["distances[0]: field 'from' has wrong type"],
    ("distances", "to", "absent"): ["distances[0]: missing required field 'to'"],
    ("distances", "to", "null"): ["distances[0]: missing required field 'to'"],
    ("distances", "to", "true"): ["distances[0]: field 'to' has wrong type"],
    ("distances", "to", "string"): (
        ("a", "5", 3.0),
        "8ef6ab36cd16b9bb7639f2bab93b0134d3b2de674f98098aec52c4e259362e49",
    ),
    ("distances", "to", "7.5"): ["distances[0]: field 'to' has wrong type"],
    ("distances", "to", "int"): ["distances[0]: field 'to' has wrong type"],
    ("distances", "to", "10**400"): ["distances[0]: field 'to' has wrong type"],
    ("distances", "to", "nan"): ["distances[0]: field 'to' has wrong type"],
    ("distances", "to", "inf"): ["distances[0]: field 'to' has wrong type"],
    ("distances", "to", "-inf"): ["distances[0]: field 'to' has wrong type"],
    ("distances", "to", "str subclass"): (
        ("a", Name("b"), 3.0),
        "ebff4be66740d1f91acdbd887cfd74ab82abf393881d3a5582ba043e4896da91",
    ),
    ("distances", "to", "int subclass"): ["distances[0]: field 'to' has wrong type"],
    ("distances", "distance", "absent"): ["distances[0]: missing required field 'distance'"],
    ("distances", "distance", "null"): ["distances[0]: missing required field 'distance'"],
    ("distances", "distance", "true"): ["distances[0]: field 'distance' must be a finite number"],
    ("distances", "distance", "string"): ["distances[0]: field 'distance' must be a finite number"],
    ("distances", "distance", "7.5"): (
        ("a", "b", 7.5),
        "ca06c55d5b9c18021c4b6ff2871d2753e915c43d3b7363480cda0938b4fd5813",
    ),
    ("distances", "distance", "int"): (
        ("a", "b", 5.0),
        "939344c7e8698cce2813bc02b95463f33afbc14da91f3879aef3b34ecf247e3b",
    ),
    ("distances", "distance", "10**400"): ["distances[0]: field 'distance' must be a finite number"],
    ("distances", "distance", "nan"): ["distances[0]: field 'distance' must be a finite number"],
    ("distances", "distance", "inf"): ["distances[0]: field 'distance' must be a finite number"],
    ("distances", "distance", "-inf"): ["distances[0]: field 'distance' must be a finite number"],
    ("distances", "distance", "str subclass"): ["distances[0]: field 'distance' must be a finite number"],
    ("distances", "distance", "int subclass"): (
        ("a", "b", 5.0),
        "939344c7e8698cce2813bc02b95463f33afbc14da91f3879aef3b34ecf247e3b",
    ),
    ("tasks", "task_id", "absent"): ["tasks[0]: missing required field 'task_id'"],
    ("tasks", "task_id", "null"): ["tasks[0]: missing required field 'task_id'"],
    ("tasks", "task_id", "true"): ["tasks[0]: field 'task_id' has wrong type"],
    ("tasks", "task_id", "string"): (
        ("5", TaskType.PROCESSING, "a", "b", 10.0, 2.0),
        "bb08799bcca26d48485802ebbb305270b9ae3eea57aff2d8fb647b78a539ccad",
    ),
    ("tasks", "task_id", "7.5"): ["tasks[0]: field 'task_id' has wrong type"],
    ("tasks", "task_id", "int"): ["tasks[0]: field 'task_id' has wrong type"],
    ("tasks", "task_id", "10**400"): ["tasks[0]: field 'task_id' has wrong type"],
    ("tasks", "task_id", "nan"): ["tasks[0]: field 'task_id' has wrong type"],
    ("tasks", "task_id", "inf"): ["tasks[0]: field 'task_id' has wrong type"],
    ("tasks", "task_id", "-inf"): ["tasks[0]: field 'task_id' has wrong type"],
    ("tasks", "task_id", "str subclass"): (
        (Name("t"), TaskType.PROCESSING, "a", "b", 10.0, 2.0),
        "d5b0177ec94a73be6029972f60ba20719dbe3cf22962689ea07afb347f6ff75e",
    ),
    ("tasks", "task_id", "int subclass"): ["tasks[0]: field 'task_id' has wrong type"],
    ("tasks", "task_type", "absent"): ["tasks[0]: missing required field 'task_type'"],
    ("tasks", "task_type", "null"): ["tasks[0]: missing required field 'task_type'"],
    ("tasks", "task_type", "true"): ["tasks[0]: field 'task_type' has wrong type"],
    ("tasks", "task_type", "string"): ["tasks[0]: unknown task type '5'"],
    ("tasks", "task_type", "7.5"): ["tasks[0]: field 'task_type' has wrong type"],
    ("tasks", "task_type", "int"): ["tasks[0]: field 'task_type' has wrong type"],
    ("tasks", "task_type", "10**400"): ["tasks[0]: field 'task_type' has wrong type"],
    ("tasks", "task_type", "nan"): ["tasks[0]: field 'task_type' has wrong type"],
    ("tasks", "task_type", "inf"): ["tasks[0]: field 'task_type' has wrong type"],
    ("tasks", "task_type", "-inf"): ["tasks[0]: field 'task_type' has wrong type"],
    ("tasks", "task_type", "str subclass"): (
        ("t", TaskType.PROCESSING, "a", "b", 10.0, 2.0),
        "d5b0177ec94a73be6029972f60ba20719dbe3cf22962689ea07afb347f6ff75e",
    ),
    ("tasks", "task_type", "int subclass"): ["tasks[0]: field 'task_type' has wrong type"],
    ("tasks", "origin", "absent"): ["tasks[0]: missing required field 'origin'"],
    ("tasks", "origin", "null"): ["tasks[0]: missing required field 'origin'"],
    ("tasks", "origin", "true"): ["tasks[0]: field 'origin' has wrong type"],
    ("tasks", "origin", "string"): (
        ("t", TaskType.PROCESSING, "5", "b", 10.0, 2.0),
        "2dee929ee2e947de5bf49ed6ad79b9bd465c3079d2b05ac5e2f6dff048550e21",
    ),
    ("tasks", "origin", "7.5"): ["tasks[0]: field 'origin' has wrong type"],
    ("tasks", "origin", "int"): ["tasks[0]: field 'origin' has wrong type"],
    ("tasks", "origin", "10**400"): ["tasks[0]: field 'origin' has wrong type"],
    ("tasks", "origin", "nan"): ["tasks[0]: field 'origin' has wrong type"],
    ("tasks", "origin", "inf"): ["tasks[0]: field 'origin' has wrong type"],
    ("tasks", "origin", "-inf"): ["tasks[0]: field 'origin' has wrong type"],
    ("tasks", "origin", "str subclass"): (
        ("t", TaskType.PROCESSING, Name("a"), "b", 10.0, 2.0),
        "d5b0177ec94a73be6029972f60ba20719dbe3cf22962689ea07afb347f6ff75e",
    ),
    ("tasks", "origin", "int subclass"): ["tasks[0]: field 'origin' has wrong type"],
    ("tasks", "destination", "absent"): ["tasks[0]: missing required field 'destination'"],
    ("tasks", "destination", "null"): ["tasks[0]: missing required field 'destination'"],
    ("tasks", "destination", "true"): ["tasks[0]: field 'destination' has wrong type"],
    ("tasks", "destination", "string"): (
        ("t", TaskType.PROCESSING, "a", "5", 10.0, 2.0),
        "0acb69c4a49c3c3b6bd0b3acefd42bc83668485e962edbce17ad91d5a6670ed3",
    ),
    ("tasks", "destination", "7.5"): ["tasks[0]: field 'destination' has wrong type"],
    ("tasks", "destination", "int"): ["tasks[0]: field 'destination' has wrong type"],
    ("tasks", "destination", "10**400"): ["tasks[0]: field 'destination' has wrong type"],
    ("tasks", "destination", "nan"): ["tasks[0]: field 'destination' has wrong type"],
    ("tasks", "destination", "inf"): ["tasks[0]: field 'destination' has wrong type"],
    ("tasks", "destination", "-inf"): ["tasks[0]: field 'destination' has wrong type"],
    ("tasks", "destination", "str subclass"): (
        ("t", TaskType.PROCESSING, "a", Name("b"), 10.0, 2.0),
        "d5b0177ec94a73be6029972f60ba20719dbe3cf22962689ea07afb347f6ff75e",
    ),
    ("tasks", "destination", "int subclass"): ["tasks[0]: field 'destination' has wrong type"],
    ("tasks", "lot_mass_kg", "absent"): ["tasks[0]: missing required field 'lot_mass_kg'"],
    ("tasks", "lot_mass_kg", "null"): ["tasks[0]: missing required field 'lot_mass_kg'"],
    ("tasks", "lot_mass_kg", "true"): ["tasks[0]: field 'lot_mass_kg' must be a finite number"],
    ("tasks", "lot_mass_kg", "string"): ["tasks[0]: field 'lot_mass_kg' must be a finite number"],
    ("tasks", "lot_mass_kg", "7.5"): (
        ("t", TaskType.PROCESSING, "a", "b", 7.5, 2.0),
        "623c7b4fba765faebbfdc50d340f519aaf310d9e6e596f63790fa9ed8f57723d",
    ),
    ("tasks", "lot_mass_kg", "int"): (
        ("t", TaskType.PROCESSING, "a", "b", 5.0, 2.0),
        "bbb029a82a8cd633646b98b3ad3df637734f5fb747138e6c49e146baea1a1daf",
    ),
    ("tasks", "lot_mass_kg", "10**400"): ["tasks[0]: field 'lot_mass_kg' must be a finite number"],
    ("tasks", "lot_mass_kg", "nan"): ["tasks[0]: field 'lot_mass_kg' must be a finite number"],
    ("tasks", "lot_mass_kg", "inf"): ["tasks[0]: field 'lot_mass_kg' must be a finite number"],
    ("tasks", "lot_mass_kg", "-inf"): ["tasks[0]: field 'lot_mass_kg' must be a finite number"],
    ("tasks", "lot_mass_kg", "str subclass"): ["tasks[0]: field 'lot_mass_kg' must be a finite number"],
    ("tasks", "lot_mass_kg", "int subclass"): (
        ("t", TaskType.PROCESSING, "a", "b", 5.0, 2.0),
        "bbb029a82a8cd633646b98b3ad3df637734f5fb747138e6c49e146baea1a1daf",
    ),
    ("tasks", "baseline_duration_h", "absent"): (
        ("t", TaskType.PROCESSING, "a", "b", 10.0, 0.0),
        "c7cf023631fd519f56b3935d8aa84b6fcc72912ac14d48a63a9150b4d6174846",
    ),
    ("tasks", "baseline_duration_h", "null"): (
        ("t", TaskType.PROCESSING, "a", "b", 10.0, 0.0),
        "c7cf023631fd519f56b3935d8aa84b6fcc72912ac14d48a63a9150b4d6174846",
    ),
    ("tasks", "baseline_duration_h", "true"): [
        "tasks[0]: field 'baseline_duration_h' must be a finite number",
    ],
    ("tasks", "baseline_duration_h", "string"): [
        "tasks[0]: field 'baseline_duration_h' must be a finite number",
    ],
    ("tasks", "baseline_duration_h", "7.5"): (
        ("t", TaskType.PROCESSING, "a", "b", 10.0, 7.5),
        "d2a54e9009f065c12887beaebcb87dbdb547c98f19e3e8dae8accbab9dd19c84",
    ),
    ("tasks", "baseline_duration_h", "int"): (
        ("t", TaskType.PROCESSING, "a", "b", 10.0, 5.0),
        "e0f06d84434a2e5f4ffba24802f534fd5818a86b39ffe0414b874029267ba13c",
    ),
    ("tasks", "baseline_duration_h", "10**400"): [
        "tasks[0]: field 'baseline_duration_h' must be a finite number",
    ],
    ("tasks", "baseline_duration_h", "nan"): [
        "tasks[0]: field 'baseline_duration_h' must be a finite number",
    ],
    ("tasks", "baseline_duration_h", "inf"): [
        "tasks[0]: field 'baseline_duration_h' must be a finite number",
    ],
    ("tasks", "baseline_duration_h", "-inf"): [
        "tasks[0]: field 'baseline_duration_h' must be a finite number",
    ],
    ("tasks", "baseline_duration_h", "str subclass"): [
        "tasks[0]: field 'baseline_duration_h' must be a finite number",
    ],
    ("tasks", "baseline_duration_h", "int subclass"): (
        ("t", TaskType.PROCESSING, "a", "b", 10.0, 5.0),
        "e0f06d84434a2e5f4ffba24802f534fd5818a86b39ffe0414b874029267ba13c",
    ),
}


@pytest.mark.parametrize("section, field, label", CASES, ids=[f"{s}.{f}={v}" for s, f, v in CASES])
def test_hostile_record_field_gets_the_pinned_answer(section, field, label):
    expected = HOSTILE_RECORD_ANSWERS[section, field, label]
    got = hostile_answer(section, field, label)
    assert got == expected
    if not isinstance(expected, list):
        assert [type(v) for v in got[0]] == [type(v) for v in expected[0]]


# --- keys outside a record's fields ------------------------------------------

EDGE = {"from": "a", "to": "b", "capacity_kg": 5, "cost_milli_per_kg": 7, "transit_time_h": 1.5}
NETWORK = {"nodes": [NODE, {"id": "b", "kind": "destination"}], "edges": [EDGE]}
# record kind -> (the scenario's sections, the object's path in them, its where)
OBJECTS = {
    **{
        section: (sections, path, f"{'.'.join(path[:-1])}[{path[-1]}]")
        for section, (sections, path, _) in RECORDS.items()
    },
    "network": ({"network": NETWORK}, ("network",), "network"),
    # an edge with all five fields, and one with the three required ones,
    # which the unknown key brings to four
    "network.edges": ({"network": NETWORK}, ("network", "edges", 0), "network.edges[0]"),
    "network.edges.required": (
        {"network": {**NETWORK, "edges": [{"from": "a", "to": "b", "capacity_kg": 5}]}},
        ("network", "edges", 0),
        "network.edges[0]",
    ),
}


@pytest.mark.parametrize("kind", OBJECTS)
def test_unknown_record_field_is_refused(kind):
    sections, path, where = OBJECTS[kind]
    doc, obj = record_doc(sections, path)
    obj["bogus"] = 1
    with pytest.raises(ValidationErrors) as exc:
        scenario_from_dict(doc)
    assert exc.value.errors == [f"{where}: unknown fields ['bogus']"]


@pytest.mark.parametrize(
    "kind, field, problem",
    [
        ("tasks", "lot_mass_kg", "field 'lot_mass_kg' must be a finite number"),
        ("network.edges", "capacity_kg", "field 'capacity_kg' has wrong type"),
    ],
)
def test_unknown_fields_are_reported_after_the_field_problems(kind, field, problem):
    sections, path, where = OBJECTS[kind]
    doc, obj = record_doc(sections, path)
    obj.update({"zz": 1, field: "x", "aa": 1})
    with pytest.raises(ValidationErrors) as exc:
        scenario_from_dict(doc)
    assert exc.value.errors == [f"{where}: {problem}", f"{where}: unknown fields ['aa', 'zz']"]


@pytest.mark.parametrize("value", [0, [1, 2], math.nan], ids=repr)
def test_process_station_with_a_vehicle_type_is_refused(value):
    sections, path, _ = RECORDS["stations"]
    doc, station = record_doc(sections, path)
    station["vehicle_type"] = value
    with pytest.raises(ValidationErrors) as exc:
        scenario_from_dict(doc)
    assert exc.value.errors == ["stations[0]: station S: a process station takes no vehicle_type"]
