"""Scenario files: one versioned JSON document describing a fab logistics case.

A scenario bundles up to five optional sections around a shared namespace of
node, station, task, and vehicle ids: the transport `network` (nodes and
integer-capacity edges, costs in integer milli-units per kg), the queueing
side (`stations`, `routing` bindings, `nominal_p`, `nominal_fleet`), the
planning side (`fleet_candidates`, `limits`), the scheduling side (`tasks`,
`vehicles`, `distances`, `metaheuristic_params`), and free-form `metadata`
(reference deltas, grid definitions; reported but never used as test
targets by library code).

`resolve_scenario_raw` is the one reader: it decodes the JSON of a file or
of a bundled fixture.  `scenario_from_dict` then walks the sections in
order and reports every problem at once, each under a `where` prefix such
as `network.edges[3]`.  Every list section but `network.edges` is read by
one record walk, `_records`, from one statement of its fields: key, type
and default.  The walk reads every field, and skips a record with a field
that is missing or wrong, or with a key outside its fields.  An edge is
read by hand, so that the usual edge, of exact JSON types and within every
edge rule, is taken after one test.  The parser itself checks only the
JSON shape and the leaf types, the file-format rules (known kinds and
fields, the edge-number bound, unique routing cells, vehicles, distances
and tasks) and the references between sections.  Every value rule of an
entity lives with its type: the constructors and the `*_errors` rule
functions of `netflow` (nodes, edges), `queueing` (stations, routing
cells, fleets, transfer probabilities), `robust_planner` (candidate
ranges, limits) and `scheduler` (tasks, vehicles, search parameters).

Serialization is canonical: stable key order, explicit parameter defaults,
so the SHA-256 `inputs_digest` changes exactly when a semantically
meaningful field changes.  `scenario_to_dict` and `scenario_digest` read one
list of sections; the digest writes the network's records with a
fixed-shape writer, not through a dict per edge.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .errors import (
    IoError,
    ParseError,
    ScenarioValidationError,
    SchemaVersionUnsupported,
    ValidationErrors,
    shown,
)
from .netflow import Edge, NodeKind, edge_errors, node_errors
from .queueing import (
    FleetConfig,
    StationKind,
    StationProfile,
    binding_errors,
    parse_routing_expr,
    routing_expr_to_str,
    station_errors,
    wltp_errors,
)
from .robust_planner import FleetCandidateSpace, PlannerLimits
from .scheduler import (
    AcoParams,
    GaParams,
    SaParams,
    TaskType,
    TransportTask,
    VehicleSpec,
)

SCHEMA_VERSION = 1

# largest capacity_kg and cost_milli_per_kg an edge may have: every product
# of the two then fits a float, so each printed flow cost is finite
_MAX_EDGE_INT = 2 ** 53 - 1

_NODE_KINDS = {
    "production": NodeKind.PRODUCTION,
    "logistics": NodeKind.LOGISTICS,
    "destination": NodeKind.DESTINATION,
}
_TOP_LEVEL_KEYS = {
    "schema_version",
    "name",
    "description",
    "metadata",
    "network",
    "stations",
    "routing",
    "nominal_p",
    "nominal_fleet",
    "fleet_candidates",
    "limits",
    "tasks",
    "vehicles",
    "distances",
    "metaheuristic_params",
}
_NETWORK_KEYS = {"nodes", "edges"}
_EDGE_KEYS = {"from", "to", "capacity_kg", "cost_milli_per_kg", "transit_time_h"}


@dataclass(frozen=True)
class NetworkSection:
    nodes: tuple[tuple[str, NodeKind], ...]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class MetaheuristicParams:
    ga: GaParams = GaParams()
    sa: SaParams = SaParams()
    aco: AcoParams = AcoParams()


@dataclass(frozen=True)
class Scenario:
    schema_version: int
    name: str
    description: str
    metadata: Mapping[str, Any]
    network: NetworkSection | None
    stations: tuple[StationProfile, ...] | None
    routing: tuple[tuple[str, str, str], ...]
    nominal_p: tuple[float, ...] | None
    nominal_fleet: FleetConfig | None
    fleet_candidates: FleetCandidateSpace | None
    limits: PlannerLimits | None
    tasks: tuple[TransportTask, ...] | None
    vehicles: tuple[VehicleSpec, ...] | None
    distances: Mapping[tuple[str, str], float]
    metaheuristic: MetaheuristicParams


# --- parsing helpers ---------------------------------------------------------

_FLOAT_MAX = sys.float_info.max


def _finite(value) -> bool:
    """A number that is not a bool, NaN, +-Infinity or an int too large for a float."""
    return (
        isinstance(value, (int, float))
        and value is not True
        and value is not False
        and -_FLOAT_MAX <= value <= _FLOAT_MAX
    )


def _req(raw: Mapping, key: str, kind, errs: list[str], where: str, default=None):
    """Field `key` of `raw`: a str or an int (never a bool), or for kind
    float any finite number, returned as a float.  Absent or null gives
    `default`, and without a default the field is required.  A wrong value
    is reported and gives None."""
    value = raw.get(key)
    if value is None:
        if default is None:
            errs.append(f"{where}: missing required field '{key}'")
        return default
    if kind is float:
        if _finite(value):
            return float(value)
        errs.append(f"{where}: field '{key}' must be a finite number")
    elif isinstance(value, kind) and value is not True and value is not False:
        return value
    else:
        errs.append(f"{where}: field '{key}' has wrong type")
    return None


def _report(errs: list[str], where: str, problems: list[str]) -> bool:
    """Report every problem under `where`; whether there was any."""
    if problems:
        errs.extend(f"{where}: {p}" for p in problems)
    return bool(problems)


def _build(errs: list[str], where: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), or None with the constructor's problems
    reported under `where`."""
    try:
        return cls(*args, **kwargs)
    except ValidationErrors as exc:
        _report(errs, where, exc.errors)
    except (ScenarioValidationError, TypeError, ValueError) as exc:
        errs.append(f"{where}: {exc}")
    return None


def _new(key, seen: set, errs: list[str], where: str, label: str) -> bool:
    """Whether `key` is declared for the first time in its section; a repeat
    is reported as `label` declared twice."""
    if key in seen:
        shown = key if isinstance(key, str) else "->".join(key)
        errs.append(f"{where}: {label} declared twice: {shown}")
        return False
    seen.add(key)
    return True


def _objects(raw, errs: list[str], where: str) -> list[tuple[int, Mapping]]:
    """(index, entry) for every object in a list section; a section that is
    not a list, and entries that are not objects, are reported and skipped."""
    if not isinstance(raw, list):
        errs.append(f"{where}: must be a list")
        return []
    out = []
    for i, entry in enumerate(raw):
        if isinstance(entry, (dict, Mapping)):  # dict first: the ABC check is slow
            out.append((i, entry))
        else:
            errs.append(f"{where}[{i}]: must be an object")
    return out


def _unknown(entry: Mapping, known, errs: list[str], where: str) -> bool:
    """Whether `entry` has keys outside `known`, a set or a key view; they
    are reported."""
    if entry.keys() <= known:
        return False
    errs.append(f"{where}: unknown fields {sorted(entry.keys() - known)}")
    return True


def _records(raw, errs: list[str], section: str, *spec, extra=()):
    """(where, entry, values) for each object of a list section, its fields
    read by _req as `spec` lists them, `(key, kind)` or `(key, kind,
    default)`.  A record with a missing or wrong field, or with a key that
    is neither in `spec` nor in `extra` (read by the caller), is skipped."""
    spec = [(key, kind, rest[0] if rest else None) for key, kind, *rest in spec]
    known = {key for key, _, _ in spec}.union(extra)
    for i, entry in _objects(raw, errs, section):
        where = f"{section}[{i}]"
        # a plain loop: a comprehension here would be a call per record
        values = []
        for key, kind, default in spec:
            values.append(_req(entry, key, kind, errs, where, default))
        if not _unknown(entry, known, errs, where) and None not in values:
            yield where, entry, values


def _fields(cls, raw, errs: list[str], where: str):
    """cls(**raw) for an object whose keys are fields of the dataclass cls,
    or None with its problems reported under `where`."""
    if not isinstance(raw, Mapping):
        errs.append(f"{where}: must be an object")
        return None
    if _unknown(raw, cls.__dataclass_fields__.keys(), errs, where):
        return None
    missing = [
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw
    ]
    if missing:
        errs.append(f"{where}: missing required fields {missing}")
        return None
    return _build(errs, where, cls, **raw)


def _numbers(raw, errs: list[str], where: str, integral: bool = False):
    """A list of finite numbers (ints when `integral`), or None with the
    first problem reported."""
    if not isinstance(raw, list):
        errs.append(f"{where}: must be a list")
        return None
    for i, v in enumerate(raw):
        if not _finite(v):
            errs.append(f"{where}[{i}]: must be a finite number")
            return None
        if integral and int(v) != v:
            errs.append(f"{where}[{i}]: must be an integer")
            return None
    return [int(v) if integral else float(v) for v in raw]


# --- sections ----------------------------------------------------------------

def _parse_network(raw, errs: list[str]) -> NetworkSection | None:
    if not isinstance(raw, Mapping):
        errs.append("network: must be an object with nodes and edges")
        return None
    _unknown(raw, _NETWORK_KEYS, errs, "network")
    nodes: dict[str, NodeKind] = {}
    for where, _, (nid, kind) in _records(
        raw.get("nodes", []), errs, "network.nodes", ("id", str), ("kind", str)
    ):
        if kind not in _NODE_KINDS:
            errs.append(f"{where}: unknown node kind '{kind}'")
        elif not _report(errs, where, node_errors(nid, nodes)):
            nodes[nid] = _NODE_KINDS[kind]
    edges: list[Edge] = []
    pairs: set[tuple[str, str]] = set()
    # few costs recur on many edges, and a Fraction costs more to build
    # than the rest of an edge's checks
    per_kg: dict[int, Fraction] = {}
    for i, ed in _objects(raw.get("edges", []), errs, "network.edges"):
        frm, to, cap = ed.get("from"), ed.get("to"), ed.get("capacity_kg")
        cost, transit = ed.get("cost_milli_per_kg"), ed.get("transit_time_h")
        # the usual edge, its five fields alone, of exact JSON types, that
        # breaks no rule of edge_errors and the edge-number bound, is taken
        # after this one test; any other goes through _req, the key check and
        # those rules, for their coercions and their messages
        if not (
            type(frm) is str and type(to) is str and type(cap) is int and type(cost) is int
            and type(transit) is float and len(ed) == 5
            and 0 <= cap <= _MAX_EDGE_INT and 0 <= cost <= _MAX_EDGE_INT
            and 0.0 <= transit <= _FLOAT_MAX
            and frm in nodes and to in nodes and frm != to and (frm, to) not in pairs
        ):
            where = f"network.edges[{i}]"
            frm = _req(ed, "from", str, errs, where)
            to = _req(ed, "to", str, errs, where)
            cap = _req(ed, "capacity_kg", int, errs, where)
            # unlike the optional floats, a null cost is no default
            cost = _req(ed, "cost_milli_per_kg", int, errs, where) if "cost_milli_per_kg" in ed else 0
            transit = _req(ed, "transit_time_h", float, errs, where, default=0.0)
            if _unknown(ed, _EDGE_KEYS, errs, where) or None in (frm, to, cap, cost, transit):
                continue
            problems = edge_errors(Edge(frm, to, cap, Fraction(cost, 1000), transit), nodes, pairs)
            problems += [
                f"{name} must be at most 2**53 - 1"
                for name, value in (("capacity_kg", cap), ("cost_milli_per_kg", cost))
                if value > _MAX_EDGE_INT
            ]
            if _report(errs, where, problems):
                pairs.add((frm, to))
                continue
        if cost not in per_kg:
            per_kg[cost] = Fraction(cost, 1000)
        edges.append(Edge(frm, to, cap, per_kg[cost], transit))
        pairs.add((frm, to))
    return NetworkSection(nodes=tuple(nodes.items()), edges=tuple(edges))


def _parse_stations(raw, errs: list[str]) -> tuple[StationProfile, ...]:
    stations = []
    ids: set[str] = set()
    for where, st, (sid, kind, mu, gamma) in _records(
        raw, errs, "stations", ("id", str), ("kind", str), ("mu_base", float), ("gamma", float, 0.0),
        extra=("vehicle_type",),
    ):
        if kind not in ("process", "transport"):
            errs.append(f"{where}: unknown station kind '{kind}'")
            continue
        if _report(errs, where, station_errors(sid, ids)):
            continue
        ids.add(sid)
        station = _build(
            errs, where, StationProfile, sid, StationKind(kind), mu, gamma, st.get("vehicle_type")
        )
        if station is not None:
            stations.append(station)
    return tuple(stations)


def _check_vehicle_types(stations, n_types: int | None, errs: list[str]):
    """Each transport station binds a vehicle type of the declared fleet."""
    for st in stations:
        if st.kind != StationKind.TRANSPORT:
            continue
        vt = st.vehicle_type
        if isinstance(vt, bool) or not isinstance(vt, int):
            errs.append(f"station {st.station_id}: vehicle_type must be an integer")
        elif n_types is None:
            errs.append(
                f"station {st.station_id}: transport station declared but the "
                "scenario has no nominal_fleet or fleet_candidates section"
            )
        elif not 0 <= vt < n_types:
            errs.append(
                f"station {st.station_id}: vehicle_type {shown(vt)} "
                f"outside the {n_types} declared fleet types"
            )


def _parse_candidates(raw, errs: list[str]) -> FleetCandidateSpace | None:
    bounds = [tuple(b) for _, _, b in _records(raw, errs, "fleet_candidates", ("min", int), ("max", int))]
    if not bounds or len(bounds) != len(raw):
        return None
    return _build(errs, "fleet_candidates", FleetCandidateSpace, tuple(bounds))


def _declared_stations(raw) -> set[str]:
    """The id of every station record with a string id, refused or not: a
    routing cell that names a station refused for another field problem
    should not add that the station is unknown."""
    if not isinstance(raw, list):
        return set()
    return {st["id"] for st in raw if isinstance(st, Mapping) and isinstance(st.get("id"), str)}


def _parse_routing(raw, errs: list[str], station_ids, nominal_p) -> tuple[tuple[str, str, str], ...]:
    dim = None if nominal_p is None else len(nominal_p)
    routing = []
    cells: set[tuple[str, str]] = set()
    for where, _, (frm, to, expr) in _records(
        raw, errs, "routing", ("from", str), ("to", str), ("value", str)
    ):
        factors = _build(errs, where, parse_routing_expr, expr)
        # a value that does not parse still has its stations and pair checked
        problems = binding_errors(frm, to, factors or (), station_ids, dim, cells)
        if not _report(errs, where, problems) and factors is not None:
            routing.append((frm, to, routing_expr_to_str(factors)))
        cells.add((frm, to))
    return tuple(routing)


def _parse_vehicles(raw, errs: list[str]) -> tuple[VehicleSpec, ...]:
    vehicles = []
    ids: set[str] = set()
    for where, _, values in _records(
        raw, errs, "vehicles", ("vehicle_id", str), ("speed", float),
        ("load_time_h", float, 0.0), ("unload_time_h", float, 0.0), ("cost_rate", float, 0.0),
    ):
        if not _new(values[0], ids, errs, where, "vehicle id"):
            continue
        # the fields in VehicleSpec's order
        vehicle = _build(errs, where, VehicleSpec, *values)
        if vehicle is not None:
            vehicles.append(vehicle)
    return tuple(vehicles)


def _parse_distances(raw, errs: list[str]) -> dict[tuple[str, str], float]:
    distances: dict[tuple[str, str], float] = {}
    pairs: set[tuple[str, str]] = set()
    for where, _, (frm, to, dist) in _records(
        raw, errs, "distances", ("from", str), ("to", str), ("distance", float)
    ):
        if frm == to:
            errs.append(f"{where}: distance from a node to itself")
        elif dist < 0:
            errs.append(f"{where}: distance must be non-negative")
        elif _new((frm, to), pairs, errs, where, "distance"):
            distances[(frm, to)] = dist
    return distances


def _parse_tasks(raw, errs: list[str], network, distances) -> tuple[TransportTask, ...]:
    node_ids = None if network is None else dict(network.nodes)
    tasks = []
    ids: set[str] = set()
    for where, _, (tid, ttype, origin, dest, mass, baseline) in _records(
        raw, errs, "tasks", ("task_id", str), ("task_type", str), ("origin", str),
        ("destination", str), ("lot_mass_kg", float), ("baseline_duration_h", float, 0.0),
    ):
        if not _new(tid, ids, errs, where, "task id"):
            continue
        try:
            task_type = TaskType(ttype)
        except ValueError:
            errs.append(f"{where}: unknown task type '{ttype}'")
            continue
        if node_ids is not None:
            if origin not in node_ids:
                errs.append(f"{where}: origin '{origin}' is not a network node")
            if dest not in node_ids:
                errs.append(f"{where}: destination '{dest}' is not a network node")
        if distances and (origin, dest) not in distances:
            errs.append(f"{where}: no distance entry for {origin}->{dest}")
        task = _build(errs, where, TransportTask, tid, task_type, origin, dest, mass, baseline)
        if task is not None:
            tasks.append(task)
    return tuple(tasks)


_PARAM_FIELDS = {
    "ga": GaParams,
    "sa": SaParams,
    "aco": AcoParams,
}


def _parse_params(raw, errs: list[str]) -> MetaheuristicParams:
    if raw is None:
        return MetaheuristicParams()
    if not isinstance(raw, Mapping):
        errs.append("metaheuristic_params: must be an object")
        return MetaheuristicParams()
    groups = {}
    for key, cls in _PARAM_FIELDS.items():
        if raw.get(key) is not None:
            params = _fields(cls, raw[key], errs, f"metaheuristic_params.{key}")
            if params is not None:
                groups[key] = params
    unknown_groups = set(raw) - set(_PARAM_FIELDS)
    if unknown_groups:
        errs.append(f"metaheuristic_params: unknown groups {sorted(unknown_groups)}")
    return MetaheuristicParams(**groups)


def scenario_from_dict(raw: Mapping) -> Scenario:
    """Build and fully validate a Scenario; raises ValidationErrors with the
    complete list of problems, not just the first."""
    if not isinstance(raw, Mapping):
        raise ParseError("scenario document must be a JSON object")
    version = raw.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise SchemaVersionUnsupported("scenario lacks an integer schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(
            f"schema_version {version} unsupported (this build reads {SCHEMA_VERSION})"
        )
    errs: list[str] = []
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        errs.append(f"unknown top-level sections: {sorted(unknown)}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        errs.append("scenario needs a non-empty string 'name'")
        name = ""
    description = raw.get("description")
    if description is None:
        description = ""
    elif not isinstance(description, str):
        errs.append("description: must be a string")
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, Mapping):
        errs.append("metadata: must be an object")
        metadata = {}

    network = _parse_network(raw["network"], errs) if "network" in raw else None
    stations = _parse_stations(raw["stations"], errs) if "stations" in raw else None
    nominal_p = None
    if "nominal_p" in raw:
        values = _numbers(raw["nominal_p"], errs, "nominal_p")
        if values is not None:
            _report(errs, "nominal_p", wltp_errors(values))
            nominal_p = tuple(values)
    nominal_fleet = None
    if "nominal_fleet" in raw:
        counts = _numbers(raw["nominal_fleet"], errs, "nominal_fleet", integral=True)
        if counts is not None:
            nominal_fleet = _build(errs, "nominal_fleet", FleetConfig, tuple(counts))
    fleet_candidates = None
    if "fleet_candidates" in raw:
        fleet_candidates = _parse_candidates(raw["fleet_candidates"], errs)
    if nominal_fleet is not None and fleet_candidates is not None:
        n_counts, n_types = len(nominal_fleet.counts), len(fleet_candidates.bounds)
        if n_counts != n_types:
            errs.append(
                f"nominal_fleet: must hold one count for each of the {n_types} vehicle "
                f"types of fleet_candidates (got {n_counts})"
            )
    if stations:
        if fleet_candidates is not None:
            n_types = len(fleet_candidates.bounds)
        else:
            n_types = None if nominal_fleet is None else len(nominal_fleet.counts)
        _check_vehicle_types(stations, n_types, errs)
        if "nominal_p" not in raw:
            errs.append("stations declared but nominal_p missing")
    routing = ()
    if "routing" in raw:
        station_ids = _declared_stations(raw["stations"]) if "stations" in raw else None
        routing = _parse_routing(raw["routing"], errs, station_ids, nominal_p)
    limits = _fields(PlannerLimits, raw["limits"], errs, "limits") if "limits" in raw else None
    vehicles = _parse_vehicles(raw["vehicles"], errs) if "vehicles" in raw else None
    distances = _parse_distances(raw["distances"], errs) if "distances" in raw else {}
    tasks = _parse_tasks(raw["tasks"], errs, network, distances) if "tasks" in raw else None
    metaheuristic = _parse_params(raw.get("metaheuristic_params"), errs)

    if errs:
        raise ValidationErrors(errs)
    return Scenario(
        schema_version=version,
        name=name,
        description=description,
        metadata=dict(metadata),
        network=network,
        stations=stations,
        routing=routing,
        nominal_p=nominal_p,
        nominal_fleet=nominal_fleet,
        fleet_candidates=fleet_candidates,
        limits=limits,
        tasks=tasks,
        vehicles=vehicles,
        distances=distances,
        metaheuristic=metaheuristic,
    )


# --- canonical serialization -------------------------------------------------

_KIND_NAMES = {v: k for k, v in _NODE_KINDS.items()}


def _dataclass_public_dict(obj) -> dict:
    return {k: getattr(obj, k) for k in obj.__dataclass_fields__}


def _milli(cost: Fraction) -> int:
    """int(cost * 1000) for a non-negative cost, without a Fraction multiply."""
    return cost.numerator * 1000 // cost.denominator


def _network_dict(network: NetworkSection) -> dict:
    return {
        "nodes": [{"id": nid, "kind": _KIND_NAMES[kind]} for nid, kind in network.nodes],
        "edges": [
            {
                "from": e.tail,
                "to": e.head,
                "capacity_kg": e.capacity_kg,
                "cost_milli_per_kg": _milli(e.cost_per_kg),
                "transit_time_h": e.transit_time_h,
            }
            for e in network.edges
        ],
    }


# canonical_json of a node and of an edge of a parsed network, keys sorted
_NODE_TEXT = {kind: '{"id":%s,"kind":"' + name + '"}' for kind, name in _KIND_NAMES.items()}
_EDGE_TEXT = '{"capacity_kg":%d,"cost_milli_per_kg":%d,"from":%s,"to":%s,"transit_time_h":%r}'


def _network_text(network: NetworkSection) -> str:
    """canonical_json(_network_dict(network)), written record by record: a
    parsed node or edge has one shape (str ids, int capacity and cost, a
    finite float transit time), so its text is one format.  Each id is
    encoded once, by json's own C string encoder; %d prints an int, of a
    subclass too, as json does, and %r of a float is float.__repr__, json's
    own float text."""
    ids = {nid: encode_basestring_ascii(nid) for nid, _ in network.nodes}
    nodes = [_NODE_TEXT[kind] % ids[nid] for nid, kind in network.nodes]
    edges = [
        _EDGE_TEXT % (cap, _milli(cost), ids[tail], ids[head], transit)
        for tail, head, cap, cost, transit in network.edges
    ]
    return '{"edges":[' + ",".join(edges) + '],"nodes":[' + ",".join(nodes) + "]}"


def _sections(scenario: Scenario, network) -> dict:
    """The canonical sections of `scenario`, the network section as
    network(scenario.network) gives it: the one list of what the canonical
    form and the digest hold."""
    out: dict[str, Any] = {
        "schema_version": scenario.schema_version,
        "name": scenario.name,
    }
    if scenario.description:
        out["description"] = scenario.description
    if scenario.metadata:
        out["metadata"] = scenario.metadata
    if scenario.network is not None:
        out["network"] = network(scenario.network)
    if scenario.stations is not None:
        out["stations"] = [
            {
                "id": s.station_id,
                "kind": s.kind.value,
                "mu_base": s.mu_base,
                "gamma": s.gamma,
                **({"vehicle_type": s.vehicle_type} if s.vehicle_type is not None else {}),
            }
            for s in scenario.stations
        ]
    if scenario.routing:
        out["routing"] = [
            {"from": frm, "to": to, "value": expr} for frm, to, expr in scenario.routing
        ]
    if scenario.nominal_p is not None:
        out["nominal_p"] = list(scenario.nominal_p)
    if scenario.nominal_fleet is not None:
        out["nominal_fleet"] = list(scenario.nominal_fleet.counts)
    if scenario.fleet_candidates is not None:
        out["fleet_candidates"] = [
            {"min": lo, "max": hi} for lo, hi in scenario.fleet_candidates.bounds
        ]
    if scenario.limits is not None:
        limits = _dataclass_public_dict(scenario.limits)
        if limits["p_neighborhood_radius"] is None:
            del limits["p_neighborhood_radius"]
        out["limits"] = limits
    if scenario.tasks is not None:
        out["tasks"] = [{**_dataclass_public_dict(t), "task_type": t.task_type.value} for t in scenario.tasks]
    if scenario.vehicles is not None:
        out["vehicles"] = [_dataclass_public_dict(v) for v in scenario.vehicles]
    if scenario.distances:
        out["distances"] = [
            {"from": frm, "to": to, "distance": dist}
            for (frm, to), dist in sorted(scenario.distances.items())
        ]
    out["metaheuristic_params"] = {
        "ga": _dataclass_public_dict(scenario.metaheuristic.ga),
        "sa": _dataclass_public_dict(scenario.metaheuristic.sa),
        "aco": _dataclass_public_dict(scenario.metaheuristic.aco),
    }
    if out["metaheuristic_params"]["ga"]["mutation_rate"] is None:
        del out["metaheuristic_params"]["ga"]["mutation_rate"]
    return out


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form; feeding it back reproduces an equal Scenario."""
    return _sections(scenario, _network_dict)


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def scenario_digest(scenario: Scenario) -> str:
    """SHA-256 over the canonical JSON form, canonical_json(scenario_to_dict(
    scenario)).  The text is joined section by section in sorted key order:
    the network section, one record per node and edge, comes from the
    fixed-shape writer _network_text, every other section from canonical_json."""
    text = ",".join(
        f'"{key}":' + (value if key == "network" else canonical_json(value))
        for key, value in sorted(_sections(scenario, _network_text).items())
    )
    return hashlib.sha256(("{" + text + "}").encode("utf-8")).hexdigest()


# --- bundled fixtures --------------------------------------------------------

def _fixture_root():
    return resources.files(__package__) / "fixtures"


def fixture_catalog() -> list[str]:
    """Names of the bundled scenarios, sorted."""
    names = []
    for entry in _fixture_root().iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def resolve_scenario_raw(ref: str) -> dict:
    """The decoded JSON document of the scenario file `ref`, or of the bundled
    fixture of that name when no such file exists; the one reader of
    scenario documents.  Raises IoError when neither can be read and
    ParseError when the text is not UTF-8 JSON."""
    try:
        text = Path(ref).read_text(encoding="utf-8")
    except FileNotFoundError:
        if ref not in fixture_catalog():
            raise IoError(
                f"scenario {shown(ref)} is neither a readable file nor a bundled fixture"
            ) from None
        text = (_fixture_root() / f"{ref}.json").read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario is not UTF-8 text: {exc}") from exc
    except (OSError, ValueError) as exc:
        # an OSError's own text repeats the path
        reason = getattr(exc, "strerror", None) or exc
        raise IoError(f"cannot read scenario file {shown(ref)}: {reason}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc


def load_fixture(name: str) -> Scenario:
    """The bundled scenario `name`, validated; a file of that name wins."""
    return scenario_from_dict(resolve_scenario_raw(name))


# --- report bundles ----------------------------------------------------------

@dataclass(frozen=True)
class CsvArtifact:
    name: str                      # file name, ends with .csv
    header: Sequence[str]
    rows: Sequence[Sequence]       # as a result's to_csv_rows gives them


@dataclass(frozen=True)
class JsonArtifact:
    name: str                      # file name, ends with .json
    payload: Any


@dataclass(frozen=True)
class ReportBundle:
    run_id: str
    inputs_digest: str
    artifacts: tuple


def _finite_json(value):
    """`value` with each non-finite float, in lists, tuples and dict values
    at any depth, replaced by its JSON-compatible name as a string."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def emit_report(bundle: ReportBundle, out_dir: str | Path) -> list[Path]:
    """Write every artifact; emission is deterministic byte for byte.

    CSV artifacts are UTF-8, comma-separated, LF line endings, with a
    `# inputs_digest=<hex>` comment line above the header so each file
    records the inputs it came from; JSON artifacts carry run_id and
    inputs_digest fields and are pretty-printed with sorted keys.  They are
    strict JSON: a non-finite float is written as the string "Infinity",
    "-Infinity" or "NaN".
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
    written: list[Path] = []
    for artifact in bundle.artifacts:
        if not isinstance(artifact, (CsvArtifact, JsonArtifact)):
            raise IoError(f"unknown artifact type {type(artifact)!r}")
        path = out_dir / artifact.name
        try:
            if isinstance(artifact, CsvArtifact):
                buf = io.StringIO()
                buf.write(f"# inputs_digest={bundle.inputs_digest}\n")
                writer = csv.writer(buf, lineterminator="\n")
                writer.writerow(artifact.header)
                writer.writerows(artifact.rows)
                path.write_bytes(buf.getvalue().encode("utf-8"))
            else:
                doc = {
                    "run_id": bundle.run_id,
                    "inputs_digest": bundle.inputs_digest,
                    "data": _finite_json(artifact.payload),
                }
                text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
                path.write_bytes((text + "\n").encode("utf-8"))
        except OSError as exc:
            raise IoError(f"cannot write artifact {path}: {exc}") from exc
        written.append(path)
    return written


def flow_csv_artifact(name: str, net, assignment) -> CsvArtifact:
    """Per-edge flow report; cost is the cost incurred on that edge."""
    rows = []
    for e in net.edges:
        kg = assignment.flow.get((e.tail, e.head), 0)
        c = e.cost_per_kg
        # int / int rounds correctly, so this is float(c * kg) without a Fraction
        rows.append((e.tail, e.head, str(e.capacity_kg), str(kg), str(c.numerator * kg / c.denominator)))
    return CsvArtifact(
        name=name,
        header=("from", "to", "capacity_kg", "flow_kg", "cost"),
        rows=tuple(rows),
    )
