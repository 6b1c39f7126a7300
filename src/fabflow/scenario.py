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
as `network.edges[3]`.  The parser itself checks only the JSON shape and
the leaf types, the file-format rules (known kinds, the edge-number bound,
unique routing cells, vehicles, distances and tasks) and the references
between sections.  Every value rule of an entity lives with its type: the
constructors and the `*_errors` rule functions of `netflow` (nodes, edges),
`queueing` (stations, routing cells, fleets, transfer probabilities),
`robust_planner` (candidate ranges, limits) and `scheduler` (tasks,
vehicles, search parameters).

Serialization is canonical: stable key order, explicit parameter defaults,
so the SHA-256 `inputs_digest` changes exactly when a semantically
meaningful field changes.
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


def _fields(cls, raw, errs: list[str], where: str):
    """cls(**raw) for an object whose keys are fields of the dataclass cls,
    or None with its problems reported under `where`."""
    if not isinstance(raw, Mapping):
        errs.append(f"{where}: must be an object")
        return None
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        errs.append(f"{where}: unknown fields {sorted(unknown)}")
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
    nodes: dict[str, NodeKind] = {}
    for i, nd in _objects(raw.get("nodes", []), errs, "network.nodes"):
        where = f"network.nodes[{i}]"
        nid = _req(nd, "id", str, errs, where)
        kind = _req(nd, "kind", str, errs, where)
        if nid is None or kind is None:
            continue
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
        where = f"network.edges[{i}]"
        frm = _req(ed, "from", str, errs, where)
        to = _req(ed, "to", str, errs, where)
        cap = _req(ed, "capacity_kg", int, errs, where)
        # unlike the optional floats, a null cost is no default
        cost = _req(ed, "cost_milli_per_kg", int, errs, where) if "cost_milli_per_kg" in ed else 0
        transit = _req(ed, "transit_time_h", float, errs, where, default=0.0)
        if frm is None or to is None or cap is None or cost is None or transit is None:
            continue
        if cost not in per_kg:
            per_kg[cost] = Fraction(cost, 1000)
        edge = Edge(frm, to, cap, per_kg[cost], transit)
        problems = edge_errors(edge, nodes, pairs)
        if cap > _MAX_EDGE_INT or cost > _MAX_EDGE_INT:
            problems += [
                f"{name} must be at most 2**53 - 1"
                for name, value in (("capacity_kg", cap), ("cost_milli_per_kg", cost))
                if value > _MAX_EDGE_INT
            ]
        if problems:
            _report(errs, where, problems)
        else:
            edges.append(edge)
        pairs.add((frm, to))
    return NetworkSection(nodes=tuple(nodes.items()), edges=tuple(edges))


def _parse_stations(raw, errs: list[str]) -> tuple[StationProfile, ...]:
    stations = []
    ids: set[str] = set()
    for i, st in _objects(raw, errs, "stations"):
        where = f"stations[{i}]"
        sid = _req(st, "id", str, errs, where)
        kind = _req(st, "kind", str, errs, where)
        mu = _req(st, "mu_base", float, errs, where)
        gamma = _req(st, "gamma", float, errs, where, default=0.0)
        if None in (sid, kind, mu, gamma):
            continue
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
                f"station {st.station_id}: vehicle_type {vt} "
                f"outside the {n_types} declared fleet types"
            )


def _parse_candidates(raw, errs: list[str]) -> FleetCandidateSpace | None:
    bounds = []
    for i, b in _objects(raw, errs, "fleet_candidates"):
        where = f"fleet_candidates[{i}]"
        bounds.append((_req(b, "min", int, errs, where), _req(b, "max", int, errs, where)))
    if not bounds or len(bounds) != len(raw) or any(None in b for b in bounds):
        return None
    return _build(errs, "fleet_candidates", FleetCandidateSpace, tuple(bounds))


def _parse_routing(raw, errs: list[str], stations, nominal_p) -> tuple[tuple[str, str, str], ...]:
    station_ids = None if stations is None else {s.station_id for s in stations}
    dim = None if nominal_p is None else len(nominal_p)
    routing = []
    cells: set[tuple[str, str]] = set()
    for i, cell in _objects(raw, errs, "routing"):
        where = f"routing[{i}]"
        frm = _req(cell, "from", str, errs, where)
        to = _req(cell, "to", str, errs, where)
        expr = _req(cell, "value", str, errs, where)
        if None in (frm, to, expr):
            continue
        factors = _build(errs, where, parse_routing_expr, expr)
        if factors is not None and not _report(
            errs, where, binding_errors(frm, to, factors, station_ids, dim, cells)
        ):
            routing.append((frm, to, routing_expr_to_str(factors)))
        cells.add((frm, to))
    return tuple(routing)


def _parse_vehicles(raw, errs: list[str]) -> tuple[VehicleSpec, ...]:
    vehicles = []
    ids: set[str] = set()
    for i, vd in _objects(raw, errs, "vehicles"):
        where = f"vehicles[{i}]"
        vid = _req(vd, "vehicle_id", str, errs, where)
        speed = _req(vd, "speed", float, errs, where)
        extras = {
            key: _req(vd, key, float, errs, where, default=0.0)
            for key in ("load_time_h", "unload_time_h", "cost_rate")
        }
        if None in (vid, speed, *extras.values()) or not _new(vid, ids, errs, where, "vehicle id"):
            continue
        vehicle = _build(errs, where, VehicleSpec, vehicle_id=vid, speed=speed, **extras)
        if vehicle is not None:
            vehicles.append(vehicle)
    return tuple(vehicles)


def _parse_distances(raw, errs: list[str]) -> dict[tuple[str, str], float]:
    distances: dict[tuple[str, str], float] = {}
    pairs: set[tuple[str, str]] = set()
    for i, dd in _objects(raw, errs, "distances"):
        where = f"distances[{i}]"
        frm = _req(dd, "from", str, errs, where)
        to = _req(dd, "to", str, errs, where)
        dist = _req(dd, "distance", float, errs, where)
        if None in (frm, to, dist):
            continue
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
    for i, td in _objects(raw, errs, "tasks"):
        where = f"tasks[{i}]"
        tid = _req(td, "task_id", str, errs, where)
        ttype = _req(td, "task_type", str, errs, where)
        origin = _req(td, "origin", str, errs, where)
        dest = _req(td, "destination", str, errs, where)
        mass = _req(td, "lot_mass_kg", float, errs, where)
        baseline = _req(td, "baseline_duration_h", float, errs, where, default=0.0)
        if None in (tid, ttype, origin, dest, mass, baseline) or not _new(
            tid, ids, errs, where, "task id"
        ):
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
    routing = _parse_routing(raw["routing"], errs, stations, nominal_p) if "routing" in raw else ()
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
        description=raw.get("description", ""),
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


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form; feeding it back reproduces an equal Scenario."""
    out: dict[str, Any] = {
        "schema_version": scenario.schema_version,
        "name": scenario.name,
    }
    if scenario.description:
        out["description"] = scenario.description
    if scenario.metadata:
        out["metadata"] = scenario.metadata
    if scenario.network is not None:
        out["network"] = {
            "nodes": [
                {"id": nid, "kind": _KIND_NAMES[kind]} for nid, kind in scenario.network.nodes
            ],
            "edges": [
                {
                    "from": e.tail,
                    "to": e.head,
                    "capacity_kg": e.capacity_kg,
                    # int(cost * 1000) for a non-negative cost, without a Fraction multiply
                    "cost_milli_per_kg": e.cost_per_kg.numerator * 1000 // e.cost_per_kg.denominator,
                    "transit_time_h": e.transit_time_h,
                }
                for e in scenario.network.edges
            ],
        }
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
        out["tasks"] = [
            {
                "task_id": t.task_id,
                "task_type": t.task_type.value,
                "origin": t.origin,
                "destination": t.destination,
                "lot_mass_kg": t.lot_mass_kg,
                "baseline_duration_h": t.baseline_duration_h,
            }
            for t in scenario.tasks
        ]
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


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def scenario_digest(scenario: Scenario) -> str:
    """SHA-256 over the canonical JSON form."""
    return hashlib.sha256(canonical_json(scenario_to_dict(scenario)).encode("utf-8")).hexdigest()


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
