"""Scenario files: one versioned JSON document describing a fab logistics case.

A scenario bundles up to five optional sections around a shared namespace of
node, station, task, and vehicle ids: the transport `network` (nodes and
integer-capacity edges, costs in integer milli-units per kg), the queueing
side (`stations`, `routing` bindings, `nominal_p`, `nominal_fleet`), the
planning side (`fleet_candidates`, `limits`), the scheduling side (`tasks`,
`vehicles`, `distances`, `metaheuristic_params`), and free-form `metadata`
(reference deltas, grid definitions; reported but never used as test
targets by library code).

Loading validates everything it can and reports every failure at once.
Serialization is canonical: stable key order, explicit parameter defaults,
so the SHA-256 `inputs_digest` changes exactly when a semantically
meaningful field changes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any

from .errors import (
    InvalidRouting,
    IoError,
    ParseError,
    SchemaVersionUnsupported,
    ValidationErrors,
)
from .netflow import Edge, NodeKind
from .queueing import (
    FleetConfig,
    StationKind,
    StationProfile,
    parse_routing_expr,
    routing_expr_to_str,
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

class _Collector:
    def __init__(self):
        self.problems: list[str] = []

    def add(self, message: str):
        self.problems.append(message)


def _req(raw: Mapping, key: str, kind, errs: _Collector, where: str):
    value = raw.get(key)
    if value is None:
        errs.add(f"{where}: missing required field '{key}'")
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        errs.add(f"{where}: field '{key}' has wrong type")
        return None
    if kind is float and not _finite(value):
        errs.add(f"{where}: field '{key}' must be finite")
        return None
    return value


def _finite(value) -> bool:
    """False for NaN, +-Infinity and ints too large for a float."""
    return abs(value) <= sys.float_info.max


def _opt_number(raw: Mapping, key: str, errs: _Collector, where: str):
    """Optional numeric field as a float: 0.0 when absent or null, None
    (with the problem collected) when it is not a finite number."""
    value = raw.get(key)
    if value is None:
        return 0.0
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not _finite(value):
        errs.add(f"{where}: field '{key}' must be a finite number")
        return None
    return float(value)


def _objects(raw, errs: _Collector, where: str) -> list[tuple[int, Mapping]]:
    """(index, entry) for every object in a list section; a section that is
    not a list, and entries that are not objects, are reported and skipped."""
    if not isinstance(raw, list):
        errs.add(f"{where}: must be a list")
        return []
    out = []
    for i, entry in enumerate(raw):
        if isinstance(entry, Mapping):
            out.append((i, entry))
        else:
            errs.add(f"{where}[{i}]: must be an object")
    return out


def _parse_network(raw, errs: _Collector) -> NetworkSection | None:
    if not isinstance(raw, Mapping):
        errs.add("network: must be an object with nodes and edges")
        return None
    nodes: list[tuple[str, NodeKind]] = []
    seen_nodes: set[str] = set()
    for i, nd in _objects(raw.get("nodes", []), errs, "network.nodes"):
        where = f"network.nodes[{i}]"
        nid = _req(nd, "id", str, errs, where)
        kind = _req(nd, "kind", str, errs, where)
        if nid is None or kind is None:
            continue
        if kind not in _NODE_KINDS:
            errs.add(f"{where}: unknown node kind '{kind}'")
            continue
        if nid in seen_nodes:
            errs.add(f"{where}: node id declared twice: {nid}")
            continue
        seen_nodes.add(nid)
        nodes.append((nid, _NODE_KINDS[kind]))
    edges: list[Edge] = []
    seen_pairs: set[tuple[str, str]] = set()
    for i, ed in _objects(raw.get("edges", []), errs, "network.edges"):
        where = f"network.edges[{i}]"
        frm = _req(ed, "from", str, errs, where)
        to = _req(ed, "to", str, errs, where)
        cap = _req(ed, "capacity_kg", int, errs, where)
        if frm is None or to is None or cap is None:
            continue
        cost_milli = ed.get("cost_milli_per_kg", 0)
        # every problem of this edge is collected, each message formatted
        # only when its check fails; any problem drops the edge
        found = len(errs.problems)
        if frm not in seen_nodes:
            errs.add(f"{where}: unknown node '{frm}'")
        if to not in seen_nodes:
            errs.add(f"{where}: unknown node '{to}'")
        if frm == to:
            errs.add(f"{where}: self loop on '{frm}'")
        if cap < 0:
            errs.add(f"{where}: capacity must be non-negative")
        if cap > _MAX_EDGE_INT:
            errs.add(f"{where}: capacity_kg must be at most 2**53 - 1")
        if not isinstance(cost_milli, int) or isinstance(cost_milli, bool) or cost_milli < 0:
            errs.add(f"{where}: cost_milli_per_kg must be a non-negative integer")
        elif cost_milli > _MAX_EDGE_INT:
            errs.add(f"{where}: cost_milli_per_kg must be at most 2**53 - 1")
        transit = _opt_number(ed, "transit_time_h", errs, where)
        if transit is not None and transit < 0:
            errs.add(f"{where}: transit_time_h must be non-negative")
        if (frm, to) in seen_pairs:
            errs.add(f"{where}: parallel edge {frm}->{to}")
        if len(errs.problems) > found:
            continue
        seen_pairs.add((frm, to))
        edges.append(
            Edge(
                tail=frm,
                head=to,
                capacity_kg=cap,
                cost_per_kg=Fraction(cost_milli, 1000),
                transit_time_h=transit,
            )
        )
    return NetworkSection(nodes=tuple(nodes), edges=tuple(edges))


def _parse_stations(raw, errs: _Collector):
    stations = []
    seen: set[str] = set()
    for i, st in _objects(raw, errs, "stations"):
        where = f"stations[{i}]"
        sid = _req(st, "id", str, errs, where)
        kind = _req(st, "kind", str, errs, where)
        mu = _req(st, "mu_base", float, errs, where)
        if sid is None or kind is None or mu is None:
            continue
        if kind not in ("process", "transport"):
            errs.add(f"{where}: unknown station kind '{kind}'")
            continue
        if sid in seen:
            errs.add(f"{where}: station id declared twice: {sid}")
            continue
        seen.add(sid)
        vt = st.get("vehicle_type")
        if kind == "transport" and vt is None:
            errs.add(f"{where}: transport station needs vehicle_type")
            continue
        gamma = _opt_number(st, "gamma", errs, where)
        if gamma is None:
            continue
        try:
            stations.append(
                StationProfile(
                    station_id=sid,
                    kind=StationKind(kind),
                    mu_base=float(mu),
                    gamma=gamma,
                    vehicle_type=vt,
                )
            )
        except InvalidRouting as exc:
            errs.add(f"{where}: {exc}")
    return tuple(stations)


def _parse_scalar_list(raw, errs: _Collector, where: str, integral: bool = False):
    out = []
    if not isinstance(raw, list):
        errs.add(f"{where}: must be a list")
        return None
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not _finite(v):
            errs.add(f"{where}[{i}]: must be a finite number")
            return None
        if integral and int(v) != v:
            errs.add(f"{where}[{i}]: must be an integer")
            return None
        out.append(int(v) if integral else float(v))
    return out


_PARAM_FIELDS = {
    "ga": GaParams,
    "sa": SaParams,
    "aco": AcoParams,
}


def _parse_params(raw, errs: _Collector) -> MetaheuristicParams:
    if raw is None:
        return MetaheuristicParams()
    if not isinstance(raw, Mapping):
        errs.add("metaheuristic_params: must be an object")
        return MetaheuristicParams()
    kwargs = {}
    for key, cls in _PARAM_FIELDS.items():
        sub = raw.get(key)
        if sub is None:
            kwargs[key] = cls()
            continue
        if not isinstance(sub, Mapping):
            errs.add(f"metaheuristic_params.{key}: must be an object")
            kwargs[key] = cls()
            continue
        allowed = set(cls.__dataclass_fields__)
        unknown = set(sub) - allowed
        if unknown:
            errs.add(f"metaheuristic_params.{key}: unknown fields {sorted(unknown)}")
            kwargs[key] = cls()
            continue
        try:
            kwargs[key] = cls(**sub)
        except (TypeError, ValueError) as exc:
            errs.add(f"metaheuristic_params.{key}: {exc}")
            kwargs[key] = cls()
    unknown_groups = set(raw) - set(_PARAM_FIELDS)
    if unknown_groups:
        errs.add(f"metaheuristic_params: unknown groups {sorted(unknown_groups)}")
    return MetaheuristicParams(**kwargs)


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
    errs = _Collector()
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        errs.add(f"unknown top-level sections: {sorted(unknown)}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        errs.add("scenario needs a non-empty string 'name'")
        name = ""
    description = raw.get("description", "")
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, Mapping):
        errs.add("metadata: must be an object")
        metadata = {}

    network = _parse_network(raw["network"], errs) if "network" in raw else None

    stations = _parse_stations(raw["stations"], errs) if "stations" in raw else None

    nominal_p = None
    if "nominal_p" in raw:
        values = _parse_scalar_list(raw["nominal_p"], errs, "nominal_p")
        if values is not None:
            for problem in wltp_errors(values):
                errs.add(f"nominal_p: {problem}")
            nominal_p = tuple(values)

    nominal_fleet = None
    if "nominal_fleet" in raw:
        counts = _parse_scalar_list(raw["nominal_fleet"], errs, "nominal_fleet", integral=True)
        if counts is not None:
            if any(c < 0 for c in counts):
                errs.add("nominal_fleet: counts must be non-negative")
            else:
                nominal_fleet = FleetConfig(counts=tuple(counts))

    fleet_candidates = None
    if "fleet_candidates" in raw:
        bounds = []
        ok = True
        for i, b in _objects(raw["fleet_candidates"], errs, "fleet_candidates"):
            where = f"fleet_candidates[{i}]"
            lo = _req(b, "min", int, errs, where)
            hi = _req(b, "max", int, errs, where)
            if lo is None or hi is None:
                ok = False
                continue
            if lo < 0 or hi < lo:
                errs.add(f"{where}: need 0 <= min <= max")
                ok = False
                continue
            bounds.append((lo, hi))
        if ok and bounds:
            fleet_candidates = FleetCandidateSpace(bounds=tuple(bounds))

    n_types = None
    if fleet_candidates is not None:
        n_types = len(fleet_candidates.bounds)
    elif nominal_fleet is not None:
        n_types = len(nominal_fleet.counts)
    if stations:
        for st in stations:
            if st.kind == StationKind.TRANSPORT:
                if not isinstance(st.vehicle_type, int):
                    errs.add(f"station {st.station_id}: vehicle_type must be an integer")
                elif n_types is not None and not (0 <= st.vehicle_type < n_types):
                    errs.add(
                        f"station {st.station_id}: vehicle_type {st.vehicle_type} "
                        f"outside the {n_types} declared fleet types"
                    )
                elif n_types is None:
                    errs.add(
                        f"station {st.station_id}: transport station declared but the "
                        "scenario has no nominal_fleet or fleet_candidates section"
                    )
        if nominal_p is None and "nominal_p" not in raw:
            errs.add("stations declared but nominal_p missing")

    routing: list[tuple[str, str, str]] = []
    if "routing" in raw:
        station_ids = {s.station_id for s in stations} if stations else set()
        seen_cells: set[tuple[str, str]] = set()
        for i, cell in _objects(raw["routing"], errs, "routing"):
            where = f"routing[{i}]"
            frm = _req(cell, "from", str, errs, where)
            to = _req(cell, "to", str, errs, where)
            expr = _req(cell, "value", str, errs, where)
            if frm is None or to is None or expr is None:
                continue
            if stations is not None and frm not in station_ids:
                errs.add(f"{where}: unknown station '{frm}'")
                continue
            if stations is not None and to not in station_ids:
                errs.add(f"{where}: unknown station '{to}'")
                continue
            if (frm, to) in seen_cells:
                errs.add(f"{where}: routing cell {frm}->{to} declared twice")
                continue
            try:
                factors = parse_routing_expr(expr)
            except InvalidRouting as exc:
                errs.add(f"{where}: {exc}")
                continue
            if nominal_p is not None:
                for kind, value in factors:
                    if kind in ("p", "comp") and not (0 <= value < len(nominal_p)):
                        errs.add(f"{where}: p index {value} outside nominal_p")
            seen_cells.add((frm, to))
            routing.append((frm, to, routing_expr_to_str(factors)))

    limits = None
    if "limits" in raw:
        lr = raw["limits"]
        if not isinstance(lr, Mapping):
            errs.add("limits: must be an object")
        elif unknown_l := set(lr) - set(PlannerLimits.__dataclass_fields__):
            errs.add(f"limits: unknown fields {sorted(unknown_l)}")
        else:
            try:
                limits = PlannerLimits(**lr)
            except ValidationErrors as exc:
                for problem in exc.errors:
                    errs.add(f"limits: {problem}")
            except TypeError as exc:
                errs.add(f"limits: {exc}")

    vehicles = None
    if "vehicles" in raw:
        vehicles = []
        seen_v: set[str] = set()
        for i, vd in _objects(raw["vehicles"], errs, "vehicles"):
            where = f"vehicles[{i}]"
            vid = _req(vd, "vehicle_id", str, errs, where)
            speed = _req(vd, "speed", float, errs, where)
            if vid is None or speed is None:
                continue
            if vid in seen_v:
                errs.add(f"{where}: vehicle id declared twice: {vid}")
                continue
            seen_v.add(vid)
            extras = {
                key: _opt_number(vd, key, errs, where)
                for key in ("load_time_h", "unload_time_h", "cost_rate")
            }
            if None in extras.values():
                continue
            try:
                vehicles.append(VehicleSpec(vehicle_id=vid, speed=float(speed), **extras))
            except ValidationErrors as exc:
                for problem in exc.errors:
                    errs.add(f"{where}: {problem}")
        vehicles = tuple(vehicles)

    distances: dict[tuple[str, str], float] = {}
    if "distances" in raw:
        for i, dd in _objects(raw["distances"], errs, "distances"):
            where = f"distances[{i}]"
            frm = _req(dd, "from", str, errs, where)
            to = _req(dd, "to", str, errs, where)
            dist = _req(dd, "distance", float, errs, where)
            if frm is None or to is None or dist is None:
                continue
            if frm == to:
                errs.add(f"{where}: distance from a node to itself")
                continue
            if dist < 0:
                errs.add(f"{where}: distance must be non-negative")
                continue
            if (frm, to) in distances:
                errs.add(f"{where}: distance {frm}->{to} declared twice")
                continue
            distances[(frm, to)] = float(dist)

    tasks = None
    if "tasks" in raw:
        tasks = []
        seen_t: set[str] = set()
        node_ids = {nid for nid, _ in network.nodes} if network else None
        for i, td in _objects(raw["tasks"], errs, "tasks"):
            where = f"tasks[{i}]"
            tid = _req(td, "task_id", str, errs, where)
            ttype = _req(td, "task_type", str, errs, where)
            origin = _req(td, "origin", str, errs, where)
            dest = _req(td, "destination", str, errs, where)
            mass = _req(td, "lot_mass_kg", float, errs, where)
            if None in (tid, ttype, origin, dest, mass):
                continue
            if tid in seen_t:
                errs.add(f"{where}: task id declared twice: {tid}")
                continue
            try:
                task_type = TaskType(ttype)
            except ValueError:
                errs.add(f"{where}: unknown task type '{ttype}'")
                continue
            if node_ids is not None:
                if origin not in node_ids:
                    errs.add(f"{where}: origin '{origin}' is not a network node")
                if dest not in node_ids:
                    errs.add(f"{where}: destination '{dest}' is not a network node")
            if distances and (origin, dest) not in distances:
                errs.add(f"{where}: no distance entry for {origin}->{dest}")
            seen_t.add(tid)
            baseline = _opt_number(td, "baseline_duration_h", errs, where)
            if baseline is None:
                continue
            try:
                tasks.append(
                    TransportTask(
                        task_id=tid,
                        task_type=task_type,
                        origin=origin,
                        destination=dest,
                        lot_mass_kg=float(mass),
                        baseline_duration_h=baseline,
                    )
                )
            except ValidationErrors as exc:
                for problem in exc.errors:
                    errs.add(f"{where}: {problem}")
        tasks = tuple(tasks)

    metaheuristic = _parse_params(raw.get("metaheuristic_params"), errs)

    if errs.problems:
        raise ValidationErrors(errs.problems)
    return Scenario(
        schema_version=version,
        name=name,
        description=description,
        metadata=dict(metadata),
        network=network,
        stations=stations,
        routing=tuple(routing),
        nominal_p=nominal_p,
        nominal_fleet=nominal_fleet,
        fleet_candidates=fleet_candidates,
        limits=limits,
        tasks=tasks,
        vehicles=vehicles,
        distances=distances,
        metaheuristic=metaheuristic,
    )


def load_scenario_text(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read scenario file {path}: {exc}") from exc
    return load_scenario_text(text)


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
                    "cost_milli_per_kg": int(e.cost_per_kg * 1000),
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


def load_fixture(name: str) -> Scenario:
    entry = _fixture_root() / f"{name}.json"
    try:
        text = entry.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise IoError(f"no bundled fixture named '{name}'") from exc
    return load_scenario_text(text)


def resolve_scenario_raw(ref: str) -> dict:
    """Raw (unvalidated) scenario dict from a file path or fixture name."""
    path = Path(ref)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot read scenario file {path}: {exc}") from exc
    elif ref in fixture_catalog():
        text = (_fixture_root() / f"{ref}.json").read_text(encoding="utf-8")
    else:
        raise IoError(f"scenario '{ref}' is neither a readable file nor a bundled fixture")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    return raw


def resolve_scenario(ref: str) -> Scenario:
    """Treat `ref` as a file path when one exists, else as a fixture name."""
    return scenario_from_dict(resolve_scenario_raw(ref))


# --- report bundles ----------------------------------------------------------

@dataclass(frozen=True)
class CsvArtifact:
    name: str                      # file name, ends with .csv
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class JsonArtifact:
    name: str                      # file name, ends with .json
    payload: Any


@dataclass(frozen=True)
class ReportBundle:
    run_id: str
    inputs_digest: str
    artifacts: tuple


def emit_report(bundle: ReportBundle, out_dir: str | Path) -> list[Path]:
    """Write every artifact; emission is deterministic byte for byte.

    CSV artifacts are UTF-8, comma-separated, LF line endings, with a
    `# inputs_digest=<hex>` comment line above the header so each file
    records the inputs it came from; JSON artifacts carry run_id and
    inputs_digest fields and are pretty-printed with sorted keys.
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
                    "data": artifact.payload,
                }
                path.write_bytes(
                    (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
                )
        except OSError as exc:
            raise IoError(f"cannot write artifact {path}: {exc}") from exc
        written.append(path)
    return written


def flow_csv_artifact(name: str, net, assignment) -> CsvArtifact:
    """Per-edge flow report; cost is the cost incurred on that edge."""
    rows = []
    for e in net.edges:
        kg = assignment.flow.get((e.tail, e.head), 0)
        rows.append(
            (e.tail, e.head, str(e.capacity_kg), str(kg), str(float(e.cost_per_kg * kg)))
        )
    return CsvArtifact(
        name=name,
        header=("from", "to", "capacity_kg", "flow_kg", "cost"),
        rows=tuple(rows),
    )
