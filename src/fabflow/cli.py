"""Command line front end.

One subcommand per analysis; every run prints a single ``key=value`` line to
stdout and optionally writes artifacts under ``--out``.  Exit codes: 0 for
success, 1 when the scenario or arguments are malformed, 2 when the inputs
parse fine but the model has no feasible answer.  Runs are deterministic:
the same invocation produces byte-identical stdout and artifacts, keyed by
a run id derived from the scenario digest, the subcommand, and the seed.

Each analysis is one section function ``(scenario, args) -> (stdout pairs,
artifacts)``.  A section's stdout pairs are named fields of the summary it
writes as its ``*_summary.json`` artifact, formatted by ``_fmt``, so what a
run prints and what it writes cannot disagree.  A subcommand runs one
section through ``_run``, which owns loading, validation, the digest, the
run id and emission; ``report`` runs every section the scenario supports.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import netflow, queueing, robust_planner, scheduler
from .errors import InfeasibleError, ScenarioValidationError, ValidationErrors
from .scenario import (
    CsvArtifact,
    JsonArtifact,
    ReportBundle,
    canonical_json,
    emit_report,
    fixture_catalog,
    flow_csv_artifact,
    scenario_digest,
    scenario_from_dict,
    resolve_scenario_raw,
)

DEFAULT_SEED = 42
DEFAULT_BENCH_SEEDS = "1,2,3,4,5,6,7,8,9,10"


def _apply_override(raw: dict, spec: str):
    if "=" not in spec:
        raise ValidationErrors([f"override '{spec}' is not of the form key=value"])
    dotted, _, text = spec.partition("=")
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        value = text  # bare strings need no quoting, nor does what JSON cannot read
    node = raw
    parts = dotted.split(".")
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(node, list):
            try:
                idx = int(part)
            except ValueError:
                raise ValidationErrors(
                    [f"override '{spec}': '{part}' indexes a list and must be an integer"]
                )
            if not (0 <= idx < len(node)):
                raise ValidationErrors([f"override '{spec}': index {idx} out of range"])
            if last:
                node[idx] = value
            else:
                node = node[idx]
        elif isinstance(node, dict):
            if last:
                node[part] = value
            else:
                if part not in node:
                    node[part] = {}
                node = node[part]
        else:
            raise ValidationErrors(
                [f"override '{spec}': '{part}' descends into a non-container value"]
            )


def _run_id(digest: str, command: str, seed, extra: dict) -> str:
    payload = canonical_json(
        {"digest": digest, "command": command, "seed": seed, "extra": extra}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _printed(summary: dict, *keys: str) -> list[tuple[str, str]]:
    """The stdout pairs of the named fields of a section's summary."""
    return [(key, _fmt(summary[key])) for key in keys]


def _parse_seeds(text: str) -> list[int]:
    """The type of --seeds; argparse passes a ValidationErrors on as raised."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationErrors([f"--seeds must be a comma-separated integer list, got '{text}'"])


def _fleet_of(scenario) -> queueing.FleetConfig:
    if scenario.nominal_fleet is not None:
        return scenario.nominal_fleet
    return queueing.FleetConfig(counts=())


def _limits_of(scenario) -> robust_planner.PlannerLimits:
    if scenario.limits is not None:
        return scenario.limits
    # permissive defaults for ad hoc adversarial runs on fixtures without a
    # limits section; worstcase reads only p_neighborhood_radius from them
    return robust_planner.PlannerLimits(
        c_max=1,
        w_star=float("inf"),
        u=float("inf"),
        delta_wip_max=float("inf"),
    )


# --- sections: (scenario, args) -> (stdout pairs, artifacts) -----------------

def maxflow(scenario, args):
    net = netflow.build_network(scenario)
    fa = netflow.max_flow(net)
    summary = {
        "value_kg": fa.value,
        "cut_capacity_kg": fa.cut_capacity,
        "cut_source_side": sorted(fa.source_side),
    }
    return _printed(summary, "value_kg", "cut_capacity_kg"), [
        flow_csv_artifact("maxflow_edges.csv", net, fa),
        JsonArtifact("maxflow_summary.json", summary),
    ]


def mincost(scenario, args):
    net = netflow.build_network(scenario)
    fa = netflow.min_cost_flow(net, args.demand)
    summary = {"demand_kg": args.demand, "cost": float(netflow.flow_cost(net, fa))}
    return _printed(summary, "demand_kg", "cost"), [
        flow_csv_artifact("mincost_edges.csv", net, fa),
        JsonArtifact("mincost_summary.json", summary),
    ]


def wip(scenario, args):
    model = queueing.build_routing_model(scenario)
    report = queueing.wip(model, scenario.nominal_p, _fleet_of(scenario))
    stations = {
        sid: {"wip": w, "utilization": u}
        for sid, w, u in zip(report.station_ids, report.per_station_wip, report.utilizations)
    }
    summary = {"total_wip": report.total_wip, "stations": stations}
    return _printed(summary, "total_wip"), [
        CsvArtifact("wip_stations.csv", *report.to_csv_rows()),
        JsonArtifact("wip_summary.json", summary),
    ]


def monotonicity(scenario, args):
    # only report runs this section, so it prints nothing of its own
    model = queueing.build_routing_model(scenario)
    grid = queueing.grid_from_axes(
        scenario.metadata["monotonicity_grid"]["free_axes"], len(scenario.nominal_p)
    )
    audit = queueing.check_monotonicity(model, grid, _fleet_of(scenario))
    summary = {
        "grid_points": audit.grid_points,
        "claims": dict(audit.claim_passed),
        "violations": len(audit.violations),
    }
    return [], [
        CsvArtifact("monotonicity_lines.csv", *audit.to_csv_rows()),
        JsonArtifact("monotonicity_summary.json", summary),
    ]


def worstcase(scenario, args):
    model = queueing.build_routing_model(scenario)
    wc = robust_planner.worst_case_direction(
        model, _fleet_of(scenario), _limits_of(scenario), scenario.nominal_p
    )
    summary = wc.to_dict()
    return _printed(summary, "v_star", "p_star"), [JsonArtifact("worstcase_summary.json", summary)]


def plan(scenario, args):
    model = queueing.build_routing_model(scenario)
    if scenario.fleet_candidates is None or scenario.limits is None:
        raise ValidationErrors(
            ["planning needs fleet_candidates and limits sections in the scenario"]
        )
    result = robust_planner.plan_fleet(
        model, scenario.fleet_candidates, scenario.limits, scenario.nominal_p
    )
    summary = result.to_dict()
    return _printed(summary, "c_star", "v_star", "nominal_wip", "search_mode"), [
        CsvArtifact("plan_candidates.csv", *result.to_csv_rows()),
        JsonArtifact("plan_summary.json", summary),
    ]


def schedule(scenario, args):
    inst = scheduler.SchedulingInstance.from_scenario(scenario)
    params = getattr(scenario.metaheuristic, args.method)
    if args.method == "ga":
        front = scheduler.ga_optimize(inst, params, args.seed)
        _, best_mk = front.best_by("makespan_h")
        _, best_cost = front.best_by("total_cost")
        summary = {
            "method": "ga",
            "front_size": len(front.members),
            "best_makespan_h": best_mk.makespan_h,
            "best_cost": best_cost.total_cost,
        }
        return _printed(summary, *summary), [
            CsvArtifact("schedule_front.csv", *front.to_csv_rows()),
            JsonArtifact("schedule_summary.json", summary),
        ]
    run = scheduler.sa_optimize if args.method == "sa" else scheduler.aco_optimize
    result = run(inst, params, args.seed)
    summary = {
        "method": args.method,
        "makespan_h": result.objectives.makespan_h,
        "total_cost": result.objectives.total_cost,
        "scalar_score": result.scalar_score,
        "assignment": dict(sorted(result.assignment.mapping.items())),
    }
    # stdout shows every field but the assignment, which comes last
    return _printed(summary, *list(summary)[:-1]), [
        JsonArtifact("schedule_summary.json", summary)
    ]


def bench(scenario, args):
    mh = scenario.metaheuristic
    table = scheduler.benchmark(scenario, args.seeds, mh.ga, mh.sa, mh.aco)
    columns = ("before_hours", "after_hours", "before_cost", "after_cost")
    summary = {m: dict(zip(columns, table.aggregate(m))) for m in ("ga", "sa", "aco")}
    ga = summary["ga"]
    return [
        ("before_hours", _fmt(ga["before_hours"])),
        *((f"{m}_after_hours", _fmt(summary[m]["after_hours"])) for m in summary),
        ("before_cost", _fmt(ga["before_cost"])),
        ("ga_after_cost", _fmt(ga["after_cost"])),
    ], [
        CsvArtifact("bench_table.csv", *table.to_csv_rows()),
        JsonArtifact("bench_summary.json", summary),
    ]


def _has_grid(scenario) -> bool:
    spec = scenario.metadata.get("monotonicity_grid")
    return isinstance(spec, dict) and "free_axes" in spec


# report's sections in order: (name, section, whether the scenario supports it)
_REPORT_SECTIONS = (
    ("flow", maxflow, lambda sc: sc.network is not None),
    ("wip", wip, lambda sc: sc.stations is not None),
    ("monotonicity", monotonicity, lambda sc: sc.stations is not None and _has_grid(sc)),
    ("plan", plan, lambda sc: None not in (sc.stations, sc.fleet_candidates, sc.limits)),
)


def report(scenario, args):
    sections, artifacts = [], []
    for name, section, applies in _REPORT_SECTIONS:
        if applies(scenario):
            artifacts.extend(section(scenario, args)[1])
            sections.append(name)
    if not artifacts:
        raise ValidationErrors(
            ["scenario has no reportable sections (network or stations)"]
        )
    deltas = scenario.metadata.get("reference_deltas")
    if isinstance(deltas, dict) and deltas:
        # quoted source figures ride along verbatim; nothing downstream
        # treats them as targets
        artifacts.append(JsonArtifact("reference_deltas.json", dict(deltas)))
        sections.append("reference")
    return [("sections", ",".join(sections)), ("artifacts", str(len(artifacts)))], artifacts


# --- pipeline and wiring -----------------------------------------------------

# subcommand -> (help, section, options that the run id records); fixtures
# has no section because it reads no scenario
_COMMANDS = {
    "maxflow": ("maximum shipment throughput and the binding cut", maxflow, ()),
    "mincost": ("cheapest routing of a fixed demand", mincost, ("demand",)),
    "wip": ("steady-state WIP at the nominal operating point", wip, ()),
    "worstcase": ("adversarial transfer direction search", worstcase, ()),
    "plan": ("fleet sizing under the scenario limits", plan, ()),
    "schedule": ("optimize the dispatch of the scenario's tasks", schedule, ("method",)),
    "bench": ("before/after dispatch benchmark per task type", bench, ("seeds",)),
    "fixtures": ("list bundled scenarios", None, ()),
    "report": ("emit every report the scenario supports", report, ()),
}

_OPTIONS = {
    "demand": {"type": int, "required": True, "help": "kg to ship"},
    "method": {"choices": ("ga", "sa", "aco"), "default": "ga"},
    "seeds": {
        "type": _parse_seeds, "default": DEFAULT_BENCH_SEEDS, "help": "comma-separated seed list"
    },
}


def _run(args) -> list[tuple[str, str]]:
    """Load, validate and digest the scenario, run the subcommand's section,
    then emit its artifacts under the run id and return its stdout pairs."""
    _, section, options = _COMMANDS[args.command]
    if section is None:
        return [("fixtures", ",".join(fixture_catalog()))]
    raw = resolve_scenario_raw(args.scenario)
    for spec in args.set or []:
        _apply_override(raw, spec)
    scenario = scenario_from_dict(raw)
    digest = scenario_digest(scenario)
    pairs, artifacts = section(scenario, args)
    run_id = _run_id(digest, args.command, args.seed, {o: getattr(args, o) for o in options})
    if args.out:
        emit_report(ReportBundle(run_id, digest, tuple(artifacts)), args.out)
    return [*pairs, ("run_id", run_id)]


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input, so they exit 1 like any other
    validation problem instead of argparse's default 2."""

    def error(self, message):
        raise ValidationErrors([f"usage: {message}"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fabflow",
        description="Fab logistics analysis: network flow, queueing, fleet planning, dispatch.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, section, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        if section is not None:
            sub.add_argument("--scenario", required=True, help="scenario file path or fixture name")
            sub.add_argument(
                "--set",
                action="append",
                metavar="KEY=VALUE",
                help="dotted override applied to the scenario before validation",
            )
            sub.add_argument("--out", help="directory for report artifacts")
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        for option in options:
            sub.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused by the later ones
    in the process: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        pairs = _run(_parser().parse_args(argv))
    except ScenarioValidationError as exc:
        print(f"error={exc.code}")
        print(str(exc), file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"error={exc.code}")
        print(str(exc), file=sys.stderr)
        return 2
    print(" ".join(f"{k}={v}" for k, v in pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
