"""The three workloads as fixed, seeded lists of questions.

A question is one user-facing call: one ``cli.main`` invocation, one
``plan_fleet``, one ``worst_case_direction`` or one ``benchmark`` (through
``fabflow bench``).  Each carries a check, run on its first answer, and a
fingerprint, which every repeat of the question must reproduce exactly.
Inputs are generated before any timing starts and written under the run's
work directory; their ``scenario_digest`` values are recorded.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import verify

PLAN_HUB_DIMS = (4, 5, 6) * 3
# Ascent effort per hub question: every start runs at most this many steps,
# so one question costs about the same on every seed.
PLAN_HUB_STARTS = 4
PLAN_HUB_MAX_ITERS = 25
QUERY_NET_SIZES = (50, 85, 120, 155, 190, 225, 260, 300)
QUERY_INFEASIBLE_SIZES = (50,)
# A feasible mincost demand ends inside this successive-shortest-path step,
# so its cost depends on network size and little on the seed.
QUERY_MINCOST_PATHS = 20
QUERY_HUBS = ((3, 20), (4, 7), (5, 4))   # (dim, grid values per free coordinate)
# The 14-dim probe ascent is kept short: it only has to show that the
# dimension is handled and the answer is right.
PROBE_WIDE_STARTS = 2
PROBE_WIDE_MAX_ITERS = 5


@dataclass
class Question:
    qid: str
    ask: Callable[[], object]
    check: Callable[[object], str | None]
    fingerprint: Callable[[object], str]


@dataclass
class Workload:
    name: str
    questions: list[Question]
    inputs: list[tuple[str, str]]                   # (label, digest)
    # checks over all first answers together: name -> fn() -> reason
    joint_checks: dict[str, Callable[[], str | None]] = field(default_factory=dict)
    # known-crash probes, asked once outside the timed loop
    probes: list[Question] = field(default_factory=list)
    summary: Callable[[], dict] = dict


def run_cli(argv: list[str]) -> tuple[int, str]:
    from fabflow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def cli_fingerprint(answer) -> str:
    rc, stdout = answer
    return f"{rc}\n{stdout}"


def _digest(raw: dict) -> str:
    from fabflow.scenario import scenario_digest, scenario_from_dict

    return scenario_digest(scenario_from_dict(raw))


def _write(path: Path, raw) -> str:
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw, indent=1), encoding="utf-8")
    return str(path)


# --- plan ---------------------------------------------------------------------

def plan(seed, work: Path) -> Workload:
    import numpy as np
    from fabflow import queueing, robust_planner
    from fabflow.scenario import load_fixture, scenario_digest, scenario_from_dict

    small = load_fixture("planner_small")
    small_model = queueing.build_routing_model(small)
    p_small = np.asarray(small.nominal_p)
    inputs = [("planner_small", scenario_digest(small))]

    def ask_plan():
        return robust_planner.plan_fleet(small_model, small.fleet_candidates, small.limits, p_small)

    plan_q = Question(
        "plan_fleet:planner_small",
        ask_plan,
        verify.check_plan,
        lambda r: json.dumps(r.to_dict(), sort_keys=True),
    )
    hubs = []
    for k, dim in enumerate(PLAN_HUB_DIMS):
        raw = gen.hub_model(f"{seed}:{k}", dim)
        sc = scenario_from_dict(raw)
        inputs.append((raw["name"], scenario_digest(sc)))
        model = queueing.build_routing_model(sc)
        count = raw["nominal_fleet"][0]
        limits = robust_planner.PlannerLimits(
            c_max=count, w_star=float("inf"), u=float("inf"), delta_wip_max=float("inf")
        )

        def ask(model=model, fleet=sc.nominal_fleet, limits=limits, p=np.asarray(sc.nominal_p)):
            return robust_planner.worst_case_direction(
                model, fleet, limits, p, starts=PLAN_HUB_STARTS, max_iters=PLAN_HUB_MAX_ITERS
            )

        hubs.append(
            Question(
                f"worst_case_direction:{raw['name']}",
                ask,
                lambda wc, raw=raw: verify.check_worst_case(raw, wc),
                lambda wc: json.dumps(wc.to_dict(), sort_keys=True),
            )
        )
    # plan_fleet sits between the ascents, so their times sample two stretches
    # of the run and one slow stretch of a shared machine moves fewer of them
    half = (len(hubs) + 1) // 2
    return Workload("plan", hubs[:half] + [plan_q] + hubs[half:], inputs)


# --- dispatch -----------------------------------------------------------------

def dispatch(seed, work: Path) -> Workload:
    from fabflow.scenario import load_fixture, scenario_digest

    scenario = load_fixture("table1_bench")
    seeds = gen.dispatch_seeds(seed)
    baseline = json.loads((Path(__file__).parent / "dispatch_baseline.json").read_text(encoding="utf-8"))
    if baseline["scenario_digest"] != scenario_digest(scenario):
        raise RuntimeError("table1_bench changed since dispatch_baseline.json was recorded")
    inputs = [("table1_bench", scenario_digest(scenario)), ("bench_seeds", ",".join(map(str, seeds)))]
    questions = []
    for s in seeds:
        out = work / f"bench_{s}"
        argv = ["bench", "--scenario", "table1_bench", "--seeds", str(s), "--out", str(out)]

        def check(answer, s=s, out=out):
            rc, stdout = answer
            if rc != 0:
                return f"exit {rc}"
            table = verify.read_bench_table(out)
            return verify.check_bench_answer(stdout, table) or verify.rerun_dispatch_seed(
                scenario, s, table
            )

        questions.append(Question(f"bench:{s}", lambda argv=argv: run_cli(argv), check, cli_fingerprint))

    def tables():
        return [verify.read_bench_table(work / f"bench_{s}") for s in seeds]

    def quality():
        return verify.check_dispatch_quality(seeds, verify.aggregates(tables()), baseline)

    def summary():
        agg = verify.aggregates(tables())
        return {k: agg[k] for k in ("ga_after_hours", "sa_after_hours", "aco_after_hours", "ga_after_cost")}

    return Workload("dispatch", questions, inputs, {"dispatch_quality": quality}, summary=summary)


# --- queries --------------------------------------------------------------------

def _malformed(net_path: str, hub_path: str, hub_raw: dict, work: Path):
    """Argument lists for malformed inputs, each expected to exit 1.

    All of them are asked on every seed: with these small questions more
    than half of the mix, the median question is a small one, whose time
    is mostly ``cli`` and ``scenario`` work and does not hinge on which
    freight networks a seed draws.
    """
    dim = len(hub_raw["nominal_p"])
    broken = _write(work / "inputs" / "truncated.json", json.dumps(hub_raw)[:-25])
    return [
        ["wip", "--scenario", broken],
        ["maxflow", "--scenario", str(work / "inputs" / "absent.json")],
        ["wip", "--scenario", hub_path, "--set", "nominal_p.0=x"],
        ["wip", "--scenario", hub_path, "--set", "nominal_p.0=1.5"],
        ["wip", "--scenario", hub_path, "--set", f"nominal_p.{dim - 1}=-0.25"],
        ["wip", "--scenario", hub_path, "--set", "nominal_p={}"],
        ["wip", "--scenario", hub_path, "--set", f"nominal_p.{dim + 3}=0.1"],
        ["wip", "--scenario", hub_path, "--set", "stations.1.mu_base=-1"],
        ["wip", "--scenario", hub_path, "--set", "stations.0.mu_base=0"],
        ["wip", "--scenario", hub_path, "--set", "nominal_fleet.0=1.5"],
        ["wip", "--scenario", hub_path, "--set", "stations.1.vehicle_type=x"],
        ["wip", "--scenario", hub_path, "--set", f"routing.1.value=p:{dim + 2}"],
        ["wip", "--scenario", hub_path, "--set", "schema_version=2"],
        ["wip", "--scenario", hub_path, "--set", "bogus=1"],
        ["wip", "--scenario", hub_path, "--set", "limits.c_max=0"],
        ["wip", "--scenario", hub_path, "--set", "metadata=[1]"],
        ["wip", "--scenario", hub_path, "--set", "name=5"],
        ["wip", "--scenario", hub_path, "--set", "nominal_p"],
        ["maxflow", "--scenario", net_path, "--set", "network.edges.0.capacity_kg=-5"],
        ["maxflow", "--scenario", net_path, "--set", 'network.edges.0.capacity_kg="100"'],
        ["maxflow", "--scenario", net_path, "--set", "network.nodes.0.kind=warehouse"],
        ["maxflow", "--scenario", net_path, "--set", "network.edges.0.to=ZZ"],
        ["maxflow", "--scenario", net_path, "--set", "network.edges.0.transit_time_h=x"],
        ["maxflow", "--scenario", net_path, "--set", "network=[1]"],
        ["mincost", "--scenario", net_path],
        ["mincost", "--scenario", net_path, "--demand", "-5"],
        ["mincost", "--scenario", net_path, "--demand", "lots"],
        ["reroute", "--scenario", net_path],
    ]


def _probes(hub_path: str, net_path: str, work: Path) -> list[Question]:
    """Inputs that crash the seed commit (ROADMAP item 4), each with its expected outcome.

    Malformed inputs should end in exit 1 with error=<code>; today they
    raise.  A valid 14-dim hub model should get a correct worst case; today
    the Halton starts run out of primes.  They run outside the timed loop and
    their outcome is reported, so the defect stays visible while the
    workloads themselves have no failing operation.
    """
    import numpy as np
    from fabflow import queueing, robust_planner
    from fabflow.scenario import scenario_from_dict

    def exit_1(label, argv):
        return Question(label, lambda: run_cli(argv), lambda a: verify.check_error(a[1], a[0], 1), cli_fingerprint)

    wide = gen.hub_model("probe", 14)
    _write(work / "inputs" / "hub_14.json", wide)

    def ask_wide():
        sc = scenario_from_dict(wide)
        count = wide["nominal_fleet"][0]
        limits = robust_planner.PlannerLimits(
            c_max=count, w_star=float("inf"), u=float("inf"), delta_wip_max=float("inf")
        )
        return robust_planner.worst_case_direction(
            queueing.build_routing_model(sc), sc.nominal_fleet, limits, np.asarray(sc.nominal_p),
            starts=PROBE_WIDE_STARTS, max_iters=PROBE_WIDE_MAX_ITERS,
        )

    return [
        exit_1("stations_scalar", ["wip", "--scenario", hub_path, "--set", "stations=5"]),
        exit_1("station_as_list", ["wip", "--scenario", hub_path, "--set", "stations.0=[1,2]"]),
        exit_1("routing_scalar", ["wip", "--scenario", hub_path, "--set", "routing=5"]),
        exit_1("gamma_string", ["wip", "--scenario", hub_path, "--set", "stations.0.gamma=x"]),
        exit_1("fleet_candidates_scalar", ["wip", "--scenario", hub_path, "--set", "fleet_candidates=5"]),
        exit_1("limits_scalar", ["wip", "--scenario", hub_path, "--set", "limits=5"]),
        exit_1("grid_scalar", ["report", "--scenario", hub_path, "--set", "metadata.monotonicity_grid.free_axes=5"]),
        exit_1("nodes_scalar", ["maxflow", "--scenario", net_path, "--set", "network.nodes=5"]),
        Question("halton_14_dims", ask_wide, lambda wc: verify.check_worst_case(wide, wc), str),
    ]


def queries(seed, work: Path) -> Workload:
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    rng = gen.rng_for("queries", seed)
    questions: list[Question] = []
    inputs: list[tuple[str, str]] = []

    def cli_q(qid, argv, check):
        questions.append(Question(qid, lambda: run_cli(argv), check, cli_fingerprint))

    nets = []
    for size in QUERY_NET_SIZES:
        raw = gen.freight_network(seed, size)
        path = _write(work / "inputs" / f"{raw['name']}.json", raw)
        nets.append((path, raw))
        inputs.append((raw["name"], _digest(raw)))
        ref = gen.reference_max_flow(raw)
        steps = gen.shortest_path_steps(raw, QUERY_MINCOST_PATHS)
        (f0, c0, _), (f1, _, unit) = ([(0, 0, 0)] + steps)[-2:]
        demand = (f0 + f1 + 1) // 2
        min_cost_milli = c0 + (demand - f0) * unit
        name = raw["name"]
        out_mf, out_mc, out_rep = (work / "out" / f"{c}_{name}" for c in ("maxflow", "mincost", "report"))

        def mf_check(answer, raw=raw, ref=ref, out=out_mf):
            rc, stdout = answer
            return verify.check_error(stdout, rc, 0) or verify.check_maxflow(raw, ref, stdout, out)

        def mc_check(answer, raw=raw, demand=demand, cost=min_cost_milli, out=out_mc):
            rc, stdout = answer
            return verify.check_error(stdout, rc, 0) or verify.check_mincost(raw, demand, cost, stdout, out)

        def rep_check(answer, raw=raw, ref=ref, out=out_rep):
            rc, stdout = answer
            pairs = verify.parse_pairs(stdout)
            if rc != 0 or pairs.get("sections") != "flow":
                return f"exit {rc}, sections {pairs.get('sections')}"
            return verify.check_maxflow(raw, ref, "", out)

        cli_q(f"maxflow:{name}", ["maxflow", "--scenario", path, "--out", str(out_mf)], mf_check)
        cli_q(
            f"mincost:{name}",
            ["mincost", "--scenario", path, "--demand", str(demand), "--out", str(out_mc)],
            mc_check,
        )
        cli_q(f"report:{name}", ["report", "--scenario", path, "--out", str(out_rep)], rep_check)
        if size in QUERY_INFEASIBLE_SIZES:
            over = ref + rng.randint(1, 5000)
            cli_q(
                f"mincost_over:{name}",
                ["mincost", "--scenario", path, "--demand", str(over)],
                lambda a: verify.check_error(a[1], a[0], 2),
            )

    from fabflow.scenario import resolve_scenario_raw

    models = [("queueing_reference", resolve_scenario_raw("queueing_reference"))]
    for dim, grid in QUERY_HUBS:
        raw = gen.hub_model(seed, dim, grid_values=grid)
        models.append((_write(work / "inputs" / f"{raw['name']}.json", raw), raw))
    hubs = []
    for ref_name, raw in models:
        name = raw["name"]
        inputs.append((name, _digest(raw)))
        hubs.append((ref_name, raw))
        count = raw["nominal_fleet"][0]
        out_rep = work / "out" / f"report_{name}"
        cli_q(
            f"wip:{name}",
            ["wip", "--scenario", ref_name],
            lambda a, raw=raw, count=count: verify.check_wip(raw, count, a[0], a[1]),
        )
        for k in (0, rng.randint(1, 6)):
            cli_q(
                f"wip_fleet{k}:{name}",
                ["wip", "--scenario", ref_name, "--set", f"nominal_fleet.0={k}"],
                lambda a, raw=raw, k=k: verify.check_wip(raw, k, a[0], a[1]),
            )
        cli_q(
            f"report:{name}",
            ["report", "--scenario", ref_name, "--out", str(out_rep)],
            lambda a, raw=raw, out=out_rep: verify.check_error(a[1], a[0], 0)
            or verify.check_queue_report(raw, a[1], out),
        )

    # fixed targets (the 50-node network, the dim-4 hub) keep their parse cost
    # seed-independent and close to that of the other small questions
    for k, argv in enumerate(_malformed(nets[0][0], hubs[2][0], hubs[2][1], work)):
        cli_q(f"malformed{k}:{argv[0]}", argv, lambda a: verify.check_error(a[1], a[0], 1))

    order = list(range(len(questions)))
    rng.shuffle(order)
    questions = [questions[i] for i in order]
    probes = _probes(hubs[1][0], nets[0][0], work)
    return Workload("queries", questions, inputs, probes=probes)


WORKLOADS = {"plan": plan, "dispatch": dispatch, "queries": queries}
