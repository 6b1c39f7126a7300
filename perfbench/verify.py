"""Answer checks.

Each check takes what a question returned and the benchmark's own
knowledge of the input, and returns ``None`` when the answer is right or a
one-line reason when it is not.  None of them calls the fabflow function
whose answer it checks: flows are checked by conservation, capacity, cut
duality and an independent Bellman-Ford; WIP by the hub-and-arms closed
form; dispatch objectives by re-evaluation through ``evaluate_schedule``.
"""
from __future__ import annotations

import csv
import io
import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

from gen import hub_rates, network_terminals

PLAN_C_STAR = (1, 5)
PLAN_V_STAR = 0.25698180955536876   # seed commit's answer on planner_small
PLAN_V_STAR_RTOL = 1e-6             # room for exact-maths rewrites of the ascent
WIP_RTOL = 1e-9
PHI_RTOL = 1e-6                     # central-difference gradients vs closed form
STABILITY_MARGIN = 1e-6
CLIP_ETA = 1e-3
OBJECTIVE_RTOL = 1e-9
DISPATCH_QUALITY_TOL = 0.05         # allowed worsening vs dispatch_baseline.json
METHODS = ("ga", "sa", "aco")


def parse_pairs(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return {}
    return dict(tok.split("=", 1) for tok in lines[0].split() if "=" in tok)


# --- netflow ----------------------------------------------------------------

def read_flow_csv(path: Path) -> list[tuple[str, str, int, int]]:
    """(from, to, capacity_kg, flow_kg) rows of a flow artifact."""
    text = path.read_text(encoding="utf-8").partition("\n")[2]   # skip the digest line
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["from", "to", "capacity_kg", "flow_kg", "cost"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return [(r[0], r[1], int(r[2]), int(r[3])) for r in rows[1:]]


def _terminals(raw):
    plants, dests = network_terminals(raw)
    source = plants[0] if len(plants) == 1 else "__src__"
    sink = dests[0] if len(dests) == 1 else "__snk__"
    return plants, dests, source, sink


def check_flow_rows(raw: dict, rows) -> tuple[str | None, int]:
    """Capacity, conservation and edge set of a reported flow; returns (reason, value)."""
    plants, dests, source, sink = _terminals(raw)
    given = {(e["from"], e["to"]): e["capacity_kg"] for e in raw["network"]["edges"]}
    unlimited = sum(given.values()) + 1
    expected = dict(given)
    if source == "__src__":
        expected.update({(source, p): unlimited for p in plants})
    if sink == "__snk__":
        expected.update({(d, sink): unlimited for d in dests})
    seen = {}
    net_out: dict[str, int] = {}
    for frm, to, cap, kg in rows:
        seen[(frm, to)] = cap
        if not 0 <= kg <= cap:
            return f"flow {kg} outside [0, {cap}] on {frm}->{to}", 0
        net_out[frm] = net_out.get(frm, 0) + kg
        net_out[to] = net_out.get(to, 0) - kg
    if seen != expected:
        return "reported edge set or capacities differ from the input", 0
    for node, value in net_out.items():
        if node not in (source, sink) and value != 0:
            return f"conservation fails at {node} by {value}", 0
    return None, net_out.get(source, 0)


def check_maxflow(raw: dict, ref_value: int, stdout: str, out_dir: Path) -> str | None:
    pairs = parse_pairs(stdout)
    if "value_kg" in pairs:
        if int(pairs["value_kg"]) != ref_value or int(pairs["cut_capacity_kg"]) != ref_value:
            return f"value {pairs['value_kg']} / cut {pairs['cut_capacity_kg']} != reference {ref_value}"
    rows = read_flow_csv(out_dir / "maxflow_edges.csv")
    reason, value = check_flow_rows(raw, rows)
    if reason:
        return reason
    summary = json.loads((out_dir / "maxflow_summary.json").read_text(encoding="utf-8"))["data"]
    _, _, source, sink = _terminals(raw)
    side = set(summary["cut_source_side"])
    if source not in side or sink in side:
        return "returned cut does not separate source from sink"
    cut = sum(cap for frm, to, cap, _ in rows if frm in side and to not in side)
    if not (value == cut == summary["value_kg"] == summary["cut_capacity_kg"] == ref_value):
        return f"flow value {value}, cut capacity {cut}, reference {ref_value} disagree"
    return None


def residual_arcs(rows, milli: dict) -> tuple[int, list[tuple[int, int, int]]]:
    """Node count and (tail, head, cost) arcs of a flow's residual graph."""
    index: dict[str, int] = {}
    arcs = []
    for frm, to, cap, kg in rows:
        u, v = index.setdefault(frm, len(index)), index.setdefault(to, len(index))
        w = milli.get((frm, to), 0)
        if kg < cap:
            arcs.append((u, v, w))
        if kg > 0:
            arcs.append((v, u, -w))
    return len(index), arcs


def negative_cycle(n: int, arcs: list[tuple[int, int, int]]) -> bool:
    """Bellman-Ford from a virtual source joined to every node by 0-cost arcs."""
    dist = [0] * n
    for _ in range(n):
        changed = False
        for u, v, w in arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return False
    return True


def check_mincost(raw: dict, demand: int, min_cost_milli: int, stdout: str, out_dir: Path) -> str | None:
    pairs = parse_pairs(stdout)
    rows = read_flow_csv(out_dir / "mincost_edges.csv")
    reason, value = check_flow_rows(raw, rows)
    if reason:
        return reason
    if value != demand or pairs.get("demand_kg") != str(demand):
        return f"shipped {value}, asked {demand}"
    milli = {(e["from"], e["to"]): e["cost_milli_per_kg"] for e in raw["network"]["edges"]}
    cost = Fraction(sum(milli.get((f, t), 0) * kg for f, t, _, kg in rows), 1000)
    if pairs.get("cost") != repr(float(cost)):
        return f"reported cost {pairs.get('cost')} != {float(cost)!r}"
    if cost != Fraction(min_cost_milli, 1000):
        return f"flow costs {cost}, the minimum is {Fraction(min_cost_milli, 1000)}"
    if negative_cycle(*residual_arcs(rows, milli)):
        return "residual graph has a negative-cost cycle: flow is not min-cost"
    return None


def check_error(stdout: str, rc: int, expected_rc: int) -> str | None:
    if rc != expected_rc:
        return f"exit {rc}, expected {expected_rc}"
    if expected_rc and not stdout.startswith("error="):
        return "error run without an error= line"
    return None


# --- queueing ---------------------------------------------------------------

def hub_expected(raw: dict, count: int) -> tuple[int, float | None]:
    """Expected exit code and total WIP at the nominal point, closed form."""
    p = raw["nominal_p"]
    total = 0.0
    for lam, mu in hub_rates(raw, p, count):
        if mu <= 0.0:
            if lam > 1e-12:
                return 2, None
            continue
        rho = lam / mu
        if rho > 1.0 - STABILITY_MARGIN:
            return 2, None
        total += rho / (1.0 - rho)
    return 0, total


def check_wip_total(value: float, expected: float) -> str | None:
    if not math.isclose(value, expected, rel_tol=WIP_RTOL, abs_tol=0.0):
        return f"total_wip {value!r} != closed form {expected!r}"
    return None


def check_wip(raw: dict, count: int, rc: int, stdout: str) -> str | None:
    exp_rc, exp_total = hub_expected(raw, count)
    if rc != exp_rc:
        return f"exit {rc}, closed form says {exp_rc}"
    if exp_total is None:
        return None if stdout.startswith("error=") else "error run without an error= line"
    return check_wip_total(float(parse_pairs(stdout).get("total_wip", "nan")), exp_total)


def expected_grid_points(raw: dict) -> int:
    axes = raw["metadata"]["monotonicity_grid"]["free_axes"]
    count = 0

    def walk(i, acc):
        nonlocal count
        if i == len(axes):
            count += 0.0 < 1.0 - acc < 1.0
            return
        for v in axes[i]:
            walk(i + 1, acc + v)

    walk(0, 0.0)
    return count


def check_queue_report(raw: dict, stdout: str, out_dir: Path) -> str | None:
    pairs = parse_pairs(stdout)
    if pairs.get("sections") != "wip,monotonicity" or pairs.get("artifacts") != "4":
        return f"unexpected report sections {pairs.get('sections')}/{pairs.get('artifacts')}"
    _, exp_total = hub_expected(raw, raw["nominal_fleet"][0])
    wip = json.loads((out_dir / "wip_summary.json").read_text(encoding="utf-8"))["data"]
    reason = check_wip_total(wip["total_wip"], exp_total)
    if reason:
        return reason
    mono = json.loads((out_dir / "monotonicity_summary.json").read_text(encoding="utf-8"))["data"]
    if mono["grid_points"] != expected_grid_points(raw):
        return f"audit covered {mono['grid_points']} points, grid has {expected_grid_points(raw)}"
    return None


# --- robust planner ---------------------------------------------------------

def hub_gradient(raw: dict, p, count: int) -> list[float]:
    """Free-coordinate WIP gradient (along e_i - e_0) of a hub model, closed form."""
    lam_t = 2.0 / (1.0 + p[0])
    dlam_t = 2.0 / (1.0 + p[0]) ** 2          # d lam_T along e_i - e_0
    mu = {st["id"]: st["mu_base"] for st in raw["stations"]}
    mu_t = mu["T"] * count

    def fprime(rho):
        return 1.0 / (1.0 - rho) ** 2

    base = fprime(lam_t / mu_t) * dlam_t / mu_t
    arms = [(j, mu[f"A{j}"]) for j in range(1, len(p))]
    grad = []
    for i in range(1, len(p)):
        g = base
        for j, mu_a in arms:
            dlam = p[j] * dlam_t + (lam_t if j == i else 0.0)
            g += fprime(p[j] * lam_t / mu_a) * dlam / mu_a
        grad.append(g)
    return grad


def hub_phi(raw: dict, p, count: int) -> tuple[float, list[float]]:
    """Norm of the projected gradient and its unit tangent, closed form."""
    emb = [0.0] + hub_gradient(raw, p, count)
    mean = sum(emb) / len(emb)
    tangent = [x - mean for x in emb]
    norm = math.sqrt(sum(x * x for x in tangent))
    return norm, [x / norm for x in tangent]


def check_worst_case(raw: dict, wc) -> str | None:
    count = raw["nominal_fleet"][0]
    p = list(wc.p_star)
    if abs(sum(p) - 1.0) > 1e-9 or min(p) < CLIP_ETA - 1e-12 or max(p) > 1.0 - CLIP_ETA + 1e-12:
        return "p_star leaves the clipped simplex"
    phi, tangent = hub_phi(raw, p, count)
    if not math.isclose(wc.v_star, phi, rel_tol=PHI_RTOL):
        return f"v_star {wc.v_star!r} != closed-form phi(p_star) {phi!r}"
    if sum(a * b for a, b in zip(wc.x_star, tangent)) < 1.0 - PHI_RTOL:
        return "x_star is not the steepest feasible direction at p_star"
    phi_nominal, _ = hub_phi(raw, raw["nominal_p"], count)
    if wc.v_star < phi_nominal * (1.0 - PHI_RTOL):
        return f"ascent ended below its nominal start ({wc.v_star!r} < {phi_nominal!r})"
    return None


def check_plan(result) -> str | None:
    if tuple(result.c_star.counts) != PLAN_C_STAR:
        return f"c_star={result.c_star.counts}, expected {PLAN_C_STAR}"
    if not math.isclose(result.worst_case.v_star, PLAN_V_STAR, rel_tol=PLAN_V_STAR_RTOL):
        return f"v_star={result.worst_case.v_star!r}, expected {PLAN_V_STAR!r}"
    if result.search_mode != "exhaustive" or len(result.examined) != 49:
        return f"search {result.search_mode} over {len(result.examined)} candidates"
    return None


# --- dispatch ---------------------------------------------------------------

def read_bench_table(out_dir: Path) -> dict:
    """{(method, type): (after_hours, after_cost)} from bench_table.csv."""
    text = (out_dir / "bench_table.csv").read_text(encoding="utf-8")
    rows = list(csv.DictReader(io.StringIO(text.partition("\n")[2])))
    return {
        (r["method"], r["task_type"]): (float(r["after_hours"]), float(r["after_cost"]))
        for r in rows
    }


def aggregates(per_seed: list[dict]) -> dict:
    """What ``fabflow bench --seeds s1,s2,...`` prints, from single-seed tables.

    Per (method, type) the median over seeds, then the sum over types in
    table order, exactly as ``BenchmarkTable.aggregate`` computes it.
    """
    types = sorted({t for table in per_seed for _, t in table})
    out = {}
    for m in METHODS:
        hours = sum(statistics.median([tab[(m, t)][0] for tab in per_seed]) for t in types)
        cost = sum(statistics.median([tab[(m, t)][1] for tab in per_seed]) for t in types)
        out[f"{m}_after_hours"] = float(hours)
        out[f"{m}_after_cost"] = float(cost)
    return out


def check_bench_answer(stdout: str, table: dict) -> str | None:
    pairs = parse_pairs(stdout)
    own = aggregates([table])
    for key in ("ga_after_hours", "sa_after_hours", "aco_after_hours", "ga_after_cost"):
        if pairs.get(key) != repr(own[key]):
            return f"{key}={pairs.get(key)} but its bench_table sums to {own[key]!r}"
    return None


def _same_objectives(a, b) -> bool:
    # the optimizers sum task times in another order than evaluate_schedule
    return all(
        math.isclose(x, y, rel_tol=OBJECTIVE_RTOL)
        for x, y in ((a.total_cost, b.total_cost), (a.makespan_h, b.makespan_h), (a.productivity, b.productivity))
    )


def rerun_dispatch_seed(scenario, seed: int, table: dict) -> str | None:
    """Re-run every optimizer of one benchmark seed and re-evaluate its answers.

    Each reported (method, type) objective must come out of the optimizer
    again, and ``evaluate_schedule`` on the optimizer's assignment must give
    the same objectives.
    """
    from fabflow import scheduler

    inst = scheduler.SchedulingInstance.from_scenario(scenario)
    params = scenario.metaheuristic
    for tt in scheduler.TaskType:
        sub = inst.restricted_to(tt)
        if not sub.tasks:
            continue
        front = scheduler.ga_optimize(sub, params.ga, seed)
        for assignment, obj in front.members:
            if not _same_objectives(scheduler.evaluate_schedule(sub, assignment), obj):
                return f"GA front member on type {tt.value} does not re-evaluate"
        got = {"ga": (min(o.makespan_h for o in front.objectives), min(o.total_cost for o in front.objectives))}
        for method, run, p in (("sa", scheduler.sa_optimize, params.sa), ("aco", scheduler.aco_optimize, params.aco)):
            res = run(sub, p, seed)
            if not _same_objectives(scheduler.evaluate_schedule(sub, res.assignment), res.objectives):
                return f"{method} answer on type {tt.value} does not re-evaluate"
            got[method] = (res.objectives.makespan_h, res.objectives.total_cost)
        for method, value in got.items():
            if table.get((method, tt.value)) != value:
                return f"seed {seed} {method}/{tt.value}: reported {table.get((method, tt.value))}, re-run {value}"
    return None


def check_dispatch_quality(seeds: list[int], got: dict, baseline: dict) -> str | None:
    """The run's aggregates may not be worse than the reference commit's by more than the tolerance."""
    ref_tables = []
    for s in seeds:
        rows = baseline["seeds"][str(s)]
        ref_tables.append({(m, t): tuple(v) for m, by_type in rows.items() for t, v in by_type.items()})
    ref = aggregates(ref_tables)
    for key, value in got.items():
        if value > ref[key] * (1.0 + DISPATCH_QUALITY_TOL):
            return f"{key}={value!r} is worse than the reference {ref[key]!r} by more than {DISPATCH_QUALITY_TOL:.0%}"
    return None
