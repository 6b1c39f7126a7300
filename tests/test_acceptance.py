"""End-to-end acceptance gate.

Ten checks spanning every module, each printed as a single [PASS]/[FAIL]
line on the terminal so a full run reads as a checklist.  Optimality and
agreement claims are checked against the slow oracles in support.py, never
against the code paths under test.  Elapsed seconds are printed for
inspection but not asserted; wall-clock on shared machines is too noisy.
"""
import itertools
import json
import math
import random
import time

import numpy as np

import support
from fabflow.cli import main as cli_main
from fabflow.netflow import Edge, NodeKind, build_network, max_flow, min_cut
from fabflow.queueing import (
    CLAIM_P0_DECREASING,
    FleetConfig,
    RoutingModel,
    StationKind,
    StationProfile,
    build_routing_model,
    check_monotonicity,
    grid_from_axes,
    wip,
    wip_gradient,
)
from fabflow.robust_planner import CLIP_ETA, check_constraints, plan_fleet
from fabflow.scenario import load_fixture
from fabflow.scheduler import (
    GaParams,
    SchedulingInstance,
    TaskType,
    TransportTask,
    VehicleSpec,
    benchmark,
    ga_optimize,
)


def verdict(capsys, ok: bool, label: str, detail: str, t0: float):
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] {label}: {detail} ({time.perf_counter() - t0:.1f}s)"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


# 1 ---------------------------------------------------------------------------

def _random_small_net(rng):
    n = rng.randint(2, 7)
    names = [f"n{i}" for i in range(n)]
    spec = {}
    for u, v in itertools.permutations(names, 2):
        if rng.random() < 0.5 and (v, u) not in spec:
            spec[(u, v)] = rng.randint(0, 6)
    spec.setdefault((names[0], names[-1]), rng.randint(1, 6))
    nodes = [(nm, NodeKind.LOGISTICS) for nm in names]
    edges = [Edge(t, h, c) for (t, h), c in spec.items()]
    return support.make_network(nodes, edges, names[0], names[-1])


def test_a01_max_flow_equals_enumerated_min_cut(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    bad = 0
    for _ in range(500):
        net = _random_small_net(rng)
        value = max_flow(net).value
        _, cut_cap = min_cut(net)
        if not (value == cut_cap == support.brute_force_min_cut(net)):
            bad += 1
    verdict(
        capsys,
        bad == 0,
        "flow duality",
        f"max-flow == min-cut == enumerated cut on {500 - bad}/500 random graphs",
        t0,
    )


# 2 ---------------------------------------------------------------------------

def test_a02_network_upgrade_gain(capsys):
    t0 = time.perf_counter()
    base_sc = load_fixture("fig9_baseline")
    opt_sc = load_fixture("fig10_optimized")
    v_base = max_flow(build_network(base_sc)).value
    v_opt = max_flow(build_network(opt_sc)).value
    extra = len(opt_sc.network.edges) - len(base_sc.network.edges)
    ok = v_base == 20000 and v_opt == 26700 and v_opt - v_base == 6700 and extra == 4
    verdict(
        capsys,
        ok,
        "network upgrade",
        f"throughput {v_base} -> {v_opt} kg (gain {v_opt - v_base}) with {extra} added links",
        t0,
    )


# 3 ---------------------------------------------------------------------------

def test_a03_station_closed_forms(capsys):
    t0 = time.perf_counter()
    p = (0.6, 0.4)
    none = FleetConfig(())

    single = RoutingModel.from_bindings(
        [StationProfile("S", StationKind.PROCESS, 2.0, 1.0)], [], wltp_dim=2
    )
    err_single = abs(wip(single, p, none).total_wip - 1.0)

    tandem = RoutingModel.from_bindings(
        [
            StationProfile("A", StationKind.PROCESS, 2.0, 1.0),
            StationProfile("B", StationKind.PROCESS, 4.0, 0.0),
        ],
        [("A", "B", "const:1.0")],
        wltp_dim=2,
    )
    err_tandem = abs(wip(tandem, p, none).total_wip - 4.0 / 3.0)

    # half the lots loop back, so the effective arrival rate doubles
    feedback = RoutingModel.from_bindings(
        [StationProfile("F", StationKind.PROCESS, 3.0, 1.0)],
        [("F", "F", "const:0.5")],
        wltp_dim=2,
    )
    err_feedback = abs(wip(feedback, p, none).total_wip - 2.0)

    ok = err_single <= 1e-12 and err_tandem <= 1e-10 and err_feedback <= 1e-10
    verdict(
        capsys,
        ok,
        "queueing closed forms",
        "single/tandem/feedback stations match hand-derived lot counts "
        f"(errs {err_single:.1e}, {err_tandem:.1e}, {err_feedback:.1e})",
        t0,
    )


# 4 ---------------------------------------------------------------------------

def test_a04_gradient_matches_forward_difference(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    bad = 0
    worst_rel = 0.0
    for _ in range(100):
        model, p, fleet = support.random_capped_instance(rng)
        fast = wip_gradient(model, p, fleet)
        slow = support.three_point_gradient(model, p, fleet)
        rel = float(np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-6)))
        worst_rel = max(worst_rel, rel)
        if not np.allclose(fast, slow, rtol=1e-4, atol=1e-6):
            bad += 1
    verdict(
        capsys,
        bad == 0,
        "gradient fidelity",
        f"analytic-direction gradient vs one-sided stencil on {100 - bad}/100 "
        f"random instances (worst rel dev {worst_rel:.1e})",
        t0,
    )


# 5 ---------------------------------------------------------------------------

def _grid_of(sc):
    axes = sc.metadata["monotonicity_grid"]["free_axes"]
    return grid_from_axes(axes, dim=len(sc.nominal_p))


def test_a05_monotonicity_claims_audited(capsys):
    t0 = time.perf_counter()
    ref = load_fixture("queueing_reference")
    audit = check_monotonicity(build_routing_model(ref), _grid_of(ref), ref.nominal_fleet)
    ok_ref = audit.all_passed and audit.grid_points == 400

    adv = load_fixture("queueing_adversarial")
    audit2 = check_monotonicity(build_routing_model(adv), _grid_of(adv), FleetConfig(()))
    breaks = [v for v in audit2.violations if v.claim == CLAIM_P0_DECREASING]
    ok_adv = not audit2.passed(CLAIM_P0_DECREASING) and bool(breaks)
    # the witness pair must actually exhibit the reversal it reports
    ok_wit = all(v.value_b > v.value_a and v.p_a[0] < v.p_b[0] for v in breaks)

    verdict(
        capsys,
        ok_ref and ok_adv and ok_wit,
        "gradient trend audit",
        f"reference grid clean on {audit.grid_points}/400 points; adversarial "
        f"model flagged with {len(breaks)} witness pairs",
        t0,
    )


# 6 ---------------------------------------------------------------------------

def test_a06_planner_matches_grid_search_enumeration(capsys):
    t0 = time.perf_counter()
    sc = load_fixture("planner_small")
    model = build_routing_model(sc)
    p = np.asarray(sc.nominal_p)

    result = plan_fleet(model, sc.fleet_candidates, sc.limits, p)

    # independent oracle: every config with total <= c_max, worst case found
    # by dense lattice search instead of gradient ascent
    best = None
    configs = 0
    for counts in support.integer_compositions(sc.limits.c_max, 3):
        fleet = FleetConfig(counts[:2])  # third part is unspent budget
        configs += 1
        if not check_constraints(model, p, fleet, sc.limits).all_passed:
            continue
        v, _ = support.lattice_phi_max(model, fleet, 3, CLIP_ETA, 139)
        key = (v, fleet.total, fleet.counts)
        if best is None or key < best[0]:
            best = (key, fleet, v)

    diff = abs(result.worst_case.v_star - best[2])
    ok = result.c_star.counts == best[1].counts and diff <= 1e-4
    verdict(
        capsys,
        ok,
        "fleet plan vs enumeration",
        f"both pick counts {result.c_star.counts} out of {configs} configs, "
        f"worst-case values differ by {diff:.1e}",
        t0,
    )


# 7 ---------------------------------------------------------------------------

def test_a07_dispatch_benchmark_ordering(capsys):
    t0 = time.perf_counter()
    table = benchmark(load_fixture("table1_bench"), seeds=range(1, 11))
    by = {(r.method, r.task_type): r for r in table.rows}
    types = sorted({r.task_type for r in table.rows})
    wins = sum(
        1
        for tt in types
        if by[("ga", tt)].after_hours <= by[("sa", tt)].after_hours + 1e-9
        and by[("ga", tt)].after_hours <= by[("aco", tt)].after_hours + 1e-9
    )
    before_h, after_h, before_c, after_c = table.aggregate("ga")
    mk_gain = (before_h - after_h) / before_h
    cost_gain = (before_c - after_c) / before_c
    ok = len(types) == 5 and wins >= 4 and mk_gain >= 0.20 and cost_gain >= 0.15
    verdict(
        capsys,
        ok,
        "dispatch benchmark",
        f"GA fastest on {wins}/{len(types)} task types over 10 seeds; "
        f"vs baseline: hours -{mk_gain:.0%}, cost -{cost_gain:.0%}",
        t0,
    )


# 8 ---------------------------------------------------------------------------

def test_a08_ga_recovers_exact_front(capsys):
    t0 = time.perf_counter()
    v1 = VehicleSpec("V1", speed=30.0, load_time_h=0.25, unload_time_h=0.25, cost_rate=60.0)
    v2 = VehicleSpec("V2", speed=60.0, load_time_h=0.2, unload_time_h=0.2, cost_rate=70.0)
    dist = {("X", "Y"): 75.0, ("Y", "Z"): 45.0, ("X", "Z"): 120.0}
    legs = [("X", "Y"), ("Y", "Z"), ("X", "Z"), ("X", "Y")]
    tasks = tuple(
        TransportTask(tid, TaskType.PROCESSING, o, d, lot_mass_kg=600.0, baseline_duration_h=3.0)
        for tid, (o, d) in zip("abcd", legs)
    )
    inst = SchedulingInstance(tasks, (v1, v2), dist)
    exact = support.brute_force_front(inst)
    hits = 0
    for seed in range(100):
        front = ga_optimize(inst, GaParams(population=24, generations=30), seed=seed)
        got = {(round(o.total_cost, 9), round(o.makespan_h, 9)) for o in front.objectives}
        hits += got == exact
    verdict(
        capsys,
        hits >= 95,
        "front completeness",
        f"GA reproduced the enumerated trade-off front on {hits}/100 seeds",
        t0,
    )


# 9 ---------------------------------------------------------------------------

SHRUNK = (
    "--set", "metaheuristic_params.ga.population=20",
    "--set", "metaheuristic_params.ga.generations=10",
    "--set", "metaheuristic_params.sa.t_initial=1.0",
    "--set", "metaheuristic_params.sa.iters_per_temp=20",
    "--set", "metaheuristic_params.aco.ants=5",
    "--set", "metaheuristic_params.aco.iterations=10",
)

NARROW_PLAN = (
    "--set", "fleet_candidates.0.min=1",
    "--set", "fleet_candidates.0.max=1",
    "--set", "fleet_candidates.1.min=4",
    "--set", "fleet_candidates.1.max=5",
)


def test_a09_cli_reruns_are_byte_identical(capsys, tmp_path):
    t0 = time.perf_counter()
    cases = {
        "maxflow": ["maxflow", "--scenario", "fig9_baseline"],
        "mincost": ["mincost", "--scenario", "fig9_baseline", "--demand", "10000"],
        "wip": ["wip", "--scenario", "queueing_reference"],
        "worstcase": ["worstcase", "--scenario", "planner_small"],
        "plan": ["plan", "--scenario", "planner_small", *NARROW_PLAN],
        "schedule": ["schedule", "--scenario", "table1_bench", "--method", "ga", *SHRUNK],
        "bench": ["bench", "--scenario", "table1_bench", "--seeds", "1,2", *SHRUNK],
        "report": ["report", "--scenario", "fig10_optimized"],
    }
    stable = 0
    artifact_count = 0
    for name, argv in cases.items():
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        code_a = cli_main([*argv, "--out", str(out_a)])
        line_a = capsys.readouterr().out
        code_b = cli_main([*argv, "--out", str(out_b)])
        line_b = capsys.readouterr().out
        files_a = sorted(f.name for f in out_a.iterdir())
        files_b = sorted(f.name for f in out_b.iterdir())
        same = (
            code_a == code_b == 0
            and line_a == line_b
            and files_a == files_b
            and all(
                (out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files_a
            )
        )
        stable += same
        artifact_count += len(files_a)
    # the catalog listing has no artifacts; its stdout must still be stable
    code_a = cli_main(["fixtures"])
    list_a = capsys.readouterr().out
    code_b = cli_main(["fixtures"])
    list_b = capsys.readouterr().out
    stable += code_a == code_b == 0 and list_a == list_b
    verdict(
        capsys,
        stable == len(cases) + 1,
        "deterministic CLI",
        f"{stable}/{len(cases) + 1} subcommands byte-identical across re-runs "
        f"({artifact_count} artifacts compared)",
        t0,
    )


# 10 --------------------------------------------------------------------------

def test_a10_quoted_figures_reported_not_gated(capsys, tmp_path):
    t0 = time.perf_counter()
    fig10 = load_fixture("fig10_optimized")
    rd = fig10.metadata.get("reference_deltas", {})
    quoted = {
        "capacity_increase_pct": 10.0,
        "utilization_gain_pct": 23.0,
        "accuracy_gain_pct": 13.0,
    }
    ok_fig10 = all(rd.get(k) == v for k, v in quoted.items()) and rd.get("gated") is False

    bench_sc = load_fixture("table1_bench")
    rd2 = bench_sc.metadata.get("reference_deltas", {})
    ok_bench = (
        rd2.get("makespan_reduction_pct") == 72.0
        and rd2.get("cost_reduction_pct") == 65.0
        and isinstance(rd2.get("transit_note"), str)
        and rd2.get("transit_note")
        and rd2.get("gated") is False
    )

    # the report command must surface the figures verbatim
    code = cli_main(["report", "--scenario", "fig10_optimized", "--out", str(tmp_path)])
    line = capsys.readouterr().out
    doc = json.loads((tmp_path / "reference_deltas.json").read_text(encoding="utf-8"))
    ok_report = code == 0 and "reference" in line and doc["data"] == rd

    # figures that ARE derived from fixtures must not be confused with these:
    # the flow gain is computed (6700/20000), the quoted trio is not computable
    # from any bundled instance
    computed_gain_pct = 100.0 * 6700 / 20000
    ok_distinct = math.isclose(rd.get("flow_gain_pct"), computed_gain_pct) and all(
        not math.isclose(v, computed_gain_pct) for v in quoted.values()
    )

    verdict(
        capsys,
        ok_fig10 and ok_bench and ok_report and ok_distinct,
        "quoted source figures",
        "10%/23%/13% and 72%/65% deltas carried as metadata, surfaced by the "
        "report command, excluded from gating (gated=false)",
        t0,
    )
