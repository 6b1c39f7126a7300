"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench

Covers the tail-percentile rule, self time from nested spans, every answer
check on a known-bad answer, and per-seed determinism of the generators.
"""
from __future__ import annotations

import json
import math
import shutil
import time
from pathlib import Path

import pytest

import boot

boot.bootstrap()

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from fabflow import netflow, queueing, robust_planner, scheduler  # noqa: E402
from fabflow.scenario import load_fixture, scenario_from_dict  # noqa: E402


# --- statistics -------------------------------------------------------------------

def test_tail_has_exactly_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 31)]            # 30 samples
    value, pct, n = run.tail_latency(samples[::-1])
    assert (value, n) == (20.0, 30)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, n = run.tail_latency([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0])
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail_latency([0.3, 0.1, 0.2]) == (0.3, 100.0, 3)


def test_speed_factor_uses_the_samples_near_an_interval():
    s = speed.SpeedSampler()
    ref = speed.KERNEL_REF_S
    far = 1.0 + 4 * speed.STRETCH_S
    s.times = [0.0, 0.0, 1.0, 1.0, far, far]
    s.kernels = [ref, ref, 2 * ref, 2 * ref, 4 * ref, 4 * ref]

    def expect(median_kernel):
        return pytest.approx((ref / median_kernel) ** speed.SPEED_EXPONENT)

    assert s.factor(0.5, 0.8) == expect(1.5 * ref)                # batches at 0 and 1
    mid = 1.0 + 2 * speed.STRETCH_S                                # none near: 1 and far
    assert s.factor(mid, mid + 0.1) == expect(3 * ref)
    assert s.factor(far + 5 * speed.STRETCH_S, far + 6 * speed.STRETCH_S) == expect(4 * ref)


def test_speed_is_sampled_inside_a_question_while_fabflow_is_paused():
    def spin():
        t = time.perf_counter()
        while time.perf_counter() - t < 1.2:
            pass

    q = workloads.Question("spin", spin, lambda a: None, str)
    rounds, sampler = run.run_rounds([q], 0.0)
    (a, b), = rounds[0].when
    assert speed.program_paused()
    assert any(a < t < b for t in sampler.times) and sampler.stolen > 0
    assert rounds[0].times[0] == pytest.approx(b - a - sampler.stolen)
    assert rounds[0].scaled[0] == pytest.approx(rounds[0].times[0] * sampler.factor(a, b))


def test_speed_is_not_sampled_while_fabflow_runs_a_second_process():
    """A question that keeps the second core busy cannot slow the kernel down."""
    import subprocess
    import sys

    busy = []

    def busy_second_core():
        child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        busy.append(time.perf_counter())
        try:
            time.sleep(1.2)
        finally:
            busy.append(time.perf_counter())
            child.kill()
            child.wait()

    q = workloads.Question("busy", busy_second_core, lambda a: None, str)
    rounds, sampler = run.run_rounds([q], 0.0)
    assert not any(busy[0] <= t <= busy[1] for t in sampler.times)
    assert sampler.skipped >= 2 and sampler.stolen == 0


def test_setup_is_scaled_per_interpreter():
    value, raw = run.measure_setup()
    assert len(raw) == run.SETUP_REPEATS and value > 0


# --- spans ----------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    idx = {name: i for i, name in enumerate(spans.NAMES)}
    recorded = [
        (idx["cli.main"], 0.0, 10.0, -1, "q"),
        (idx["netflow.min_cut"], 1.0, 7.0, 0, "q"),
        (idx["netflow.max_flow"], 2.0, 5.0, 1, "q"),
        (idx["scenario.emit_report"], 8.0, 9.0, 0, "q"),
    ]
    totals = spans.layer_totals(recorded)
    assert totals["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert totals["netflow.min_cut"]["self_s"] == 3.0
    assert totals["netflow.max_flow"]["self_s"] == 3.0
    assert totals["scenario.emit_report"]["self_s"] == 1.0


def test_descendants_are_counted_per_ancestor_call():
    idx = {name: i for i, name in enumerate(spans.NAMES)}
    wcd, proj = idx["robust_planner.worst_case_direction"], idx["simplex.project_capped_simplex"]
    recorded = [
        (wcd, 0, 1, -1, "a"), (proj, 0, 1, 0, "a"), (proj, 0, 1, 0, "a"),
        (wcd, 2, 3, -1, "b"), (proj, 2, 3, 3, "b"),
        (proj, 4, 5, -1, "c"),                              # outside any ascent
    ]
    got = spans.descendants_per_call(recorded, "robust_planner.worst_case_direction",
                                     ("simplex.project_capped_simplex",))
    assert got == {"simplex.project_capped_simplex": 1.5}


def test_tracer_records_nested_calls_and_restores_originals():
    from fabflow import cli

    original = netflow.max_flow
    scenario = load_fixture("fig9_baseline")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert netflow.max_flow is not original
        net = netflow.build_network(scenario)
        netflow.min_cut(net)
    finally:
        tracer.uninstall()
    assert netflow.max_flow is original and cli.netflow.max_flow is original
    names = [spans.NAMES[s[0]] for s in tracer.spans]
    assert names == ["netflow.build_network", "netflow.min_cut", "netflow.max_flow"]
    assert tracer.spans[2][3] == 1                           # max_flow's parent is min_cut
    totals = spans.layer_totals(tracer.spans)
    cut = totals["netflow.min_cut"]
    assert cut["self_s"] == pytest.approx(cut["total_s"] - totals["netflow.max_flow"]["total_s"])


# --- answer checks on known-bad answers ------------------------------------------------

@pytest.fixture
def tmp_work(tmp_path):
    yield tmp_path
    shutil.rmtree(tmp_path, ignore_errors=True)


def _tamper_csv(path: Path, row: int, column: int, value: str):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row + 2].split(",")
    cells[column] = value
    lines[row + 2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_maxflow_check_accepts_right_and_rejects_wrong(tmp_work):
    raw = gen.freight_network(1, 50)
    ref = gen.reference_max_flow(raw)
    path = tmp_work / "net.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_work / "mf"
    rc, stdout = workloads.run_cli(["maxflow", "--scenario", str(path), "--out", str(out)])
    assert rc == 0 and verify.check_maxflow(raw, ref, stdout, out) is None
    assert "reference" in verify.check_maxflow(raw, ref + 1, stdout, out)
    _tamper_csv(out / "maxflow_edges.csv", 0, 3, "999999")
    assert "outside" in verify.check_maxflow(raw, ref, stdout, out)


def test_mincost_check_finds_a_cheaper_cycle():
    # two parallel routes; flow on the dear one is feasible but not min-cost
    raw = {
        "network": {
            "nodes": [{"id": "P", "kind": "production"}, {"id": "A", "kind": "logistics"},
                      {"id": "B", "kind": "logistics"}, {"id": "D", "kind": "destination"}],
            "edges": [
                {"from": "P", "to": "A", "capacity_kg": 10, "cost_milli_per_kg": 100},
                {"from": "A", "to": "D", "capacity_kg": 10, "cost_milli_per_kg": 100},
                {"from": "P", "to": "B", "capacity_kg": 10, "cost_milli_per_kg": 500},
                {"from": "B", "to": "D", "capacity_kg": 10, "cost_milli_per_kg": 500},
            ],
        }
    }
    milli = {(e["from"], e["to"]): e["cost_milli_per_kg"] for e in raw["network"]["edges"]}
    dear = [("P", "A", 10, 0), ("A", "D", 10, 0), ("P", "B", 10, 5), ("B", "D", 10, 5)]
    cheap = [("P", "A", 10, 5), ("A", "D", 10, 5), ("P", "B", 10, 0), ("B", "D", 10, 0)]
    for rows in (dear, cheap):
        assert verify.check_flow_rows(raw, rows) == (None, 5)
    assert verify.negative_cycle(*verify.residual_arcs(dear, milli))
    assert not verify.negative_cycle(*verify.residual_arcs(cheap, milli))
    unbalanced = [("P", "A", 10, 5), ("A", "D", 10, 4), ("P", "B", 10, 0), ("B", "D", 10, 0)]
    assert "conservation" in verify.check_flow_rows(raw, unbalanced)[0]


def test_mincost_check_rejects_wrong_cost(tmp_work):
    raw = gen.freight_network(2, 50)
    steps = gen.shortest_path_steps(raw, 5)
    (f0, c0, _), (f1, _, unit) = steps[-2:]
    demand = (f0 + f1 + 1) // 2
    best = c0 + (demand - f0) * unit
    path = tmp_work / "net.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_work / "mc"
    rc, stdout = workloads.run_cli(["mincost", "--scenario", str(path), "--demand", str(demand), "--out", str(out)])
    assert rc == 0 and verify.check_mincost(raw, demand, best, stdout, out) is None
    assert "minimum" in verify.check_mincost(raw, demand, best - 1, stdout, out)
    assert "cost" in verify.check_mincost(raw, demand, best, stdout.replace("cost=", "cost=1"), out)


def test_wip_checks_reject_wrong_totals_and_exit_codes():
    raw = gen.hub_model(5, 4)
    exp_rc, total = verify.hub_expected(raw, 3)
    assert exp_rc == 0
    assert verify.check_wip(raw, 3, 0, f"total_wip={total!r} run_id=x") is None
    assert "closed form" in verify.check_wip(raw, 3, 0, f"total_wip={total * (1 + 1e-6)!r} run_id=x")
    assert verify.hub_expected(raw, 0) == (2, None)
    assert "exit" in verify.check_wip(raw, 0, 0, "total_wip=1.0")
    assert verify.check_error("error=x", 2, 1) == "exit 2, expected 1"
    assert verify.check_error("total=1", 1, 1) == "error run without an error= line"


def test_hub_closed_form_matches_the_program():
    raw = gen.hub_model(3, 5)
    sc = scenario_from_dict(raw)
    model = queueing.build_routing_model(sc)
    assert queueing.wip(model, sc.nominal_p, sc.nominal_fleet).total_wip == pytest.approx(
        verify.hub_expected(raw, 3)[1], rel=1e-12)
    g = queueing.wip_gradient(model, sc.nominal_p, sc.nominal_fleet)
    assert list(g) == pytest.approx(verify.hub_gradient(raw, sc.nominal_p, 3), rel=1e-7)


def test_worst_case_check_rejects_a_tampered_answer():
    raw = gen.hub_model(7, 4)
    sc = scenario_from_dict(raw)
    model = queueing.build_routing_model(sc)
    limits = robust_planner.PlannerLimits(c_max=3, w_star=math.inf, u=math.inf, delta_wip_max=math.inf)
    wc = robust_planner.worst_case_direction(model, sc.nominal_fleet, limits, sc.nominal_p, starts=1, max_iters=3)
    assert verify.check_worst_case(raw, wc) is None
    bad = robust_planner.WorstCase(wc.p_star, wc.x_star, wc.v_star * 1.001)
    assert "closed-form" in verify.check_worst_case(raw, bad)
    flipped = robust_planner.WorstCase(wc.p_star, tuple(-x for x in wc.x_star), wc.v_star)
    assert "steepest" in verify.check_worst_case(raw, flipped)


def test_plan_check_rejects_wrong_fleet_and_value():
    class Fake:
        def __init__(self, counts, v):
            self.c_star = queueing.FleetConfig(counts)
            self.worst_case = robust_planner.WorstCase((), (), v)
            self.search_mode = "exhaustive"
            self.examined = (None,) * 49

    assert verify.check_plan(Fake((1, 5), verify.PLAN_V_STAR)) is None
    assert "c_star" in verify.check_plan(Fake((2, 4), verify.PLAN_V_STAR))
    assert "v_star" in verify.check_plan(Fake((1, 5), verify.PLAN_V_STAR * (1 + 1e-5)))


def _small_bench_scenario():
    raw = json.loads((boot.SRC / "fabflow" / "fixtures" / "table1_bench.json").read_text())
    raw["metaheuristic_params"] = {
        "ga": {"population": 8, "generations": 3},
        "sa": {"t_initial": 1.0, "cooling": 0.5, "iters_per_temp": 5},
        "aco": {"ants": 3, "iterations": 3},
    }
    return scenario_from_dict(raw)


def test_aggregates_of_single_seed_tables_equal_a_multi_seed_benchmark():
    sc = _small_bench_scenario()
    p = sc.metaheuristic
    seeds = [3, 1, 2]
    per_seed = []
    for s in seeds:
        table = scheduler.benchmark(sc, [s], p.ga, p.sa, p.aco)
        per_seed.append({(r.method, r.task_type): (r.after_hours, r.after_cost) for r in table.rows})
    joint = scheduler.benchmark(sc, seeds, p.ga, p.sa, p.aco)
    got = verify.aggregates(per_seed)
    for m in verify.METHODS:
        _, hours, _, cost = joint.aggregate(m)
        assert (got[f"{m}_after_hours"], got[f"{m}_after_cost"]) == (hours, cost)


def test_dispatch_checks_reject_tampered_answers():
    sc = _small_bench_scenario()
    p = sc.metaheuristic
    table = scheduler.benchmark(sc, [4], p.ga, p.sa, p.aco)
    rows = {(r.method, r.task_type): (r.after_hours, r.after_cost) for r in table.rows}
    assert verify.rerun_dispatch_seed(sc, 4, rows) is None
    key = ("sa", "B")
    bad = dict(rows)
    bad[key] = (rows[key][0] - 0.5, rows[key][1])
    assert "re-run" in verify.rerun_dispatch_seed(sc, 4, bad)
    agg = verify.aggregates([rows])
    stdout = " ".join(f"{k}={v!r}" for k, v in agg.items())
    assert verify.check_bench_answer(stdout, rows) is None
    assert "sums to" in verify.check_bench_answer(stdout.replace("ga_after_hours=", "ga_after_hours=1"), rows)
    baseline = {"seeds": {"4": {m: {t: list(rows[(m, t)]) for (mm, t) in rows if mm == m} for m in verify.METHODS}}}
    assert verify.check_dispatch_quality([4], agg, baseline) is None
    worse = dict(agg, ga_after_hours=agg["ga_after_hours"] * 1.1)
    assert "worse" in verify.check_dispatch_quality([4], worse, baseline)


def test_a_repeat_that_differs_fails_every_instance_of_it():
    q = workloads.Question("q", lambda: None, lambda a: None, str)
    ok = workloads.Question("ok", lambda: None, lambda a: None, str)
    wl = workloads.Workload("t", [q, ok], [])
    rounds = []
    for answers in (("a", "x"), ("b", "x"), ("a", "x")):
        r = run.Round(False)
        r.answers, r.crashed, r.times = list(answers), [False, False], [0.0, 0.0]
        rounds.append(r)
    attempted, failed, reasons = run.check_answers(wl, rounds)
    assert (attempted, failed) == (6, 1)
    assert reasons == ["q: repeat differs from the first answer"]


def test_a_crash_fails_the_question():
    boom = workloads.Question("boom", lambda: 1 / 0, lambda a: None, str)
    rnd = run.ask_round([boom], speed.SpeedSampler())
    assert rnd.crashed == [True] and rnd.answers[0].startswith("ZeroDivisionError")
    attempted, failed, _ = run.check_answers(workloads.Workload("t", [boom], []), [rnd])
    assert (attempted, failed) == (1, 1)


def test_probes_count_only_outcomes_that_are_not_expected():
    right = workloads.Question("right", lambda: 1, lambda a: None if a == 1 else "not 1", str)
    wrong = workloads.Question("wrong", lambda: 2, lambda a: None if a == 1 else "not 1", str)
    boom = workloads.Question("boom", lambda: 1 / 0, lambda a: None, str)
    assert run.run_probes([right, wrong, boom]) == {
        "right": "as expected",
        "wrong": "mismatch: not 1",
        "boom": "crash ZeroDivisionError",
    }


# --- determinism of the generators ------------------------------------------------------

def _digests(make, seed, tmp: Path):
    return make(seed, tmp).inputs


@pytest.mark.parametrize("seed", [1, gen.HOLDOUT_SEED])
def test_generators_are_deterministic_per_seed(seed, tmp_work):
    for fn in (lambda s: gen.freight_network(s, 120), lambda s: gen.hub_model(s, 5, grid_values=4)):
        assert json.dumps(fn(seed)) == json.dumps(fn(seed))
        assert json.dumps(fn(seed)) != json.dumps(fn(seed + 1))
    assert gen.dispatch_seeds(seed) == gen.dispatch_seeds(seed)
    assert set(gen.dispatch_seeds(seed)) <= set(gen.DISPATCH_POOL)
    a = _digests(workloads.queries, seed, tmp_work / "a")
    b = _digests(workloads.queries, seed, tmp_work / "b")
    assert a == b and len(a) == len(workloads.QUERY_NET_SIZES) + len(workloads.QUERY_HUBS) + 1
    assert a != _digests(workloads.queries, seed + 1, tmp_work / "c")
    assert _digests(workloads.plan, seed, tmp_work) == _digests(workloads.plan, seed, tmp_work)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((boot.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    tracer = spans.Tracer()
    r, t = run.Round(False), run.Round(True)
    for rnd in (r, t):
        rnd.times = rnd.scaled = [1.0]
    got = run.per_layer([r, t], tracer, {}, 0)
    assert {k: v["unit"] for k, v in got.items()} == units
