"""Command-line behaviour: stdout contract, exit codes, artifact determinism."""
import dataclasses
import hashlib
import json
import math
import multiprocessing
import re
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import support
from fabflow import cli
from fabflow.cli import main
from fabflow.queueing import GRID_LINES_MAX, GRID_POINTS_MAX
from fabflow.robust_planner import MC_SAMPLES_MAX, PlannerLimits
from fabflow.scenario import fixture_catalog, resolve_scenario_raw
from fabflow.scheduler import (
    ACO_SOLUTIONS_MAX,
    BENCH_WORK_MAX,
    GA_EVALUATIONS_MAX,
    SA_MOVES_MAX,
    AcoParams,
    GaParams,
    SaParams,
)

SHRUNK_GA = (
    "--set",
    "metaheuristic_params.ga.population=20",
    "--set",
    "metaheuristic_params.ga.generations=10",
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pairs_of(out: str) -> dict:
    line = out.strip().splitlines()[-1]
    out_pairs = {}
    for token in line.split(" "):
        key, _, value = token.partition("=")
        out_pairs[key] = value
    return out_pairs


# --- happy paths -------------------------------------------------------------

def test_maxflow_reports_value_and_cut(capsys):
    code, out, _ = run_cli(capsys, "maxflow", "--scenario", "fig10_optimized")
    assert code == 0
    got = pairs_of(out)
    assert got["value_kg"] == "26700"
    assert got["cut_capacity_kg"] == "26700"
    assert len(got["run_id"]) == 16


def test_mincost_reports_exact_cost(capsys):
    code, out, _ = run_cli(
        capsys, "mincost", "--scenario", "fig9_baseline", "--demand", "10000"
    )
    assert code == 0
    got = pairs_of(out)
    assert got["demand_kg"] == "10000"
    assert float(got["cost"]) == pytest.approx(2260.0)


def test_wip_reports_total(capsys):
    code, out, _ = run_cli(capsys, "wip", "--scenario", "queueing_reference")
    assert code == 0
    assert float(pairs_of(out)["total_wip"]) == pytest.approx(2.9958938246899126, rel=1e-9)


def test_worstcase_reports_direction(capsys):
    code, out, _ = run_cli(capsys, "worstcase", "--scenario", "planner_small")
    assert code == 0
    got = pairs_of(out)
    # nominal fleet (1, 1) barely clears instability at the corner
    assert float(got["v_star"]) == pytest.approx(204124.14690486537, rel=1e-6)
    assert len(got["p_star"].split(",")) == 3


def test_schedule_ga_prints_front_stats(capsys):
    code, out, _ = run_cli(
        capsys, "schedule", "--scenario", "table1_bench", "--method", "ga", *SHRUNK_GA
    )
    assert code == 0
    got = pairs_of(out)
    assert got["method"] == "ga"
    assert int(got["front_size"]) >= 1
    assert float(got["best_makespan_h"]) <= 135.0


def test_schedule_sa_writes_assignment(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "schedule",
        "--scenario",
        "table1_bench",
        "--method",
        "sa",
        "--set",
        "metaheuristic_params.sa.t_initial=1.0",
        "--set",
        "metaheuristic_params.sa.iters_per_temp=20",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    assert pairs_of(out)["method"] == "sa"
    doc = json.loads((tmp_path / "schedule_summary.json").read_text(encoding="utf-8"))
    assert doc["data"]["method"] == "sa"
    assert len(doc["data"]["assignment"]) == 61


def test_bench_aggregates_per_method(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--scenario",
        "table1_bench",
        "--seeds",
        "1,2",
        *SHRUNK_GA,
        "--set",
        "metaheuristic_params.sa.t_initial=1.0",
        "--set",
        "metaheuristic_params.sa.iters_per_temp=20",
        "--set",
        "metaheuristic_params.aco.ants=5",
        "--set",
        "metaheuristic_params.aco.iterations=10",
    )
    assert code == 0
    got = pairs_of(out)
    assert float(got["before_hours"]) == pytest.approx(135.0)
    assert float(got["before_cost"]) == pytest.approx(8100.0)
    assert float(got["ga_after_hours"]) < 135.0
    assert float(got["sa_after_hours"]) < 135.0
    assert float(got["aco_after_hours"]) < 135.0


def test_fixtures_lists_catalog(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    assert pairs_of(out)["fixtures"] == (
        "fig10_optimized,fig9_baseline,planner_small,queueing_adversarial,"
        "queueing_reference,table1_bench"
    )


def test_report_composes_sections(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "report", "--scenario", "queueing_reference", "--out", str(tmp_path)
    )
    assert code == 0
    got = pairs_of(out)
    assert got["sections"] == "wip,monotonicity"
    assert got["artifacts"] == "4"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "monotonicity_lines.csv",
        "monotonicity_summary.json",
        "wip_stations.csv",
        "wip_summary.json",
    ]
    audit = json.loads((tmp_path / "monotonicity_summary.json").read_text(encoding="utf-8"))
    assert audit["data"]["claims"] == {
        "gradient_positive": True,
        "p0_decreasing": True,
        "pi_increasing": True,
    }
    assert audit["data"]["violations"] == 0


def test_report_flow_only_scenario(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "report", "--scenario", "fig9_baseline", "--out", str(tmp_path))
    assert code == 0
    assert pairs_of(out)["sections"] == "flow"


# two candidate mixes around the chosen 1:5 keep planner_small's plan quick
NARROW_PLAN = (
    "--set",
    "fleet_candidates.0.min=1",
    "--set",
    "fleet_candidates.0.max=1",
    "--set",
    "fleet_candidates.1.min=4",
    "--set",
    "fleet_candidates.1.max=5",
)


def artifact_contents(directory):
    """name -> comparable content: a JSON artifact's inputs digest and data
    (its run id names the subcommand), a CSV artifact's full text."""
    out = {}
    for path in sorted(directory.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            doc = json.loads(text)
            out[path.name] = (doc["inputs_digest"], doc["data"])
        else:
            out[path.name] = text
    return out


@pytest.mark.parametrize("fixture", fixture_catalog())
def test_report_sections_match_their_subcommands(capsys, tmp_path, fixture):
    argv = ["--scenario", fixture]
    if fixture == "planner_small":
        argv += NARROW_PLAN
    code, _, _ = run_cli(capsys, "report", *argv, "--out", str(tmp_path / "report"))
    reported = artifact_contents(tmp_path / "report") if code == 0 else {}
    covered = set()
    for command in ("maxflow", "wip", "plan"):
        code, _, _ = run_cli(capsys, command, *argv, "--out", str(tmp_path / command))
        if code != 0:
            continue
        for name, content in artifact_contents(tmp_path / command).items():
            assert reported[name] == content, (command, name)
            covered.add(name)
    # what no subcommand writes: the grid audit and the quoted figures
    assert set(reported) - covered <= {
        "monotonicity_lines.csv",
        "monotonicity_summary.json",
        "reference_deltas.json",
    }


# --- exit codes --------------------------------------------------------------

def test_unstable_fleet_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "wip", "--scenario", "queueing_reference", "--set", "nominal_fleet.0=1"
    )
    assert code == 2
    assert out.strip() == "error=unstable_station"
    assert "unstable" in err


def test_openness_does_not_depend_on_the_scale_of_gamma_and_mu(capsys):
    # the routing ignores gamma and mu, so lambda / mu is the same at both scales
    def total_wip(gamma, mu):
        rates = [arg for i in range(5) for arg in ("--set", f"stations.{i}.mu_base={mu}")]
        code, out, _ = run_cli(
            capsys, "wip", "--scenario", "queueing_reference", "--set", f"stations.0.gamma={gamma}", *rates
        )
        assert code == 0
        return pairs_of(out)["total_wip"]

    assert total_wip("1e9", "1e12") == total_wip("1", "1e3") == "0.0033359399223892435"


@pytest.mark.parametrize("command", ["wip", "report"])
@pytest.mark.parametrize("dim", [3, 10, 30])
@pytest.mark.parametrize(
    "loop, error",
    [
        ("const:1.0", "non_open_network"),
        ("const:0.999999999999", "non_open_network"),
        ("const:0.9999999999985", "unstable_station"),
    ],
)
def test_out_self_loop_at_the_open_margin_exits_2(capsys, tmp_path, command, dim, loop, error):
    # open means a spectral radius below 1 - 1e-12 = 0.999999999999; just
    # inside that margin the routing is open and OUT is overloaded
    raw = support.hub_scenario(dim, [[0.01, 0.02]] * 2)
    raw["routing"].append({"from": "OUT", "to": "OUT", "value": loop})
    path = tmp_path / f"hub_{dim}.json"
    path.write_text(json.dumps(raw))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, command, "--scenario", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out.strip() == f"error={error}"


def test_non_open_routing_names_the_margin_it_applies(capsys, tmp_path):
    # a spectral radius of 1 - 5e-13 is below 1 but not below 1 - 1e-12
    raw = resolve_scenario_raw("queueing_reference")
    raw["routing"].append({"from": "OUT", "to": "OUT", "value": "const:0.9999999999995"})
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "wip", "--scenario", str(path))
    assert code == 2
    assert out.strip() == "error=non_open_network"
    assert err.strip() == "routing keeps lots circulating forever (spectral radius >= 1 - 1e-12)"


def test_infeasible_demand_exits_2(capsys):
    code, out, _ = run_cli(
        capsys, "mincost", "--scenario", "fig9_baseline", "--demand", "20001"
    )
    assert code == 2
    assert out.strip() == "error=infeasible_demand"


def test_invalid_override_value_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "wip", "--scenario", "queueing_reference", "--set", "nominal_p.0=2.0"
    )
    assert code == 1
    assert out.strip() == "error=validation_errors"


def test_usage_error_exits_1(capsys):
    code, out, _ = run_cli(capsys, "mincost", "--scenario", "fig9_baseline")
    assert code == 1
    assert out.strip() == "error=validation_errors"
    code, out, _ = run_cli(capsys, "not_a_command")
    assert code == 1


def test_unknown_scenario_ref_exits_1(capsys):
    code, out, _ = run_cli(capsys, "wip", "--scenario", "no_such_thing_anywhere")
    assert code == 1
    assert out.strip() == "error=io_error"


def test_override_path_errors_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "wip", "--scenario", "queueing_reference", "--set", "nominal_p.9=0.5"
    )
    assert code == 1
    code, out2, _ = run_cli(
        capsys, "wip", "--scenario", "queueing_reference", "--set", "broken"
    )
    assert code == 1
    assert out2.strip() == "error=validation_errors"


def test_empty_search_box_exits_1(capsys):
    code, out, err = run_cli(
        capsys,
        "worstcase",
        "--scenario",
        "planner_small",
        "--set",
        "nominal_p=[0.9985,0.001,0.0005]",
        "--set",
        "limits.p_neighborhood_radius=0.0001",
    )
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert "p_neighborhood_radius" in err


FREE_AXES = "metadata.monotonicity_grid.free_axes"


@pytest.mark.parametrize(
    "scenario, override, where",
    [
        *(
            pytest.param("fig10_optimized", f"{section}=5", section, id=section)
            for section in (
                "stations",
                "routing",
                "fleet_candidates",
                "limits",
                "tasks",
                "vehicles",
                "distances",
                "metaheuristic_params",
            )
        ),
        ("queueing_reference", "stations.0.gamma=x", "stations[0]: field 'gamma'"),
        ("queueing_reference", "stations.1.gamma=[1]", "stations[1]: field 'gamma'"),
        ("table1_bench", "vehicles.0.load_time_h=[]", "vehicles[0]: field 'load_time_h'"),
        ("table1_bench", "vehicles.1.unload_time_h={}", "vehicles[1]: field 'unload_time_h'"),
        ("table1_bench", "vehicles.2.cost_rate=x", "vehicles[2]: field 'cost_rate'"),
        ("table1_bench", "tasks.0.baseline_duration_h=true", "tasks[0]: field 'baseline_duration_h'"),
        ("queueing_reference", f"{FREE_AXES}=5", FREE_AXES),
        ("queueing_reference", f"{FREE_AXES}=x", FREE_AXES),
        ("queueing_reference", f"{FREE_AXES}=[]", FREE_AXES),
        ("queueing_reference", f'{FREE_AXES}=[["a"]]', FREE_AXES),
        ("queueing_reference", f"{FREE_AXES}=[[null]]", FREE_AXES),
        ("queueing_reference", f"{FREE_AXES}=[[0.1],[0.1],[0.1],[0.1],[0.1]]", FREE_AXES),
        ("queueing_reference", f"{FREE_AXES}=[[0.9],[0.9]]", FREE_AXES),
        ("queueing_reference", f"{FREE_AXES}=[[-0.2],[0.5]]", FREE_AXES),
        ("queueing_reference", f"{FREE_AXES}=[[0.5]]", FREE_AXES),
        ("queueing_reference", f"{FREE_AXES}=[[0.0],[0.5]]", FREE_AXES),
        ("queueing_reference", "stations.0.gamma=NaN", "stations[0]: field 'gamma'"),
        ("queueing_reference", "stations.0.mu_base=NaN", "stations[0]: field 'mu_base'"),
        ("table1_bench", "vehicles.0.speed=Infinity", "vehicles[0]: field 'speed'"),
        ("queueing_reference", "nominal_p.1=NaN", "nominal_p[1]"),
        ("planner_small", "limits.c_max=NaN", "limits: c_max"),
        ("planner_small", "limits.u=NaN", "limits: u must be at least w_star"),
        pytest.param(
            "fig9_baseline",
            f"network.edges.0.cost_milli_per_kg={'9' * 400}",
            "network.edges[0]: cost_milli_per_kg must be at most",
            id="cost_milli_per_kg=400 nines",
        ),
        ("fig9_baseline", f"network.edges.0.cost_milli_per_kg={2 ** 53}", "network.edges[0]: cost_milli_per_kg"),
        ("fig9_baseline", f"network.edges.0.capacity_kg={2 ** 53}", "network.edges[0]: capacity_kg"),
        pytest.param(
            "fig9_baseline",
            f"network.edges.0.transit_time_h=1{'0' * 400}",
            "network.edges[0]: field 'transit_time_h'",
            id="transit_time_h=10**400",
        ),
        ("fig9_baseline", "network.edges.0.transit_time_h=Infinity", "network.edges[0]: field 'transit_time_h'"),
        ("fig9_baseline", "network.edges.0.transit_time_h=true", "network.edges[0]: field 'transit_time_h'"),
        pytest.param(
            "queueing_reference",
            f"stations.0.mu_base=1{'0' * 400}",
            "stations[0]: field 'mu_base'",
            id="mu_base=10**400",
        ),
        ("queueing_reference", "routing.0.value=p:x", "routing[0]: unparseable routing factor: 'p:x'"),
        ("queueing_reference", "routing.0.value=const:x", "routing[0]: unparseable routing factor: 'const:x'"),
        ("planner_small", "stations.1.vehicle_type=true", "station T2: vehicle_type must be an integer"),
        pytest.param(
            "planner_small",
            f"limits.c_max=1{'0' * 5000}",
            "limits: c_max must be an integer",
            id="c_max=5001 digits",
        ),
    ],
)
def test_section_of_wrong_type_exits_1(capsys, scenario, override, where):
    # report never runs a scheduler, so a missed check cannot start a search
    code, out, err = run_cli(capsys, "report", "--scenario", scenario, "--set", override)
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith(where)


@pytest.mark.parametrize(
    "field, value",
    [
        ("c_max", "1.5"),
        ("c_max", "true"),
        ("w_star", "x"),
        ("w_star", "true"),
        ("delta_wip_max", "[]"),
        ("epsilon", "true"),
        ("epsilon", "Infinity"),
        ("p_neighborhood_radius", "true"),
        ("mc_samples", "1.5"),
        ("mc_samples", "true"),
        ("mc_alpha", "true"),
        ("mc_alpha", "Infinity"),
    ],
)
def test_limits_outside_their_domain_exit_1(capsys, field, value):
    # integers are ints and numbers are never bools; the caps may be inf,
    # epsilon and mc_alpha feed the probes and the draw, so they are finite
    code, out, err = run_cli(
        capsys, "wip", "--scenario", "planner_small", "--set", f"limits.{field}={value}"
    )
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith(f"limits: {field} must be")


def test_mc_samples_above_the_cap_exit_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "plan", "--scenario", "planner_small", "--set", "limits.mc_samples=1000000000000"
    )
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith(f"limits: mc_samples must be non-negative and at most {MC_SAMPLES_MAX}")
    PlannerLimits(c_max=1, w_star=1.0, u=1.0, delta_wip_max=1.0, mc_samples=MC_SAMPLES_MAX)


def test_limits_without_their_required_fields_name_them(capsys):
    # queueing_reference has no limits section, so the override creates one
    code, out, err = run_cli(
        capsys, "wip", "--scenario", "queueing_reference", "--set", "limits.mc_samples=5"
    )
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.strip() == "limits: missing required fields ['c_max', 'w_star', 'u', 'delta_wip_max']"


def test_sa_moves_above_the_cap_exit_1_at_once(capsys):
    # 1.8e10 planned moves: the search would run for days
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "schedule", "--scenario", "table1_bench", "--method", "sa",
        "--set", "metaheuristic_params.sa.cooling=0.9999999",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith(
        "metaheuristic_params.sa: t_initial, cooling, t_min and iters_per_temp plan 18420680000 moves, "
        f"more than SA_MOVES_MAX = {SA_MOVES_MAX}"
    )
    assert SaParams().planned_moves == 36_000
    assert SaParams(t_initial=1e308).planned_moves < SA_MOVES_MAX


@pytest.mark.parametrize("method, setting, message", [
    (
        "ga", "ga.generations=1000000000",
        f"metaheuristic_params.ga: population and generations plan 100000000100 evaluations, "
        f"more than GA_EVALUATIONS_MAX = {GA_EVALUATIONS_MAX}",
    ),
    (
        "aco", "aco.iterations=1000000000",
        f"metaheuristic_params.aco: ants and iterations plan 20000000000 ant solutions, "
        f"more than ACO_SOLUTIONS_MAX = {ACO_SOLUTIONS_MAX}",
    ),
])
def test_ga_and_aco_work_above_the_cap_exit_1_at_once(capsys, method, setting, message):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "schedule", "--scenario", "table1_bench", "--method", method,
        "--set", f"metaheuristic_params.{setting}",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith(message)
    # table1_bench runs on the defaults, far below both caps
    assert GaParams().planned_evaluations == 20_100 < GA_EVALUATIONS_MAX // 40
    assert AcoParams().planned_solutions == 2_000 < ACO_SOLUTIONS_MAX // 400


@pytest.mark.parametrize("method, settings, problems", [
    pytest.param(
        # population 1 would also plan more evaluations than the cap, which
        # is checked only once every field is valid
        "ga", ("population=1", "crossover_rate=2", "generations=1000000000"),
        ["population must be at least 2 (got 1)", "crossover_rate must lie in [0, 1] (got 2)"],
        id="ga",
    ),
    pytest.param(
        "sa", ("cooling=1", "t_min=0", "iters_per_temp=0.5"),
        [
            "cooling must lie strictly between 0 and 1 (got 1)",
            "iters_per_temp must be an integer (got 0.5)",
            "t_min must be positive (got 0)",
        ],
        id="sa",
    ),
    pytest.param(
        "aco", ("ants=0", "beta=-1", "deposit=\"x\""),
        [
            "ants must be at least 1 (got 0)",
            "beta must be non-negative and finite (got -1)",
            "deposit must be a number (got 'x')",
        ],
        id="aco",
    ),
])
def test_search_parameters_report_every_problem_at_once(capsys, method, settings, problems):
    overrides = [arg for s in settings for arg in ("--set", f"metaheuristic_params.{method}.{s}")]
    code, out, err = run_cli(
        capsys, "schedule", "--scenario", "table1_bench", "--method", method, *overrides
    )
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.strip() == "; ".join(f"metaheuristic_params.{method}: {p}" for p in problems)


@pytest.mark.parametrize("method", ["ga", "sa", "aco"])
def test_negative_schedule_seed_exits_1(capsys, method):
    code, out, err = run_cli(
        capsys, "schedule", "--scenario", "table1_bench", "--method", method, "--seed", "-5"
    )
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.strip() == "seed -5 is negative; seeds must be non-negative integers"


def test_negative_bench_seed_exits_1_before_any_search(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bench", "--scenario", "table1_bench", "--seeds", "1,-2")
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.strip() == "seed -2 is negative; seeds must be non-negative integers"


OVERFLOW_PROBES = {
    "cost_rate": (("vehicles.1.cost_rate=1e308",), "vehicle V2: cost_rate 1e+308 times the worst-case busy time"),
    "negative_cost_rate": (
        ("vehicles.1.cost_rate=1e308", "vehicles.0.cost_rate=-1e308"),
        "vehicles[0]: vehicle V1: cost_rate must be non-negative",
    ),
    "speed": (("vehicles.1.speed=1e-307",), "vehicle V2: speed 1e-307, load_time_h 0.2 and unload_time_h 0.2"),
}


@pytest.mark.parametrize("command", [("schedule", "--method", m) for m in ("ga", "sa", "aco")] + [("bench",)], ids=" ".join)
@pytest.mark.parametrize("probe", list(OVERFLOW_PROBES))
def test_vehicles_whose_objectives_overflow_exit_1(capsys, command, probe):
    # each probe gave inf or nan objectives with exit 0 before it was rejected
    overrides, problem = OVERFLOW_PROBES[probe]
    argv = [*command, "--scenario", "table1_bench"]
    for spec in overrides:
        argv += ["--set", spec]
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith(problem)


def test_bench_seeds_above_the_work_cap_exit_1_before_any_search(capsys):
    seeds = ",".join(str(s) for s in range(1, 1001))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bench", "--scenario", "table1_bench", "--seeds", seeds)
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith("--seeds lists 1000 seeds; with 5 task types and 58300 units of work per type and seed")
    for name in ("population", "generations", "t_initial", "cooling", "t_min", "iters_per_temp", "ants", "iterations"):
        assert name in err
    assert f"plans {1000 * 5 * 58300} units, more than BENCH_WORK_MAX = {BENCH_WORK_MAX}" in err


def test_grid_above_the_point_cap_exits_1_before_enumerating(capsys, tmp_path):
    # 13 axes of 5 values: 5**13, about 1.2e9 points
    path = tmp_path / "hub_14.json"
    path.write_text(json.dumps(support.hub_scenario(14, [[0.01, 0.02, 0.03, 0.04, 0.05]] * 13)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "report", "--scenario", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith(f"{FREE_AXES}: the axis lengths [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5] give {5**13} grid points")
    assert f"more than GRID_POINTS_MAX = {GRID_POINTS_MAX}" in err


def test_grid_above_the_line_cap_exits_1_before_enumerating(capsys, tmp_path):
    # 2**13 = 8,192 points, all inside the simplex, under GRID_POINTS_MAX; the
    # audit would write 1 + 29 * 13 * 4,096 = 1,544,193 line records
    path = tmp_path / "hub_30.json"
    path.write_text(json.dumps(support.hub_scenario(30, [[0.01, 0.02]] * 13 + [[0.01]] * 16)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "report", "--scenario", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith(f"{FREE_AXES}: the axis lengths [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, ")
    assert "plan 1544193 line records over 29 free coordinates" in err
    assert f"more than GRID_LINES_MAX = {GRID_LINES_MAX}" in err


@pytest.mark.parametrize("counts", ["[1,5,7]", "[1]"])
def test_nominal_fleet_needs_one_count_per_candidate_type(capsys, counts):
    code, out, err = run_cli(
        capsys, "wip", "--scenario", "planner_small", "--set", f"nominal_fleet={counts}"
    )
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert "nominal_fleet: must hold one count for each of the 2 vehicle types" in err


@pytest.mark.parametrize("terminal", ["__src__", "__snk__"])
def test_declared_node_with_a_synthetic_terminal_id_exits_1(capsys, tmp_path, terminal):
    # fig9_baseline has three origins and two destinations, so both
    # synthetic terminals are added
    raw = resolve_scenario_raw("fig9_baseline")
    raw["network"]["nodes"].append({"id": terminal, "kind": "logistics"})
    path = tmp_path / "terminal.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "maxflow", "--scenario", str(path))
    assert code == 1
    assert out.strip() == "error=duplicate_node"
    assert err.strip() == f"node id declared twice: {terminal}"


def test_edge_numbers_at_the_bound_print_finite_costs(capsys, tmp_path):
    at_bound = [
        "--set", f"network.edges.0.capacity_kg={2 ** 53 - 1}",
        "--set", f"network.edges.0.cost_milli_per_kg={2 ** 53 - 1}",
    ]
    for command in (["maxflow"], ["mincost", "--demand", "20000"]):
        out_dir = tmp_path / command[0]
        code, out, _ = run_cli(
            capsys, *command, "--scenario", "fig9_baseline", *at_bound, "--out", str(out_dir)
        )
        assert code == 0
        (csv_path,) = out_dir.glob("*_edges.csv")
        costs = [float(line.split(",")[-1]) for line in csv_path.read_text().splitlines()[2:]]
        assert costs[0] > 1e16 and all(math.isfinite(c) for c in costs)


@pytest.mark.parametrize(
    "override, message",
    [
        ("sa.t_min=-1", "t_min must be positive"),
        ("sa.cooling=1.0", "cooling must lie strictly between 0 and 1"),
        ("aco.ants=0", "ants must be at least 1"),
        ("ga.population=0", "population must be at least 2"),
        ("ga.population=true", "population must be an integer"),
        ("ga.generations=-1", "generations must be non-negative"),
        ("ga.crossover_rate=x", "crossover_rate must be a number"),
        ("ga.mutation_rate=1.5", "mutation_rate must lie in [0, 1]"),
        ("sa.t_initial=0", "t_initial must be positive and finite"),
        ("sa.iters_per_temp=x", "iters_per_temp must be an integer"),
        ("aco.iterations=0", "iterations must be at least 1"),
        ("aco.evaporation=2", "evaporation must lie in (0, 1]"),
        ("aco.ants=true", "ants must be an integer"),
        ("aco.alpha=x", "alpha must be a number"),
        ("aco.alpha=Infinity", "alpha must be non-negative and finite"),
        ("aco.beta=-1", "beta must be non-negative and finite"),
        ("aco.pheromone_init=0", "pheromone_init must be positive and finite"),
        ("aco.deposit=x", "deposit must be a number"),
        ("aco.deposit=NaN", "deposit must be positive and finite"),
        pytest.param(
            f"sa.t_initial=1{'0' * 400}", "t_initial must be positive and finite", id="sa.t_initial=10**400"
        ),
        pytest.param(
            f"aco.alpha=1{'0' * 400}", "alpha must be non-negative and finite", id="aco.alpha=10**400"
        ),
    ],
)
def test_metaheuristic_parameter_domains_exit_1(capsys, override, message):
    # report on a network-only scenario never runs a scheduler, so a missed
    # check shows up as exit 0 rather than as a search that never ends
    code, out, err = run_cli(
        capsys,
        "report",
        "--scenario",
        "fig10_optimized",
        "--set",
        f"metaheuristic_params.{override}",
    )
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert message in err


def test_aco_integer_pheromone_init_matches_float(capsys, tmp_path):
    docs = []
    for value in ("2", "2.0"):
        out_dir = tmp_path / value
        code, _, _ = run_cli(
            capsys,
            "schedule", "--scenario", "table1_bench", "--method", "aco",
            "--set", "metaheuristic_params.aco.ants=5",
            "--set", "metaheuristic_params.aco.iterations=10",
            "--set", f"metaheuristic_params.aco.pheromone_init={value}",
            "--out", str(out_dir),
        )
        assert code == 0
        docs.append(json.loads((out_dir / "schedule_summary.json").read_text(encoding="utf-8"))["data"])
    assert docs[0] == docs[1]


@pytest.mark.parametrize("command", ["report", "worstcase"])
@pytest.mark.parametrize("station", [0, 1])
def test_huge_service_rate_ends_without_nan(capsys, tmp_path, command, station):
    # mu / (mu - lam)**2 overflows for such rates; a NaN must never pass as a result
    code, out, _ = run_cli(
        capsys, command, "--scenario", "queueing_reference",
        "--set", f"stations.{station}.mu_base=1e308", "--out", str(tmp_path),
    )
    if code == 0:
        texts = [out] + [p.read_text(encoding="utf-8") for p in tmp_path.rglob("*") if p.is_file()]
        assert not any(re.search(r"\bnan\b", text, re.IGNORECASE) for text in texts)
    else:
        assert code == 1
        assert out.strip() == "error=validation_errors"


@pytest.mark.parametrize("field", ["alpha", "beta", "pheromone_init", "deposit"])
def test_aco_weights_out_of_float_range_exit_1(capsys, field):
    code, out, err = run_cli(
        capsys, "schedule", "--scenario", "table1_bench", "--method", "aco",
        "--set", "metaheuristic_params.aco.ants=5",
        "--set", "metaheuristic_params.aco.iterations=10",
        "--set", f"metaheuristic_params.aco.{field}=1e308",
    )
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert "pheromone weights" in err


def test_bench_job_error_exits_1_and_leaves_no_worker(capsys):
    # the weights overflow inside the first ACO run of each job
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "bench", "--scenario", "table1_bench", "--seeds", "1,2",
        "--set", "metaheuristic_params.aco.alpha=1e308",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.strip() == (
        "metaheuristic_params.aco: alpha, beta, pheromone_init and deposit drive "
        "the pheromone weights out of floating-point range"
    )
    assert multiprocessing.active_children() == []


HOSTILE_FIXTURES = ("queueing_reference", "fig10_optimized", "table1_bench", "planner_small")
HOSTILE_VALUES = ("x", 5, -1, 0, 1.5, [], {}, None, True, 1e308, float("nan"))


def leaf_paths(node, prefix=""):
    """Dotted --set paths of every scalar, empty list and empty object."""
    if not isinstance(node, (dict, list)) or not node:
        yield prefix[1:]
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from leaf_paths(child, f"{prefix}.{key}")


LEAVES = {name: sorted(leaf_paths(resolve_scenario_raw(name))) for name in HOSTILE_FIXTURES}


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.sampled_from(HOSTILE_FIXTURES).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(LEAVES[name]))
    ),
    st.sampled_from(HOSTILE_VALUES),
)
def test_hostile_leaf_ends_in_an_exit_code(capsys, leaf, value):
    # in-process report: no scheduler loop can start, a crash is a traceback
    fixture, path = leaf
    code, out, _ = run_cli(
        capsys, "report", "--scenario", fixture, "--set", f"{path}={json.dumps(value)}"
    )
    assert code in (0, 1, 2)
    if code != 0:
        assert out.startswith("error=") and out.count("\n") == 1


PLANNER_LEAVES = [
    path for path in LEAVES["planner_small"]
    if path.split(".")[0] in ("limits", "fleet_candidates", "nominal_fleet")
]


@pytest.mark.parametrize("value", HOSTILE_VALUES, ids=repr)
@pytest.mark.parametrize("path", PLANNER_LEAVES)
def test_hostile_planner_leaf_ends_in_an_exit_code(capsys, path, value):
    # every planner leaf, not a sample of them: report runs plan on them
    code, out, _ = run_cli(
        capsys, "report", "--scenario", "planner_small", "--set", f"{path}={json.dumps(value)}"
    )
    assert code in (0, 1, 2)
    if code != 0:
        assert out.startswith("error=") and out.count("\n") == 1


# a09's shrunk search sizes: the one hostile field decides how the run ends
SHRUNK_PARAMS = {
    "ga": {"population": 20, "generations": 10},
    "sa": {"t_initial": 1.0, "iters_per_temp": 20},
    "aco": {"ants": 5, "iterations": 10},
}


@pytest.mark.parametrize("value", HOSTILE_VALUES, ids=repr)
@pytest.mark.parametrize(
    "group, field",
    [
        (group, f.name)
        for group, cls in (("ga", GaParams), ("sa", SaParams), ("aco", AcoParams))
        for f in dataclasses.fields(cls)
    ],
)
def test_hostile_search_parameter_ends_in_an_exit_code(capsys, group, field, value):
    params = {**SHRUNK_PARAMS[group], field: value}
    overrides = [
        arg
        for key, v in params.items()
        for arg in ("--set", f"metaheuristic_params.{group}.{key}={json.dumps(v)}")
    ]
    code, out, _ = run_cli(
        capsys, "schedule", "--scenario", "table1_bench", "--method", group, *overrides
    )
    assert code in (0, 1, 2)
    if code != 0:
        assert out.startswith("error=") and out.count("\n") == 1


# --- determinism -------------------------------------------------------------

def test_repeated_runs_are_byte_identical(capsys, tmp_path):
    argv = ("maxflow", "--scenario", "fig10_optimized")
    code_a, out_a, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "a"))
    code_b, out_b, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "b"))
    assert code_a == code_b == 0
    assert out_a == out_b
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == ["maxflow_edges.csv", "maxflow_summary.json"]
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # the emitted run id matches stdout and the CSV carries the digest comment
    run_id = pairs_of(out_a)["run_id"]
    doc = json.loads((tmp_path / "a" / "maxflow_summary.json").read_text(encoding="utf-8"))
    assert doc["run_id"] == run_id
    first_line = (tmp_path / "a" / "maxflow_edges.csv").read_text(encoding="utf-8").splitlines()[0]
    assert first_line == f"# inputs_digest={doc['inputs_digest']}"
    assert len(doc["inputs_digest"]) == 64


# sha256 over every bundled scenario of the exit code, stdout, stderr and each
# artifact's name and bytes, per command line; fixtures reads no scenario
PINNED_OUTPUTS = {
    "maxflow": "944153ad465f0c6fc2ea4b239cdfd4c6901f2f253d0fb03c187c4de9a16124ae",
    "mincost --demand 100": "9eaec7aca6abf380970c44ada82028cf4b200b8a05b529541779a84d652b47ee",
    "mincost --demand 99999999": "f60933725f5ad3319f2e17fe41e97bd28a2e1c4bb531590b7eff03b072da2264",
    "wip": "0e9a3af6b7e0eb56d363db927ce881dc58e850afe6f2f320bd28189f9b96989c",
    "worstcase": "0ea9112e5c2279df551d6d490a8e506663337e9f9d748f3b5c3a969798347def",
    "plan": "24176745da3ceb8708afc2b76299f716d938aae147675c4eea7a6e3ec1176184",
    "report": "4738a4264b6bfe68a351599037163d11472c16f702883af1d5aa0451d93ffc92",
    "schedule --method ga": "49e200ab0a8c117afb64b157ece3b192cf0c1cc6a5fd0fba3294c9ba25a50c31",
    "schedule --method sa": "5a7e5bae2daf6ef356a451bafcb78c00b0979506b13b96b3b2caf9f3e0b90378",
    "schedule --method aco": "24f210277d3c990fb55a16456f11f8b5249a19a50ce5b452281e33f805f91632",
    "bench --seeds 1": "4e399f9965be5c0e599e9bbeb7f9e5ae746be876d240f2c1bae036b965b38719",
    "fixtures": "f9507cc01f96bffcfca752d9920d7c6c871a514505c23186889af0f714c9f510",
}


@pytest.mark.parametrize("command", PINNED_OUTPUTS)
def test_outputs_on_every_fixture_match_their_pin(capsys, tmp_path, command):
    digest = hashlib.sha256()
    for name in fixture_catalog():
        out = tmp_path / name
        scenario = [] if command == "fixtures" else ["--scenario", name, "--out", str(out)]
        code, stdout, stderr = run_cli(capsys, *command.split(), *scenario)
        digest.update(f"{name}\n{code}\n{stdout}\n{stderr}\n".encode())
        for path in sorted(out.glob("*")):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == PINNED_OUTPUTS[command]


@pytest.mark.parametrize("argv, name, infinite", [
    (
        ("plan", "--scenario", "planner_small",
         "--set", "limits.u=Infinity", "--set", "limits.delta_wip_max=Infinity"),
        "plan_summary.json", 2,
    ),
    (
        ("report", "--scenario", "queueing_reference", "--set", "metadata.reference_deltas.x=Infinity"),
        "reference_deltas.json", 1,
    ),
])
def test_json_artifacts_are_strict_json(capsys, tmp_path, argv, name, infinite):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    for run in ("a", "b"):
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / run))
        assert code == 0
    for path in sorted((tmp_path / "a").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        json.loads(text, parse_constant=reject)
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    assert (tmp_path / "a" / name).read_text(encoding="utf-8").count('"Infinity"') == infinite


def test_overrides_change_the_run_id(capsys):
    _, out_plain, _ = run_cli(capsys, "wip", "--scenario", "queueing_reference")
    _, out_again, _ = run_cli(capsys, "wip", "--scenario", "queueing_reference")
    _, out_noted, _ = run_cli(
        capsys, "wip", "--scenario", "queueing_reference", "--set", "metadata.note=x"
    )
    assert pairs_of(out_plain)["run_id"] == pairs_of(out_again)["run_id"]
    assert pairs_of(out_noted)["run_id"] != pairs_of(out_plain)["run_id"]


def test_seed_is_part_of_the_run_id(capsys):
    _, out_a, _ = run_cli(capsys, "maxflow", "--scenario", "fig9_baseline", "--seed", "1")
    _, out_b, _ = run_cli(capsys, "maxflow", "--scenario", "fig9_baseline", "--seed", "2")
    assert pairs_of(out_a)["run_id"] != pairs_of(out_b)["run_id"]
    assert pairs_of(out_a)["value_kg"] == pairs_of(out_b)["value_kg"] == "20000"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fabflow", "fixtures"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("fixtures=")


def test_parser_is_reused_and_keeps_no_state(capsys):
    calls = [
        ("wip", "--scenario", "queueing_reference", "--set", "nominal_fleet.0=2", "--set", "metadata.note=x"),
        ("wip", "--scenario", "queueing_reference"),
        ("maxflow", "--scenario", "fig9_baseline", "--seed", "7"),
        ("maxflow", "--scenario", "fig9_baseline"),
        ("mincost", "--scenario", "fig9_baseline", "--demand", "10000", "--set", "metadata.note=y"),
        ("wip", "--scenario", "queueing_reference", "--set", "stations=5"),
        ("fixtures",),
        ("wip", "--bogus"),
        ("wip", "--scenario", "queueing_reference"),
    ]
    reused = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    assert reused[1] == reused[-1]
    parser = cli._parser()
    assert parser is cli._parser()
    assert parser.parse_args(["wip", "--scenario", "x", "--set", "a=1"]).set == ["a=1"]
    assert parser.parse_args(["wip", "--scenario", "x"]).set is None
    assert parser.parse_args(["wip", "--scenario", "x", "--set", "b=2"]).set == ["b=2"]


def test_parser_is_not_built_at_import():
    proc = subprocess.run(
        [sys.executable, "-c", "import fabflow.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.strip() == "0"


def test_cli_import_loads_no_process_pool_module():
    # `bench` imports multiprocessing only when it starts a pool
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, fabflow.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("plan", "--scenario", "planner_small", "--set", "limits.c_max=" + "9" * 5001),
        ("plan", "--scenario", "a" * 3000),
    ],
    ids=["long_value", "long_path"],
)
def test_problem_messages_echo_bounded_values(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out.startswith("error=")
    assert len(err) < 300
    assert "characters)" in err
