"""Command-line behaviour: stdout contract, exit codes, artifact determinism."""
import dataclasses
import json
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fabflow.cli import main
from fabflow.scenario import fixture_catalog, resolve_scenario_raw
from fabflow.scheduler import AcoParams, GaParams, SaParams

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
        ("queueing_reference", "stations.0.gamma=NaN", "stations[0]: field 'gamma'"),
        ("queueing_reference", "stations.0.mu_base=NaN", "stations[0]: field 'mu_base'"),
        ("table1_bench", "vehicles.0.speed=Infinity", "vehicles[0]: field 'speed'"),
        ("queueing_reference", "nominal_p.1=NaN", "nominal_p[1]"),
        ("planner_small", "limits.c_max=NaN", "limits: c_max"),
        ("planner_small", "limits.u=NaN", "limits: u must be at least w_star"),
    ],
)
def test_section_of_wrong_type_exits_1(capsys, scenario, override, where):
    # report never runs a scheduler, so a missed check cannot start a search
    code, out, err = run_cli(capsys, "report", "--scenario", scenario, "--set", override)
    assert code == 1
    assert out.strip() == "error=validation_errors"
    assert err.startswith(where)


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


HOSTILE_FIXTURES = ("queueing_reference", "fig10_optimized", "table1_bench")
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
