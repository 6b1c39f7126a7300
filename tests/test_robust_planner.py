"""Planner tests: simplex geometry, adversarial search, constraint audit, fleet scan."""
import dataclasses
import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from fabflow import cli, queueing, robust_planner, simplex
from fabflow.errors import InvalidRouting, NoFeasibleFleet, NoStablePoint, ValidationErrors
from fabflow.queueing import (
    FleetConfig,
    RoutingModel,
    StationKind,
    StationProfile,
    build_routing_model,
    service_rates,
    steepest_feasible_direction,
    wip,
    wip_totals_batch,
)
from fabflow.robust_planner import (
    CLIP_ETA,
    DELTA_DIRECTIONS,
    FleetCandidateSpace,
    PlannerLimits,
    _worst_cases,
    check_constraints,
    plan_fleet,
    worst_case_direction,
)
from fabflow.scenario import load_fixture, resolve_scenario_raw, scenario_from_dict


def small():
    """Two-transport-stage fixture: model, nominal p, fixture limits."""
    sc = load_fixture("planner_small")
    return build_routing_model(sc), np.asarray(sc.nominal_p), sc.limits


def hub():
    sc = load_fixture("queueing_reference")
    return build_routing_model(sc), np.asarray(sc.nominal_p), sc.nominal_fleet


def phi(model, p, fleet):
    """Projected-gradient norm, the quantity the adversarial search maximizes."""
    return steepest_feasible_direction(model, p, fleet)[1]


def wide_hub(dim):
    """Hub-and-arms model with `dim` transfer probabilities, stable everywhere."""
    stations = [
        StationProfile("IN", StationKind.PROCESS, 3.0, gamma=1.0),
        StationProfile("T", StationKind.TRANSPORT, 0.8, vehicle_type=0),
        StationProfile("OUT", StationKind.PROCESS, 4.0),
    ]
    bindings = [("IN", "T", "const:1.0"), ("T", "OUT", "p:0")]
    for i in range(1, dim):
        stations.append(StationProfile(f"A{i}", StationKind.PROCESS, 10.0 + i))
        bindings += [("T", f"A{i}", f"p:{i}"), (f"A{i}", "T", "const:0.5"), (f"A{i}", "OUT", "const:0.5")]
    model = RoutingModel.from_bindings(stations, bindings, wltp_dim=dim)
    return model, np.full(dim, 1.0 / dim), FleetConfig((4,))


def lattice_phi_max(model, fleet, m=40):
    """Slow oracle: evaluate phi on a clipped-simplex lattice and take the max.

    The lattice contains the clipped corners exactly, which is where this
    family of models peaks.
    """
    return support.lattice_phi_max(model, fleet, 3, CLIP_ETA, m)


# --- simplex geometry --------------------------------------------------------

@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=6))
@example([1e-05, -1.0000000000065512e-05])
def test_project_sum_zero_properties(values):
    v = np.asarray(values)
    t = simplex.project_sum_zero(v)
    assert t.sum() == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(simplex.project_sum_zero(t), t, atol=1e-12)
    # the removed component is constant across coordinates, up to the
    # rounding of v - t: an ulp of max|v|, however small the mean of v is
    np.testing.assert_allclose(
        v - t, np.full_like(v, (v - t)[0]), atol=4 * np.finfo(float).eps * np.abs(v).max()
    )


def test_halton_simplex_points_are_valid_and_deterministic():
    pts = simplex.halton_simplex(16, 3)
    assert pts.shape == (16, 3)
    assert (pts >= 0.0).all()
    np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(pts, simplex.halton_simplex(16, 3))
    assert len(np.unique(pts.round(12), axis=0)) == 16


def test_capped_projection_stays_feasible_and_is_closest():
    rng = np.random.default_rng(11)
    lower = np.full(3, 0.05)
    upper = np.full(3, 0.9)
    for _ in range(25):
        v = rng.normal(scale=2.0, size=3)
        p = simplex.project_capped_simplex(v, lower, upper)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p >= lower - 1e-12).all() and (p <= upper + 1e-12).all()
        # no random feasible point may sit closer to v
        for _ in range(40):
            q = lower + rng.dirichlet(np.ones(3)) * (1.0 - lower.sum())
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9
    # non-uniform boxes around a nominal point, as p_neighborhood_radius
    # builds them, in up to 15 dimensions; optimality is checked through the
    # KKT conditions: p = clip(v - tau, lower, upper) for one shift tau, so
    # v - p is <= tau where p sits at its lower bound, == tau where p is free
    # and >= tau where p sits at its upper bound
    for _ in range(200):
        dim = int(rng.integers(2, 16))
        nominal = rng.dirichlet(np.ones(dim))
        radius = rng.uniform(CLIP_ETA, 0.3)
        lower = np.maximum(CLIP_ETA, nominal - radius)
        upper = np.minimum(1.0 - CLIP_ETA, nominal + radius)
        if lower.sum() > 1.0 or upper.sum() < 1.0:
            continue
        v = nominal + rng.normal(scale=rng.choice([0.01, 0.3, 3.0]), size=dim)
        p = simplex.project_capped_simplex(v, lower, upper)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p >= lower - 1e-12).all() and (p <= upper + 1e-12).all()
        shift = v - p
        at_lower, at_upper = p <= lower + 1e-12, p >= upper - 1e-12
        assert shift[~at_upper].max(initial=-np.inf) <= shift[~at_lower].min(initial=np.inf) + 1e-9


def test_rowwise_projection_matches_one_row_calls():
    rng = np.random.default_rng(8)
    for dim in range(2, 15):
        nominal = rng.dirichlet(np.ones(dim))
        pinned = np.full(dim, CLIP_ETA), np.full(dim, 1.0 - CLIP_ETA)
        pinned[0][0] = pinned[1][0] = nominal[0]  # one coordinate fixed: its two kinks coincide
        boxes = [
            (np.full(dim, CLIP_ETA), np.full(dim, 1.0 - CLIP_ETA)),
            (np.maximum(CLIP_ETA, nominal - 0.05), np.minimum(1.0 - CLIP_ETA, nominal + 0.05)),
            pinned,
        ]
        rows = np.vstack([
            nominal + rng.normal(size=(40, dim)) * rng.choice([1e-3, 0.1, 3.0], size=(40, 1)),
            np.round(rng.normal(size=(20, dim)), 1),              # tied coordinates
            np.repeat(rng.normal(size=(10, 1)), dim, axis=1),     # all tied: every kink repeated
            10.0 * rng.choice([-1.0, 1.0], size=(10, dim)),       # rows clamped to the box
        ])
        for lower, upper in boxes:
            if lower.sum() > 1.0 or upper.sum() < 1.0:
                continue
            batch = simplex.project_capped_simplex(rows, lower, upper)
            for v, got in zip(rows, batch):
                np.testing.assert_array_equal(got, simplex.project_capped_simplex(v, lower, upper))
                np.testing.assert_array_equal(got, support.interp_projection(v, lower, upper))


def test_halton_extends_past_twelve_dimensions():
    # the first twelve bases stay 2..37, so existing start points do not move
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    expected = [[simplex._radical_inverse(i + 1, b) for b in bases] for i in range(8)]
    np.testing.assert_array_equal(simplex.halton(8, 14), expected)


def test_worst_case_runs_in_fourteen_dimensions():
    model, p_nom, fleet = wide_hub(14)
    limits = PlannerLimits(c_max=4, w_star=math.inf, u=math.inf, delta_wip_max=math.inf)
    wc = worst_case_direction(model, fleet, limits, p_nom, starts=2, max_iters=5)
    assert len(wc.p_star) == 14
    assert wc.v_star == pytest.approx(phi(model, wc.p_star, fleet), rel=1e-12)
    assert wc.v_star >= phi(model, p_nom, fleet)


@pytest.mark.parametrize("dim", [3, 6, 14])
def test_capped_projection_keeps_its_sum_far_from_the_box(dim):
    # x = v - tau cancels for far points; the free coordinates take up the miss
    rng = np.random.default_rng(dim)
    lower, upper = np.full(dim, CLIP_ETA), np.full(dim, 1.0 - CLIP_ETA)
    for scale in 10.0 ** np.arange(2, 13):
        rows = scale * rng.normal(size=(50, dim))
        got = simplex.project_capped_simplex(rows, lower, upper)
        assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-15
        assert (got >= lower).all() and (got <= upper).all()


def test_capped_projection_fixes_feasible_points():
    lower, upper = np.full(3, 0.001), np.full(3, 0.999)
    p = np.array([0.5, 0.3, 0.2])
    np.testing.assert_allclose(simplex.project_capped_simplex(p, lower, upper), p, atol=1e-10)


def test_capped_projection_rejects_empty_box():
    with pytest.raises(ValueError):
        simplex.project_capped_simplex(np.ones(3), np.full(3, 0.5), np.full(3, 0.6))


def test_unit_directions_properties():
    dirs = simplex.unit_directions(64, 3)
    assert dirs.shape == (64, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(dirs.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(dirs[32:], -dirs[:32], atol=1e-15)
    np.testing.assert_array_equal(dirs, simplex.unit_directions(64, 3))


# --- adversarial search ------------------------------------------------------

def test_worst_case_sits_at_clipped_corner():
    model, p_nom, limits = small()
    fleet = FleetConfig((1, 4))
    wc = worst_case_direction(model, fleet, limits, p_nom)
    corner = np.array([CLIP_ETA, 1.0 - 2 * CLIP_ETA, CLIP_ETA])
    np.testing.assert_allclose(wc.p_star, corner, atol=1e-6)
    assert wc.v_star == pytest.approx(phi(model, corner, fleet), rel=1e-6)
    # the returned direction is a feasible unit ascent direction
    x = np.asarray(wc.x_star)
    assert x.sum() == pytest.approx(0.0, abs=1e-9)
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_worst_case_dominates_lattice_oracle():
    model, p_nom, limits = small()
    fleet = FleetConfig((1, 3))
    wc = worst_case_direction(model, fleet, limits, p_nom)
    best_v, _ = lattice_phi_max(model, fleet, m=40)
    assert best_v <= wc.v_star + 1e-9
    assert wc.v_star == pytest.approx(best_v, abs=1e-6)


def test_worst_case_dominates_random_probes():
    model, p_nom, limits = small()
    fleet = FleetConfig((1, 2))
    wc = worst_case_direction(model, fleet, limits, p_nom)
    rng = np.random.default_rng(99)
    lower = np.full(3, CLIP_ETA)
    upper = np.full(3, 1.0 - CLIP_ETA)
    for _ in range(200):
        p = simplex.project_capped_simplex(rng.dirichlet(np.full(3, 0.6)), lower, upper)
        assert phi(model, p, fleet) <= wc.v_star + 1e-9


@pytest.mark.parametrize("case", ["wide_hub_4", "wide_hub_5", "wide_hub_6", "queueing_reference"])
def test_worst_case_dominates_box_vertices_and_samples(case):
    # these models peak at a vertex of the search box, which an ascent that
    # crawls along a face never reaches; three vehicles keep the hub busy
    if case == "queueing_reference":
        model, p_nom, fleet = hub()
    else:
        model, p_nom, _ = wide_hub(int(case.rsplit("_", 1)[1]))
        fleet = FleetConfig((3,))
    limits = PlannerLimits(c_max=fleet.total, w_star=math.inf, u=math.inf, delta_wip_max=math.inf)
    wc = worst_case_direction(model, fleet, limits, p_nom)
    dim = len(p_nom)
    lower, upper = np.full(dim, CLIP_ETA), np.full(dim, 1.0 - CLIP_ETA)
    rng = np.random.default_rng(20261018)
    sample = simplex.project_capped_simplex(rng.dirichlet(np.full(dim, 0.5), size=500), lower, upper)
    for p in [*support.box_vertices(lower, upper), *sample]:
        assert phi(model, p, fleet) <= wc.v_star + 1e-9
    # the steps that reach the vertex project points far outside the box,
    # and p_star still sums to 1
    assert abs(sum(wc.p_star) - 1.0) <= 1e-15


def test_ascent_evaluates_each_point_once(monkeypatch):
    # the starts are projected, then each step projects its candidates; one
    # derivative pass follows each projection, and none comes after the loop
    events = []

    def spy(module, name, event):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            events.append(event)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    spy(simplex, "project_capped_simplex", "project")
    spy(queueing, "_wip_derivatives", "derive")
    model, p_nom, limits = small()
    worst_case_direction(model, FleetConfig((1, 3)), limits, p_nom)
    steps = len(events) // 2 - 1
    assert steps > 1 and events == ["project", "derive"] * (steps + 1)


def test_worst_case_is_deterministic():
    model, p_nom, limits = small()
    a = worst_case_direction(model, FleetConfig((1, 5)), limits, p_nom)
    b = worst_case_direction(model, FleetConfig((1, 5)), limits, p_nom)
    assert a == b


def test_neighborhood_radius_restricts_search():
    model, p_nom, limits = small()
    fleet = FleetConfig((1, 3))
    full = worst_case_direction(model, fleet, limits, p_nom)
    near = worst_case_direction(
        model, fleet, dataclasses.replace(limits, p_neighborhood_radius=0.05), p_nom
    )
    assert np.abs(np.asarray(near.p_star) - p_nom).max() <= 0.05 + 1e-9
    assert near.v_star <= full.v_star + 1e-9


def test_no_stable_point():
    # one vehicle cannot serve ten lots per hour at unit rate
    model = RoutingModel.from_bindings(
        [StationProfile("H", StationKind.TRANSPORT, 1.0, gamma=10.0, vehicle_type=0)],
        [],
        wltp_dim=2,
    )
    limits = PlannerLimits(c_max=1, w_star=1e9, u=1e9, delta_wip_max=1e9)
    with pytest.raises(NoStablePoint) as exc:
        worst_case_direction(model, FleetConfig((1,)), limits, None)
    assert exc.value.code == "no_stable_point"


def test_phi_gradient_matches_scalar_oracle():
    rng = np.random.default_rng(2402)
    cases = [support.random_capped_instance(rng) for _ in range(10)]
    model, p_nom, fleet = hub()
    cases += [(model, p, fleet) for p in (p_nom, np.array([0.2, 0.5, 0.3]), np.array([0.55, 0.15, 0.3]))]
    for model, p, fleet in cases:
        # G is the centred embedding of the free-coordinate gradient g,
        # G = [0, g] - mean, so g = G[1:] - G[0]
        G = robust_planner._phi(model, p[None], service_rates(model, fleet)[None])[2][0]
        exact = G[1:] - G[0]
        slow = support.central_phi_gradient(model, p, fleet)
        np.testing.assert_allclose(exact, slow, rtol=1e-4, atol=1e-6)


# --- lockstep ascent against the sequential oracle ---------------------------

def oracle(model, fleet, limits, p_nominal, **effort):
    try:
        return support.sequential_worst_case(model, fleet, limits, p_nominal, **effort)
    except NoStablePoint:
        return None


def test_lockstep_matches_oracle_on_every_feasible_candidate():
    model, p, limits = small()
    space = load_fixture("planner_small").fleet_candidates
    fleets = [f for f in space if check_constraints(model, p, f, limits).all_passed]
    assert len(fleets) == 15
    assert _worst_cases(model, fleets, limits, p) == [oracle(model, f, limits, p) for f in fleets]


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 14])
def test_lockstep_matches_oracle_on_hubs(dim):
    model, p_nom, fleet = wide_hub(dim)
    limits = PlannerLimits(c_max=4, w_star=math.inf, u=math.inf, delta_wip_max=math.inf)
    effort = {"starts": 3, "max_iters": 8} if dim == 14 else {"starts": 6, "max_iters": 40}
    # one vehicle is unstable everywhere, two are stable only where p_0 is large
    fleets = [fleet, FleetConfig((1,)), FleetConfig((2,))]
    for nominal in (p_nom, None):
        got = _worst_cases(model, fleets, limits, nominal, **effort)
        assert got == [oracle(model, f, limits, nominal, **effort) for f in fleets]
        assert got[0] is not None and got[1] is None


def test_lockstep_matches_oracle_on_boxes_unstable_starts_and_short_runs():
    model, p, limits = small()
    near = dataclasses.replace(limits, p_neighborhood_radius=0.05)
    assert _worst_cases(model, [FleetConfig((1, 3))], near, p) == [oracle(model, FleetConfig((1, 3)), near, p)]
    hub_model, hub_p, _ = hub()
    lower, upper = np.full(3, CLIP_ETA), np.full(3, 1.0 - CLIP_ETA)
    starts = simplex.project_capped_simplex(simplex.halton_simplex(16, 3), lower, upper)
    stable = wip_totals_batch(hub_model, starts, FleetConfig((2,)))[1]
    assert stable.any() and not stable.all()
    fleets = [FleetConfig((2,)), FleetConfig((1,)), FleetConfig((3,))]
    for nominal in (hub_p, None):
        got = _worst_cases(hub_model, fleets, limits, nominal, max_iters=40)
        assert got == [oracle(hub_model, f, limits, nominal, max_iters=40) for f in fleets]
        assert got[0] is not None and got[1] is None
    for max_iters in (0, 1):
        fleets = [FleetConfig((1, 2)), FleetConfig((1, 5))]
        got = _worst_cases(model, fleets, limits, p, max_iters=max_iters)
        assert got == [oracle(model, f, limits, p, max_iters=max_iters) for f in fleets]


@pytest.mark.parametrize("groups_of", [1, 4])
def test_plan_is_the_same_in_smaller_groups(monkeypatch, groups_of):
    model, p, limits = small()
    space = load_fixture("planner_small").fleet_candidates
    whole = plan_fleet(model, space, limits, p)
    per_candidate = (robust_planner.ASCENT_STARTS + 1) * (model.wltp_dim - 1) * len(model.stations) ** 2
    monkeypatch.setattr(robust_planner, "_BATCH_ELEMENTS", groups_of * per_candidate)
    assert plan_fleet(model, space, limits, p) == whole


# --- fluctuation probes ------------------------------------------------------

def fluctuation(model, p, fleet, epsilon):
    """(wip_fluctuation, wip_hard_cap) as check_constraints measures them at
    probe scale epsilon."""
    limits = PlannerLimits(c_max=9, w_star=math.inf, u=math.inf, delta_wip_max=math.inf, epsilon=epsilon)
    report = check_constraints(model, p, fleet, limits)
    return report["wip_fluctuation"].measured, report["wip_hard_cap"].measured


def test_delta_wip_tracks_gradient_norm():
    model, p, fleet = hub()
    v = phi(model, p, fleet)
    eps = 1e-3
    d1 = fluctuation(model, p, fleet, eps)[0]
    assert d1 == pytest.approx(eps * v, rel=0.1)
    d2 = fluctuation(model, p, fleet, 2 * eps)[0]
    assert d2 == pytest.approx(2 * d1, rel=0.05)


def test_fixed_directions_cover_random_directions():
    model, p, fleet = hub()
    eps = 0.05
    fixed = fluctuation(model, p, fleet, eps)[0]
    rng = np.random.default_rng(123)
    raw = rng.standard_normal((10_000, 3))
    raw -= raw.mean(axis=1, keepdims=True)
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    totals, stable = wip_totals_batch(model, p[None, :] + eps * raw, fleet)
    assert stable.all()
    base = wip(model, p, fleet).total_wip
    random_max = float(np.abs(totals - base).max())
    assert fixed >= 0.95 * random_max


def test_unstable_probe_reports_infinite_fluctuation():
    # fleet of two is stable only just above p0 = 3/7; probes cross the edge
    model, _, _ = hub()
    p = np.array([0.43, 0.285, 0.285])
    fleet = FleetConfig((2,))
    assert wip(model, p, fleet).total_wip < math.inf
    d, wmax = fluctuation(model, p, fleet, 0.05)
    assert d == math.inf and wmax == math.inf


# --- constraint audit --------------------------------------------------------

CHECK_KEYS = (
    "fleet_total",
    "wltp_sum",
    "wltp_open_interval",
    "nominal_wip",
    "wip_fluctuation",
    "wip_hard_cap",
)


def test_check_constraints_passes_at_nominal():
    model, p, limits = small()
    fleet = FleetConfig((1, 5))
    report = check_constraints(model, p, fleet, limits)
    assert tuple(c.key for c in report.checks) == CHECK_KEYS
    assert report.all_passed and report.failed_keys == ()
    assert report["nominal_wip"].measured == pytest.approx(wip(model, p, fleet).total_wip)
    assert report["fleet_total"].measured == 6.0
    assert report.mc_exceedance is None
    with pytest.raises(KeyError):
        report["nonexistent"]


def test_check_constraints_failures_are_data():
    model, p, _ = small()
    tight = PlannerLimits(c_max=1, w_star=1.0, u=1.0, delta_wip_max=1e-6)
    report = check_constraints(model, p, FleetConfig((1, 5)), tight)
    assert not report.all_passed
    assert {"fleet_total", "nominal_wip"} <= set(report.failed_keys)
    payload = report.to_dict()
    assert payload["all_passed"] is False
    assert len(payload["checks"]) == len(CHECK_KEYS)


def test_check_constraints_with_unstable_nominal():
    model, p, _ = hub()
    limits = PlannerLimits(c_max=9, w_star=50.0, u=100.0, delta_wip_max=10.0)
    report = check_constraints(model, p, FleetConfig((1,)), limits)
    assert not report["nominal_wip"].passed
    assert report["nominal_wip"].measured == math.inf
    assert report["nominal_wip"].detail == "unstable_station"
    assert not report["wip_hard_cap"].passed
    assert report["wltp_sum"].passed and report["wltp_open_interval"].passed


def test_mc_exceedance_is_deterministic():
    model, p, limits = small()
    fleet = FleetConfig((1, 5))
    mc = dataclasses.replace(limits, mc_samples=300)
    a = check_constraints(model, p, fleet, mc)
    b = check_constraints(model, p, fleet, mc)
    assert a.mc_exceedance == b.mc_exceedance
    assert 0.0 <= a.mc_exceedance <= 1.0
    easy = dataclasses.replace(limits, mc_samples=300, u=1e9)
    assert check_constraints(model, p, fleet, easy).mc_exceedance == 0.0


# the limit sets the shared checks are compared with the per-fleet oracle under
LIMIT_CHANGES = {
    "fixture": {},
    "mc": {"mc_samples": 300},
    "mc_loose_cap": {"mc_samples": 300, "u": 1e9},
    "wide_probes": {"epsilon": 0.2},
    "tight_caps": {"w_star": 5.0, "u": 6.0, "delta_wip_max": 1e-6},
}


@pytest.mark.parametrize("changes", LIMIT_CHANGES.values(), ids=LIMIT_CHANGES.keys())
def test_shared_checks_match_per_fleet_oracle(changes):
    model, p, limits = small()
    limits = dataclasses.replace(limits, **changes)
    checks = robust_planner._ConstraintChecks(model, p, limits)
    details = set()
    fleets = list(load_fixture("planner_small").fleet_candidates)
    wants = []
    for fleet in fleets:
        want = support.per_fleet_constraints(model, p, fleet, limits)
        got = checks.reports([fleet])[0]
        assert got == want and repr(got) == repr(want), fleet
        assert check_constraints(model, p, fleet, limits) == want
        details.add(got["nominal_wip"].detail)
        wants.append(want)
    # zero-vehicle and stable nominal points are both among them
    assert details == {"zero_vehicles", ""}
    # all 49 fleets read as one group, by a fresh plan's checks too
    for group_checks in (checks, robust_planner._ConstraintChecks(model, p, limits)):
        got = group_checks.reports(fleets)
        assert len(fleets) == 49 and len(got) == 49
        for fleet, report, want in zip(fleets, got, wants):
            assert report == want and repr(report) == repr(want), fleet


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_shared_checks_match_per_fleet_oracle_in_chunks(monkeypatch, chunk):
    # chunks of 1, 2 and 7 fleets split the 49 fleets evenly and unevenly
    model, p, limits = small()
    limits = dataclasses.replace(limits, mc_samples=300)
    fleets = list(load_fixture("planner_small").fleet_candidates)
    wants = [support.per_fleet_constraints(model, p, fleet, limits) for fleet in fleets]
    checks = robust_planner._ConstraintChecks(model, p, limits)
    table = checks.traffic
    assert table.shape == (1 + DELTA_DIRECTIONS + 300, len(model.stations))
    monkeypatch.setattr(robust_planner, "_BATCH_ELEMENTS", chunk * table.size)
    got = checks.reports(fleets)
    assert len(got) == len(fleets) == 49
    for fleet, report, want in zip(fleets, got, wants):
        assert repr(report) == repr(want), fleet


def test_fleet_with_too_few_types_is_named_in_a_group():
    model, p, limits = small()
    # the message of the first fleet with too few types, for its first station
    for fleets, message in (
        ([FleetConfig((1, 5)), FleetConfig((2,))], "station T2 binds vehicle type 1, but the fleet has 1 types"),
        ([FleetConfig(()), FleetConfig((1,))], "station T1 binds vehicle type 0, but the fleet has 0 types"),
    ):
        with pytest.raises(InvalidRouting) as exc:
            plan_fleet(model, fleets, limits, p)
        assert str(exc.value) == message
        short = next(fleet for fleet in fleets if len(fleet.counts) < 2)
        with pytest.raises(InvalidRouting) as exc:
            queueing.service_rates(model, short)
        assert str(exc.value) == message


def test_shared_checks_match_oracle_at_unstable_points():
    model, p, _ = hub()
    limits = PlannerLimits(c_max=9, w_star=50.0, u=100.0, delta_wip_max=10.0, mc_samples=300)
    cases = [
        (p, FleetConfig((1,)), limits, "unstable_station"),
        (p, FleetConfig((0,)), limits, "zero_vehicles"),
        # stable nominal point whose probes cross into instability
        (np.array([0.43, 0.285, 0.285]), FleetConfig((2,)), dataclasses.replace(limits, epsilon=0.05), ""),
    ]
    for p, fleet, limits, detail in cases:
        want = support.per_fleet_constraints(model, p, fleet, limits)
        got = check_constraints(model, p, fleet, limits)
        assert got == want and repr(got) == repr(want)
        assert got["nominal_wip"].detail == detail
        assert got["wip_hard_cap"].measured == math.inf


@pytest.mark.parametrize("chunk", [1, 99, 5000])
def test_monte_carlo_draws_are_the_same_in_chunks(monkeypatch, chunk):
    model, p, limits = small()
    # a cap near the median WIP of the draws, so that the exceedance is neither 0 nor 1
    limits = dataclasses.replace(limits, mc_samples=5000, w_star=5.0, u=5.07)
    fleet = FleetConfig((1, 5))
    # the oracle draws and solves all 5000 rows in one batch
    want = support.per_fleet_constraints(model, p, fleet, limits).mc_exceedance
    assert 0.2 < want < 0.8
    rng = np.random.default_rng(robust_planner._MC_SEED)
    lam = queueing._solve(model, rng.dirichlet(limits.mc_alpha * p, size=5000))[2]
    monkeypatch.setattr(robust_planner, "_BATCH_ELEMENTS", chunk * len(model.stations) ** 2)
    checks = robust_planner._ConstraintChecks(model, p, limits)
    assert checks.reports([fleet])[0].mc_exceedance == want
    assert np.array_equal(checks.traffic[1 + DELTA_DIRECTIONS:], lam)


def counted_traffic_solves(monkeypatch):
    """Record the number of rows of every traffic-only (order 0) queueing._solve call."""
    rows, solve = [], queueing._solve

    def counting(model, P, order=0):
        if order == 0:
            rows.append(np.atleast_2d(P).shape[0])
        return solve(model, P, order)

    monkeypatch.setattr(queueing, "_solve", counting)
    return rows


def test_plan_solves_the_shared_traffic_once(monkeypatch):
    model, p, limits = small()
    space = load_fixture("planner_small").fleet_candidates
    rows = counted_traffic_solves(monkeypatch)
    plan_fleet(model, space, dataclasses.replace(limits, mc_samples=300), p)
    # the nominal point and its fluctuation probes in one solve, then the
    # Monte Carlo draws
    assert rows == [1 + DELTA_DIRECTIONS, 300]


# planner_small's routing with T2's row at 0.6 + p_0: it sums to 1 at the
# nominal point and exceeds 1 at the probes that raise p_0
PROBE_INVALID = {
    "nominal_p": [0.4, 0.4, 0.2],
    "routing": [
        {"from": "T1", "to": "T2", "value": "p:1"},
        {"from": "T1", "to": "P1", "value": "p:2"},
        {"from": "T2", "to": "P1", "value": "const:0.6"},
        {"from": "T2", "to": "T1", "value": "p:0"},
    ],
}


def test_a_routing_invalid_at_a_probe_is_refused_whatever_the_fleets(capsys):
    sets = [arg for key, value in PROBE_INVALID.items() for arg in ("--set", f"{key}={json.dumps(value)}")]
    message = "routing row for station T2 sums to 1.008164 > 1"
    # the fixture's ranges, then ranges where no nominal point is stable
    for extra in ([], ["--set", "fleet_candidates.1.max=0"]):
        start = time.perf_counter()
        assert cli.main(["plan", "--scenario", "planner_small", *sets, *extra]) == 1
        assert time.perf_counter() - start < 5.0
        out, err = capsys.readouterr()
        assert out == "error=invalid_routing\n"
        assert err.strip() == message
    sc = scenario_from_dict({**resolve_scenario_raw("planner_small"), **PROBE_INVALID})
    model = build_routing_model(sc)
    # the nominal point alone is valid; (1, 0) has no vehicle at T2, so its
    # nominal point is unstable
    assert wip_totals_batch(model, sc.nominal_p, FleetConfig((1, 1)))[1].all()
    assert not wip_totals_batch(model, sc.nominal_p, FleetConfig((1, 0)))[1].any()
    with pytest.raises(InvalidRouting) as exc:
        check_constraints(model, sc.nominal_p, FleetConfig((1, 0)), sc.limits)
    assert str(exc.value) == message


# --- fleet scan --------------------------------------------------------------

def test_plan_matches_lattice_oracle_on_subrange():
    model, p, limits = small()
    candidates = [FleetConfig((1, c)) for c in (2, 3, 4, 5)]
    result = plan_fleet(model, candidates, limits, p)
    assert result.search_mode == "exhaustive"
    assert result.c_star.counts == (1, 5)
    assert len(result.examined) == 4
    assert all(o.feasible for o in result.examined)
    # slow oracle: best config by lattice phi, same answer and close value
    scores = {f.counts: lattice_phi_max(model, f, m=40)[0] for f in candidates}
    oracle_counts = min(scores, key=lambda c: scores[c])
    assert oracle_counts == result.c_star.counts
    assert abs(result.worst_case.v_star - scores[oracle_counts]) <= 1e-4
    header, rows = result.to_csv_rows()
    assert header[0] == "config" and len(rows) == 4
    assert rows[-1][0] == "1:5" and rows[-1][1] == "true"


def test_a_space_is_cut_at_c_max_before_the_scan():
    model, p, limits = small()
    space = load_fixture("planner_small").fleet_candidates
    fixture = plan_fleet(model, space, limits, p)
    # the fixture's ranges already fit c_max = 6: its own fleets are scanned
    assert all(o.fleet is f for o, f in zip(fixture.examined, space))
    # (0, 6) x (0, 100000) is cut back to the fixture's (0, 6) x (0, 6), whose
    # plan test_plan_is_pinned pins
    wide = plan_fleet(model, FleetCandidateSpace(((0, 6), (0, 100_000))), limits, p)
    assert repr(wide.to_dict()) == repr(fixture.to_dict())
    # 160,801 fleets cut to the 1,681 of (0, 40) x (0, 40)
    wider = plan_fleet(
        model, FleetCandidateSpace(((0, 400), (0, 400))), dataclasses.replace(limits, c_max=40), p
    )
    assert len(wider.examined) == 41 * 41
    assert wider.c_star.counts == (1, 39)
    assert wider.worst_case.v_star == 0.02779678064589654


def test_a_cut_box_above_the_cap_is_refused_before_any_check(monkeypatch):
    model, p, limits = small()
    space = FleetCandidateSpace(((0, 6), (0, 100_000)))  # cut to 49 fleets
    rows = counted_traffic_solves(monkeypatch)
    monkeypatch.setattr(robust_planner, "FLEETS_MAX", 48)
    with pytest.raises(ValidationErrors) as exc:
        plan_fleet(model, space, limits, p)
    assert exc.value.errors == [
        "fleet_candidates: cut at limits.c_max=6, the ranges hold 49 fleets; a plan scans at most 48"
    ]
    # minima above c_max leave nothing to scan
    with pytest.raises(NoFeasibleFleet, match="^no candidate fleet satisfies every constraint$"):
        plan_fleet(model, FleetCandidateSpace(((4, 6), (3, 100_000))), limits, p)
    assert rows == []
    monkeypatch.setattr(robust_planner, "FLEETS_MAX", 49)
    assert len(plan_fleet(model, space, limits, p).examined) == 49


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda b: tuple(sorted(b))),
        min_size=2,
        max_size=3,
    ),
    st.integers(1, 10),
)
def test_a_cut_space_plans_as_its_uncut_list(bounds, c_max):
    model, p, limits = small()
    # open WIP caps: a fleet fails only fleet_total or an unstable nominal point
    limits = PlannerLimits(c_max=c_max, w_star=math.inf, u=math.inf, delta_wip_max=math.inf)
    space = FleetCandidateSpace(tuple(bounds))
    fleets = list(space)
    # the smallest box holding every fleet whose total is at most c_max
    spare = c_max - sum(lo for lo, _ in bounds)
    box = set(itertools.product(*(range(lo, min(hi, lo + spare) + 1) for lo, hi in bounds)))
    assert all(f.total > c_max for f in fleets if f.counts not in box)
    try:
        whole = plan_fleet(model, fleets, limits, p)
    except NoFeasibleFleet:
        with pytest.raises(NoFeasibleFleet):
            plan_fleet(model, space, limits, p)
        return
    cut = plan_fleet(model, space, limits, p)
    assert cut.c_star == whole.c_star
    assert cut.worst_case == whole.worst_case
    assert cut.constraints == whole.constraints
    assert [o.fleet.counts for o in cut.examined] == [f.counts for f in fleets if f.counts in box]
    assert all("fleet_total" in o.reasons for o in whole.examined if o.fleet.counts not in box)


def test_worst_case_shrinks_as_fleet_grows():
    model, p, limits = small()
    values = [
        worst_case_direction(model, FleetConfig((1, c)), limits, p).v_star for c in range(1, 6)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(204124.19794178221, rel=1e-6)
    assert values[1] == pytest.approx(1.6282180770034866, rel=1e-6)
    assert values[-1] == pytest.approx(0.25698180955536876, rel=1e-6)


def test_no_feasible_fleet():
    model, p, _ = small()
    strict = PlannerLimits(c_max=2, w_star=0.5, u=0.5, delta_wip_max=1e-9)
    with pytest.raises(NoFeasibleFleet):
        plan_fleet(model, [FleetConfig((1, 1))], strict, p)


def test_planner_limits_collects_problems():
    with pytest.raises(ValidationErrors) as exc:
        PlannerLimits(c_max=0, w_star=-1.0, u=-2.0, delta_wip_max=0.0)
    assert len(exc.value.errors) >= 3
    # open-ended caps are legal; the CLI's permissive defaults rely on this
    PlannerLimits(c_max=10, w_star=math.inf, u=math.inf, delta_wip_max=math.inf)


def test_candidate_space_enumeration():
    space = FleetCandidateSpace(((1, 5), (1, 5)))
    assert space.count == 25
    fleets = list(space)
    assert fleets[0].counts == (1, 1) and fleets[-1].counts == (5, 5)
    with pytest.raises(ValidationErrors) as exc:
        FleetCandidateSpace(((2, 1), (0, 3), (-1, 0)))
    assert exc.value.errors == [
        "range 0 is (2, 1); need 0 <= min <= max",
        "range 2 is (-1, 0); need 0 <= min <= max",
    ]


# --- pinned outputs ----------------------------------------------------------

def sha256_of_repr(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize(
    "name, sha256",
    [
        ("queueing_reference", "580c65618754ba01fd959ac43c738891a380ee7f30cbdaab0b6effe36777352b"),
        ("queueing_adversarial", "b759a38cd212d61f4cfcc02c81807e207d32893ef4a77995231a6312ee3023c3"),
        ("planner_small", "68ff4f03c1e7a4024b41368723adbea32ea116c7eab1c45f3feb7906b0e718dc"),
    ],
)
def test_worst_case_is_pinned(name, sha256):
    sc = load_fixture(name)
    fleet = sc.nominal_fleet or FleetConfig(())
    # the limits the worstcase command takes for a fixture without its own
    limits = sc.limits or PlannerLimits(
        c_max=max(fleet.total, 1), w_star=math.inf, u=math.inf, delta_wip_max=math.inf
    )
    wc = worst_case_direction(build_routing_model(sc), fleet, limits, sc.nominal_p)
    assert sha256_of_repr(wc) == sha256


def test_plan_is_pinned():
    sc = load_fixture("planner_small")
    result = plan_fleet(build_routing_model(sc), sc.fleet_candidates, sc.limits, sc.nominal_p)
    assert sha256_of_repr(result.to_dict()) == "1d06b3128c497ec8b29bd39b1ec7892899824ae3dae93505e9f25e8697ee88d9"
