"""Queueing model: closed-form networks, gradient fidelity, monotonicity audit."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from fabflow import queueing, simplex
from fabflow.errors import (
    InvalidRouting,
    NonOpenNetwork,
    UnstableStation,
    ValidationErrors,
    ZeroVehicles,
)
from fabflow.queueing import (
    FleetConfig,
    RoutingModel,
    StationKind,
    StationProfile,
    build_routing_model,
    check_monotonicity,
    grid_from_axes,
    parse_routing_expr,
    projected_gradient,
    routing_expr_to_str,
    service_rates,
    steepest_feasible_direction,
    wip,
    wip_gradient,
    wip_totals_batch,
    wltp_errors,
)
from fabflow.scenario import load_fixture, resolve_scenario_raw, scenario_from_dict


def station(sid, mu, gamma=0.0):
    return StationProfile(sid, StationKind.PROCESS, mu, gamma)


def hub():
    """Reference hub-and-arms fixture: model, nominal p, nominal fleet."""
    sc = load_fixture("queueing_reference")
    return build_routing_model(sc), np.asarray(sc.nominal_p), sc.nominal_fleet


def hub_total_wip(p, count=3):
    # every arrival rate has a closed form: hub sees 2/(1+p0), arms see
    # p_i times that, entry and exit both see exactly 1
    lam_t = 2.0 / (1.0 + p[0])
    pairs = [(1.0, 3.0), (lam_t, 0.7 * count), (p[1] * lam_t, 25.0), (p[2] * lam_t, 25.0), (1.0, 4.0)]
    total = 0.0
    for lam, mu in pairs:
        rho = lam / mu
        total += rho / (1.0 - rho)
    return total


def hub_gradient(p, count=3):
    """Hand-derived free-coordinate WIP gradient for the hub fixture."""
    lam_t = 2.0 / (1.0 + p[0])
    dlam = lam_t**2 / 2.0  # d(lam_t)/dp_i along e_i - e_0, any i
    mu_t = 0.7 * count

    def wprime(rho):
        return 1.0 / (1.0 - rho) ** 2

    out = []
    for i, j in ((1, 2), (2, 1)):
        g = wprime(lam_t / mu_t) * dlam / mu_t
        g += wprime(p[i] * lam_t / 25.0) * (lam_t + p[i] * dlam) / 25.0
        g += wprime(p[j] * lam_t / 25.0) * (p[j] * dlam) / 25.0
        out.append(g)
    return np.array(out)


# --- probability vectors ----------------------------------------------------

def test_wltp_rejects_bad_vectors():
    assert wltp_errors((0.5, 0.6)) == ["probabilities must sum to 1 (got 1.1)"]
    assert wltp_errors((1.0, 0.0)) == ["each probability must lie strictly between 0 and 1"]
    assert wltp_errors((1.0,)) == ["transfer probabilities need at least two entries"]
    assert len(wltp_errors((float("nan"), 0.5))) == 2
    assert wltp_errors([0.2, 0.2]) and wltp_errors([1.2, -0.2])
    assert wltp_errors([0.4, 0.35, 0.25]) == []


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5))
def test_wltp_accepts_normalized_interior(values):
    p = np.asarray(values) / np.sum(values)
    assert wltp_errors(tuple(p)) == []


def test_routing_expr_round_trip():
    for text in ("const:0.5", "p:1", "1-p:2", "p:1*1-p:2", "const:0.3*p:0"):
        assert routing_expr_to_str(parse_routing_expr(text)) == text


def test_routing_expr_rejects_garbage():
    with pytest.raises(InvalidRouting):
        parse_routing_expr("q:1")
    with pytest.raises(InvalidRouting):
        parse_routing_expr("const:1.5")
    with pytest.raises(InvalidRouting):
        parse_routing_expr("")


# --- closed-form networks ---------------------------------------------------

P_ANY = (0.6, 0.4)  # routing below ignores p; any valid vector will do


def test_single_station_closed_form():
    model = RoutingModel.from_bindings([station("S", 1.0, gamma=0.5)], [], wltp_dim=2)
    assert support.traffic_equations(model, P_ANY) == pytest.approx([0.5])
    report = wip(model, P_ANY, FleetConfig(()))
    assert report.utilizations == pytest.approx([0.5])
    assert report.total_wip == pytest.approx(1.0)


def test_tandem_line_closed_form():
    model = RoutingModel.from_bindings(
        [station("A", 3.0, gamma=1.0), station("B", 4.0)],
        [("A", "B", "const:1.0")],
        wltp_dim=2,
    )
    assert support.traffic_equations(model, P_ANY) == pytest.approx([1.0, 1.0])
    report = wip(model, P_ANY, FleetConfig(()))
    assert report.total_wip == pytest.approx(0.5 + 1.0 / 3.0)


def test_feedback_loop_doubles_arrivals():
    # half the output loops back, so lambda = gamma / (1 - 0.5)
    model = RoutingModel.from_bindings(
        [station("S", 4.0, gamma=1.0)], [("S", "S", "const:0.5")], wltp_dim=2
    )
    assert support.traffic_equations(model, P_ANY) == pytest.approx([2.0])


def test_hub_arrival_rate_matches_closed_form():
    model, _, _ = hub()
    for p in ([0.4, 0.35, 0.25], [0.1, 0.6, 0.3], [0.8, 0.1, 0.1]):
        lam = support.traffic_equations(model, p)
        by_id = dict(zip(model.station_ids, lam))
        assert by_id["T"] == pytest.approx(2.0 / (1.0 + p[0]), rel=1e-12)
        assert by_id["OUT"] == pytest.approx(1.0, rel=1e-12)
        assert by_id["A1"] == pytest.approx(p[1] * by_id["T"], rel=1e-12)


def test_hub_nominal_wip_matches_closed_form():
    model, p, fleet = hub()
    report = wip(model, p, fleet)
    assert report.total_wip == pytest.approx(hub_total_wip(p), rel=1e-9)
    assert 2.9 < report.total_wip < 3.1


def test_transport_rate_pools_vehicles():
    model, _, _ = hub()
    for count in (1, 3, 5):
        mu = dict(zip(model.station_ids, service_rates(model, FleetConfig((count,)))))
        assert mu["T"] == pytest.approx(0.7 * count)
        assert mu["IN"] == pytest.approx(3.0)


def test_transport_station_requires_vehicle_type():
    with pytest.raises(InvalidRouting):
        StationProfile("T", StationKind.TRANSPORT, 0.7)


def test_process_station_takes_no_vehicle_type():
    with pytest.raises(InvalidRouting, match="a process station takes no vehicle_type"):
        StationProfile("IN", StationKind.PROCESS, 3.0, vehicle_type=0)


def test_vehicle_type_out_of_range():
    model, p, _ = hub()
    with pytest.raises(InvalidRouting, match="vehicle type"):
        service_rates(model, FleetConfig(()))


def test_zero_vehicles():
    model, p, _ = hub()
    with pytest.raises(ZeroVehicles) as exc:
        wip(model, p, FleetConfig((0,)))
    assert exc.value.station_id == "T"
    assert exc.value.code == "zero_vehicles"


def test_unstable_station():
    # one vehicle gives mu_T = 0.7 < lambda_T = 10/7
    model, p, _ = hub()
    with pytest.raises(UnstableStation) as exc:
        wip(model, p, FleetConfig((1,)))
    assert exc.value.station_id == "T"
    assert exc.value.rho > 1.0


def test_non_open_network():
    model = RoutingModel.from_bindings(
        [station("S", 2.0, gamma=1.0)], [("S", "S", "const:1.0")], wltp_dim=2
    )
    with pytest.raises(NonOpenNetwork):
        support.traffic_equations(model, P_ANY)


def test_routing_row_sum_above_one_rejected():
    model = RoutingModel.from_bindings(
        [station("A", 2.0, gamma=1.0), station("B", 2.0)],
        [("A", "B", "const:0.7"), ("A", "A", "const:0.4")],
        wltp_dim=2,
    )
    with pytest.raises(InvalidRouting, match="sums to"):
        support.traffic_equations(model, P_ANY)


def test_routing_negative_cell_rejected():
    # p outside [0, 1] reaches the routing only through a library call
    model = RoutingModel.from_bindings(
        [station("A", 2.0, gamma=1.0), station("B", 2.0)], [("A", "B", "1-p:1")], wltp_dim=2
    )
    with pytest.raises(InvalidRouting, match="routing cell A->B is -0.5 < 0"):
        support.traffic_equations(model, (-0.5, 1.5))


def test_binding_referencing_unknown_station():
    with pytest.raises(InvalidRouting):
        RoutingModel.from_bindings([station("A", 1.0)], [("A", "Z", "const:0.1")], wltp_dim=2)


def test_binding_p_index_out_of_range():
    with pytest.raises(InvalidRouting):
        RoutingModel.from_bindings([station("A", 1.0)], [("A", "A", "p:5")], wltp_dim=2)


def test_routing_cell_bound_twice_is_rejected_as_the_reader_rejects_it():
    stations = [station("IN", 2.0, gamma=1.0), station("T", 4.0)]
    cells = [("IN", "T", "const:0.1"), ("IN", "T", "const:0.5")]
    with pytest.raises(InvalidRouting) as exc:
        RoutingModel.from_bindings(stations, cells, wltp_dim=2)
    assert str(exc.value) == "routing IN->T: routing cell declared twice: IN->T"
    raw = resolve_scenario_raw("queueing_reference")
    raw["routing"].append({"from": "IN", "to": "T", "value": "const:0.5"})
    with pytest.raises(ValidationErrors) as exc:
        scenario_from_dict(raw)
    assert exc.value.errors == ["routing[8]: routing cell declared twice: IN->T"]


def routing_models():
    """Every fixture with stations, hub models of dims 3-10, and a model
    whose cells mix 1-, 2- and 3-factor products with const: factors."""
    models = {
        name: build_routing_model(load_fixture(name))
        for name in ("planner_small", "queueing_adversarial", "queueing_reference")
    }
    for dim in range(3, 11):
        models[f"hub_{dim}"] = build_routing_model(scenario_from_dict(support.hub_scenario(dim, [])))
    models["mixed"] = RoutingModel.from_bindings(
        [station("A", 2.0, gamma=1.0), station("B", 3.0), station("C", 4.0)],
        [
            ("A", "B", "const:0.4*p:1"),
            ("A", "C", "const:0.5*1-p:2"),
            ("B", "C", "p:0*1-p:1*const:0.8"),
            ("B", "B", "const:0.1*p:2"),
            ("C", "A", "const:0.3"),
            ("C", "B", "1-p:0"),
        ],
        wltp_dim=3,
    )
    return models


def assert_routing_matches_oracle(model, P):
    for order in (0, 1):
        try:
            want, error = support.routing_by_cell(model, P, order), None
        except InvalidRouting as exc:
            want, error = None, str(exc)
        if error is not None:
            with pytest.raises(InvalidRouting) as exc:
                queueing._routing(model, P, order)
            assert str(exc.value) == error
            continue
        got = queueing._routing(model, P, order)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), order


@pytest.mark.parametrize("name", list(routing_models()))
def test_routing_tables_match_per_cell_oracle(name):
    model = routing_models()[name]
    for rows in (1, 17, 833):
        assert_routing_matches_oracle(model, simplex.halton_simplex(rows, model.wltp_dim))


def test_routing_tables_raise_the_oracle_negative_cell_message():
    model = routing_models()["mixed"]
    P = np.array([[0.2, 0.5, 0.3], [0.3, -0.2, 0.9]])
    with pytest.raises(InvalidRouting, match="routing cell A->B is -0.08 < 0"):
        queueing._routing(model, P, 0)
    assert_routing_matches_oracle(model, P)


def valid_rows(model, P):
    """The rows of P at which the model's routing is valid."""
    def valid(p):
        try:
            queueing._routing(model, p[None], 0)
        except InvalidRouting:
            return False
        return True

    return P[[valid(p) for p in P]]


def test_routing_directional_term_matches_per_cell_oracle():
    models = routing_models()
    # cells that name const:1 themselves, beside cells padded with it
    models["const_1"] = RoutingModel.from_bindings(
        [station("A", 2.0, gamma=1.0), station("B", 3.0)],
        [
            ("A", "B", "const:1*p:1"),
            ("A", "A", "const:0.3*1-p:2*const:1"),
            ("B", "A", "p:0*const:1*p:2"),
            ("B", "B", "const:1"),
        ],
        wltp_dim=3,
    )
    rng = np.random.default_rng(2405)
    for name, model in models.items():
        P = valid_rows(model, simplex.halton_simplex(17, model.wltp_dim))
        for P in (P[:1], P):
            t = rng.normal(size=(len(P), model.wltp_dim - 1))
            R, dR, dR_along = queueing._routing(model, P, 2, t)
            first = queueing._routing(model, P, 1)
            assert R.tobytes() == first[0].tobytes() and dR.tobytes() == first[1].tobytes(), name
            d2R = support.routing_by_cell(model, P, 2)[2]
            np.testing.assert_allclose(dR_along, np.einsum("nijab,ni->njab", d2R, t), rtol=1e-12, atol=1e-15)
            for p, s, row in zip(P, t, dR_along):
                assert queueing._routing(model, p[None], 2, s[None])[2][0].tobytes() == row.tobytes(), name


def test_wip_totals_batch_flags_unstable_rows():
    model, p, _ = hub()
    totals, stable = wip_totals_batch(model, np.array([p, p]), FleetConfig((1,)))
    assert not stable.any() and np.isnan(totals).all()
    totals, stable = wip_totals_batch(model, np.array([p, [0.5, 0.3, 0.2]]), FleetConfig((3,)))
    assert stable.all()
    assert totals[0] == pytest.approx(hub_total_wip(p), rel=1e-9)


def mixed_batch():
    """A line whose rows are stable, unstable, zero-vehicle or not open.

    T sends p1 of its lots to Z, a transport station with no vehicles, and
    p2 to A, which sends every lot back to T: p1 > 0 starves Z, a large p2
    overloads T, and p2 = 1 keeps lots circulating forever.
    """
    stations = [
        StationProfile("IN", StationKind.PROCESS, 3.0, 1.0),
        StationProfile("T", StationKind.TRANSPORT, 0.7, vehicle_type=0),
        StationProfile("Z", StationKind.TRANSPORT, 1.0, vehicle_type=1),
        station("A", 2.0),
        station("OUT", 4.0),
    ]
    bindings = [
        ("IN", "T", "const:1.0"),
        ("T", "OUT", "p:0"),
        ("T", "Z", "p:1"),
        ("T", "A", "p:2"),
        ("A", "T", "const:1.0"),
        ("Z", "OUT", "const:1.0"),
    ]
    model = RoutingModel.from_bindings(stations, bindings, wltp_dim=3)
    rng = np.random.default_rng(2024)
    p2 = rng.uniform(0.0, 0.9, 60)
    p1 = np.where(rng.random(60) < 0.5, 0.0, rng.uniform(0.0, 0.1, 60))
    P = np.vstack([np.column_stack([1.0 - p1 - p2, p1, p2]), [[0.0, 0.0, 1.0]] * 4])
    return model, P[rng.permutation(len(P))], FleetConfig((3, 0))


def outcome(fn, *args):
    """(error class, station or message) of a call, or None when it returns."""
    try:
        fn(*args)
    except (NonOpenNetwork, UnstableStation, ZeroVehicles) as exc:
        return type(exc), getattr(exc, "station_id", str(exc))
    return None


def test_wip_kernel_contract_on_mixed_rows():
    model, P, fleet = mixed_batch()
    totals, stable = wip_totals_batch(model, P, fleet)
    outcomes = [outcome(wip, model, p, fleet) for p in P]
    kinds = {o[0] if o else None for o in outcomes}
    assert kinds == {None, UnstableStation, ZeroVehicles, NonOpenNetwork}
    for p, total, ok, out in zip(P, totals, stable, outcomes):
        assert ok == (out is None)
        if ok:
            assert total == wip(model, p, fleet).total_wip  # bit for bit
        else:
            assert np.isnan(total)
            assert outcome(wip_gradient, model, p, fleet) == out
        if out and out[0] is NonOpenNetwork:
            assert outcome(support.traffic_equations, model, p) == out


def test_mixed_fleet_batch_matches_one_row_calls():
    model, P, _ = mixed_batch()
    fleets = [FleetConfig((3, 0)), FleetConfig((3, 2)), FleetConfig((1, 1)), FleetConfig((0, 0)), FleetConfig((6, 1))]
    rows = [fleets[i % len(fleets)] for i in range(len(P))]
    mu = np.array([service_rates(model, f) for f in rows])
    lams = queueing._solve(model, P)[2]
    _, rhos, _ = queueing._utilization(lams, mu)
    tangents, norms, hts, stable = queueing._wip_derivatives(model, P, mu, ascent=True)
    assert len(hts) == stable.sum()
    stable_rows = iter(range(len(hts)))
    kinds = set()
    for p, fleet, ok, lam, rho in zip(P, rows, stable, lams, rhos):
        one = queueing._solve(model, p)[2]
        np.testing.assert_array_equal(lam, one[0])
        np.testing.assert_array_equal(rho, queueing._utilization(one, service_rates(model, fleet))[1][0])
        out = outcome(wip_gradient, model, p, fleet)
        kinds.add(out[0] if out else None)
        assert ok == (out is None)
        if ok:
            r = next(stable_rows)
            tangent, norm = projected_gradient(wip_gradient(model, p, fleet))
            np.testing.assert_array_equal(tangents[r], tangent)
            assert norms[r] == norm
            np.testing.assert_array_equal(hts[r], support.ascent_pass(model, p, fleet)[2])
        else:
            assert out == outcome(wip, model, p, fleet)
    assert kinds == {None, UnstableStation, ZeroVehicles, NonOpenNetwork}
    # raising instead, the batch raises the error of its first unstable row
    first_bad = int(np.argmin(stable))
    assert outcome(queueing._wip_derivatives, model, P, mu) == outcome(
        wip_gradient, model, P[first_bad], rows[first_bad]
    )


def cell_model(gammas):
    """Stations S0..S(k-1) whose routing cell a -> b is p_(a k + b): a p row
    of a batch carries its own routing matrix, R = p.reshape(k, k)."""
    k = len(gammas)
    return RoutingModel.from_bindings(
        [station(f"S{a}", 1.0, gamma=g) for a, g in enumerate(gammas)],
        [(f"S{a}", f"S{b}", f"p:{a * k + b}") for a in range(k) for b in range(k)],
        wltp_dim=k * k,
    )


def routing_draws(rng, n, k):
    """n random routing matrices (n, k, k), non-negative with some cells 0 and
    row sums at most 1 (often exactly 1), and the mask of those with a
    closed class: stations S0..S(c-1) that lots never leave, so rho = 1.
    Half the matrices are scaled by 1 - 10^-u, 1 <= u <= 8.5, which puts
    those with a closed class just inside the margin."""
    R = rng.random((n, k, k)) * (rng.random((n, k, k)) < 0.6)
    target = np.where(rng.random((n, k, 1)) < 0.4, 1.0, rng.random((n, k, 1)))
    sums = R.sum(axis=2, keepdims=True)
    R = np.divide(R * target, sums, out=np.zeros_like(R), where=sums > 0.0)
    closed = rng.random(n) < 0.35
    for r in np.flatnonzero(closed):
        c = int(rng.integers(1, k + 1))
        block = R[r, :c, :c]
        block[block.sum(axis=1) == 0.0, 0] = 1.0
        R[r, :c, :c] = block / block.sum(axis=1, keepdims=True)
        R[r, :c, c:] = 0.0
    scaled = rng.random(n) < 0.5
    R[scaled] *= 1.0 - 10.0 ** -rng.uniform(1.0, 8.5, (int(scaled.sum()), 1, 1))
    return R, closed & ~scaled


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8))
def test_open_rows_follow_the_spectral_rule(seed, k, n):
    rng = np.random.default_rng(seed)
    R, closed = routing_draws(rng, n, k)
    model = cell_model(rng.random(k) * (rng.random(k) < 0.7))
    P = R.reshape(n, k * k)
    lam = queueing._solve(model, P)[2]
    not_open = np.isnan(lam).all(axis=1)
    assert not np.isnan(lam[~not_open]).any()
    # within rounding of the margin 1 - 1e-12 the two rules may part; a
    # closed class sits at rho = 1 exactly
    clear = closed | (np.abs(support.spectral_radius(R) - (1.0 - 1e-12)) >= 1e-9)
    np.testing.assert_array_equal(not_open[clear], ~support.spectral_open(R)[clear])
    assert not_open[closed].all()
    for p, row in zip(P, lam):
        np.testing.assert_array_equal(queueing._solve(model, p)[2][0], row)


def test_a_singular_certificate_leaves_the_other_rows_alone():
    # a self-loop of exactly 1 - 1e-12 makes (1 - 1e-12) I - R^T singular,
    # and the batched solve raises for every row
    model = RoutingModel.from_bindings([station("S", 2.0, gamma=1.0)], [("S", "S", "p:1")], wltp_dim=2)
    P = np.array([[0.5, 0.5], [1e-12, 1.0 - 1e-12], [0.9, 0.1]])
    lam = queueing._solve(model, P)[2]
    assert lam[0, 0] == 2.0 and np.isnan(lam[1, 0])
    for p, row in zip(P, lam):
        np.testing.assert_array_equal(queueing._solve(model, p)[2][0], row)


def test_rowwise_projected_gradient_matches_one_row_calls():
    rng = np.random.default_rng(12)
    model, P, fleet = mixed_batch()
    stable = wip_totals_batch(model, P, fleet)[1]
    sets = [queueing._wip_derivatives(model, P[stable], service_rates(model, fleet))[0]]
    sets += [rng.normal(size=(50, n)) * rng.choice([1e-6, 1.0, 1e6], size=(50, 1)) for n in range(1, 15)]
    for G in sets:
        tangents, norms = projected_gradient(G)
        for g, t, v in zip(G, tangents, norms):
            t1, v1 = projected_gradient(g)
            np.testing.assert_array_equal(t, t1)
            assert v == v1 and isinstance(v1, float)


# --- gradients ---------------------------------------------------------------

def test_hub_gradient_matches_closed_form():
    model, p_nom, fleet = hub()
    for p in (p_nom, np.array([0.2, 0.5, 0.3]), np.array([0.55, 0.15, 0.3])):
        g = wip_gradient(model, p, fleet)
        np.testing.assert_allclose(g, hub_gradient(p), rtol=0, atol=1e-6)


def test_gradient_matches_slow_reference():
    rng = np.random.default_rng(2401)
    for _ in range(10):
        model, p, fleet = support.random_capped_instance(rng)
        fast = wip_gradient(model, p, fleet)
        slow = support.three_point_gradient(model, p, fleet)
        np.testing.assert_allclose(fast, slow, rtol=1e-4, atol=1e-6)


def test_hessian_is_symmetric_and_differentiates_the_gradient():
    rng = np.random.default_rng(2403)
    cases = [support.random_capped_instance(rng) for _ in range(10)]
    model, p_nom, fleet = hub()
    cases += [(model, p, fleet) for p in (p_nom, np.array([0.2, 0.5, 0.3]))]
    h = 1e-5
    for model, p, fleet in cases:
        g, hess = support.wip_hessian(model, p, fleet)
        np.testing.assert_array_equal(g, wip_gradient(model, p, fleet))
        np.testing.assert_allclose(hess, hess.T, rtol=1e-9, atol=1e-12)
        for j in range(1, p.size):
            d = np.zeros_like(p)
            d[j], d[0] = 1.0, -1.0
            column = (wip_gradient(model, p + h * d, fleet) - wip_gradient(model, p - h * d, fleet)) / (2 * h)
            np.testing.assert_allclose(hess[:, j - 1], column, rtol=1e-5, atol=1e-7)


def ascent_cases():
    """(model, fleet) of every fixture with stations, hubs of dims 3-14, a
    hub whose first arm is the two-factor p:1*1-p:2, the mixed 1-, 2- and
    3-factor model, and random capped instances."""
    cases = {
        name: (build_routing_model(load_fixture(name)), fleet)
        for name, fleet in (
            ("planner_small", FleetConfig((1, 3))),
            ("queueing_adversarial", FleetConfig(())),
            ("queueing_reference", FleetConfig((3,))),
        )
    }
    for dim, arm_1 in [*((dim, "p:1") for dim in range(3, 15)), (6, "p:1*1-p:2")]:
        sc = scenario_from_dict(support.hub_scenario(dim, [], arm_1=arm_1))
        cases[f"hub_{dim}_{arm_1}"] = (build_routing_model(sc), sc.nominal_fleet)
    cases["mixed"] = (routing_models()["mixed"], FleetConfig(()))
    rng = np.random.default_rng(2404)
    for i in range(5):
        model, _, fleet = support.random_capped_instance(rng)
        cases[f"random_{i}"] = (model, fleet)
    return cases


@pytest.mark.parametrize("name", list(ascent_cases()))
def test_ascent_pass_matches_the_hessian_oracle_times_t(name):
    model, fleet = ascent_cases()[name]
    P = valid_rows(model, simplex.halton_simplex(17, model.wltp_dim))
    P = P[wip_totals_batch(model, P, fleet)[1]]
    assert len(P)
    tangents, norms, hts, stable = queueing._wip_derivatives(model, P, service_rates(model, fleet), ascent=True)
    assert stable.all()
    for p, tangent, norm, ht in zip(P, tangents, norms, hts):
        g, hess = support.wip_hessian(model, p, fleet)
        want, want_norm = projected_gradient(g)
        np.testing.assert_array_equal(tangent, want)
        assert norm == want_norm
        np.testing.assert_allclose(ht, tangent[1:] @ hess, rtol=1e-12, atol=1e-12 * np.abs(ht).max())
        # each batched row has the bits of its one-row call
        np.testing.assert_array_equal(ht, support.ascent_pass(model, p, fleet)[2])


def test_gradient_probe_hitting_unstable_point_raises():
    # fleet of 2 is stable only on a thin slice; this p sits so close to the
    # boundary that the finite-difference probe crosses it
    model, _, _ = hub()
    with pytest.raises(UnstableStation):
        wip_gradient(model, [0.42857142, 0.28571429, 0.28571429], FleetConfig((2,)))


def test_steepest_direction_dominates_random_directions():
    model, p, fleet = hub()
    direction, value = steepest_feasible_direction(model, p, fleet)
    assert direction.sum() == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(direction) == pytest.approx(1.0)
    # the derivative along a sum-zero x is g . x[1:], since x = sum_i x_i (e_i - e_0)
    g = wip_gradient(model, p, fleet)
    assert value == pytest.approx(g @ direction[1:], rel=1e-9)
    rng = np.random.default_rng(7)
    for _ in range(50):
        raw = rng.normal(size=3)
        raw -= raw.mean()
        raw /= np.linalg.norm(raw)
        assert g @ raw[1:] <= value + 1e-9


# --- model-level monotonicity ------------------------------------------------

def test_wip_increases_with_external_arrivals():
    lo = RoutingModel.from_bindings(
        [station("A", 3.0, gamma=1.0), station("B", 4.0)], [("A", "B", "const:1.0")], wltp_dim=2
    )
    hi = RoutingModel.from_bindings(
        [station("A", 3.0, gamma=1.2), station("B", 4.0)], [("A", "B", "const:1.0")], wltp_dim=2
    )
    assert wip(hi, P_ANY, FleetConfig(())).total_wip > wip(lo, P_ANY, FleetConfig(())).total_wip


def test_extra_vehicle_reduces_wip():
    model, p, _ = hub()
    totals = [wip(model, p, FleetConfig((c,))).total_wip for c in (3, 4, 5, 6)]
    assert all(a > b for a, b in zip(totals, totals[1:]))


# --- monotonicity audit ------------------------------------------------------

def reference_grid(sc):
    axes = sc.metadata["monotonicity_grid"]["free_axes"]
    return grid_from_axes(axes, dim=len(sc.nominal_p))


def test_monotonicity_reference_all_claims_hold():
    sc = load_fixture("queueing_reference")
    report = check_monotonicity(build_routing_model(sc), reference_grid(sc), sc.nominal_fleet)
    assert report.grid_points == 400
    assert report.all_passed
    assert report.violations == ()
    assert {rec[0] for rec in report.line_records} == {
        "gradient_positive",
        "p0_decreasing",
        "pi_increasing",
    }
    header, rows = report.to_csv_rows()
    assert header == ("claim", "grid_line", "pass", "violating_points")
    assert all(row[2] == "true" for row in rows)


def test_monotonicity_adversarial_fails_as_data():
    sc = load_fixture("queueing_adversarial")
    report = check_monotonicity(build_routing_model(sc), reference_grid(sc), FleetConfig(()))
    assert not report.passed("gradient_positive")
    assert not report.passed("p0_decreasing")
    assert report.passed("pi_increasing")
    assert not report.all_passed
    assert len(report.violations) > 0
    drop = next(v for v in report.violations if v.claim == "p0_decreasing")
    # the recorded pair must actually witness the violation
    assert drop.value_b > drop.value_a
    assert drop.p_a[0] < drop.p_b[0]


def coupled_hub(dim):
    """Hub whose arm A1 is fed with p_1 * (1 - p_2): the audit finds violations."""
    raw = support.hub_scenario(
        dim, [[0.05, 0.12, 0.2]] * (dim - 1), arm_1="p:1*1-p:2", mu_base={"A1": 1.0, "T": 2.0}
    )
    return scenario_from_dict(raw)


@pytest.mark.parametrize(
    "make, fleet, rows_sha256, violations_sha256",
    [
        pytest.param(
            lambda: load_fixture("queueing_adversarial"), FleetConfig(()),
            "58967ecf1a2d86689be53194d264b98da33fe205527e194994d1b4303c182637",
            "50c5c5570e62b5c27d272948cb43419d7e259c6085cbcb2e0d726ffb46777c45",
            id="adversarial",
        ),
        pytest.param(
            lambda: coupled_hub(4), FleetConfig((3,)),
            "6ce35d745223e5140210e825abdce91eaaffc89fd6caf0868c28d1f4cb2f890a",
            "e583db0ba6bfc4be5b47057e79812c2757cb6fc3ed80e4c1fd72bd39530c32ba",
            id="coupled_hub_4",
        ),
        pytest.param(
            lambda: coupled_hub(5), FleetConfig((3,)),
            "e1f29ca2c8e06adb6ba58bda06e420d79a66f2b63eb1d7cf005d76fbe52819c0",
            "aed208746146b59ba4d17b75c02a734a6d407e99041b84c05750926f9c82c792",
            id="coupled_hub_5",
        ),
    ],
)
def test_monotonicity_audit_output_is_pinned(make, fleet, rows_sha256, violations_sha256):
    # every line record and violation, labels and witness points included
    sc = make()
    report = check_monotonicity(build_routing_model(sc), reference_grid(sc), fleet)
    assert not report.passed("gradient_positive")
    assert not report.passed("p0_decreasing")
    assert hashlib.sha256(repr(report.to_csv_rows()).encode()).hexdigest() == rows_sha256
    assert hashlib.sha256(repr(report.violations).encode()).hexdigest() == violations_sha256


@pytest.mark.parametrize(
    "name, sha256",
    [
        ("queueing_reference", "a9c2c9c191f3f419a4d032cfd8cb4b350f8654860081e6eb3f21d7dc1c20f5eb"),
        ("queueing_adversarial", "56c67827843675c23ec0b3ddb356ac86c82777a31c5a9c03a51827ed0b0087a5"),
        ("planner_small", "a8d94a697561f6768606d2cfd0672c20e757b7fccf5e457b08147c65fd798b2b"),
    ],
)
def test_wip_report_is_pinned(name, sha256):
    # every utilization and WIP to the last bit
    sc = load_fixture(name)
    report = wip(build_routing_model(sc), sc.nominal_p, sc.nominal_fleet or FleetConfig(()))
    assert hashlib.sha256(repr(report).encode()).hexdigest() == sha256


# --- grids -------------------------------------------------------------------

def test_grid_from_axes_drops_points_outside_open_simplex():
    pts = grid_from_axes([[0.3, 0.6], [0.3, 0.6]], dim=3)
    assert len(pts) == 3  # (0.6, 0.6) would push p0 to -0.2
    for p in pts:
        assert p.sum() == pytest.approx(1.0)
        assert 0.0 < p[0] < 1.0
    # p_0 = 0.7 lies inside, but p_1 = -0.2 does not
    pts = grid_from_axes([[-0.2, 0.3], [0.5]], dim=3)
    assert [p.tolist() for p in pts] == [[1.0 - 0.8, 0.3, 0.5]]


@st.composite
def free_axes(draw):
    """(free_axes, dim) for dims 2-14: at most 2,000 points.  Most axes
    hold values that keep their points inside the simplex; the others mix
    in values and ints that drop points, and some free_axes are short."""
    dim = draw(st.integers(2, 14))
    inside = st.floats(1e-9, 1.0 / dim)
    mixed = st.one_of(inside, st.floats(-0.2, 1.2), st.integers(-1, 2), st.sampled_from([0.0, 0.5, 1.0]))
    axes, budget = [], 2000
    for _ in range(draw(st.sampled_from([dim - 1] * 4 + [draw(st.integers(0, dim - 1))]))):
        length = draw(st.integers(1, max(1, min(4, budget))))
        budget //= length
        values = draw(st.sampled_from([inside] * 5 + [mixed]))
        axes.append(draw(st.lists(values, min_size=length, max_size=length)))
    return axes, dim


@settings(max_examples=300, deadline=None)
@given(free_axes())
def test_grid_from_axes_matches_the_per_point_oracle(case):
    axes, dim = case
    want = support.per_point_grid(axes, dim)
    if not want:
        with pytest.raises(ValidationErrors, match="no grid point"):
            grid_from_axes(axes, dim)
        return
    got = grid_from_axes(axes, dim)
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


@pytest.mark.parametrize("name", ["queueing_reference", "queueing_adversarial"])
def test_fixture_grid_matches_the_per_point_oracle(name):
    sc = load_fixture(name)
    axes = sc.metadata["monotonicity_grid"]["free_axes"]
    want = support.per_point_grid(axes, len(sc.nominal_p))
    assert [p.tobytes() for p in reference_grid(sc)] == [p.tobytes() for p in want]


def test_grid_axis_value_beyond_a_float_drops_its_points():
    # no float holds 10**400: like inf, it lies outside (0, 1)
    assert [p.tolist() for p in grid_from_axes([[10 ** 400, 0.25], [0.5]], dim=3)] == [[0.25, 0.25, 0.5]]


def test_wip_report_csv_shape():
    model, p, fleet = hub()
    header, rows = wip(model, p, fleet).to_csv_rows()
    assert header == ("station", "utilization", "wip")
    assert len(rows) == 5
    assert {row[0] for row in rows} == {"IN", "T", "A1", "A2", "OUT"}
