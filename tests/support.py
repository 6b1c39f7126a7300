"""Slow reference implementations shared by the unit and acceptance suites.

Everything here trades speed for obviousness: plain loops, scalar calls,
exhaustive enumeration.  The real package must agree with these.
"""
import bisect
import itertools
import math

import numpy as np

from fabflow import simplex
from fabflow.errors import (
    NonOpenNetwork,
    NoStablePoint,
    UnstableStation,
    ValidationErrors,
    ZeroVehicles,
)
from fabflow.queueing import (
    WLTP_SUM_TOL,
    FleetConfig,
    RoutingModel,
    StationKind,
    StationProfile,
    gradient_grid,
    projected_gradient,
    steepest_feasible_direction,
    traffic_equations,
    wip,
    wip_gradient,
    wip_hessian,
    wip_totals_batch,
)
from fabflow.robust_planner import (
    _MC_SEED,
    ASCENT_MAX_ITERS,
    ASCENT_STARTS,
    CLIP_ETA,
    DELTA_DIRECTIONS,
    ConstraintCheck,
    ConstraintReport,
    WorstCase,
    _search_bounds,
)
from fabflow.scheduler import (
    Assignment,
    SaParams,
    _as_result,
    _objectives,
    _sample_bounds,
    _time_matrices,
    evaluate_schedule,
)


def brute_force_min_cut(net) -> int:
    """Minimum cut capacity by enumerating every source-side subset."""
    others = [n for n in net.nodes if n not in (net.source, net.sink)]
    best = None
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {net.source, *combo}
            cap = sum(
                e.capacity_kg
                for e in net.edges
                if e.tail in side and e.head not in side
            )
            if best is None or cap < best:
                best = cap
    return best


def brute_force_front(inst):
    """Exact Pareto front over every assignment, as a set of rounded pairs."""
    vids = [v.vehicle_id for v in inst.vehicles]
    points = []
    for combo in itertools.product(vids, repeat=len(inst.tasks)):
        mapping = {t.task_id: v for t, v in zip(inst.tasks, combo)}
        obj = evaluate_schedule(inst, Assignment(mapping))
        points.append((obj.total_cost, obj.makespan_h))
    front = set()
    for c, m in points:
        dominated = any(
            (c2 <= c and m2 <= m) and (c2 < c or m2 < m) for c2, m2 in points
        )
        if not dominated:
            front.add((round(c, 9), round(m, 9)))
    return front


def row_by_row_nondominated_sort(F):
    """scheduler._nondominated_sort as it bisected once per row, duplicates
    included: the reference for the sort that bisects once per distinct key."""
    keys = list(zip(F[:, 1].tolist(), F[:, 0].tolist()))
    ranks = np.empty(len(F), dtype=int)
    tails = []
    for i in np.lexsort((F[:, 1], F[:, 0])).tolist():
        r = bisect.bisect_left(tails, keys[i])
        if r == len(tails):
            tails.append(keys[i])
        else:
            tails[r] = keys[i]
        ranks[i] = r
    return ranks


def dominance_ranks(F):
    """Front rank per row by peeling: rank 0 is every row that no other row
    dominates, rank 1 the same among the rest, and so on."""
    rows = [tuple(r) for r in F]

    def dominates(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    ranks = [None] * len(rows)
    remaining = set(range(len(rows)))
    rank = 0
    while remaining:
        front = {i for i in remaining if not any(dominates(rows[j], rows[i]) for j in remaining)}
        for i in front:
            ranks[i] = rank
        remaining -= front
        rank += 1
    return ranks


def brute_force_best_scalar(inst, bounds):
    best = float("inf")
    vids = [v.vehicle_id for v in inst.vehicles]
    for combo in itertools.product(range(len(vids)), repeat=len(inst.tasks)):
        mapping = {t.task_id: vids[v] for t, v in zip(inst.tasks, combo)}
        obj = evaluate_schedule(inst, Assignment(mapping))
        best = min(best, bounds.score(obj.total_cost, obj.makespan_h))
    return best


def full_rescore_sa(inst, params=None, seed=42):
    """Simulated annealing that copies the chromosome and re-scores it whole
    through `_objectives` for every move: the loop `sa_optimize` replaced
    with delta evaluation.  It draws each temperature's moves as the
    `sa_optimize` docstring lists them: move kinds (when a swap is
    possible), first tasks, second tasks (when a swap is possible), vehicle
    offsets, acceptance uniforms."""
    params = params or SaParams()
    if not inst.tasks:
        raise ValidationErrors(["cannot optimize an empty task list"])
    rng = np.random.default_rng(seed)
    T, rates = _time_matrices(inst)
    n_tasks, n_veh = T.shape
    bounds = _sample_bounds(rng, T, rates)
    current = rng.integers(0, n_veh, size=n_tasks)
    cur_score = bounds.score(*_objectives(current, T, rates))
    best, best_score = current.copy(), cur_score
    m = params.iters_per_temp
    can_swap = n_tasks >= 2 and n_veh >= 2
    t = params.t_initial
    while t > params.t_min:
        kind = rng.random(m) if can_swap else None
        first = rng.integers(0, n_tasks, m)
        second = rng.integers(0, n_tasks - 1, m) if can_swap else None
        offset = rng.integers(0, max(n_veh - 1, 1), m)
        accept = rng.random(m)
        for k in range(m):
            cand = current.copy()
            i = first[k]
            if can_swap and kind[k] < 0.5:
                j = second[k] if second[k] < i else second[k] + 1
                cand[i], cand[j] = cand[j], cand[i]
            else:
                cand[i] = (cand[i] + 1 + offset[k]) % n_veh
            cand_score = bounds.score(*_objectives(cand, T, rates))
            delta = cand_score - cur_score
            if delta <= 0 or accept[k] < math.exp(-delta / t):
                current, cur_score = cand, cand_score
                if cur_score < best_score:
                    best, best_score = current.copy(), cur_score
        t *= params.cooling
    return _as_result(inst, best, T, rates, bounds)


def three_point_gradient(model, p, fleet, h=1e-4):
    """Forward-difference WIP gradient, one free coordinate at a time.

    Uses the 3-point one-sided stencil (-3f0 + 4f1 - f2) / 2h along each
    e_i - e_0 direction, built entirely on scalar wip() calls so it shares
    no code with the batched central-difference path it is checked against.
    """
    p = np.asarray(p, dtype=float)
    n = p.size - 1
    out = np.empty(n)
    w0 = wip(model, p, fleet).total_wip
    for i in range(1, n + 1):
        d = np.zeros_like(p)
        d[i] = 1.0
        d[0] = -1.0
        w1 = wip(model, p + h * d, fleet).total_wip
        w2 = wip(model, p + 2.0 * h * d, fleet).total_wip
        out[i - 1] = (-3.0 * w0 + 4.0 * w1 - w2) / (2.0 * h)
    return out


def central_phi_gradient(model, p, fleet, h=2e-4, h_inner=1e-5):
    """Central-difference gradient of phi in free coordinates.

    phi(p) is the norm of the free-coordinate WIP gradient embedded as
    (0, g_1..g_n) and projected onto the sum-zero subspace.  Here g is itself
    a central difference with step `h_inner`, and phi is differenced with
    step `h`, both along e_i - e_0 and built entirely on scalar wip() calls,
    so nothing is shared with the adjoint derivatives it is checked against.
    """
    p = np.asarray(p, dtype=float)
    n = p.size - 1

    def along(i):
        d = np.zeros_like(p)
        d[i] = 1.0
        d[0] = -1.0
        return d

    def phi(q):
        g = [
            (wip(model, q + h_inner * along(i), fleet).total_wip
             - wip(model, q - h_inner * along(i), fleet).total_wip) / (2.0 * h_inner)
            for i in range(1, n + 1)
        ]
        emb = np.array([0.0] + g)
        return float(np.linalg.norm(emb - emb.mean()))

    return np.array(
        [(phi(p + h * along(i)) - phi(p - h * along(i))) / (2.0 * h) for i in range(1, n + 1)]
    )


def random_capped_instance(rng):
    """Random open network whose nominal utilizations all sit at 0.25.

    Row sums of the routing matrix stay below 0.7 for every p (constant
    factors at most 0.2 each, the single p-dependent cell scaled by at most
    0.3), so the network is open everywhere and finite-difference probes
    can never hit an unstable point.  Service rates are back-solved from
    the nominal arrival rates.

    Returns (model, p_nominal, fleet).
    """
    k = int(rng.integers(3, 7))
    dim = int(rng.integers(3, 5))
    names = [f"S{i}" for i in range(k)]
    gammas = [float(rng.uniform(0.3, 1.0)) for _ in range(k)]
    bindings = []
    for i in range(k):
        targets = [j for j in range(k) if j != i]
        rng.shuffle(targets)
        n_const = int(rng.integers(0, 3))
        for j in targets[:n_const]:
            c = rng.uniform(0.02, 0.2)
            bindings.append((names[i], names[j], f"const:{c}"))
        if n_const < len(targets) and rng.random() < 0.8:
            scale = rng.uniform(0.05, 0.3)
            idx = int(rng.integers(0, dim))
            bindings.append((names[i], names[targets[n_const]], f"const:{scale}*p:{idx}"))
    p_nominal = rng.dirichlet(np.full(dim, 5.0))
    p_nominal = 0.9 * p_nominal + 0.1 / dim  # keep probes clear of the boundary
    probe = [StationProfile(nm, StationKind.PROCESS, 1.0, g) for nm, g in zip(names, gammas)]
    lam = traffic_equations(RoutingModel.from_bindings(probe, bindings, wltp_dim=dim), p_nominal)
    profiles = [
        StationProfile(nm, StationKind.PROCESS, float(l) / 0.25, g)
        for nm, g, l in zip(names, gammas, lam)
    ]
    model = RoutingModel.from_bindings(profiles, bindings, wltp_dim=dim)
    return model, p_nominal, FleetConfig(())


def lattice_phi_max(model, fleet, dim, eta, m):
    """Grid-search lower level: max projected-gradient norm over a lattice.

    Walks a clipped-simplex lattice (corners included exactly), computes the
    free-coordinate WIP gradient at every point in one batch, embeds it as a
    tangent vector and takes the largest norm.  Returns (value, argmax point).
    """
    pts = clipped_simplex_lattice(dim, eta, m)
    _, grads = gradient_grid(model, pts, fleet)
    emb = np.hstack([np.zeros((len(pts), 1)), grads])
    tangents = emb - emb.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(tangents, axis=1)
    best = int(np.argmax(norms))
    return float(norms[best]), pts[best]


def integer_compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`."""
    for dividers in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for d in dividers + (total + parts - 1,):
            out.append(d - prev - 1)
            prev = d
        yield tuple(out)


def clipped_simplex_lattice(dim, eta, m):
    """Even lattice over the clipped simplex {p : p_i >= eta, sum = 1}.

    Includes the clipped corners exactly (composition (m,0,..) maps to
    p = (1-(dim-1)*eta, eta, ..)).
    """
    span = 1.0 - dim * eta
    return [
        np.array([eta + a * span / m for a in combo])
        for combo in integer_compositions(m, dim)
    ]


def box_vertices(lower, upper):
    """Vertices of {p : sum(p) = 1, lower <= p <= upper}: every coordinate
    but one at a bound, and the one left between its bounds."""
    dim = len(lower)
    out = []
    for j in range(dim):
        others = [i for i in range(dim) if i != j]
        for at_upper in itertools.product((False, True), repeat=dim - 1):
            p = np.empty(dim)
            for i, up in zip(others, at_upper):
                p[i] = upper[i] if up else lower[i]
            p[j] = 1.0 - p[others].sum()
            if lower[j] <= p[j] <= upper[j] and not any((p == q).all() for q in out):
                out.append(p)
    return out


def interp_projection(v, lower, upper):
    """Capped-simplex projection of one point the direct way: s(tau) at the
    distinct sorted kinks, and tau = np.interp(1, s reversed, kinks reversed)."""
    kinks = np.unique(np.concatenate([v - upper, v - lower]))
    sums = np.clip(v - kinks[:, None], lower, upper).sum(axis=1)
    tau = np.interp(1.0, sums[::-1], kinks[::-1])
    return np.clip(v - tau, lower, upper)


class _PhiTracker:
    """Evaluates the projected-gradient norm and remembers the best point."""

    def __init__(self, model, fleet):
        self.model = model
        self.fleet = fleet
        self.best_p = None
        self.best_v = -math.inf

    def __call__(self, p):
        try:
            v = projected_gradient(wip_gradient(self.model, p, self.fleet))[1]
        except (UnstableStation, ZeroVehicles, NonOpenNetwork):
            return None
        if v > self.best_v:
            self.best_v = v
            self.best_p = np.array(p)
        return v


def tangent_cone_direction(G, p, lower, upper):
    """G projected onto the tangent cone of the capped simplex at p, for one
    point: coordinates held at a bound drop out while G - nu points out of
    the box there, nu being the mean of G over the coordinates kept; the
    drops are re-decided from nu = 0 until they repeat, at most once per
    coordinate."""
    at_lower, at_upper = p <= lower, p >= upper
    kept = np.ones(len(G), dtype=bool)
    nu = 0.0
    for _ in range(len(G)):
        now = ~((at_lower & (G < nu)) | (at_upper & (G > nu)))
        if (now == kept).all():
            break
        kept = now
        nu = np.where(kept, G, 0.0).sum() / max(int(kept.sum()), 1)
    return np.where(kept, G - nu, 0.0)


def sequential_worst_case(
    model, fleet, limits, p_nominal=None, starts=ASCENT_STARTS, max_iters=ASCENT_MAX_ITERS
):
    """The worst-case ascent one start at a time, on one-row calls.

    Each start runs to the end before the next one begins.  At p, G is the
    centred phi gradient H^T t[1:] / phi from the one-row Hessian and d its
    tangent-cone projection; the start stops when |d| < 1e-10 or G is not
    finite.  Otherwise it tries project(p + t G), its sum restored to 1 on
    the coordinates inside the box, from t = 1/|d|; it accepts when phi
    rises, and by at least 1e-4 G.(cand - p), shrinks t fourfold when not,
    and stops when p + t G rounds to p.  The lockstep ascent must give the
    same WorstCase bit for bit.
    """
    dim = model.wltp_dim
    lower, upper = _search_bounds(dim, limits, p_nominal)
    phi = _PhiTracker(model, fleet)
    start_pts = [
        simplex.project_capped_simplex(row, lower, upper)
        for row in simplex.halton_simplex(starts, dim)
    ]
    if p_nominal is not None:
        start_pts.insert(
            0, simplex.project_capped_simplex(np.asarray(p_nominal, dtype=float), lower, upper)
        )
    for p0 in start_pts:
        v = phi(p0)
        if v is None:
            continue
        p = p0
        for _ in range(max_iters):
            g, hess = wip_hessian(model, p, fleet)
            tangent, norm = projected_gradient(g)
            grad = np.zeros_like(g) if norm == 0.0 else hess.T @ tangent[1:] / norm
            G, _ = projected_gradient(grad)
            d = tangent_cone_direction(G, p, lower, upper)
            dnorm = math.sqrt(d @ d)
            if not (dnorm >= 1e-10 and np.isfinite(G).all()):
                break
            t, moved = 1.0 / dnorm, False
            while not (p + t * G == p).all():
                cand = simplex.project_capped_simplex(p + t * G, lower, upper)
                # the coordinates inside the box take up the projection's miss of sum 1
                inside = (cand > lower) & (cand < upper)
                share = (1.0 - cand.sum()) / max(int(inside.sum()), 1)
                cand = np.clip(np.where(inside, cand + share, cand), lower, upper)
                vc = phi(cand)
                if vc is not None and vc > v and vc >= v + 1e-4 * (G @ (cand - p)):
                    p, v, moved = cand, vc, True
                    break
                t *= 0.25
            if not moved:
                break
    if phi.best_p is None:
        raise NoStablePoint("no stable transfer point found for this fleet")
    x_star, v_star = steepest_feasible_direction(model, phi.best_p, fleet)
    return WorstCase(
        p_star=tuple(float(x) for x in phi.best_p),
        x_star=tuple(float(x) for x in x_star),
        v_star=float(v_star),
    )


def per_fleet_constraints(model, p_nominal, fleet, limits):
    """The constraint report of one fleet, solved for that fleet alone.

    wip() at the nominal point (its error code when it raises), then, when
    that is stable, one wip_totals_batch over the nominal point and its
    DELTA_DIRECTIONS fluctuation probes, then one over the Monte Carlo
    draws.  The planner reads every fleet from one shared traffic solve and
    must give the same report.
    """
    p = np.asarray(p_nominal, dtype=float)
    psum = float(p.sum())
    margin = float(min(p.min(), 1.0 - p.max()))
    try:
        nominal, detail = wip(model, p, fleet).total_wip, ""
    except (UnstableStation, ZeroVehicles, NonOpenNetwork) as exc:
        nominal, detail = math.inf, exc.code
    fluct = wmax = math.inf
    fluct_detail = "nominal point unstable" if detail else ""
    if not detail:
        dim = p.size
        dirs = simplex.unit_directions(DELTA_DIRECTIONS, dim)
        probes = simplex.project_capped_simplex(
            p + limits.epsilon * dirs, np.full(dim, CLIP_ETA), np.full(dim, 1.0 - CLIP_ETA)
        )
        totals, stable = wip_totals_batch(model, np.vstack([p[None, :], probes]), fleet)
        if stable.all():
            fluct = float(np.abs(totals[1:] - totals[0]).max())
            wmax = float(totals.max())
    mc_exceedance = None
    if limits.mc_samples > 0:
        rng = np.random.default_rng(_MC_SEED)
        draws = rng.dirichlet(np.maximum(limits.mc_alpha * p, 1e-9), size=limits.mc_samples)
        totals, stable = wip_totals_batch(model, draws, fleet)
        mc_exceedance = float(((~stable) | (np.where(stable, totals, np.inf) > limits.u)).mean())
    checks = (
        ConstraintCheck("fleet_total", fleet.total <= limits.c_max, float(fleet.total), float(limits.c_max)),
        ConstraintCheck("wltp_sum", abs(psum - 1.0) <= WLTP_SUM_TOL, psum, 1.0),
        ConstraintCheck(
            "wltp_open_interval", margin > 0.0, margin, 0.0,
            detail="smallest distance of any probability from {0, 1}",
        ),
        ConstraintCheck("nominal_wip", nominal <= limits.w_star, nominal, limits.w_star, detail),
        ConstraintCheck(
            "wip_fluctuation", fluct <= limits.delta_wip_max, fluct, limits.delta_wip_max, fluct_detail
        ),
        ConstraintCheck("wip_hard_cap", wmax <= limits.u, wmax, limits.u, fluct_detail),
    )
    return ConstraintReport(checks=checks, mc_exceedance=mc_exceedance)


def hub_scenario(dim, free_axes, arm_1="p:1", mu_base=None):
    """Raw scenario of a hub-and-arms line with `dim` transfer probabilities.

    Lots enter at IN, the vehicle-pooled hub T sends them to OUT with p_0
    or to arm A_i with p_i, and each arm returns half to T.  With the
    defaults every station is stable on the whole simplex.  `arm_1` is the
    routing cell T -> A1 and `mu_base` maps station ids to service rates
    that replace the defaults.
    """
    rates = {"IN": 3.0, "T": 0.8, "OUT": 4.0, **{f"A{i}": 20.0 for i in range(1, dim)}}
    rates.update(mu_base or {})
    stations = [
        {"id": "IN", "kind": "process", "mu_base": rates["IN"], "gamma": 1.0},
        {"id": "T", "kind": "transport", "mu_base": rates["T"], "gamma": 0.0, "vehicle_type": 0},
        {"id": "OUT", "kind": "process", "mu_base": rates["OUT"], "gamma": 0.0},
    ]
    routing = [{"from": "IN", "to": "T", "value": "const:1.0"}, {"from": "T", "to": "OUT", "value": "p:0"}]
    for i in range(1, dim):
        stations.append({"id": f"A{i}", "kind": "process", "mu_base": rates[f"A{i}"], "gamma": 0.0})
        routing += [
            {"from": "T", "to": f"A{i}", "value": arm_1 if i == 1 else f"p:{i}"},
            {"from": f"A{i}", "to": "T", "value": "const:0.5"},
            {"from": f"A{i}", "to": "OUT", "value": "const:0.5"},
        ]
    return {
        "schema_version": 1,
        "name": f"hub_{dim}",
        "metadata": {"monotonicity_grid": {"free_axes": free_axes}},
        "stations": stations,
        "routing": routing,
        "nominal_p": [1.0 / dim] * dim,
        "nominal_fleet": [3],
    }
