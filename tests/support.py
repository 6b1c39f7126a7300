"""Slow reference implementations shared by the unit and acceptance suites.

Everything here trades speed for obviousness: plain loops, scalar calls,
exhaustive enumeration.  The real package must agree with these.  The
single-point and validating helpers that only tests call live here too.
"""
import bisect
import hashlib
import itertools
import math
import random
from collections import deque
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np

from fabflow import simplex
from fabflow.errors import (
    DuplicateNode,
    InvalidRouting,
    NonOpenNetwork,
    NoFeasibleFleet,
    NoOriginOrDestination,
    NoStablePoint,
    UnstableStation,
    ValidationErrors,
    ZeroVehicles,
)
from fabflow.errors import InfeasibleDemand
from fabflow.netflow import (
    FlowAssignment,
    FlowNetwork,
    MaxFlowAssignment,
    edge_errors,
    node_errors,
)
from fabflow.queueing import (
    _NOT_OPEN,
    WLTP_SUM_TOL,
    FleetConfig,
    RoutingModel,
    StationKind,
    StationProfile,
    projected_gradient,
    _solve,
    _wip_derivatives,
    service_rates,
    steepest_feasible_direction,
    wip,
    wip_gradient,
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
    _worst_cases,
    check_constraints,
)
from fabflow.scenario import _KIND_NAMES, _milli, _sections, canonical_json
from fabflow.scheduler import (
    Assignment,
    SaParams,
    _as_result,
    _objectives,
    _sample_bounds,
    _time_matrices,
    evaluate_schedule,
)


def make_network(nodes, edges, source, sink):
    """Validated FlowNetwork from (node id, NodeKind) pairs and Edges, for
    networks that did not come through the scenario reader: raises
    DuplicateNode, NoOriginOrDestination, or ValidationErrors listing every
    edge problem."""
    node_map = {}
    for node_id, kind in nodes:
        problems = node_errors(node_id, node_map)
        if problems:
            raise DuplicateNode(problems[0])
        node_map[node_id] = kind
    if source not in node_map or sink not in node_map:
        raise NoOriginOrDestination("designated source or sink is not a declared node")
    edges = tuple(edges)
    problems, pairs = [], set()
    for i, e in enumerate(edges):
        problems += (f"edges[{i}]: {p}" for p in edge_errors(e, node_map, pairs))
        pairs.add((e.tail, e.head))
    if problems:
        raise ValidationErrors(problems)
    return FlowNetwork(nodes=node_map, edges=edges, source=source, sink=sink)


def conservation_residuals(net, assignment) -> dict:
    """Net outflow minus inflow for every node: the flow value at the source,
    minus it at the sink, zero elsewhere when the flow is conserved."""
    net_out = {nid: 0 for nid in net.nodes}
    for (tail, head), kg in assignment.flow.items():
        net_out[tail] += kg
        net_out[head] -= kg
    return net_out


def traffic_equations(model, p) -> np.ndarray:
    """Arrival rate per station for a single p; raises NonOpenNetwork."""
    lam = _solve(model, p)[2][0]
    if np.isnan(lam).any():
        raise NonOpenNetwork(_NOT_OPEN)
    return lam


def spectral_radius(R) -> np.ndarray:
    """Largest eigenvalue modulus of each routing matrix of a batch (N, k, k),
    by a dense eigensolve."""
    return np.abs(np.linalg.eigvals(R)).max(axis=1)


def spectral_open(R) -> np.ndarray:
    """The (N,) mask of open routing matrices by their eigenvalues: spectral
    radius below 1 - 1e-12.  queueing._solve decides the same rule by an
    M-matrix certificate instead."""
    return spectral_radius(R) < 1.0 - 1e-12


def routing_by_cell(model, P, order):
    """queueing._routing one routing cell at a time: R (N, k, k), and for
    order >= 1 dR (N, n, k, k), for order 2 the full second derivatives d2R
    (N, n, n, k, k), else None.

    Each cell multiplies in its factors by the product rule, in plain loops
    over cells and factors; a factor's slope along e_j - e_0 is +1 at
    p_m when m = j and -1 when m = 0.  _routing takes the same steps slot by
    slot from the model's factor tables and must give the same bits at
    orders 0 and 1 and the same InvalidRouting messages; its order-2 term
    along a direction t is d2R contracted with t.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    N, n, k = P.shape[0], model.wltp_dim - 1, len(model.stations)
    slopes = np.vstack([-np.ones(n), np.eye(n)])
    index = {s.station_id: i for i, s in enumerate(model.stations)}
    R = np.zeros((N, k, k))
    dR = np.zeros((N, n, k, k)) if order >= 1 else None
    d2R = np.zeros((N, n, n, k, k)) if order == 2 else None
    for frm, to, factors in model.bindings:
        val, grad, hess = np.ones(N), np.zeros((N, n)), np.zeros((N, n, n) if order == 2 else 0)
        for kind, m in factors:
            f = np.full(N, m) if kind == "const" else P[:, m] if kind == "p" else 1.0 - P[:, m]
            if order:
                df = np.zeros(n) if kind == "const" else slopes[m] if kind == "p" else -slopes[m]
                if order == 2:
                    cross = grad[:, :, None] * df
                    hess = hess * f[:, None, None] + cross + np.swapaxes(cross, 1, 2)
                grad = grad * f[:, None] + val[:, None] * df
            val = val * f
        R[:, index[frm], index[to]] = val
        if order:
            dR[:, :, index[frm], index[to]] = grad
        if order == 2:
            d2R[:, :, :, index[frm], index[to]] = hess
    if (R < 0.0).any():
        row, a, b = np.argwhere(R < 0.0)[0]
        ids = model.station_ids
        raise InvalidRouting(f"routing cell {ids[a]}->{ids[b]} is {R[row, a, b]:.6g} < 0")
    row_sums = R.sum(axis=2)
    if (row_sums > 1.0 + 1e-9).any():
        bad = np.unravel_index(np.argmax(row_sums), row_sums.shape)
        raise InvalidRouting(
            f"routing row for station {model.station_ids[bad[1]]} sums to {row_sums[bad]:.6f} > 1"
        )
    return R, dR, d2R


def wip_hessian(model, p, fleet):
    """Free-coordinate WIP gradient (n,) and full Hessian (n, n) at a single
    stable p, from routing_by_cell's d2R and 2n adjoint solves:
      w = (I - R)^-1 c,  c = mu / (mu - lam)^2,  dW/dp_j = sum_ab dR_ab/dp_j lam_a w_b,
      d_i lam = (I - R^T)^-1 d_iR^T lam,  d_i w = (I - R)^-1 (d_iR w + 2 mu / (mu - lam)^3 d_i lam),
      H_ij = sum_ab d2R_ab/dp_i dp_j lam_a w_b + dR_ab/dp_j (d_i lam_a w_b + lam_a d_i w_b).
    The gradient takes the steps of queueing._wip_derivatives, on a batch of
    one row, so it has the bits of wip_gradient."""
    P = np.atleast_2d(np.asarray(p, dtype=float))
    R, dR, d2R = routing_by_cell(model, P, 2)
    lam = traffic_equations(model, P[0])[None]
    mu = service_rates(model, fleet)[None]
    A = np.eye(lam.shape[1]) - R
    gap = np.where(mu > 0.0, mu - lam, 1.0)
    c, dc_dlam = mu / gap**2, 2.0 * mu / gap**3
    w = np.linalg.solve(A, c[:, :, None])[:, :, 0]
    grads = np.einsum("njab,na,nb->nj", dR, lam, w)
    rhs = np.einsum("niab,na->nib", dR, lam)[..., None]
    dlam = np.linalg.solve(np.swapaxes(A, 1, 2)[:, None], rhs)[..., 0]
    rhs = (np.einsum("niab,nb->nia", dR, w) + dc_dlam[:, None, :] * dlam)[..., None]
    dw = np.linalg.solve(A[:, None], rhs)[..., 0]
    hess = (
        np.einsum("nijab,na,nb->nij", d2R, lam, w)
        + np.einsum("njab,nia,nb->nij", dR, dlam, w)
        + np.einsum("njab,na,nib->nij", dR, lam, dw)
    )
    return grads[0], hess[0]


def ascent_pass(model, p, fleet):
    """The worst-case ascent's one-row derivative pass at a stable p: the
    projected gradient t (n + 1,), phi, and the WIP Hessian times t[1:] (n,)."""
    (tangent,), (norm,), (ht,), _ = _wip_derivatives(model, p, service_rates(model, fleet), ascent=True)
    return tangent, norm, ht


# --- netflow oracles: Edmonds-Karp with a full BFS per path, and successive
# shortest paths over a (distance, node) tuple heap, on per-node arc objects

class _Arc:
    __slots__ = ("head", "cap", "cost", "rev", "edge_key")

    def __init__(self, head, cap, cost, rev, edge_key):
        self.head = head
        self.cap = cap
        self.cost = cost
        self.rev = rev       # index of the reverse arc in graph[head]
        self.edge_key = edge_key  # (tail, head) for forward arcs, None for reverse


def _arc_residual(net: FlowNetwork, costs=None):
    index = {nid: i for i, nid in enumerate(net.nodes)}
    graph: list[list[_Arc]] = [[] for _ in index]
    for e, cost in zip(net.edges, costs or [0] * len(net.edges)):
        u, v = index[e.tail], index[e.head]
        fwd = _Arc(v, e.capacity_kg, cost, len(graph[v]), (e.tail, e.head))
        rev = _Arc(u, 0, -cost, len(graph[u]), None)
        graph[u].append(fwd)
        graph[v].append(rev)
    return index, graph


def _arc_integer_costs(net: FlowNetwork) -> tuple[list[int], int]:
    costs = [e.cost_per_kg for e in net.edges]
    scale = math.lcm(*(c.denominator for c in costs))
    return [c.numerator * (scale // c.denominator) for c in costs], scale


def _arc_flow(net: FlowNetwork, graph) -> dict:
    cap_by_key = {(e.tail, e.head): e.capacity_kg for e in net.edges}
    flow = {key: 0 for key in cap_by_key}
    for arcs in graph:
        for arc in arcs:
            if arc.edge_key is not None:
                flow[arc.edge_key] = cap_by_key[arc.edge_key] - arc.cap
    return flow


def _arc_augment(graph, parent, s, t, limit=None) -> tuple[int, int]:
    """Push the bottleneck of the parent path (at most `limit`); returns it
    and the path's arc count."""
    bottleneck, length = limit, 0
    v = t
    while v != s:
        u, ai = parent[v]
        cap = graph[u][ai].cap
        bottleneck = cap if bottleneck is None else min(bottleneck, cap)
        v = u
        length += 1
    v = t
    while v != s:
        u, ai = parent[v]
        arc = graph[u][ai]
        arc.cap -= bottleneck
        graph[v][arc.rev].cap += bottleneck
        v = u
    return bottleneck, length


def edmonds_karp(net: FlowNetwork) -> MaxFlowAssignment:
    """Maximum flow by a full BFS for every augmenting path, with the cut
    read from the last BFS; `phases` counts the distinct path lengths."""
    index, graph = _arc_residual(net)
    s, t = index[net.source], index[net.sink]
    total, lengths = 0, []
    while True:
        parent = [None] * len(graph)
        parent[s] = (s, -1)
        queue = deque([s])
        while queue and parent[t] is None:
            u = queue.popleft()
            for ai, arc in enumerate(graph[u]):
                if arc.cap > 0 and parent[arc.head] is None:
                    parent[arc.head] = (u, ai)
                    queue.append(arc.head)
        if parent[t] is None:
            break
        pushed, length = _arc_augment(graph, parent, s, t)
        total += pushed
        lengths.append(length)
    side = frozenset(nid for nid, i in index.items() if parent[i] is not None)
    capacity = sum(
        e.capacity_kg for e in net.edges if e.tail in side and e.head not in side
    )
    return MaxFlowAssignment(
        flow=_arc_flow(net, graph),
        value=total,
        source_side=side,
        cut_capacity=capacity,
        paths=len(lengths),
        phases=len(set(lengths)),
    )


def tuple_heap_min_cost_flow(net: FlowNetwork, demand: int) -> FlowAssignment:
    """Successive shortest paths with potentials, Dijkstra over (d, v)
    tuples and None for unreached; raises InfeasibleDemand(demand, sent)."""
    index, graph = _arc_residual(net, _arc_integer_costs(net)[0])
    s, t = index[net.source], index[net.sink]
    n = len(graph)
    potential = [0] * n
    sent = paths = 0
    while sent < demand:
        dist = [None] * n
        parent = [None] * n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            base = d + potential[u]
            for ai, arc in enumerate(graph[u]):
                if arc.cap <= 0:
                    continue
                v = arc.head
                nd = base + arc.cost - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = (u, ai)
                    heappush(heap, (nd, v))
        if dist[t] is None:
            raise InfeasibleDemand(demand, sent)
        for v in range(n):
            if dist[v] is not None:
                potential[v] += dist[v]
        sent += _arc_augment(graph, parent, s, t, demand - sent)[0]
        paths += 1
    return FlowAssignment(flow=_arc_flow(net, graph), value=sent, paths=paths)


def arc_flow_cost(net: FlowNetwork, assignment: FlowAssignment) -> Fraction:
    """Exact cost of an assignment from freshly scaled costs."""
    costs, scale = _arc_integer_costs(net)
    by_key = {(e.tail, e.head): c for e, c in zip(net.edges, costs)}
    return Fraction(sum(by_key[key] * kg for key, kg in assignment.flow.items()), scale)


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


def task_order_objectives(pop, T, rates):
    """(busy, cost, makespan) of each row of a batch `pop` (m, n_tasks), on
    Python floats: busy[v] += T[t, v] for each task t in task order from
    0.0, the cost added over vehicles left to right, the makespan the
    largest busy time.  The reference for scheduler._busy and _objectives."""
    times, rate_of = T.tolist(), rates.tolist()
    out = []
    for row in pop.tolist():
        busy = [0.0] * len(rate_of)
        for t, v in enumerate(row):
            busy[v] += times[t][v]
        cost = busy[0] * rate_of[0]
        for v in range(1, len(rate_of)):
            cost = cost + busy[v] * rate_of[v]
        out.append((busy, cost, max(busy)))
    return out


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
    grads = _wip_derivatives(model, pts, service_rates(model, fleet))[0]
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
    distinct sorted kinks, and tau = np.interp(1, s reversed, kinks reversed);
    then the coordinates strictly inside the box share out what the clipped
    point misses of sum 1, each share clipped at the bounds."""
    kinks = np.unique(np.concatenate([v - upper, v - lower]))
    sums = np.clip(v - kinks[:, None], lower, upper).sum(axis=1)
    tau = np.interp(1.0, sums[::-1], kinks[::-1])
    p = np.clip(v - tau, lower, upper)
    free = [i for i in range(len(p)) if lower[i] < p[i] < upper[i]]
    share = (1.0 - p.sum()) / max(len(free), 1)
    for i in free:
        p[i] = min(max(p[i] + share, lower[i]), upper[i])
    return p


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
    centred phi gradient H t[1:] / phi from the one-row pass (ascent_pass)
    and d its tangent-cone projection; the start stops when |d| < 1e-10 or
    G is not finite.  Otherwise it tries project(p + t G) from t = 1/|d|; it
    accepts when phi rises, and by at least 1e-4 G.(cand - p), shrinks t
    fourfold when not, and stops when p + t G rounds to p.  The lockstep
    ascent must give the same WorstCase bit for bit.
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
            _, norm, ht = ascent_pass(model, p, fleet)
            grad = np.zeros_like(ht) if norm == 0.0 else ht / norm
            G, _ = projected_gradient(grad)
            d = tangent_cone_direction(G, p, lower, upper)
            dnorm = math.sqrt(d @ d)
            if not (dnorm >= 1e-10 and np.isfinite(G).all()):
                break
            t, moved = 1.0 / dnorm, False
            while not (p + t * G == p).all():
                cand = simplex.project_capped_simplex(p + t * G, lower, upper)
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


def exhaustive_plan(model, fleets, limits, p_nominal):
    """The plan of a scan that ascends every fleet passing its checks.

    Each fleet's checks come from its own check_constraints call; every
    fleet that passes them all is ascended to the end, in one lockstep, and
    the kept fleet is the smallest by (v_star, total, counts).  Returns the
    kept fleet, its worst case and its report, and each fleet's v_star (None
    where it failed a check or no start is stable); raises NoFeasibleFleet
    when no fleet has a worst case.
    """
    passing = [i for i, f in enumerate(fleets) if check_constraints(model, p_nominal, f, limits).all_passed]
    worst = [None] * len(fleets)
    for i, wc in zip(passing, _worst_cases(model, [fleets[i] for i in passing], limits, p_nominal)):
        worst[i] = wc
    # the earliest fleet wins a tie
    found = [(wc.v_star, f.total, f.counts, i) for i, (f, wc) in enumerate(zip(fleets, worst)) if wc is not None]
    if not found:
        raise NoFeasibleFleet("no candidate fleet satisfies every constraint")
    i = min(found)[3]
    report = check_constraints(model, p_nominal, fleets[i], limits)
    return fleets[i], worst[i], report, [None if wc is None else wc.v_star for wc in worst]


def network_dict(network) -> dict:
    """A parsed network section as plain dicts, one per node and edge."""
    return {
        "nodes": [{"id": nid, "kind": _KIND_NAMES[kind]} for nid, kind in network.nodes],
        "edges": [
            {
                "from": e.tail,
                "to": e.head,
                "capacity_kg": e.capacity_kg,
                "cost_milli_per_kg": _milli(e.cost_per_kg),
                "transit_time_h": e.transit_time_h,
            }
            for e in network.edges
        ],
    }


def scenario_to_dict(scenario) -> dict:
    """The canonical plain-dict form of a scenario: scenario_digest's
    sections, the network as network_dict.  Feeding it back to
    scenario_from_dict reproduces an equal Scenario."""
    out = _sections(scenario)
    if scenario.network is not None:
        out["network"] = network_dict(scenario.network)
    return out


def dict_digest(scenario) -> str:
    """scenario_digest the long way: SHA-256 over canonical_json of the
    whole scenario_to_dict, one dict per node and edge."""
    return hashlib.sha256(canonical_json(scenario_to_dict(scenario)).encode("utf-8")).hexdigest()


def per_point_grid(free_axes, dim):
    """grid_from_axes's points, without its checks, one point at a time:
    p_0 absorbs the remainder, and a point is kept only inside (0, 1)."""
    points = []
    for combo in itertools.product(*free_axes):
        p = np.zeros(dim)
        p[1 : 1 + len(combo)] = combo
        p[0] = 1.0 - float(np.sum(combo))
        if ((0.0 < p) & (p < 1.0)).all():
            points.append(p)
    return points


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


def _network_scenario(name, nodes, edges):
    return {
        "schema_version": 1,
        "name": name,
        "network": {
            "nodes": [{"id": nid, "kind": kind} for nid, kind in nodes],
            "edges": [
                {"from": u, "to": v, "capacity_kg": cap, "cost_milli_per_kg": cost}
                for u, v, cap, cost in edges
            ],
        },
    }


def chain_network(n):
    """Raw scenario of an `n`-node path c0 -> ... -> c{n-1}: edge i carries
    5 + i % 3 kg at i % 7 milli-units per kg, so the max flow is 5 kg and
    each kg costs the sum of i % 7."""
    kinds = ["production"] + ["logistics"] * (n - 2) + ["destination"]
    return _network_scenario(
        f"chain_{n}",
        [(f"c{i}", kind) for i, kind in enumerate(kinds)],
        [(f"c{i}", f"c{i + 1}", 5 + i % 3, i % 7) for i in range(n - 1)],
    )


def bipartite_network(k):
    """Raw scenario of an assignment problem: s feeds a0..a{k-1}, every a_i
    links to every b_j at (i * j) % 11 milli-units per kg, the b_j drain
    into t, and every capacity is 1 kg, so shortest paths tie everywhere."""
    left, right = [f"a{i}" for i in range(k)], [f"b{j}" for j in range(k)]
    nodes = [("s", "production"), *((x, "logistics") for x in left + right), ("t", "destination")]
    edges = [("s", a, 1, 0) for a in left]
    edges += [(a, b, 1, (i * j) % 11) for i, a in enumerate(left) for j, b in enumerate(right)]
    edges += [(b, "t", 1, 0) for b in right]
    return _network_scenario(f"bipartite_{k}", nodes, edges)


def freight_network(seed, n_nodes=300):
    """Raw scenario of a seeded multi-plant freight network of `n_nodes`
    nodes: three plants feed the first two of the logistics layers (each
    about the square root of their node count wide), every logistics node
    feeds three nodes of the next two layers, every third one also a node of
    its own layer and every tenth one a node of the layer before (so cycles
    exist), and the last two layers feed three destinations.  Capacities are
    500-9000 kg, costs 50-400 milli-units per kg, transit times 0.5-6 h."""
    rng = random.Random(f"freight:{seed}:{n_nodes}")
    plants, dests = ["P0", "P1", "P2"], ["D0", "D1", "D2"]
    logs = [f"L{i}" for i in range(n_nodes - 6)]
    width = max(4, round(len(logs) ** 0.5))
    layers = [logs[i:i + width] for i in range(0, len(logs), width)]
    pairs = {}
    for p in plants:
        for x in rng.sample(layers[0] + layers[1], 4):
            pairs[p, x] = None
    for d in dests:
        for x in rng.sample(layers[-1] + layers[-2], 4):
            pairs[x, d] = None
    for li, layer in enumerate(layers):
        ahead = [x for later in layers[li + 1:li + 3] for x in later]
        for i, x in enumerate(layer):
            for y in rng.sample(ahead, min(len(ahead), 3)):
                pairs[x, y] = None
            same = [y for y in layer if y != x]
            if same and i % 3 == 0:
                pairs[x, rng.choice(same)] = None
            if li and i % 10 == 0:
                pairs[x, rng.choice(layers[li - 1])] = None
    kinds = [(p, "production") for p in plants] + [(x, "logistics") for x in logs]
    kinds += [(d, "destination") for d in dests]
    return {
        "schema_version": 1,
        "name": f"freight_{n_nodes}_{seed}",
        "network": {
            "nodes": [{"id": nid, "kind": kind} for nid, kind in kinds],
            "edges": [
                {
                    "from": u,
                    "to": v,
                    "capacity_kg": rng.randrange(500, 9001, 50),
                    "cost_milli_per_kg": rng.randint(50, 400),
                    "transit_time_h": round(rng.uniform(0.5, 6.0), 2),
                }
                for u, v in pairs
            ],
        },
    }
