"""Seeded input generators.

Everything here is a pure function of its seed: the same seed gives the
same scenario dicts, byte for byte, so two runs can be shown to have used
the same inputs by their ``scenario_digest``.  Generators use
``random.Random`` seeded from a string, which is stable across processes
and Python hash seeds.
"""
from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush

# Workload seed kept out of tuning (choosing-metrics section 6.3): a claim
# made with this benchmark must also hold on this seed.
HOLDOUT_SEED = 9973

# Seeds the dispatch workload draws its benchmark seeds from; the quality
# reference in dispatch_baseline.json covers exactly this pool.
DISPATCH_POOL = tuple(range(1, 41))
DISPATCH_SEEDS_PER_ROUND = 2


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


# --- freight networks ---------------------------------------------------------

def freight_network(seed, n_nodes: int) -> dict:
    """Multi-plant freight network scenario with about 3.5 edges per node.

    Three plants feed the first logistics layers, every logistics node
    feeds three nodes of the next two layers (every third one also a node
    of its own layer and every tenth one a node of the layer before, so
    cycles exist), and the last layers feed three destinations.  Degrees
    are fixed so that work per network depends on its size, not its seed.  Capacities are integer kg, costs are
    integer milli-units per kg.
    """
    rng = rng_for("net", seed, n_nodes)
    n_plants = n_dests = 3
    n_log = n_nodes - n_plants - n_dests
    width = max(4, int(round(n_log ** 0.5)))
    layers = [list(range(i, min(i + width, n_log))) for i in range(0, n_log, width)]
    plants = [f"P{i}" for i in range(n_plants)]
    dests = [f"D{i}" for i in range(n_dests)]
    logs = [f"L{i}" for i in range(n_log)]
    layer_of = {i: li for li, layer in enumerate(layers) for i in layer}

    pairs: dict[tuple[str, str], None] = {}

    def add(u: str, v: str):
        if u != v:
            pairs.setdefault((u, v), None)

    first = layers[0] + (layers[1] if len(layers) > 1 else [])
    last = layers[-1] + (layers[-2] if len(layers) > 1 else [])
    for p in plants:
        for i in rng.sample(first, min(len(first), 4)):
            add(p, logs[i])
    for d in dests:
        for i in rng.sample(last, min(len(last), 4)):
            add(logs[i], d)
    for i in range(n_log):
        li = layer_of[i]
        ahead = [j for j in range(n_log) if li < layer_of[j] <= li + 2]
        for j in rng.sample(ahead, min(len(ahead), 3)):
            add(logs[i], logs[j])
        same = [j for j in layers[li] if j != i]
        if same and i % 3 == 0:
            add(logs[i], logs[rng.choice(same)])
        behind = [j for j in range(n_log) if layer_of[j] == li - 1]
        if behind and i % 10 == 0:
            add(logs[i], logs[rng.choice(behind)])

    nodes = (
        [{"id": p, "kind": "production"} for p in plants]
        + [{"id": x, "kind": "logistics"} for x in logs]
        + [{"id": d, "kind": "destination"} for d in dests]
    )
    edges = [
        {
            "from": u,
            "to": v,
            "capacity_kg": rng.randrange(500, 9001, 50),
            "cost_milli_per_kg": rng.randint(50, 400),
            "transit_time_h": round(rng.uniform(0.5, 6.0), 2),
        }
        for u, v in pairs
    ]
    return {
        "schema_version": 1,
        "name": f"freight_{n_nodes}_{seed}",
        "description": "generated multi-plant freight network",
        "network": {"nodes": nodes, "edges": edges},
    }


def network_terminals(raw: dict) -> tuple[list[str], list[str]]:
    nodes = raw["network"]["nodes"]
    plants = [n["id"] for n in nodes if n["kind"] == "production"]
    dests = [n["id"] for n in nodes if n["kind"] == "destination"]
    return plants, dests


def _residual(raw: dict):
    """Arc lists [head, cap, cost, rev] with a super source (index 0) and sink (1)."""
    plants, dests = network_terminals(raw)
    index = {"__s__": 0, "__t__": 1}
    graph: list[list[list]] = [[], []]

    def node(name):
        if name not in index:
            index[name] = len(graph)
            graph.append([])
        return index[name]

    def arc(u, v, cap, cost):
        a, b = node(u), node(v)
        graph[a].append([b, cap, cost, len(graph[b])])
        graph[b].append([a, 0, -cost, len(graph[a]) - 1])

    big = sum(e["capacity_kg"] for e in raw["network"]["edges"]) + 1
    for e in raw["network"]["edges"]:
        arc(e["from"], e["to"], e["capacity_kg"], e["cost_milli_per_kg"])
    for p in plants:
        arc("__s__", p, big, 0)
    for d in dests:
        arc(d, "__t__", big, 0)
    return graph


def shortest_path_steps(raw: dict, limit: int) -> list[tuple[int, int, int]]:
    """Successive shortest paths from all plants to all destinations.

    Returns (flow so far, cost so far in milli-units, unit cost of the
    path) after each of at most `limit` augmentations.  Written
    independently of fabflow.netflow: integer costs, Dijkstra with
    potentials.  With distinct path costs the augmentations are unique, so
    a demand between two steps fixes how many augmentations a successive
    shortest path solver makes, and the minimum cost of any demand up to
    the last step follows from the steps.
    """
    graph = _residual(raw)
    n = len(graph)
    potential = [0] * n
    steps: list[tuple[int, int, int]] = []
    flow = cost = 0
    while len(steps) < limit:
        dist: list[int | None] = [None] * n
        parent: list[tuple[int, int] | None] = [None] * n
        dist[0] = 0
        heap = [(0, 0)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            for ai, (v, cap, w, _) in enumerate(graph[u]):
                if cap <= 0:
                    continue
                nd = d + w + potential[u] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = (u, ai)
                    heappush(heap, (nd, v))
        if dist[1] is None:
            break
        for v in range(n):
            if dist[v] is not None:
                potential[v] += dist[v]
        path = []
        v = 1
        while v != 0:
            u, ai = parent[v]
            path.append((u, ai))
            v = u
        push = min(graph[u][ai][1] for u, ai in path)
        unit = sum(graph[u][ai][2] for u, ai in path)
        for u, ai in path:
            a = graph[u][ai]
            a[1] -= push
            graph[a[0]][a[3]][1] += push
        flow += push
        cost += push * unit
        steps.append((flow, cost, unit))
    return steps


def reference_max_flow(raw: dict) -> int:
    """Max flow from all plants to all destinations (Edmonds-Karp).

    Written independently of fabflow.netflow; used to size demands and to
    cross-check the program's value.
    """
    plants, dests = network_terminals(raw)
    src, snk = "__s__", "__t__"
    cap: dict[tuple[str, str], int] = {}
    adj: dict[str, set[str]] = {}

    def arc(u, v, c):
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    big = sum(e["capacity_kg"] for e in raw["network"]["edges"]) + 1
    for e in raw["network"]["edges"]:
        arc(e["from"], e["to"], e["capacity_kg"])
    for p in plants:
        arc(src, p, big)
    for d in dests:
        arc(d, snk, big)
    total = 0
    while True:
        parent = {src: None}
        queue = deque([src])
        while queue and snk not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if snk not in parent:
            return total
        path = []
        v = snk
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[a] for a in path)
        for u, v in path:
            cap[(u, v)] -= push
            cap[(v, u)] += push
        total += push


# --- hub-and-arms queueing models ------------------------------------------

HUB_RETURN = 0.5  # each arm sends half its lots back to the hub


def hub_model(seed, dim: int, count: int | None = None, grid_values: int = 0) -> dict:
    """Hub-and-arms line with `dim` transfer probabilities.

    Lots enter at IN (rate 1), the vehicle-pooled hub T sends them to OUT
    with p_0 or to arm A_i with p_i, and each arm returns half to T.  The
    hub's arrival rate is 2/(1+p_0) in closed form.  With the default
    vehicle count every station is stable on the whole simplex.
    `grid_values` > 0 adds a monotonicity grid with that many values per
    free coordinate.
    """
    rng = rng_for("hub", seed, dim)
    mu_t = round(rng.uniform(0.75, 0.9), 4)
    stations = [
        {"id": "IN", "kind": "process", "mu_base": 3.0, "gamma": 1.0},
        {"id": "T", "kind": "transport", "mu_base": mu_t, "gamma": 0.0, "vehicle_type": 0},
        {"id": "OUT", "kind": "process", "mu_base": 4.0, "gamma": 0.0},
    ]
    routing = [
        {"from": "IN", "to": "T", "value": "const:1.0"},
        {"from": "T", "to": "OUT", "value": "p:0"},
    ]
    for i in range(1, dim):
        stations.append(
            {"id": f"A{i}", "kind": "process", "mu_base": round(rng.uniform(10.0, 30.0), 3), "gamma": 0.0}
        )
        routing += [
            {"from": "T", "to": f"A{i}", "value": f"p:{i}"},
            {"from": f"A{i}", "to": "T", "value": f"const:{HUB_RETURN}"},
            {"from": f"A{i}", "to": "OUT", "value": f"const:{HUB_RETURN}"},
        ]
    weights = [rng.uniform(1.0, 3.0) for _ in range(dim)]
    free = [round(w / sum(weights), 6) for w in weights[1:]]
    nominal_p = [1.0 - sum(free)] + free
    raw = {
        "schema_version": 1,
        "name": f"hub_{dim}_{seed}",
        "description": "generated hub-and-arms line",
        "stations": stations,
        "routing": routing,
        "nominal_p": nominal_p,
        "nominal_fleet": [3 if count is None else count],
    }
    if grid_values:
        hi = 0.9 / (dim - 1)
        axis = [round(0.05 + (hi - 0.05) * k / (grid_values - 1), 6) for k in range(grid_values)]
        raw["metadata"] = {"monotonicity_grid": {"free_axes": [axis] * (dim - 1)}}
    return raw


def hub_rates(raw: dict, p, count: int) -> list[tuple[float, float]]:
    """(arrival rate, service rate) per station of a hub-and-arms model, closed form."""
    lam_t = 2.0 / (1.0 + p[0])
    out = []
    for st in raw["stations"]:
        sid = st["id"]
        if sid == "T":
            out.append((lam_t, st["mu_base"] * count))
        elif sid.startswith("A"):
            out.append((p[int(sid[1:])] * lam_t, st["mu_base"]))
        else:
            out.append((1.0, st["mu_base"]))
    return out


# --- dispatch ---------------------------------------------------------------

def dispatch_seeds(seed, count: int = DISPATCH_SEEDS_PER_ROUND) -> list[int]:
    """Benchmark seeds for the dispatch workload, drawn from DISPATCH_POOL."""
    return rng_for("dispatch", seed).sample(list(DISPATCH_POOL), count)
