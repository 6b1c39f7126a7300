"""Capacitated flow networks over the fab logistics graph.

Capacities are integer kilograms per planning horizon, so flow conservation
and cut comparisons are exact integer arithmetic.  Edge costs are Fractions
(scenario files store integer milli-units per kg), so min-cost optimality
checks never see float drift.

The residual graph is flat int lists: edge i is arc 2i and its reverse arc
2i+1, so the reverse of arc a is a ^ 1, and the flow on edge i is the
residual capacity of arc 2i+1.

Max flow augments along Edmonds-Karp's shortest paths (*J. ACM* 19, 1972),
the very paths a full BFS per path would pick, but finds them with Dinic's
level graph and current-arc walk (*Soviet Math. Dokl.* 11, 1970).  Each
phase runs one full BFS and keeps the live level graph: arcs u -> v with
level(v) = level(u) + 1, spare capacity, and v still reaching the sink, in
adjacency order.  A BFS over that graph alone would pick the same path as
the full BFS: the node that discovers a node v on a shortest s-t path is
one level above v with an arc to it, so it lies on a shortest path too; by
induction both BFSs meet those nodes in the same order and give each the
same parent arc.  Augmenting only adds arcs that go one level back toward
the source, so every path of the phase's length stays in the old level
graph, and its nodes keep their levels.

The live level graph is a layered DAG in which every node reaches the sink,
so that BFS meets the sink through the first node of each level, which is
the head of the first live arc of the node before it: its path is the
lexicographically first s-t path by adjacency position, and the walk that
follows each node's first live arc from s finds exactly that path.  Each
live node keeps a pointer to that arc.  Within a phase an arc only loses
capacity and a dead node never comes back, so an arc that is no longer live
stays dead and the pointer only moves forward.  After each path the
pointers of the nodes whose arc the path saturated or whose head died move
past the dead arcs; a node whose pointer runs off its list is dead, and its
predecessors are checked in turn.  A phase thus costs one BFS, O(E) pointer
moves and O(depth) per path, not a BFS per path.  The last BFS, the one
that misses the sink, has marked exactly the nodes the residual graph
reaches from the source: that set is the source side of a minimum cut, so
`max_flow` returns the cut with the flow and `min_cut` only reads it.

Min-cost flow uses successive shortest paths with node potentials (Ahuja,
Magnanti & Orlin, *Network Flows*, 1993, ch. 9).  Every cost is multiplied
by the lcm L of the cost denominators (L = 1000 for scenario files), once
per network, so Dijkstra adds and compares Python ints.  Scaling by L > 0
is exact and keeps the order of every pair of keys, ties included, so the
paths augmented are the ones the Fraction costs would choose.  Reduced
distances d are non-negative ints and nodes v are 0 <= v < n, so the heap
holds the int d * n + v, which pops in the order the pair (d, v) would.
`flow_cost` sums the same scaled ints and divides by L once, exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from typing import Container, Mapping, NamedTuple

from .errors import (
    DuplicateNode,
    InfeasibleDemand,
    NoOriginOrDestination,
    ValidationErrors,
)

SOURCE_ID = "__src__"
SINK_ID = "__snk__"


class NodeKind(Enum):
    SOURCE = "source"
    PRODUCTION = "production"
    LOGISTICS = "logistics"
    DESTINATION = "destination"
    SINK = "sink"


class Edge(NamedTuple):
    """One directed edge: an immutable record, built without per-field
    setattr calls, that also compares equal to the plain tuple of its
    fields."""

    tail: str
    head: str
    capacity_kg: int
    cost_per_kg: Fraction = Fraction(0)
    transit_time_h: float = 0.0


@dataclass(frozen=True)
class FlowNetwork:
    """Directed graph with designated single source and sink.

    `nodes` maps node id to NodeKind.  When a scenario declares several
    origins or destinations, build_network adds synthetic SOURCE/SINK nodes
    here; with a single origin and destination the declared nodes themselves
    are designated and no synthetic nodes appear.
    """

    nodes: Mapping[str, NodeKind]
    edges: tuple[Edge, ...]
    source: str
    sink: str

    @cached_property
    def _integer_costs(self) -> tuple[list[int], int]:
        """Every edge cost times the lcm of the cost denominators, as ints,
        and that lcm; computed once per network."""
        costs = [e.cost_per_kg for e in self.edges]
        scale = math.lcm(*(c.denominator for c in costs))
        return [c.numerator * (scale // c.denominator) for c in costs], scale


@dataclass(frozen=True)
class FlowAssignment:
    """A feasible flow: kg per edge plus the total value shipped.  `paths`
    counts the augmenting paths the solver pushed; it is work done, not
    part of the answer, so equality ignores it."""

    flow: Mapping[tuple[str, str], int]
    value: int
    paths: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class MaxFlowAssignment(FlowAssignment):
    """A maximum flow with the minimum cut its final residual graph proves:
    the source side and the capacity of the edges leaving it.  `phases`
    counts the level graphs built, one per shortest-path length; like
    `paths`, equality ignores it."""

    source_side: frozenset[str]
    cut_capacity: int
    phases: int = field(default=0, compare=False, kw_only=True)


def node_errors(node_id: str, declared: Container[str]) -> list[str]:
    """The rule a node breaks given the ids declared before it: ids are unique."""
    return [f"node id declared twice: {node_id}"] if node_id in declared else []


def edge_errors(
    edge: Edge, nodes: Container[str], earlier: Container[tuple[str, str]]
) -> list[str]:
    """Every rule `edge` breaks, given the declared node ids and the
    (tail, head) pairs of the edges before it: known endpoints, no self
    loop, a non-negative integer capacity, non-negative cost and transit
    time, no parallel edge."""
    tail, head, cap = edge.tail, edge.head, edge.capacity_kg
    out = []
    if tail not in nodes:
        out.append(f"unknown node '{tail}'")
    if head not in nodes:
        out.append(f"unknown node '{head}'")
    if tail == head:
        out.append(f"self loop on '{tail}'")
    if cap < 0 or int(cap) != cap:
        out.append("capacity must be a non-negative integer")
    if edge.cost_per_kg.numerator < 0:  # costs are Fractions (or ints)
        out.append("cost must be non-negative")
    if edge.transit_time_h < 0:
        out.append("transit_time_h must be non-negative")
    if (tail, head) in earlier:
        out.append(f"parallel edge {tail}->{head}")
    return out


def build_network(scenario) -> FlowNetwork:
    """Assemble a FlowNetwork from a scenario's network section.

    Production nodes act as origins, destination nodes as sinks.  With more
    than one origin (or destination) a synthetic super source (super sink) is
    attached by zero-cost edges whose capacity exceeds any possible flow
    (sum of all finite capacities plus one).  The scenario reader has checked
    the declared nodes and edges, so they are not checked again; a declared
    node that takes a synthetic terminal's id raises DuplicateNode.
    """
    section = getattr(scenario, "network", None)
    if section is None:
        raise NoOriginOrDestination("scenario has no network section")
    nodes = dict(section.nodes)
    edges = list(section.edges)
    origins = [nid for nid, kind in section.nodes if kind == NodeKind.PRODUCTION]
    dests = [nid for nid, kind in section.nodes if kind == NodeKind.DESTINATION]
    if not origins or not dests:
        raise NoOriginOrDestination("scenario declares no origin or no destination node")
    unlimited = sum(e.capacity_kg for e in edges) + 1
    source, sink, synthetic = origins[0], dests[0], []
    if len(origins) > 1:
        source = SOURCE_ID
        synthetic.append((SOURCE_ID, NodeKind.SOURCE))
        edges.extend(Edge(SOURCE_ID, nid, unlimited) for nid in origins)
    if len(dests) > 1:
        sink = SINK_ID
        synthetic.append((SINK_ID, NodeKind.SINK))
        edges.extend(Edge(nid, SINK_ID, unlimited) for nid in dests)
    for node_id, kind in synthetic:
        problems = node_errors(node_id, nodes)
        if problems:
            raise DuplicateNode(problems[0])
        nodes[node_id] = kind
    return FlowNetwork(nodes=nodes, edges=tuple(edges), source=source, sink=sink)


# --- residual graph machinery ----------------------------------------------

def _build_residual(net: FlowNetwork):
    """Residual graph as flat int lists.  Edge i is arc 2i and its reverse
    arc 2i+1, so the reverse of arc a is a ^ 1; `head[a]` and `cap[a]` are
    per arc, and `adj[u]` lists u's arc ids in edge order.  The flow on
    edge i is the capacity of its reverse arc, `cap[2i + 1]`."""
    index = {nid: i for i, nid in enumerate(net.nodes)}
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in index]
    for a, e in enumerate(net.edges):
        u, v = index[e.tail], index[e.head]
        head += (v, u)
        cap += (e.capacity_kg, 0)
        adj[u].append(2 * a)
        adj[v].append(2 * a + 1)
    return index, head, cap, adj


def _extract_flow(net: FlowNetwork, cap) -> dict[tuple[str, str], int]:
    return {(e.tail, e.head): cap[2 * i + 1] for i, e in enumerate(net.edges)}


def _path(head, parent, s: int, t: int) -> list[int]:
    """The arcs of the parent-arc tree path from s to t, from t backwards."""
    path = []
    v = t
    while v != s:
        a = parent[v]
        path.append(a)
        v = head[a ^ 1]
    return path


def _augment(cap, path, limit=None) -> int:
    """Push the bottleneck of `path` (at most `limit`) along its arcs."""
    push = min(cap[a] for a in path)
    if limit is not None and limit < push:
        push = limit
    for a in path:
        cap[a] -= push
        cap[a ^ 1] += push
    return push


def max_flow(net: FlowNetwork) -> MaxFlowAssignment:
    """Maximum s-t flow along Edmonds-Karp's shortest augmenting paths, each
    found by the current-arc walk over its phase's level graph, with the
    minimum cut read from the last BFS."""
    index, head, cap, adj = _build_residual(net)
    n = len(adj)
    s, t = index[net.source], index[net.sink]
    total = paths = phases = 0
    while True:
        # full BFS from s, stopped once it meets t: every node nearer to s
        # than t has its level by then
        level = [-1] * n
        level[s] = 0
        order = [s]
        for u in order:
            next_level = level[u] + 1
            for a in adj[u]:
                v = head[a]
                if cap[a] and level[v] < 0:
                    level[v] = next_level
                    order.append(v)
            if level[t] >= 0:
                break
        else:
            break
        phases += 1
        # live level graph, deepest node first: arcs one level deeper, to a
        # node that still reaches t, in adjacency order
        depth = level[t]
        live = {}  # live node other than t -> its level-graph arcs
        preds: dict[int, list[int]] = {t: []}  # live node -> its predecessors
        for u in reversed(order):
            next_level = level[u] + 1
            if next_level > depth:
                continue
            arcs = [a for a in adj[u] if cap[a] and level[head[a]] == next_level and head[a] in preds]
            if arcs:
                live[u] = arcs
                preds[u] = []
                for a in arcs:
                    preds[head[a]].append(u)
        # each live node's current arc: live[u][ptr[u]] is its first arc
        # that still has spare capacity and a live head
        ptr = dict.fromkeys(live, 0)
        while s in preds:
            path = []
            u = s
            while u != t:
                a = live[u][ptr[u]]
                path.append(a)
                u = head[a]
            total += _augment(cap, path)
            paths += 1
            # move the pointers past the arcs this path killed; a node whose
            # pointer runs off its list is dead, and so may be its predecessors
            stack = [head[a ^ 1] for a in path if not cap[a]]
            while stack:
                u = stack.pop()
                if u in preds:
                    arcs, i = live[u], ptr[u]
                    while i < len(arcs) and not (cap[arcs[i]] and head[arcs[i]] in preds):
                        i += 1
                    if i < len(arcs):
                        ptr[u] = i
                    else:
                        stack += preds.pop(u)
    # the BFS that missed t ran until its queue was empty, so it marked
    # every node reachable from s in the final residual graph
    side = frozenset(nid for nid, i in index.items() if level[i] >= 0)
    capacity = sum(
        e.capacity_kg for e in net.edges if e.tail in side and e.head not in side
    )
    return MaxFlowAssignment(
        flow=_extract_flow(net, cap),
        value=total,
        source_side=side,
        cut_capacity=capacity,
        paths=paths,
        phases=phases,
    )


def min_cut(net: FlowNetwork) -> tuple[frozenset[str], int]:
    """Source side of a minimum cut and its capacity (equals the max flow)."""
    fa = max_flow(net)
    return fa.source_side, fa.cut_capacity


def min_cost_flow(net: FlowNetwork, demand: int) -> FlowAssignment:
    """Cheapest feasible flow of exactly `demand` kg from source to sink.

    Successive shortest paths with node potentials over integer-scaled
    costs; all costs are non-negative so potentials start at zero and
    Dijkstra applies throughout.  Raises InfeasibleDemand when the network
    cannot carry the demand.
    """
    if demand < 0:
        raise ValidationErrors(["demand must be non-negative"])
    index, head, cap, adj = _build_residual(net)
    cost = [x for c in net._integer_costs[0] for x in (c, -c)]
    s, t = index[net.source], index[net.sink]
    n = len(adj)
    potential = [0] * n
    sent = paths = 0
    while sent < demand:
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        heap = [s]  # key d * n + v orders as (d, v) does, since 0 <= v < n
        while heap:
            d, u = divmod(heappop(heap), n)
            if d > dist[u]:
                continue
            base = d + potential[u]
            for a in adj[u]:
                if cap[a]:
                    v = head[a]
                    nd = base + cost[a] - potential[v]  # reduced costs are >= 0
                    if dist[v] < 0 or nd < dist[v]:
                        dist[v] = nd
                        parent[v] = a
                        heappush(heap, nd * n + v)
        if dist[t] < 0:
            raise InfeasibleDemand(demand, sent)
        for v in range(n):
            if dist[v] >= 0:
                potential[v] += dist[v]
        sent += _augment(cap, _path(head, parent, s, t), demand - sent)
        paths += 1
    return FlowAssignment(flow=_extract_flow(net, cap), value=sent, paths=paths)


def flow_cost(net: FlowNetwork, assignment: FlowAssignment) -> Fraction:
    """Total cost of an assignment, exact: the scaled int costs summed, over their scale."""
    costs, scale = net._integer_costs
    by_key = {(e.tail, e.head): c for e, c in zip(net.edges, costs)}
    return Fraction(sum(by_key[key] * kg for key, kg in assignment.flow.items()), scale)
