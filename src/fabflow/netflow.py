"""Capacitated flow networks over the fab logistics graph.

Capacities are integer kilograms per planning horizon, so flow conservation
and cut comparisons are exact integer arithmetic.  Edge costs are Fractions
(scenario files store integer milli-units per kg), so min-cost optimality
checks never see float drift.

Max flow uses shortest augmenting paths (BFS on the residual graph).  Its
last BFS, the one that fails to reach the sink, has marked exactly the nodes
the residual graph reaches from the source: that set is the source side of a
minimum cut, so `max_flow` returns the cut with the flow and `min_cut` only
reads it.

Min-cost flow uses successive shortest paths with node potentials (Ahuja,
Magnanti & Orlin, *Network Flows*, 1993, ch. 9).  Before the first path,
every cost is multiplied by the lcm L of the cost denominators (L = 1000 for
scenario files), so Dijkstra adds and compares Python ints.  Scaling by
L > 0 is exact and keeps the order of every pair of keys, ties included, so
the paths augmented are the ones the Fraction costs would choose.
`flow_cost` sums the same scaled ints and divides by L once, exactly.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from typing import Container, Mapping

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


@dataclass(frozen=True)
class Edge:
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


@dataclass(frozen=True)
class FlowAssignment:
    """A feasible flow: kg per edge plus the total value shipped."""

    flow: Mapping[tuple[str, str], int]
    value: int


@dataclass(frozen=True)
class MaxFlowAssignment(FlowAssignment):
    """A maximum flow with the minimum cut its final residual graph proves:
    the source side and the capacity of the edges leaving it."""

    source_side: frozenset[str]
    cut_capacity: int


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

class _Arc:
    __slots__ = ("head", "cap", "cost", "rev", "edge_key")

    def __init__(self, head, cap, cost, rev, edge_key):
        self.head = head
        self.cap = cap
        self.cost = cost
        self.rev = rev       # index of the reverse arc in graph[head]
        self.edge_key = edge_key  # (tail, head) for forward arcs, None for reverse


def _build_residual(net: FlowNetwork, costs=None):
    """Residual graph with one forward and one reverse arc per edge; `costs`
    lists one arc cost per edge of `net` (all 0 when omitted)."""
    index = {nid: i for i, nid in enumerate(net.nodes)}
    graph: list[list[_Arc]] = [[] for _ in index]
    for e, cost in zip(net.edges, costs or [0] * len(net.edges)):
        u, v = index[e.tail], index[e.head]
        fwd = _Arc(v, e.capacity_kg, cost, len(graph[v]), (e.tail, e.head))
        rev = _Arc(u, 0, -cost, len(graph[u]), None)
        graph[u].append(fwd)
        graph[v].append(rev)
    return index, graph


def _integer_costs(net: FlowNetwork) -> tuple[list[int], int]:
    """Every edge cost times the lcm of the cost denominators, as ints, and that lcm."""
    costs = [e.cost_per_kg for e in net.edges]
    scale = math.lcm(*(c.denominator for c in costs))
    return [c.numerator * (scale // c.denominator) for c in costs], scale


def _extract_flow(net: FlowNetwork, graph, index) -> dict[tuple[str, str], int]:
    cap_by_key = {(e.tail, e.head): e.capacity_kg for e in net.edges}
    flow = {key: 0 for key in cap_by_key}
    for arcs in graph:
        for arc in arcs:
            if arc.edge_key is not None:
                flow[arc.edge_key] = cap_by_key[arc.edge_key] - arc.cap
    return flow


def _augment(graph, parent, s: int, t: int, limit=None) -> int:
    """Push the bottleneck of the parent path from s to t (at most `limit`)."""
    bottleneck = limit
    v = t
    while v != s:
        u, ai = parent[v]
        cap = graph[u][ai].cap
        bottleneck = cap if bottleneck is None else min(bottleneck, cap)
        v = u
    v = t
    while v != s:
        u, ai = parent[v]
        arc = graph[u][ai]
        arc.cap -= bottleneck
        graph[v][arc.rev].cap += bottleneck
        v = u
    return bottleneck


def max_flow(net: FlowNetwork) -> MaxFlowAssignment:
    """Maximum s-t flow via BFS augmenting paths (Edmonds-Karp), with the
    minimum cut read from the last BFS."""
    index, graph = _build_residual(net)
    s, t = index[net.source], index[net.sink]
    total = 0
    while True:
        # shortest augmenting path in the residual graph
        parent: list[tuple[int, int] | None] = [None] * len(graph)
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
        total += _augment(graph, parent, s, t)
    # the BFS that missed t ran until its queue was empty, so it marked
    # every node reachable from s in the final residual graph
    side = frozenset(nid for nid, i in index.items() if parent[i] is not None)
    capacity = sum(
        e.capacity_kg for e in net.edges if e.tail in side and e.head not in side
    )
    return MaxFlowAssignment(
        flow=_extract_flow(net, graph, index),
        value=total,
        source_side=side,
        cut_capacity=capacity,
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
    index, graph = _build_residual(net, _integer_costs(net)[0])
    s, t = index[net.source], index[net.sink]
    n = len(graph)
    potential = [0] * n
    sent = 0
    while sent < demand:
        dist: list[int | None] = [None] * n
        parent: list[tuple[int, int] | None] = [None] * n
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
                nd = base + arc.cost - potential[v]  # reduced costs are >= 0
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = (u, ai)
                    heappush(heap, (nd, v))
        if dist[t] is None:
            raise InfeasibleDemand(demand, sent)
        for v in range(n):
            if dist[v] is not None:
                potential[v] += dist[v]
        sent += _augment(graph, parent, s, t, demand - sent)
    return FlowAssignment(flow=_extract_flow(net, graph, index), value=sent)


def flow_cost(net: FlowNetwork, assignment: FlowAssignment) -> Fraction:
    """Total cost of an assignment, exact: the scaled int costs summed, over their scale."""
    costs, scale = _integer_costs(net)
    by_key = {(e.tail, e.head): c for e, c in zip(net.edges, costs)}
    return Fraction(sum(by_key[key] * kg for key, kg in assignment.flow.items()), scale)
