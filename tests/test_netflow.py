"""Flow network tests.

Optimality claims are checked against brute force: min cuts by enumerating
every source side on small graphs, min-cost flows by enumerating every
integer flow vector on tiny ones.
"""
import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from support import (
    arc_flow_cost,
    brute_force_min_cut,
    conservation_residuals,
    edmonds_karp,
    make_network,
    tuple_heap_min_cost_flow,
)

from fabflow import netflow
from fabflow.cli import main
from fabflow.errors import (
    DuplicateNode,
    InfeasibleDemand,
    NoOriginOrDestination,
    ValidationErrors,
)
from fabflow.netflow import (
    Edge,
    FlowNetwork,
    NodeKind,
    build_network,
    flow_cost,
    max_flow,
    min_cost_flow,
    min_cut,
)
from fabflow.scenario import load_fixture


def net_of(edge_spec, source="s", sink="t", costs=None):
    """Small-network builder: edge_spec maps (tail, head) -> capacity."""
    nodes = sorted({n for pair in edge_spec for n in pair})
    edges = [
        Edge(
            tail=u,
            head=v,
            capacity_kg=cap,
            cost_per_kg=Fraction(costs[(u, v)]) if costs else Fraction(0),
        )
        for (u, v), cap in edge_spec.items()
    ]
    kinds = [(n, NodeKind.LOGISTICS) for n in nodes]
    return make_network(kinds, edges, source, sink)


# --- oracles -----------------------------------------------------------------

def brute_force_min_cost(net: FlowNetwork, demand: int):
    """Cheapest flow of exactly `demand` by enumerating integer edge flows.

    Only viable for a handful of edges with single-digit capacities.
    """
    edges = list(net.edges)
    best = None
    for combo in itertools.product(*[range(e.capacity_kg + 1) for e in edges]):
        net_out = {n: 0 for n in net.nodes}
        for e, kg in zip(edges, combo):
            net_out[e.tail] += kg
            net_out[e.head] -= kg
        if net_out[net.source] != demand:
            continue
        if any(v != 0 for n, v in net_out.items() if n not in (net.source, net.sink)):
            continue
        cost = sum(e.cost_per_kg * kg for e, kg in zip(edges, combo))
        if best is None or cost < best:
            best = cost
    return best


def random_network(rng):
    n = rng.randint(4, 7)
    names = [f"n{i}" for i in range(n)]
    spec = {}
    for u, v in itertools.permutations(names, 2):
        if rng.random() < 0.45 and (v, u) not in spec:
            spec[(u, v)] = rng.randint(0, 15)
    # guarantee the terminals touch the graph
    spec.setdefault((names[0], names[1]), rng.randint(1, 15))
    spec.setdefault((names[-2], names[-1]), rng.randint(1, 15))
    return net_of(spec, source=names[0], sink=names[-1])


def costed_network(rng, denominator, names=("s", "a", "b", "t"), max_cap=3):
    """Random network on `names` whose costs are multiples of 1/denominator;
    with the default four nodes and tiny capacities brute force can
    enumerate every flow."""
    spec, costs = {}, {}
    for u, v in itertools.permutations(names, 2):
        if v == names[0] or u == names[-1]:
            continue
        if rng.random() < 0.7 and (v, u) not in spec:
            spec[(u, v)] = rng.randint(1, max_cap)
            costs[(u, v)] = Fraction(rng.randint(0, 4 * denominator), denominator)
    spec.setdefault((names[0], names[1]), 2), costs.setdefault((names[0], names[1]), Fraction(1))
    spec.setdefault((names[1], names[-1]), 2), costs.setdefault((names[1], names[-1]), Fraction(1))
    return net_of(spec, source=names[0], sink=names[-1], costs=costs)


def tied_network(rng):
    """Random network with many tied shortest paths: capacities mostly 0
    and 1, antiparallel edges, one to three origins and destinations (so
    build_network may add super terminals), and dead-end branches that
    reach no destination."""
    n = rng.randint(4, 12)
    kinds = [NodeKind.PRODUCTION] * rng.randint(1, 3) + [NodeKind.DESTINATION] * rng.randint(1, 3)
    kinds += [NodeKind.LOGISTICS] * max(n - len(kinds), 0)
    rng.shuffle(kinds)
    names = [f"n{i}" for i in range(len(kinds))]
    spurs = [f"x{i}" for i in range(rng.randint(0, 3))]
    edges = [
        Edge(u, v, rng.choice([0, 1, 1, 1, 2, rng.randint(0, 9)]), Fraction(rng.randint(0, 3), 1000))
        for u, v in itertools.permutations(names, 2)
        if rng.random() < 0.35
    ]
    # spurs take flow in but never lead back
    edges += [
        Edge(u, x, rng.randint(1, 3), Fraction(rng.randint(0, 3), 1000))
        for i, x in enumerate(spurs)
        for u in rng.sample(names + spurs[:i], 2)
    ]
    section = SimpleNamespace(
        nodes=tuple(zip(names, kinds)) + tuple((x, NodeKind.LOGISTICS) for x in spurs),
        edges=tuple(edges),
    )
    return build_network(SimpleNamespace(network=section))


def layered_network(rng):
    """Random layered network, 20-80 nodes in 3-8 layers between a source
    and a sink, so that a phase has many equal-length paths that share arcs
    and a level-graph node has many arcs for the current-arc pointer to
    pass: the terminals fully wired to their layers, dense arcs from each
    layer to the next with capacities mostly 0, 1 or 2, some arcs doubled
    by an antiparallel one, and a few arcs within a layer or skipping one
    (so later phases find longer paths), all in shuffled adjacency order."""
    n_layers = rng.randint(3, 8)
    sizes = [2] * n_layers
    for _ in range(rng.randint(20, 80) - 2 - 2 * n_layers):
        sizes[rng.randrange(n_layers)] += 1
    names = iter(f"v{i}" for i in range(sum(sizes)))
    inner = [[next(names) for _ in range(k)] for k in sizes]
    layers = [["s"], *inner, ["t"]]

    def capacity():
        return rng.choice([0, 1, 1, 2, 2, rng.randint(0, 5)])

    wired = [(("s", v), rng.randint(1, 9)) for v in inner[0]]
    wired += [((u, "t"), rng.randint(1, 9)) for u in inner[-1]]
    pairs = [(u, v) for here, ahead in zip(inner, inner[1:]) for u in here for v in ahead]
    pairs = [pair for pair in pairs if rng.random() < 0.6]
    pairs += [(v, u) for u, v in pairs if rng.random() < 0.2]
    pairs += [(u, v) for layer in inner for u, v in itertools.permutations(layer, 2) if rng.random() < 0.05]
    pairs += [(u, v) for here, ahead in zip(inner, inner[2:]) for u in here for v in ahead if rng.random() < 0.03]
    arcs = wired + [(pair, capacity()) for pair in pairs]
    rng.shuffle(arcs)
    edges = [Edge(u, v, cap, Fraction(rng.randint(0, 3), 1000)) for (u, v), cap in arcs]
    kinds = [(n, NodeKind.LOGISTICS) for layer in layers for n in layer]
    return make_network(kinds, edges, "s", "t")


def scaled_costs(net: FlowNetwork, factor: Fraction) -> FlowNetwork:
    edges = [
        Edge(e.tail, e.head, e.capacity_kg, e.cost_per_kg * factor, e.transit_time_h)
        for e in net.edges
    ]
    return make_network(net.nodes.items(), edges, net.source, net.sink)


# --- construction and validation ---------------------------------------------

def test_duplicate_node_rejected():
    kinds = [("a", NodeKind.LOGISTICS), ("a", NodeKind.LOGISTICS), ("t", NodeKind.LOGISTICS)]
    with pytest.raises(DuplicateNode):
        make_network(kinds, [Edge("a", "t", 5)], "a", "t")


def test_dangling_edge_rejected():
    kinds = [("a", NodeKind.LOGISTICS), ("t", NodeKind.LOGISTICS)]
    with pytest.raises(ValidationErrors, match="edges\\[0\\]: unknown node 'ghost'"):
        make_network(kinds, [Edge("a", "ghost", 5)], "a", "t")


def test_self_loop_parallel_and_negative_collected():
    kinds = [("a", NodeKind.LOGISTICS), ("b", NodeKind.LOGISTICS)]
    edges = [
        Edge("a", "a", 5),
        Edge("a", "b", 5),
        Edge("a", "b", 7),
        Edge("b", "a", -1),
    ]
    with pytest.raises(ValidationErrors) as exc:
        make_network(kinds, edges, "a", "b")
    text = str(exc.value)
    assert "self loop" in text
    assert "parallel" in text
    assert "negative" in text


def test_build_network_needs_origin_and_destination():
    import dataclasses

    scenario = load_fixture("fig9_baseline")
    stripped = type(scenario.network)(
        nodes=tuple((n, NodeKind.LOGISTICS) for n, _ in scenario.network.nodes),
        edges=scenario.network.edges,
    )
    with pytest.raises(NoOriginOrDestination):
        build_network(dataclasses.replace(scenario, network=stripped))


def test_build_network_synthesizes_super_terminals():
    net = build_network(load_fixture("fig9_baseline"))
    assert net.source == "__src__" and net.sink == "__snk__"
    # one feeder edge per production node, one drain per destination
    feeders = [e for e in net.edges if e.tail == net.source]
    drains = [e for e in net.edges if e.head == net.sink]
    assert {e.head for e in feeders} == {"P1", "P2", "P3"}
    assert {e.tail for e in drains} == {"D1", "D2"}
    assert all(e.cost_per_kg == 0 for e in feeders + drains)


# --- max flow ----------------------------------------------------------------

def test_diamond_max_flow():
    net = net_of(
        {("s", "a"): 10, ("s", "b"): 10, ("a", "t"): 10, ("b", "t"): 10, ("a", "b"): 5}
    )
    fa = max_flow(net)
    assert fa.value == 20
    side, cap = min_cut(net)
    assert cap == 20
    assert "s" in side and "t" not in side


def test_bottleneck_respected():
    net = net_of({("s", "a"): 100, ("a", "t"): 3})
    assert max_flow(net).value == 3


def test_max_flow_against_brute_force_cuts():
    import random

    rng = random.Random(20260823)
    for _ in range(60):
        net = random_network(rng)
        fa = max_flow(net)
        side, cap = min_cut(net)
        oracle = brute_force_min_cut(net)
        assert fa.value == cap == oracle


def test_adding_an_edge_never_decreases_max_flow():
    import random

    rng = random.Random(7)
    for _ in range(25):
        net = random_network(rng)
        base = max_flow(net).value
        nodes = list(net.nodes)
        existing = {(e.tail, e.head) for e in net.edges}
        candidates = [
            (u, v)
            for u, v in itertools.permutations(nodes, 2)
            if (u, v) not in existing and (v, u) not in existing
            and v != net.source and u != net.sink
        ]
        if not candidates:
            continue
        u, v = candidates[0]
        bigger = make_network(
            [(n, net.nodes[n]) for n in net.nodes],
            list(net.edges) + [Edge(u, v, 10)],
            net.source,
            net.sink,
        )
        assert max_flow(bigger).value >= base


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=60, deadline=None)
def test_max_flow_carries_a_min_cut_certificate(seed):
    import random

    net = random_network(random.Random(seed))
    fa = max_flow(net)
    side = fa.source_side
    assert net.source in side and net.sink not in side
    for e in net.edges:
        kg = fa.flow[(e.tail, e.head)]
        if e.tail in side and e.head not in side:
            assert kg == e.capacity_kg          # leaving the side: saturated
        elif e.head in side and e.tail not in side:
            assert kg == 0                      # entering the side: empty
    crossing = sum(e.capacity_kg for e in net.edges if e.tail in side and e.head not in side)
    assert fa.cut_capacity == crossing == fa.value
    assert min_cut(net) == (side, fa.value)


@pytest.mark.parametrize("command", ["maxflow", "report"])
def test_maxflow_section_builds_one_residual_graph(monkeypatch, command):
    built = []
    original = netflow._build_residual

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(netflow, "_build_residual", counting)
    assert main([command, "--scenario", "fig10_optimized"]) == 0
    assert len(built) == 1


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=40, deadline=None)
def test_flow_is_feasible_and_conserved(seed):
    import random

    net = random_network(random.Random(seed))
    fa = max_flow(net)
    caps = {(e.tail, e.head): e.capacity_kg for e in net.edges}
    for key, kg in fa.flow.items():
        assert 0 <= kg <= caps[key]
    residual = conservation_residuals(net, fa)
    assert residual.keys() == net.nodes.keys()
    for node, r in residual.items():
        if node == net.source:
            assert r == fa.value
        elif node == net.sink:
            assert r == -fa.value
        else:
            assert r == 0


# --- min-cost flow -----------------------------------------------------------

def test_relay_route_min_cost():
    # two relay routes: cheap one (cost 3/kg) saturates first, then the 5/kg one
    spec = {("s", "r1"): 2, ("r1", "t"): 2, ("s", "r2"): 2, ("r2", "t"): 2}
    costs = {("s", "r1"): 1, ("r1", "t"): 2, ("s", "r2"): 2, ("r2", "t"): 3}
    net = net_of(spec, costs=costs)
    fa = min_cost_flow(net, 3)
    assert fa.value == 3
    assert flow_cost(net, fa) == Fraction(11)


def test_min_cost_against_exhaustive_enumeration():
    import random

    rng = random.Random(99)
    for _ in range(12):
        names = ["s", "a", "b", "t"]
        spec, costs = {}, {}
        for u, v in itertools.permutations(names, 2):
            if v == "s" or u == "t":
                continue
            if rng.random() < 0.7 and (v, u) not in spec:
                spec[(u, v)] = rng.randint(1, 3)
                costs[(u, v)] = rng.randint(0, 4)
        spec.setdefault(("s", "a"), 2), costs.setdefault(("s", "a"), 1)
        spec.setdefault(("a", "t"), 2), costs.setdefault(("a", "t"), 1)
        net = net_of(spec, costs=costs)
        cap = max_flow(net).value
        if cap == 0:
            continue
        demand = rng.randint(1, cap)
        fa = min_cost_flow(net, demand)
        assert fa.value == demand
        oracle = brute_force_min_cost(net, demand)
        assert flow_cost(net, fa) == oracle


@pytest.mark.parametrize("denominator", [1, 3, 7, 1000])
def test_min_cost_with_fractional_costs_against_enumeration(denominator):
    import random

    rng = random.Random(denominator)
    for _ in range(12):
        net = costed_network(rng, denominator)
        cap = max_flow(net).value
        for demand in sorted({1, rng.randint(1, cap), cap}):
            fa = min_cost_flow(net, demand)
            assert fa.value == demand
            assert flow_cost(net, fa) == brute_force_min_cost(net, demand)


def test_min_cost_flow_is_invariant_under_cost_scaling():
    import random

    rng = random.Random(20261018)
    nets = [build_network(load_fixture("fig9_baseline"))]
    for denominator in (1, 3, 1000):
        names = tuple(f"n{i}" for i in range(8))
        nets += [costed_network(rng, denominator, names, max_cap=9) for _ in range(5)]
    seventh = Fraction(1, 7)
    for net in nets:
        scaled = scaled_costs(net, seventh)
        cap = max_flow(net).value
        for demand in (cap // 3, cap):
            fa, fs = min_cost_flow(net, demand), min_cost_flow(scaled, demand)
            assert fs.flow == fa.flow and fs.value == fa.value
            assert flow_cost(scaled, fs) == flow_cost(net, fa) * seventh


def test_min_cost_marginal_cost_is_nondecreasing():
    net = build_network(load_fixture("fig9_baseline"))
    demands = range(2000, 20001, 2000)
    costs = [float(flow_cost(net, min_cost_flow(net, d))) for d in demands]
    marginals = [b - a for a, b in zip(costs, costs[1:])]
    assert all(m2 >= m1 - 1e-9 for m1, m2 in zip(marginals, marginals[1:]))
    assert all(c2 > c1 for c1, c2 in zip(costs, costs[1:]))


def test_min_cost_infeasible_demand():
    net = build_network(load_fixture("fig9_baseline"))
    with pytest.raises(InfeasibleDemand) as exc:
        min_cost_flow(net, 20001)
    assert exc.value.demand == 20001
    assert exc.value.max_value == 20000


def test_fixture_mincost_known_values():
    net = build_network(load_fixture("fig9_baseline"))
    assert float(flow_cost(net, min_cost_flow(net, 10000))) == pytest.approx(2260.0)
    assert float(flow_cost(net, min_cost_flow(net, 20000))) == pytest.approx(5170.0)


# --- against the Edmonds-Karp and tuple-heap oracles --------------------------

def assert_same_as_oracles(net):
    """max_flow and min_cost_flow equal the oracles bit for bit, work counts
    included; min-cost flow at no, a third, all and one more than the max flow."""
    fa, oracle = max_flow(net), edmonds_karp(net)
    assert fa == oracle
    assert list(fa.flow.items()) == list(oracle.flow.items())
    assert (fa.paths, fa.phases) == (oracle.paths, oracle.phases)
    for demand in (0, fa.value // 3, fa.value, fa.value + 1):
        try:
            expected = tuple_heap_min_cost_flow(net, demand)
        except InfeasibleDemand as exc:
            with pytest.raises(InfeasibleDemand) as got:
                min_cost_flow(net, demand)
            assert (got.value.demand, got.value.max_value) == (exc.demand, exc.max_value)
            continue
        mc = min_cost_flow(net, demand)
        assert list(mc.flow.items()) == list(expected.flow.items())
        assert (mc.value, mc.paths) == (expected.value, expected.paths)
        assert flow_cost(net, mc) == arc_flow_cost(net, expected)


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=300, deadline=None)
def test_solvers_match_the_oracles_on_tied_networks(seed):
    import random

    assert_same_as_oracles(tied_network(random.Random(seed)))


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=60, deadline=None)
def test_solvers_match_the_oracles_on_layered_networks(seed):
    import random

    assert_same_as_oracles(layered_network(random.Random(seed)))


@pytest.mark.parametrize("fixture", ["fig9_baseline", "fig10_optimized"])
def test_solvers_match_the_oracles_on_the_bundled_networks(fixture):
    assert_same_as_oracles(build_network(load_fixture(fixture)))


# --- bundled network fixtures ------------------------------------------------

def test_baseline_fixture_throughput():
    net = build_network(load_fixture("fig9_baseline"))
    fa = max_flow(net)
    _, cap = min_cut(net)
    assert fa.value == 20000
    assert cap == 20000


def test_optimized_fixture_throughput_gain():
    base = build_network(load_fixture("fig9_baseline"))
    opt = build_network(load_fixture("fig10_optimized"))
    fa = max_flow(opt)
    assert fa.value == 26700
    assert fa.value - max_flow(base).value == 6700
    _, cap = min_cut(opt)
    assert cap == 26700
    # the four added links all lie on the binding cut, so any maximum flow
    # saturates them
    added = {
        ("P2", "L4"): 2000,
        ("P3", "L3"): 2000,
        ("L1", "D2"): 1700,
        ("P1", "L4"): 1000,
    }
    base_pairs = {(e.tail, e.head) for e in base.edges}
    for pair, kg in added.items():
        assert pair not in base_pairs
        assert fa.flow[pair] == kg
