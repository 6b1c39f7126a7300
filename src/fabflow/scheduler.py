"""Transport task assignment: evaluation, GA front search, SA and ACO baselines.

A schedule assigns each transport task to one vehicle; vehicles work through
their tasks in dispatch rounds, one task per round, so a vehicle's completion
time is the sum of its task times (travel at constant speed plus fixed load
and unload handling).  Objectives: total cost (busy time times cost rate,
summed over vehicles), makespan (latest completion), and productivity
(tasks per hour of makespan, 0 at makespan 0).

All three searches score assignments with one kernel, `_objectives`, which
gives (cost, makespan) for one chromosome or a whole batch.  The GA is an
elitist non-dominated-sorting algorithm over the task-to-vehicle vector that
searches (cost, makespan): productivity is a decreasing function of makespan,
so it adds nothing to dominance and is derived only when an ObjectiveVector
is built.  SA and ACO optimize an equal-weight scalarization of cost and
makespan after min-max normalization over a seeded sample of random
assignments.  All three are deterministic given the seed.
"""
from __future__ import annotations

import bisect
import math
import statistics
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptySeeds, MissingDistance, OverloadedVehicleRound, ValidationErrors


class TaskType(Enum):
    PROCESSING = "A"
    TESTING = "B"
    PACKAGING = "C"
    SHIPPING = "D"
    DISTRIBUTION = "E"


@dataclass(frozen=True)
class TransportTask:
    task_id: str
    task_type: TaskType
    origin: str
    destination: str
    lot_mass_kg: float
    baseline_duration_h: float

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValidationErrors([f"task {self.task_id}: origin equals destination"])
        if not self.lot_mass_kg > 0:
            raise ValidationErrors([f"task {self.task_id}: lot mass must be positive"])


@dataclass(frozen=True)
class VehicleSpec:
    vehicle_id: str
    speed: float
    load_time_h: float
    unload_time_h: float
    cost_rate: float

    def __post_init__(self):
        if not self.speed > 0:
            raise ValidationErrors([f"vehicle {self.vehicle_id}: speed must be positive"])
        if self.load_time_h < 0 or self.unload_time_h < 0:
            raise ValidationErrors(
                [f"vehicle {self.vehicle_id}: handling times must be non-negative"]
            )


@dataclass(frozen=True)
class Assignment:
    """task_id -> vehicle_id, with optional explicit dispatch rounds."""

    mapping: Mapping[str, str]
    rounds: Mapping[str, int] | None = None


@dataclass(frozen=True)
class ObjectiveVector:
    total_cost: float
    makespan_h: float
    productivity: float


@dataclass(frozen=True)
class ParetoSet:
    """Mutually non-dominated (assignment, objectives) pairs."""

    members: tuple[tuple[Assignment, ObjectiveVector], ...]

    @property
    def objectives(self) -> list[ObjectiveVector]:
        return [obj for _, obj in self.members]

    def best_by(self, attr: str) -> tuple[Assignment, ObjectiveVector]:
        sign = -1.0 if attr == "productivity" else 1.0
        return min(self.members, key=lambda m: sign * getattr(m[1], attr))

    def to_csv_rows(self):
        header = ("assignment", "total_cost", "makespan_h", "productivity")
        rows = []
        for a, obj in self.members:
            packed = ";".join(f"{t}->{v}" for t, v in sorted(a.mapping.items()))
            rows.append((packed, repr(obj.total_cost), repr(obj.makespan_h), repr(obj.productivity)))
        return header, rows


@dataclass(frozen=True)
class SchedulingInstance:
    tasks: tuple[TransportTask, ...]
    vehicles: tuple[VehicleSpec, ...]
    distances: Mapping[tuple[str, str], float]

    @classmethod
    def from_scenario(cls, scenario) -> "SchedulingInstance":
        if not scenario.tasks or not scenario.vehicles:
            raise ValidationErrors(["scenario has no tasks or no vehicles"])
        return cls(
            tasks=tuple(scenario.tasks),
            vehicles=tuple(scenario.vehicles),
            distances=dict(scenario.distances),
        )

    def restricted_to(self, task_type: TaskType) -> "SchedulingInstance":
        subset = tuple(t for t in self.tasks if t.task_type == task_type)
        return SchedulingInstance(subset, self.vehicles, self.distances)


def task_time_h(task: TransportTask, vehicle: VehicleSpec, distances) -> float:
    key = (task.origin, task.destination)
    if key not in distances:
        raise MissingDistance(task.origin, task.destination)
    return distances[key] / vehicle.speed + vehicle.load_time_h + vehicle.unload_time_h


def _time_matrices(inst: SchedulingInstance) -> tuple[np.ndarray, np.ndarray]:
    """T[t, v] = hours for task t on vehicle v; C[t, v] = cost of that pairing."""
    T = np.empty((len(inst.tasks), len(inst.vehicles)))
    for ti, task in enumerate(inst.tasks):
        for vi, veh in enumerate(inst.vehicles):
            T[ti, vi] = task_time_h(task, veh, inst.distances)
    rates = np.array([v.cost_rate for v in inst.vehicles])
    return T, T * rates


def evaluate_schedule(inst: SchedulingInstance, assignment: Assignment) -> ObjectiveVector:
    """Objectives of one assignment.

    The mapping must cover every task.  Explicit rounds, when given, must
    put at most one task per vehicle in any round; without them tasks simply
    queue on their vehicle in declaration order.  Round structure does not
    change the objectives (a vehicle's completion is the sum of its task
    times either way); it is validated because overlapping dispatches are a
    modeling error worth surfacing.
    """
    if not inst.tasks:
        raise ValidationErrors(["cannot evaluate an empty task list"])
    vehicle_index = {v.vehicle_id: i for i, v in enumerate(inst.vehicles)}
    busy = np.zeros(len(inst.vehicles))
    if assignment.rounds is not None:
        seen: set[tuple[str, int]] = set()
        for task in inst.tasks:
            if task.task_id not in assignment.rounds:
                raise OverloadedVehicleRound(
                    f"task {task.task_id} has no dispatch round"
                )
            key = (assignment.mapping.get(task.task_id), assignment.rounds[task.task_id])
            if key in seen:
                raise OverloadedVehicleRound(
                    f"vehicle {key[0]} holds two tasks in round {key[1]}"
                )
            seen.add(key)
    for task in inst.tasks:
        vid = assignment.mapping.get(task.task_id)
        if vid is None or vid not in vehicle_index:
            raise ValidationErrors(
                [f"task {task.task_id} is not assigned to a known vehicle"]
            )
        vi = vehicle_index[vid]
        busy[vi] += task_time_h(task, inst.vehicles[vi], inst.distances)
    rates = np.array([v.cost_rate for v in inst.vehicles])
    return _objective_vector(len(inst.tasks), busy @ rates, busy.max())


def _objective_vector(n_tasks: int, cost, makespan) -> ObjectiveVector:
    makespan = float(makespan)
    return ObjectiveVector(float(cost), makespan, n_tasks / makespan if makespan > 0 else 0.0)


def _objectives(pop: np.ndarray, T: np.ndarray, C: np.ndarray):
    """(cost, makespan) of one chromosome (n_tasks,) or per row of a batch
    (m, n_tasks).  Busy time adds task times in task order and cost sums one
    chromosome's row, so a row scores the same alone or in a batch."""
    rows = np.arange(T.shape[0])
    # ufunc reductions skip the .sum/.max wrappers, a real share of a one-row call
    busy = np.add.reduce(np.where(pop[..., None] == np.arange(T.shape[1]), T, 0.0), axis=-2)
    return np.add.reduce(C[rows, pop], axis=-1), np.maximum.reduce(busy, axis=-1)


def _nondominated_sort(F: np.ndarray) -> np.ndarray:
    """Front rank per row of an (n, 2) minimization matrix, 0 = best.

    Rows are visited by (cost, makespan), so each row's dominators come
    before it.  Each front keeps the (makespan, cost) key of its last member;
    these keys increase front by front, and a front dominates a row exactly
    when its key is smaller.  Bisection therefore finds the row's front, and
    an equal key, a duplicate, joins that front (Jensen, IEEE TEC 2003).
    """
    keys = list(zip(F[:, 1].tolist(), F[:, 0].tolist()))
    ranks = np.empty(len(F), dtype=int)
    tails: list[tuple[float, float]] = []
    for i in np.lexsort((F[:, 1], F[:, 0])).tolist():
        r = bisect.bisect_left(tails, keys[i])
        if r == len(tails):
            tails.append(keys[i])
        else:
            tails[r] = keys[i]
        ranks[i] = r
    return ranks


def _crowding_distance(F: np.ndarray, idx: np.ndarray) -> np.ndarray:
    dist = np.zeros(len(idx))
    sub = F[idx]
    for k in range(F.shape[1]):
        order = np.argsort(sub[:, k], kind="stable")
        lo, hi = sub[order[0], k], sub[order[-1], k]
        dist[order[0]] = dist[order[-1]] = math.inf
        span = hi - lo
        if span <= 0 or len(idx) < 3:
            continue
        gaps = (sub[order[2:], k] - sub[order[:-2], k]) / span
        dist[order[1:-1]] += gaps
    return dist


def _check_param(name: str, value, domain: str, ok, integer: bool = False) -> None:
    """ValueError unless `value` is a number (an int when `integer`; never a
    bool) for which ok(value) holds; `domain` completes "<name> must ...".
    A finite domain's bound is sys.float_info.max, not inf, so that an int
    too large for a float fails it."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'} (got {value!r})")
    if not ok(value):
        raise ValueError(f"{name} must {domain} (got {value!r})")


@dataclass(frozen=True)
class GaParams:
    population: int = 100
    generations: int = 200
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # default 1/num_tasks

    def __post_init__(self):
        # crossover pairs consecutive members, so a population of one never recombines
        _check_param("population", self.population, "be at least 2", lambda v: v >= 2, True)
        _check_param("generations", self.generations, "be non-negative", lambda v: v >= 0, True)
        _check_param("crossover_rate", self.crossover_rate, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
        if self.mutation_rate is not None:
            _check_param("mutation_rate", self.mutation_rate, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)


def _front_to_pareto(inst, pop, F) -> ParetoSet:
    ranks = _nondominated_sort(F)
    keep = np.flatnonzero(ranks == 0)
    seen: set[bytes] = set()
    members = []
    task_ids = [t.task_id for t in inst.tasks]
    veh_ids = [v.vehicle_id for v in inst.vehicles]
    for i in keep:
        key = pop[i].tobytes()
        if key in seen:
            continue
        seen.add(key)
        mapping = {task_ids[t]: veh_ids[pop[i, t]] for t in range(len(task_ids))}
        members.append((Assignment(mapping=mapping), _objective_vector(len(task_ids), *F[i])))
    members.sort(key=lambda m: (m[1].total_cost, m[1].makespan_h))
    return ParetoSet(members=tuple(members))


def ga_optimize(
    inst: SchedulingInstance, params: GaParams | None = None, seed: int = 42
) -> ParetoSet:
    """Elitist non-dominated-sorting GA; returns the final front."""
    params = params or GaParams()
    if not inst.tasks:
        raise ValidationErrors(["cannot optimize an empty task list"])
    rng = np.random.default_rng(seed)
    T, C = _time_matrices(inst)
    n_tasks, n_veh = T.shape
    pmut = params.mutation_rate if params.mutation_rate is not None else 1.0 / n_tasks
    pop = rng.integers(0, n_veh, size=(params.population, n_tasks))
    F = np.column_stack(_objectives(pop, T, C))
    for _ in range(params.generations):
        ranks = _nondominated_sort(F)
        crowd = np.empty(len(pop))
        for r in np.unique(ranks):
            idx = np.flatnonzero(ranks == r)
            crowd[idx] = _crowding_distance(F, idx)
        # binary tournaments on (rank, -crowding)
        picks = rng.integers(0, len(pop), size=(2, params.population))
        a, b = picks
        better = (ranks[a] < ranks[b]) | ((ranks[a] == ranks[b]) & (crowd[a] >= crowd[b]))
        parents = pop[np.where(better, a, b)]
        # uniform crossover on consecutive pairs
        children = parents.copy()
        for i in range(0, params.population - 1, 2):
            if rng.random() < params.crossover_rate:
                mask = rng.random(n_tasks) < 0.5
                c1 = np.where(mask, parents[i], parents[i + 1])
                c2 = np.where(mask, parents[i + 1], parents[i])
                children[i], children[i + 1] = c1, c2
        mut = rng.random(children.shape) < pmut
        children[mut] = rng.integers(0, n_veh, size=int(mut.sum()))
        Fc = np.column_stack(_objectives(children, T, C))
        # elitist environmental selection on the merged population
        merged = np.vstack([pop, children])
        Fm = np.vstack([F, Fc])
        ranks_m = _nondominated_sort(Fm)
        chosen: list[int] = []
        for r in np.unique(ranks_m):
            idx = np.flatnonzero(ranks_m == r)
            if len(chosen) + len(idx) <= params.population:
                chosen.extend(idx.tolist())
            else:
                dist = _crowding_distance(Fm, idx)
                order = np.argsort(-dist, kind="stable")
                chosen.extend(idx[order[: params.population - len(chosen)]].tolist())
                break
        pop = merged[chosen]
        F = Fm[chosen]
    return _front_to_pareto(inst, pop, F)


# --- scalarized baselines ---------------------------------------------------

@dataclass(frozen=True)
class ScalarBounds:
    cost_lo: float
    cost_hi: float
    makespan_lo: float
    makespan_hi: float

    def score(self, cost: float, makespan: float) -> float:
        nc = (cost - self.cost_lo) / (self.cost_hi - self.cost_lo) if self.cost_hi > self.cost_lo else 0.0
        nm = (makespan - self.makespan_lo) / (self.makespan_hi - self.makespan_lo) if self.makespan_hi > self.makespan_lo else 0.0
        return 0.5 * nc + 0.5 * nm


@dataclass(frozen=True)
class ScalarResult:
    assignment: Assignment
    objectives: ObjectiveVector
    scalar_score: float
    bounds: ScalarBounds


def _sample_bounds(rng, T, C, samples: int = 100) -> ScalarBounds:
    n_tasks, n_veh = T.shape
    cost, mk = _objectives(rng.integers(0, n_veh, size=(samples, n_tasks)), T, C)
    return ScalarBounds(
        cost_lo=float(cost.min()),
        cost_hi=float(cost.max()),
        makespan_lo=float(mk.min()),
        makespan_hi=float(mk.max()),
    )


def _as_result(inst, a, T, C, bounds) -> ScalarResult:
    obj = _objective_vector(len(a), *_objectives(a, T, C))
    mapping = {
        inst.tasks[t].task_id: inst.vehicles[a[t]].vehicle_id for t in range(len(a))
    }
    return ScalarResult(
        assignment=Assignment(mapping=mapping),
        objectives=obj,
        scalar_score=bounds.score(obj.total_cost, obj.makespan_h),
        bounds=bounds,
    )


@dataclass(frozen=True)
class SaParams:
    t_initial: float = 10.0
    cooling: float = 0.95
    iters_per_temp: int = 200
    t_min: float = 1e-3

    def __post_init__(self):
        # geometric cooling from a finite t_initial only reaches t_min when
        # these hold
        _check_param("t_initial", self.t_initial, "be positive and finite", lambda v: 0.0 < v <= sys.float_info.max)
        _check_param("cooling", self.cooling, "lie strictly between 0 and 1", lambda v: 0.0 < v < 1.0)
        _check_param("iters_per_temp", self.iters_per_temp, "be at least 1", lambda v: v >= 1, True)
        _check_param("t_min", self.t_min, "be positive", lambda v: v > 0.0)


def sa_optimize(
    inst: SchedulingInstance, params: SaParams | None = None, seed: int = 42
) -> ScalarResult:
    """Simulated annealing with geometric cooling and swap moves.

    A move either hands one task to a different vehicle or exchanges the
    vehicles of two tasks (pure exchanges alone cannot rebalance loads).
    """
    params = params or SaParams()
    if not inst.tasks:
        raise ValidationErrors(["cannot optimize an empty task list"])
    rng = np.random.default_rng(seed)
    T, C = _time_matrices(inst)
    n_tasks, n_veh = T.shape
    bounds = _sample_bounds(rng, T, C)
    current = rng.integers(0, n_veh, size=n_tasks)
    cur_score = bounds.score(*_objectives(current, T, C))
    best, best_score = current.copy(), cur_score
    t = params.t_initial
    while t > params.t_min:
        for _ in range(params.iters_per_temp):
            cand = current.copy()
            if n_tasks >= 2 and n_veh >= 2 and rng.random() < 0.5:
                i, j = rng.choice(n_tasks, size=2, replace=False)
                cand[i], cand[j] = cand[j], cand[i]
            else:
                i = rng.integers(0, n_tasks)
                cand[i] = (cand[i] + 1 + rng.integers(0, max(n_veh - 1, 1))) % n_veh
            cand_score = bounds.score(*_objectives(cand, T, C))
            delta = cand_score - cur_score
            if delta <= 0 or rng.random() < math.exp(-delta / t):
                current, cur_score = cand, cand_score
                if cur_score < best_score:
                    best, best_score = current.copy(), cur_score
        t *= params.cooling
    return _as_result(inst, best, T, C, bounds)


@dataclass(frozen=True)
class AcoParams:
    ants: int = 20
    iterations: int = 100
    evaporation: float = 0.5
    pheromone_init: float = 1.0
    alpha: float = 1.0
    beta: float = 2.0
    deposit: float = 1.0

    def __post_init__(self):
        _check_param("ants", self.ants, "be at least 1", lambda v: v >= 1, True)
        _check_param("iterations", self.iterations, "be at least 1", lambda v: v >= 1, True)
        # pheromone keeps a 1 - evaporation share each iteration
        _check_param("evaporation", self.evaporation, "lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
        for name in ("alpha", "beta"):
            _check_param(name, getattr(self, name), "be non-negative and finite", lambda v: 0.0 <= v <= sys.float_info.max)
        for name in ("pheromone_init", "deposit"):
            _check_param(name, getattr(self, name), "be positive and finite", lambda v: 0.0 < v <= sys.float_info.max)


def aco_optimize(
    inst: SchedulingInstance, params: AcoParams | None = None, seed: int = 42
) -> ScalarResult:
    """Ant system over the task-vehicle pairing matrix.

    Heuristic desirability is 1/task_time; every ant deposits pheromone in
    proportion to the quality of its scalarized assignment.
    """
    params = params or AcoParams()
    if not inst.tasks:
        raise ValidationErrors(["cannot optimize an empty task list"])
    rng = np.random.default_rng(seed)
    T, C = _time_matrices(inst)
    n_tasks, n_veh = T.shape
    bounds = _sample_bounds(rng, T, C)
    with np.errstate(divide="ignore"):
        heuristic = np.where(T > 0, 1.0 / T, 1e6)
    tau = np.full((n_tasks, n_veh), params.pheromone_init, dtype=float)
    best, best_score = None, math.inf
    for _ in range(params.iterations):
        with np.errstate(over="ignore", invalid="ignore"):
            weights_all = (tau**params.alpha) * (heuristic**params.beta)
            row_sums = weights_all.sum(axis=1, keepdims=True)
        # an inf or NaN weight leaves its row sum non-finite; a row may sum below
        # zero, because a score under the sampled lower bound deposits negatively
        if not (np.isfinite(row_sums) & (row_sums != 0.0)).all():
            raise ValidationErrors([
                "metaheuristic_params.aco: alpha, beta, pheromone_init and deposit drive "
                "the pheromone weights out of floating-point range"
            ])
        probs = weights_all / row_sums
        # inverse-CDF sampling for all ants and tasks at once
        cum = probs.cumsum(axis=1)
        u = rng.random((params.ants, n_tasks, 1))
        ants = np.minimum((u > cum[None, :, :]).sum(axis=2), n_veh - 1)
        # score() is a scalar 0.0 when both sample spans are empty
        scores = np.broadcast_to(bounds.score(*_objectives(ants, T, C)), params.ants)
        tau *= 1.0 - params.evaporation
        # unbuffered, so a cell that several ants chose gets every gain, in ant order
        with np.errstate(all="ignore"):  # an overflow here shows in the next weights
            np.add.at(tau, (np.arange(n_tasks), ants), (params.deposit / (0.01 + scores))[:, None])
        it_best = int(np.argmin(scores))
        if scores[it_best] < best_score:
            best, best_score = ants[it_best].copy(), float(scores[it_best])
    return _as_result(inst, best, T, C, bounds)


# --- benchmark ---------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkRow:
    method: str
    task_type: str
    before_hours: float
    after_hours: float
    before_cost: float
    after_cost: float
    seed_count: int


@dataclass(frozen=True)
class BenchmarkTable:
    rows: tuple[BenchmarkRow, ...]

    def to_csv_rows(self):
        header = (
            "method",
            "task_type",
            "before_hours",
            "after_hours",
            "before_cost",
            "after_cost",
            "seed_count",
        )
        rows = [
            (
                r.method,
                r.task_type,
                repr(r.before_hours),
                repr(r.after_hours),
                repr(r.before_cost),
                repr(r.after_cost),
                str(r.seed_count),
            )
            for r in self.rows
        ]
        return header, rows

    def row(self, method: str, task_type: str) -> BenchmarkRow:
        for r in self.rows:
            if r.method == method and r.task_type == task_type:
                return r
        raise KeyError((method, task_type))

    def after_hours(self, method: str, task_type: str) -> float:
        return self.row(method, task_type).after_hours

    def aggregate(self, method: str) -> tuple[float, float, float, float]:
        """(before_hours, after_hours, before_cost, after_cost) summed over types."""
        picked = [r for r in self.rows if r.method == method]
        if not picked:
            raise KeyError(method)
        return (
            sum(r.before_hours for r in picked),
            sum(r.after_hours for r in picked),
            sum(r.before_cost for r in picked),
            sum(r.after_cost for r in picked),
        )


def baseline_assignment(inst: SchedulingInstance) -> Assignment:
    """Unoptimized dispatch: every task rides the first declared vehicle."""
    first = inst.vehicles[0].vehicle_id
    return Assignment(mapping={t.task_id: first for t in inst.tasks})


def _best_makespan(front: ParetoSet) -> float:
    return min(obj.makespan_h for obj in front.objectives)


def _best_cost(front: ParetoSet) -> float:
    return min(obj.total_cost for obj in front.objectives)


def benchmark(
    scenario,
    seeds: Sequence[int],
    ga_params: GaParams | None = None,
    sa_params: SaParams | None = None,
    aco_params: AcoParams | None = None,
) -> BenchmarkTable:
    """Before/after completion hours and cost per task type, median over seeds.

    Task types are benchmarked as independent sub-problems sharing the
    scenario's vehicle pool; "before" evaluates the unoptimized all-on-one-
    vehicle dispatch. GA's "after" takes the per-seed front extremes (best
    makespan, best cost); SA and ACO report their single scalar-best
    solution. All after columns are medians across seeds.
    """
    seeds = list(seeds)
    if not seeds:
        raise EmptySeeds("benchmark needs at least one seed")
    inst = SchedulingInstance.from_scenario(scenario)
    rows = []
    present = [tt for tt in TaskType if any(t.task_type == tt for t in inst.tasks)]
    for tt in present:
        sub = inst.restricted_to(tt)
        base = evaluate_schedule(sub, baseline_assignment(sub))
        hours: dict[str, list[float]] = {"ga": [], "sa": [], "aco": []}
        costs: dict[str, list[float]] = {"ga": [], "sa": [], "aco": []}
        for seed in seeds:
            front = ga_optimize(sub, ga_params, seed)
            hours["ga"].append(_best_makespan(front))
            costs["ga"].append(_best_cost(front))
            for method, run in (("sa", sa_optimize), ("aco", aco_optimize)):
                params = sa_params if method == "sa" else aco_params
                result = run(sub, params, seed)
                hours[method].append(result.objectives.makespan_h)
                costs[method].append(result.objectives.total_cost)
        for method in ("ga", "sa", "aco"):
            rows.append(
                BenchmarkRow(
                    method=method,
                    task_type=tt.value,
                    before_hours=base.makespan_h,
                    after_hours=float(statistics.median(hours[method])),
                    before_cost=base.total_cost,
                    after_cost=float(statistics.median(costs[method])),
                    seed_count=len(seeds),
                )
            )
    return BenchmarkTable(rows=tuple(rows))
