"""Transport task assignment: evaluation, GA front search, SA and ACO baselines.

A schedule assigns each transport task to one vehicle; vehicles work through
their tasks in dispatch rounds, one task per round, so a vehicle's completion
time is the sum of its task times (travel at constant speed plus fixed load
and unload handling).  Objectives: total cost (busy time times cost rate,
summed over vehicles), makespan (latest completion), and productivity
(tasks per hour of makespan, 0 at makespan 0).

A schedule is scored from its per-vehicle busy times alone: the makespan is
the largest, and the cost adds busy time times cost rate vehicle by vehicle,
left to right (`_busy_cost`).  One kernel, `_objectives`, gives (cost,
makespan) for one chromosome or a whole batch, and `evaluate_schedule` adds
the same way, so every search reports the objectives it would give.  SA
moves one or two tasks at a time, so it scores a move by delta evaluation:
it re-sums only the two vehicles the move touches and adds the cost over its
busy times with the kernel's own arithmetic, so each score has the kernel's
bits (see `sa_optimize`).

Cost rates must be non-negative, and an instance is rejected when its
worst-case busy time (every task on its slowest vehicle) or that time at the
largest cost rate is not a finite float: every busy time, cost and score a
search computes stays below those bounds, up to rounding.

The GA is an elitist non-dominated-sorting algorithm over the
task-to-vehicle vector that searches (cost, makespan): productivity is a
decreasing function of makespan, so it adds nothing to dominance and is
derived only when an ObjectiveVector is built.  SA and ACO optimize an
equal-weight scalarization of cost and makespan after min-max normalization
over a seeded sample of random assignments.  All three are deterministic
given a non-negative seed.

The searches draw their random numbers in blocks, not one scalar call at a
time: SA draws each temperature's moves as arrays (their order is in
`sa_optimize`), and each GA generation draws its tournaments, one crossover
flag per consecutive pair of parents, one gene mask per pair and its
mutations as whole arrays.

`benchmark` runs GA, SA and ACO once per (task type, seed) pair; each pair
is an independent job.  With the `fork` start method, at least two usable
CPUs and at least two jobs, the jobs run on a pool of forked worker
processes that lives for one call; otherwise they run in process.  Results
are read in job order, so the table does not depend on the worker count.
The first failing job in that order raises its own exception, and the
workers are stopped at once: no other job runs on after it.
"""
from __future__ import annotations

import bisect
import math
import os
import statistics
import sys
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptySeeds,
    MissingDistance,
    OverloadedVehicleRound,
    ValidationErrors,
    param_error,
    shown,
)


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
        if not self.cost_rate >= 0:
            raise ValidationErrors([f"vehicle {self.vehicle_id}: cost_rate must be non-negative"])


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
        inst = cls(
            tasks=tuple(scenario.tasks),
            vehicles=tuple(scenario.vehicles),
            distances=dict(scenario.distances),
        )
        _time_matrices(inst)  # rejects an instance whose worst case overflows
        return inst

    def restricted_to(self, task_type: TaskType) -> "SchedulingInstance":
        subset = tuple(t for t in self.tasks if t.task_type == task_type)
        return SchedulingInstance(subset, self.vehicles, self.distances)


def task_time_h(task: TransportTask, vehicle: VehicleSpec, distances) -> float:
    key = (task.origin, task.destination)
    if key not in distances:
        raise MissingDistance(task.origin, task.destination)
    return distances[key] / vehicle.speed + vehicle.load_time_h + vehicle.unload_time_h


def _time_matrices(inst: SchedulingInstance) -> tuple[np.ndarray, np.ndarray]:
    """T[t, v] = hours for task t on vehicle v, and the vehicles' cost rates.

    Raises ValidationErrors when the worst-case busy time, sum over tasks of
    max over vehicles of T[t, v], or that time at the largest rate is not
    finite: every busy time, makespan and cost is at most one of these.
    """
    T = np.empty((len(inst.tasks), len(inst.vehicles)))
    for ti, task in enumerate(inst.tasks):
        for vi, veh in enumerate(inst.vehicles):
            T[ti, vi] = task_time_h(task, veh, inst.distances)
    rates = np.array([v.cost_rate for v in inst.vehicles])
    if T.size:
        with np.errstate(over="ignore", invalid="ignore"):
            hours = float(np.add.reduce(np.maximum.reduce(T, axis=1)))
            vehicle_hours = np.add.reduce(T, axis=0)
        if not math.isfinite(hours):
            veh = inst.vehicles[int(np.argmax(vehicle_hours))]
            raise ValidationErrors([
                f"vehicle {veh.vehicle_id}: speed {veh.speed!r}, load_time_h {veh.load_time_h!r} "
                f"and unload_time_h {veh.unload_time_h!r} give {len(T)} tasks a worst-case "
                "busy time that is not a finite number of hours"
            ])
        if not math.isfinite(hours * float(rates.max())):
            veh = inst.vehicles[int(np.argmax(rates))]
            raise ValidationErrors([
                f"vehicle {veh.vehicle_id}: cost_rate {veh.cost_rate!r} times the worst-case "
                f"busy time of {hours!r} h is not a finite cost"
            ])
    return T, rates


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
    return _objective_vector(len(inst.tasks), _busy_cost(busy, rates), busy.max())


def _objective_vector(n_tasks: int, cost, makespan) -> ObjectiveVector:
    makespan = float(makespan)
    return ObjectiveVector(float(cost), makespan, n_tasks / makespan if makespan > 0 else 0.0)


def _busy_cost(busy, rates):
    """Sum over vehicles of busy time times cost rate, for the last axis of
    `busy`: explicit column adds, left to right, so no NumPy summation order
    enters the cost."""
    cost = busy[..., 0] * rates[0]
    for v in range(1, len(rates)):
        cost = cost + busy[..., v] * rates[v]
    return cost


def _objectives(pop: np.ndarray, T: np.ndarray, rates: np.ndarray):
    """(cost, makespan) of one chromosome (n_tasks,) or per row of a batch
    (m, n_tasks), from the busy times alone.  Busy time adds task times in
    task order, so a row scores the same alone or in a batch."""
    # ufunc reductions skip the .sum/.max wrappers, a real share of a one-row call
    busy = np.add.reduce(np.where(pop[..., None] == np.arange(T.shape[1]), T, 0.0), axis=-2)
    return _busy_cost(busy, rates), np.maximum.reduce(busy, axis=-1)


def _nondominated_sort(F: np.ndarray) -> np.ndarray:
    """Front rank per row of an (n, 2) minimization matrix, 0 = best.

    Rows are visited by (cost, makespan), so each row's dominators come
    before it.  Each front keeps the (makespan, cost) key of its last member;
    these keys increase front by front, and a front dominates a row exactly
    when its key is smaller.  Bisection therefore finds the row's front, and
    an equal key, a duplicate, joins that front (Jensen, IEEE TEC 2003).
    Duplicates sit next to each other in that order and leave the keys as
    they were, so one bisection per distinct key ranks all of its rows.
    """
    order = np.lexsort((F[:, 1], F[:, 0]))
    S = F[order]
    differs = S[1:] != S[:-1]
    first = np.empty(len(S), dtype=bool)  # the first row of each distinct key
    first[:1] = True
    np.logical_or(differs[:, 0], differs[:, 1], out=first[1:])
    keys = S[first]
    key_ranks = []
    tails: list[tuple[float, float]] = []
    for key in zip(keys[:, 1].tolist(), keys[:, 0].tolist()):
        r = bisect.bisect_left(tails, key)
        if r == len(tails):
            tails.append(key)
        else:
            tails[r] = key
        key_ranks.append(r)
    ranks = np.empty(len(F), dtype=int)
    ranks[order] = np.array(key_ranks, dtype=int)[np.cumsum(first) - 1]
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


def _seeded_rng(seed: int) -> np.random.Generator:
    """The search's generator; NumPy seeds only non-negative integers."""
    if seed < 0:
        raise ValidationErrors([f"seed {seed} is negative; seeds must be non-negative integers"])
    return np.random.default_rng(seed)


def _raise_problems(*problems: str | None) -> None:
    """ValidationErrors listing every problem errors.param_error found, if any."""
    found = [p for p in problems if p is not None]
    if found:
        raise ValidationErrors(found)


# most schedule evaluations one GA run may plan: the default plans 20,100; at
# 4.6-7.3 us an evaluation at the cap (table1_bench type C, 4 vehicles,
# populations 1,000 and 100, shared 2-core Xeon), the cap is about 5-7 s of
# search per task type
GA_EVALUATIONS_MAX = 1_000_000


@dataclass(frozen=True)
class GaParams:
    population: int = 100
    generations: int = 200
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # default 1/num_tasks

    def __post_init__(self):
        # crossover pairs consecutive members, so a population of one never recombines
        _raise_problems(
            param_error("population", self.population, "be at least 2", lambda v: v >= 2, True),
            param_error("generations", self.generations, "be non-negative", lambda v: v >= 0, True),
            param_error("crossover_rate", self.crossover_rate, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
            None if self.mutation_rate is None else param_error(
                "mutation_rate", self.mutation_rate, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0
            ),
        )
        evaluations = self.planned_evaluations
        if evaluations > GA_EVALUATIONS_MAX:
            raise ValidationErrors([
                f"population and generations plan {shown(evaluations)} evaluations, "
                f"more than GA_EVALUATIONS_MAX = {GA_EVALUATIONS_MAX}"
            ])

    @property
    def planned_evaluations(self) -> int:
        """Schedules the search scores: the initial population, then one
        brood of children per generation."""
        return self.population * (self.generations + 1)


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
    rng = _seeded_rng(seed)
    T, rates = _time_matrices(inst)
    n_tasks, n_veh = T.shape
    pmut = params.mutation_rate if params.mutation_rate is not None else 1.0 / n_tasks
    pop = rng.integers(0, n_veh, size=(params.population, n_tasks))
    F = np.column_stack(_objectives(pop, T, rates))
    pairs = params.population // 2
    ranks = _nondominated_sort(F)
    for _ in range(params.generations):
        crowd = np.empty(len(pop))
        for r in np.unique(ranks):
            idx = np.flatnonzero(ranks == r)
            crowd[idx] = _crowding_distance(F, idx)
        # binary tournaments on (rank, -crowding)
        picks = rng.integers(0, len(pop), size=(2, params.population))
        a, b = picks
        better = (ranks[a] < ranks[b]) | ((ranks[a] == ranks[b]) & (crowd[a] >= crowd[b]))
        parents = pop[np.where(better, a, b)]
        # uniform crossover on consecutive pairs: a pair that does not cross
        # keeps its genes, and an odd population's last member is copied
        crossed = rng.random((pairs, 1)) < params.crossover_rate
        keep = ~crossed | (rng.random((pairs, n_tasks)) < 0.5)
        children = parents.copy()
        firsts, seconds = parents[0 : 2 * pairs : 2], parents[1::2]
        children[0 : 2 * pairs : 2] = np.where(keep, firsts, seconds)
        children[1::2] = np.where(keep, seconds, firsts)
        mut = rng.random(children.shape) < pmut
        children[mut] = rng.integers(0, n_veh, size=int(mut.sum()))
        Fc = np.column_stack(_objectives(children, T, rates))
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
        # the kept rows are whole fronts and part of the next, so every kept
        # row's dominators are kept and its rank in the new population is unchanged
        pop, F, ranks = merged[chosen], Fm[chosen], ranks_m[chosen]
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


# random assignments SA and ACO score for their normalization bounds
BOUND_SAMPLES = 100


def _sample_bounds(rng, T, rates) -> ScalarBounds:
    n_tasks, n_veh = T.shape
    cost, mk = _objectives(rng.integers(0, n_veh, size=(BOUND_SAMPLES, n_tasks)), T, rates)
    return ScalarBounds(
        cost_lo=float(cost.min()),
        cost_hi=float(cost.max()),
        makespan_lo=float(mk.min()),
        makespan_hi=float(mk.max()),
    )


def _as_result(inst, a, T, rates, bounds) -> ScalarResult:
    obj = _objective_vector(len(a), *_objectives(a, T, rates))
    mapping = {
        inst.tasks[t].task_id: inst.vehicles[a[t]].vehicle_id for t in range(len(a))
    }
    return ScalarResult(
        assignment=Assignment(mapping=mapping),
        objectives=obj,
        scalar_score=bounds.score(obj.total_cost, obj.makespan_h),
        bounds=bounds,
    )


# most moves one SA run may plan: the default plans 36,000 and t_initial=1e308
# about 2.8 million; at 2.6-2.9 us a move (t_initial=1e308 on table1_bench
# types A and C, shared 2-core Xeon), the cap is about 30 s of search
SA_MOVES_MAX = 10_000_000


@dataclass(frozen=True)
class SaParams:
    t_initial: float = 10.0
    cooling: float = 0.95
    iters_per_temp: int = 200
    t_min: float = 1e-3

    def __post_init__(self):
        # geometric cooling from a finite t_initial only reaches t_min when
        # these hold
        _raise_problems(
            param_error("t_initial", self.t_initial, "be positive and finite", lambda v: 0.0 < v <= sys.float_info.max),
            param_error("cooling", self.cooling, "lie strictly between 0 and 1", lambda v: 0.0 < v < 1.0),
            param_error("iters_per_temp", self.iters_per_temp, "be at least 1", lambda v: v >= 1, True),
            param_error("t_min", self.t_min, "be positive", lambda v: v > 0.0),
        )
        moves = self.planned_moves
        if moves > SA_MOVES_MAX:
            raise ValidationErrors([
                f"t_initial, cooling, t_min and iters_per_temp plan {shown(moves)} moves, "
                f"more than SA_MOVES_MAX = {SA_MOVES_MAX}"
            ])

    @property
    def planned_moves(self) -> int:
        """iters_per_temp moves at each temperature above t_min, counted in
        closed form: t_initial * cooling**k > t_min for k below
        ln(t_initial / t_min) / -ln(cooling).  The search's repeated products
        round, so its count may differ from this one by a temperature."""
        if self.t_initial <= self.t_min:
            return 0
        ratio = math.log(self.t_initial) - math.log(self.t_min)
        return math.ceil(ratio / -math.log(self.cooling)) * self.iters_per_temp


def sa_optimize(
    inst: SchedulingInstance, params: SaParams | None = None, seed: int = 42
) -> ScalarResult:
    """Simulated annealing with geometric cooling and swap moves.

    A move either hands one task to a different vehicle or exchanges the
    vehicles of two tasks (pure exchanges alone cannot rebalance loads).

    At each temperature the search draws its m = iters_per_temp moves as
    arrays, in this order:

    1. m move-kind uniforms, a swap below 0.5, drawn only when a swap is
       possible (at least two tasks and two vehicles);
    2. m first tasks i from integers(0, n_tasks);
    3. only when a swap is possible, m second tasks from
       integers(0, n_tasks - 1), mapped to j + (j >= i) so that j != i;
    4. m vehicle offsets k from integers(0, n_vehicles - 1) (all 0 with one
       vehicle): a one-task move hands task i from vehicle v to
       (v + 1 + k) % n_vehicles;
    5. m acceptance uniforms u: a move that raises the score by delta > 0
       is kept when u < exp(-delta / t).

    A move is scored by delta evaluation with the kernel's own arithmetic,
    on Python floats, so every score, and so every accept decision, has the
    bits a full `_objectives` re-score would give.  Each vehicle keeps the
    sorted indices of its tasks, and only the busy times of the two vehicles
    a move touches are re-summed, in task order as the kernel adds them (its
    zeros leave a non-negative sum unchanged).  The cost is then added over
    all busy times, busy time times cost rate from the first vehicle to the
    last as `_busy_cost` adds them, never as a running total; the makespan
    is the largest busy time.  A rejected move puts the touched entries
    back.  A move that changes no vehicle's task set keeps the current
    score.
    """
    params = params or SaParams()
    if not inst.tasks:
        raise ValidationErrors(["cannot optimize an empty task list"])
    rng = _seeded_rng(seed)
    T, rates = _time_matrices(inst)
    n_tasks, n_veh = T.shape
    bounds = _sample_bounds(rng, T, rates)
    # a move is scored as ScalarBounds.score scores, with its spans computed once
    cost_lo, mk_lo = bounds.cost_lo, bounds.makespan_lo
    cost_span, mk_span = bounds.cost_hi - cost_lo, bounds.makespan_hi - mk_lo
    cost_spread, mk_spread = cost_span > 0, mk_span > 0
    start = rng.integers(0, n_veh, size=n_tasks)
    cur_score = float(bounds.score(*_objectives(start, T, rates)))
    current = start.tolist()
    best, best_score = current.copy(), cur_score
    time_cols, rate_of = T.T.tolist(), rates.tolist()
    rate0, later = rate_of[0], range(1, n_veh)
    # each vehicle's task indices, kept sorted so its busy time adds in task order
    held: list[list[int]] = [[] for _ in range(n_veh)]
    for ti, v in enumerate(current):
        held[v].append(ti)

    def busy_time(v: int) -> float:
        # an explicit loop: builtin sum() compensates from Python 3.12 on
        total, col = 0.0, time_cols[v]
        for ti in held[v]:
            total += col[ti]
        return total

    busy = [busy_time(v) for v in range(n_veh)]
    insort, exp = bisect.insort, math.exp
    m = params.iters_per_temp
    swappable = n_tasks >= 2 and n_veh >= 2
    t = params.t_initial
    while t > params.t_min:
        swaps = (rng.random(m) < 0.5).tolist() if swappable else [False] * m
        firsts = rng.integers(0, n_tasks, m)
        if swappable:
            seconds = rng.integers(0, n_tasks - 1, m)
            seconds += seconds >= firsts
        else:
            seconds = firsts
        offsets = rng.integers(0, max(n_veh - 1, 1), m).tolist()
        draws = zip(swaps, firsts.tolist(), seconds.tolist(), offsets, rng.random(m).tolist())
        for swap, i, j, k, u in draws:
            vi = current[i]
            if swap:
                vj = current[j]
            else:
                j, vj = i, (vi + 1 + k) % n_veh
            if vi == vj:
                continue  # the same assignment, so the same score: delta 0, accepted
            # task i moves vi -> vj and, in a swap, task j moves vj -> vi; j is
            # written first, so a one-task move (j == i) ends with task i on vj
            current[j], current[i] = vi, vj
            src, dst = held[vi], held[vj]
            src.remove(i)
            insort(dst, i)
            if j != i:
                dst.remove(j)
                insort(src, j)
            kept_i, kept_j = busy[vi], busy[vj]
            total, col = 0.0, time_cols[vi]
            for ti in src:
                total += col[ti]
            busy[vi] = total
            total, col = 0.0, time_cols[vj]
            for ti in dst:
                total += col[ti]
            busy[vj] = total
            cost = busy[0] * rate0
            for v in later:
                cost += busy[v] * rate_of[v]
            nc = (cost - cost_lo) / cost_span if cost_spread else 0.0
            nm = (max(busy) - mk_lo) / mk_span if mk_spread else 0.0
            cand_score = 0.5 * nc + 0.5 * nm
            delta = cand_score - cur_score
            if delta <= 0 or u < exp(-delta / t):
                cur_score = cand_score
                if cur_score < best_score:
                    best, best_score = current.copy(), cur_score
            else:
                current[j], current[i] = vj, vi
                dst.remove(i)
                insort(src, i)
                if j != i:
                    src.remove(j)
                    insort(dst, j)
                busy[vi], busy[vj] = kept_i, kept_j
        t *= params.cooling
    return _as_result(inst, np.array(best), T, rates, bounds)


# most ant solutions one ACO run may plan: the default plans 2,000; at 4-13 us
# an ant (20 tasks, 4 vehicles, shared 2-core Xeon), the cap is at most about
# 15 s of search per task type
ACO_SOLUTIONS_MAX = 1_000_000


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
        top = sys.float_info.max
        _raise_problems(
            param_error("ants", self.ants, "be at least 1", lambda v: v >= 1, True),
            param_error("iterations", self.iterations, "be at least 1", lambda v: v >= 1, True),
            # pheromone keeps a 1 - evaporation share each iteration
            param_error("evaporation", self.evaporation, "lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
            param_error("alpha", self.alpha, "be non-negative and finite", lambda v: 0.0 <= v <= top),
            param_error("beta", self.beta, "be non-negative and finite", lambda v: 0.0 <= v <= top),
            param_error("pheromone_init", self.pheromone_init, "be positive and finite", lambda v: 0.0 < v <= top),
            param_error("deposit", self.deposit, "be positive and finite", lambda v: 0.0 < v <= top),
        )
        solutions = self.planned_solutions
        if solutions > ACO_SOLUTIONS_MAX:
            raise ValidationErrors([
                f"ants and iterations plan {shown(solutions)} ant solutions, "
                f"more than ACO_SOLUTIONS_MAX = {ACO_SOLUTIONS_MAX}"
            ])

    @property
    def planned_solutions(self) -> int:
        """Assignments the ants build: every ant in every iteration."""
        return self.ants * self.iterations


def aco_optimize(
    inst: SchedulingInstance, params: AcoParams | None = None, seed: int = 42
) -> ScalarResult:
    """Ant system over the task-vehicle pairing matrix, with the pheromone
    bounds of MAX-MIN Ant System (Stützle & Hoos, FGCS 2000).

    Heuristic desirability is 1/task_time.  Every ant deposits
    deposit / (0.01 + score) on the cells of its assignment, a score below
    the sampled lower bound counting as 0, so each gain is positive and at
    most 100 * deposit.  After each update tau is clipped to
    [tau_min, tau_max].  tau_max = ants * gain(best score so far) /
    evaporation is the level a cell settles at when every ant deposits the
    best gain on it in every iteration; tau_min = tau_max * (1 - p_dec) /
    ((n_veh - 1) * p_dec), with p_dec = 0.05 ** (1 / n_tasks), is MAX-MIN's
    floor for a 5% chance of rebuilding the best assignment once the
    pheromone has converged, so no vehicle's choice dies out.
    """
    params = params or AcoParams()
    if not inst.tasks:
        raise ValidationErrors(["cannot optimize an empty task list"])
    rng = _seeded_rng(seed)
    T, rates = _time_matrices(inst)
    n_tasks, n_veh = T.shape
    bounds = _sample_bounds(rng, T, rates)
    with np.errstate(divide="ignore"):
        heuristic = np.where(T > 0, 1.0 / T, 1e6)
    tau = np.full((n_tasks, n_veh), params.pheromone_init, dtype=float)
    p_dec = 0.05 ** (1.0 / n_tasks)
    floor_share = (1.0 - p_dec) / (max(n_veh - 1, 1) * p_dec)
    best, best_score = None, math.inf

    def gain(score):
        return params.deposit / (0.01 + np.maximum(score, 0.0))

    for _ in range(params.iterations):
        with np.errstate(over="ignore", invalid="ignore"):
            weights_all = (tau**params.alpha) * (heuristic**params.beta)
            row_sums = weights_all.sum(axis=1, keepdims=True)
        # an inf or NaN weight leaves its row sum non-finite; an underflow to
        # zero leaves nothing to sample from
        if not (np.isfinite(row_sums) & (row_sums > 0.0)).all():
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
        scores = np.broadcast_to(bounds.score(*_objectives(ants, T, rates)), params.ants)
        it_best = int(np.argmin(scores))
        if scores[it_best] < best_score:
            best, best_score = ants[it_best].copy(), float(scores[it_best])
        tau *= 1.0 - params.evaporation
        with np.errstate(all="ignore"):  # an overflow here shows in the next weights
            # unbuffered, so a cell that several ants chose gets every gain, in ant order
            np.add.at(tau, (np.arange(n_tasks), ants), gain(scores)[:, None])
            tau_max = params.ants * gain(best_score) / params.evaporation
            np.clip(tau, tau_max * floor_share, tau_max, out=tau)
    return _as_result(inst, best, T, rates, bounds)


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
        """One column per BenchmarkRow field; floats print as repr."""
        header = tuple(f.name for f in fields(BenchmarkRow))
        return header, [tuple(str(getattr(r, name)) for name in header) for r in self.rows]

    def row(self, method: str, task_type: str) -> BenchmarkRow:
        for r in self.rows:
            if r.method == method and r.task_type == task_type:
                return r
        raise KeyError((method, task_type))

    def aggregate(self, method: str) -> tuple[float, float, float, float]:
        """(before_hours, after_hours, before_cost, after_cost) summed over types."""
        picked = [r for r in self.rows if r.method == method]
        if not picked:
            raise KeyError(method)
        columns = ("before_hours", "after_hours", "before_cost", "after_cost")
        return tuple(sum(getattr(r, c) for r in picked) for c in columns)


def baseline_assignment(inst: SchedulingInstance) -> Assignment:
    """Unoptimized dispatch: every task rides the first declared vehicle."""
    first = inst.vehicles[0].vehicle_id
    return Assignment(mapping={t.task_id: first for t in inst.tasks})


# most work one benchmark may plan, in scored schedules and SA moves summed
# over seeds and task types: the default 10 seeds on table1_bench plan
# 2,915,000 and perfbench's 2 seeds 583,000; at ~4.3 us a unit (a seed of
# table1_bench takes 1.1-1.5 s for 291,500, shared 2-core Xeon), the cap is
# about 2 minutes of search in process; two workers ran the default 10 seeds
# in 6.3 s against 10.5 s in process, so about 75 s there
BENCH_WORK_MAX = 30_000_000


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

    Before any search the planned work is counted: seeds times task types
    times what one GA, SA and ACO run plans (GA evaluations, SA moves, ant
    solutions, and the BOUND_SAMPLES schedules SA and ACO each score for
    their bounds).  Above BENCH_WORK_MAX the benchmark is refused.

    Each (task type, seed) pair is one job.  When the platform offers the
    `fork` start method, at least two CPUs are usable (`os.sched_getaffinity`,
    else `os.cpu_count`) and there are at least two jobs, the jobs run on a
    pool of min(CPUs, jobs) forked workers, started and stopped within this
    call, so no worker outlives it, whether it returns or raises; otherwise
    they run in process, one after the other.  Either way the results are
    read in job order (task types in TaskType order, then seeds as given),
    so the table, and every byte written from it, is the same for any
    worker count.  When jobs fail, the first failing job in that order
    raises its own exception, as it would in process, and the workers are
    stopped at once, so no job still running or queued goes on.
    """
    seeds = list(seeds)
    if not seeds:
        raise EmptySeeds("benchmark needs at least one seed")
    inst = SchedulingInstance.from_scenario(scenario)
    present = [tt for tt in TaskType if any(t.task_type == tt for t in inst.tasks)]
    ga_params, sa_params, aco_params = ga_params or GaParams(), sa_params or SaParams(), aco_params or AcoParams()
    per_type = (
        ga_params.planned_evaluations
        + sa_params.planned_moves
        + aco_params.planned_solutions
        + 2 * BOUND_SAMPLES
    )
    work = len(seeds) * len(present) * per_type
    if work > BENCH_WORK_MAX:
        raise ValidationErrors([
            f"--seeds lists {len(seeds)} seeds; with {len(present)} task types and "
            f"{per_type} units of work per type and seed (ga population * (generations + 1), "
            "sa moves from t_initial, cooling, t_min and iters_per_temp, aco ants * iterations, "
            f"{2 * BOUND_SAMPLES} bound samples) that plans {work} units, "
            f"more than BENCH_WORK_MAX = {BENCH_WORK_MAX}"
        ])
    for seed in seeds:
        _seeded_rng(seed)  # a bad seed fails before any search runs
    subs = [inst.restricted_to(tt) for tt in present]
    bases = [evaluate_schedule(sub, baseline_assignment(sub)) for sub in subs]
    jobs = [(ti, seed) for ti in range(len(subs)) for seed in seeds]
    results = _run_jobs(jobs, (subs, ga_params, sa_params, aco_params))
    rows = []
    for ti, (tt, base) in enumerate(zip(present, bases)):
        per_seed = results[ti * len(seeds) : (ti + 1) * len(seeds)]
        for method, found in zip(("ga", "sa", "aco"), zip(*per_seed)):
            hours, costs = zip(*found)
            rows.append(
                BenchmarkRow(
                    method=method,
                    task_type=tt.value,
                    before_hours=base.makespan_h,
                    after_hours=float(statistics.median(hours)),
                    before_cost=base.total_cost,
                    after_cost=float(statistics.median(costs)),
                    seed_count=len(seeds),
                )
            )
    return BenchmarkTable(rows=tuple(rows))


# one job's (makespan, cost) per method: the GA front's best makespan and
# best cost, then SA's and ACO's result
_JobResult = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


def _bench_job(context, ti: int, seed: int) -> _JobResult:
    """GA, SA and ACO with `seed` on sub-instance `ti` of context =
    (sub-instances, GA, SA and ACO params)."""
    subs, ga_params, sa_params, aco_params = context
    sub = subs[ti]
    front = ga_optimize(sub, ga_params, seed)
    _, fastest = front.best_by("makespan_h")
    _, cheapest = front.best_by("total_cost")
    sa = sa_optimize(sub, sa_params, seed).objectives
    aco = aco_optimize(sub, aco_params, seed).objectives
    return (
        (fastest.makespan_h, cheapest.total_cost),
        (sa.makespan_h, sa.total_cost),
        (aco.makespan_h, aco.total_cost),
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_jobs(jobs: list[tuple[int, int]], context) -> list[_JobResult]:
    """_bench_job(context, *job) for every job, in job order: on forked
    workers when `benchmark` says so, else in process.

    fork, not spawn: a worker inherits `context` and the imported package,
    so a job sends two ints and returns six floats.  The pool forks its
    workers before it starts its own threads.  `imap` yields the results in
    job order and raises the first failing job's own exception; leaving the
    `with` block then terminates and joins the workers, so no job runs on
    after the first failure and no worker outlives this call.
    """
    workers = min(_usable_cpus(), len(jobs))
    if workers >= 2:
        # imported here, not with the module: a cold import costs 13-30 ms,
        # a real share of a short command's start-up
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            with fork.Pool(workers, initializer=_enter_worker, initargs=(context,)) as pool:
                return list(pool.imap(_worker_job, jobs))
    return [_bench_job(context, *job) for job in jobs]


# a pool worker's benchmark context, set once when the worker starts
_worker_context = None


def _enter_worker(context) -> None:
    global _worker_context
    _worker_context = context


def _worker_job(job: tuple[int, int]) -> _JobResult:
    return _bench_job(_worker_context, *job)
