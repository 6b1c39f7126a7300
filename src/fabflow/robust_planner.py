"""Robust fleet sizing against worst-case WIP sensitivity.

The lower level searches the clipped probability simplex for the transfer
point and tangent direction along which total WIP grows fastest; for a fixed
point the best direction is closed-form (the projected gradient), so the
search ascends the projected-gradient norm from several deterministic
low-discrepancy starts.  The upper level scans fleet configurations and
keeps the feasible one whose worst case is smallest, tie-breaking toward
fewer vehicles and then lexicographically smaller counts.

The stochastic service-level constraint of the underlying model is replaced
by this deterministic worst-case cap (W at every probed point must stay
under the hard limit `u`); an optional Monte Carlo mode reports the
empirical exceedance frequency under a Dirichlet perturbation of the nominal
transfer vector, as data only.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import queueing, simplex
from .errors import (
    NoFeasibleFleet,
    NonOpenNetwork,
    NoStablePoint,
    UnstableStation,
    ValidationErrors,
    ZeroVehicles,
    param_error,
)
from .queueing import FleetConfig, RoutingModel

CLIP_ETA = 1e-3          # probes stay in [eta, 1 - eta]
ASCENT_STARTS = 16
ASCENT_MAX_ITERS = 500
DELTA_DIRECTIONS = 64
EXHAUSTIVE_LIMIT = 100_000
_MC_SEED = 7654321

_STABILITY_ERRORS = (UnstableStation, ZeroVehicles, NonOpenNetwork)


@dataclass(frozen=True)
class PlannerLimits:
    """Feasibility limits for fleet planning.

    c_max caps the total vehicle count; w_star caps nominal WIP; u is the
    hard WIP cap applied to every probed transfer point; delta_wip_max caps
    the WIP fluctuation radius measured by delta_wip at scale epsilon.
    p_neighborhood_radius optionally restricts the adversarial search to a
    box around the nominal transfer vector.  mc_samples > 0 turns on the
    Monte Carlo exceedance report (alpha scales the Dirichlet concentration).
    """

    c_max: int
    w_star: float
    u: float
    delta_wip_max: float
    epsilon: float = 0.01
    p_neighborhood_radius: float | None = None
    mc_samples: int = 0
    mc_alpha: float = 100.0

    def __post_init__(self):
        # the caps may be inf; epsilon and mc_alpha feed the probes and the
        # Dirichlet draw, so their bound is the largest float.  u is compared
        # with w_star only when w_star is a number.
        w_star = self.w_star if isinstance(self.w_star, (int, float)) else -math.inf
        problems = [
            param_error("c_max", self.c_max, "be at least 1", lambda v: v >= 1, integer=True),
            param_error("w_star", self.w_star, "be positive", lambda v: v > 0),
            param_error("u", self.u, "be at least w_star", lambda v: v >= w_star),
            param_error("delta_wip_max", self.delta_wip_max, "be positive", lambda v: v > 0),
            param_error(
                "epsilon", self.epsilon, "be non-negative and finite",
                lambda v: 0 <= v <= sys.float_info.max,
            ),
            None if self.p_neighborhood_radius is None else param_error(
                "p_neighborhood_radius", self.p_neighborhood_radius,
                "be positive when set", lambda v: v > 0,
            ),
            param_error("mc_samples", self.mc_samples, "be non-negative", lambda v: v >= 0, integer=True),
            param_error(
                "mc_alpha", self.mc_alpha, "be positive and finite",
                lambda v: 0 < v <= sys.float_info.max,
            ),
        ]
        problems = [p for p in problems if p is not None]
        if problems:
            raise ValidationErrors(problems)


@dataclass(frozen=True)
class WorstCase:
    """Adversarial transfer point, unit direction, and WIP growth rate."""

    p_star: tuple[float, ...]
    x_star: tuple[float, ...]
    v_star: float

    def to_dict(self) -> dict:
        return {
            "p_star": list(self.p_star),
            "x_star": list(self.x_star),
            "v_star": self.v_star,
        }


@dataclass(frozen=True)
class ConstraintCheck:
    key: str
    passed: bool
    measured: float
    limit: float
    detail: str = ""


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]
    mc_exceedance: float | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed_keys(self) -> tuple[str, ...]:
        return tuple(c.key for c in self.checks if not c.passed)

    def __getitem__(self, key: str) -> ConstraintCheck:
        for c in self.checks:
            if c.key == key:
                return c
        raise KeyError(key)

    def to_dict(self) -> dict:
        out = {
            "all_passed": self.all_passed,
            "checks": [
                {
                    "key": c.key,
                    "passed": c.passed,
                    "measured": c.measured,
                    "limit": c.limit,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }
        if self.mc_exceedance is not None:
            out["mc_exceedance"] = self.mc_exceedance
        return out


class _PhiTracker:
    """Evaluates the projected-gradient norm and remembers the best point."""

    def __init__(self, model, fleet):
        self.model = model
        self.fleet = fleet
        self.best_p = None
        self.best_v = -math.inf
        self.evaluations = 0

    def __call__(self, p: np.ndarray) -> float | None:
        self.evaluations += 1
        try:
            v = queueing.projected_gradient(queueing.wip_gradient(self.model, p, self.fleet))[1]
        except _STABILITY_ERRORS:
            return None
        if v > self.best_v:
            self.best_v = v
            self.best_p = np.array(p)
        return v


def _phi_gradient(model, fleet, p: np.ndarray) -> np.ndarray:
    """Exact free-coordinate gradient of phi at a stable p: with t = Pi[0; g]
    the projected gradient and H the WIP Hessian, grad phi = H^T t[1:] / phi."""
    g, hess = queueing.wip_hessian(model, p, fleet)
    tangent, v = queueing.projected_gradient(g)
    if v == 0.0:
        return np.zeros_like(g)
    return hess.T @ tangent[1:] / v


def _search_bounds(dim: int, limits: PlannerLimits, p_nominal) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate box of the adversarial search; raises ValidationErrors
    when no transfer vector fits in it."""
    lower = np.full(dim, CLIP_ETA)
    upper = np.full(dim, 1.0 - CLIP_ETA)
    if limits.p_neighborhood_radius is not None and p_nominal is not None:
        pn = np.asarray(p_nominal, dtype=float)
        lower = np.maximum(lower, pn - limits.p_neighborhood_radius)
        upper = np.minimum(upper, pn + limits.p_neighborhood_radius)
    # same tolerance as simplex.project_capped_simplex
    if (lower > upper).any() or lower.sum() > 1.0 + 1e-12 or upper.sum() < 1.0 - 1e-12:
        raise ValidationErrors(
            [
                f"no transfer vector fits the search box around nominal_p "
                f"(p_neighborhood_radius={limits.p_neighborhood_radius}; lower bounds sum "
                f"to {float(lower.sum())!r}, upper bounds to {float(upper.sum())!r})"
            ]
        )
    return lower, upper


def worst_case_direction(
    model: RoutingModel,
    fleet: FleetConfig,
    limits: PlannerLimits,
    p_nominal=None,
    starts: int = ASCENT_STARTS,
    max_iters: int = ASCENT_MAX_ITERS,
) -> WorstCase:
    """Maximize the WIP directional derivative over the clipped simplex.

    Projected gradient ascent with backtracking line search from `starts`
    deterministic Halton starts (plus the nominal point when given).  Start
    points where no station is stable are skipped; if every start is
    unstable the fleet admits no stable operating point and NoStablePoint
    is raised.
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
        step = 0.1
        for _ in range(max_iters):
            grad = _phi_gradient(model, fleet, p)
            direction, gnorm = queueing.projected_gradient(grad)
            if gnorm < 1e-10:
                break
            direction /= gnorm
            alpha, moved = step, False
            while alpha > 1e-12:
                cand = simplex.project_capped_simplex(p + alpha * direction, lower, upper)
                vc = phi(cand)
                if vc is not None and vc > v + 1e-12:
                    p, v = cand, vc
                    step = min(alpha * 2.0, 0.5)
                    moved = True
                    break
                alpha *= 0.5
            if not moved:
                break
    if phi.best_p is None:
        raise NoStablePoint("no stable transfer point found for this fleet")
    x_star, v_star = queueing.steepest_feasible_direction(model, phi.best_p, fleet)
    return WorstCase(
        p_star=tuple(float(x) for x in phi.best_p),
        x_star=tuple(float(x) for x in x_star),
        v_star=float(v_star),
    )


def probe_wip_extremes(
    model: RoutingModel,
    p,
    fleet: FleetConfig,
    epsilon: float,
    directions: int = DELTA_DIRECTIONS,
) -> tuple[float, float]:
    """(max |W(probe) - W(p)|, max W over p and probes).

    Probes sit at p + epsilon*x for a fixed deterministic set of sum-zero
    unit directions, clamped into the clipped simplex.  Instability at the
    base point raises as wip() would; an unstable probe makes both values
    infinite (the fluctuation is unbounded there), reported as data.
    """
    p = np.asarray(p, dtype=float)
    dim = p.size
    lower = np.full(dim, CLIP_ETA)
    upper = np.full(dim, 1.0 - CLIP_ETA)
    dirs = simplex.unit_directions(directions, dim)
    probes = np.vstack(
        [simplex.project_capped_simplex(p + epsilon * d, lower, upper) for d in dirs]
    )
    batch = np.vstack([p[None, :], probes])
    totals, stable = queueing.wip_totals_batch(model, batch, fleet)
    if not stable[0]:
        queueing.wip(model, p, fleet)  # raises with the precise station
    if not stable[1:].all():
        return math.inf, math.inf
    base = totals[0]
    delta = float(np.abs(totals[1:] - base).max()) if len(totals) > 1 else 0.0
    return delta, float(totals.max())


def delta_wip(
    model: RoutingModel,
    p,
    fleet: FleetConfig,
    epsilon: float,
    directions: int = DELTA_DIRECTIONS,
) -> float:
    """Worst observed WIP change when p moves by epsilon along probe directions."""
    delta, _ = probe_wip_extremes(model, p, fleet, epsilon, directions)
    return delta


def check_constraints(
    model: RoutingModel,
    p_nominal,
    fleet: FleetConfig,
    limits: PlannerLimits,
) -> ConstraintReport:
    """Evaluate every planning constraint; failures are data, not errors.

    Keys: fleet_total (sum of counts vs c_max), nominal_wip (W at the
    nominal point vs w_star), wltp_sum and wltp_open_interval (validity of
    the nominal transfer vector), wip_fluctuation (delta_wip vs
    delta_wip_max), wip_hard_cap (max W over the nominal point and all
    fluctuation probes vs u).
    """
    p = np.asarray(p_nominal, dtype=float)
    checks = []

    total = fleet.total
    checks.append(
        ConstraintCheck("fleet_total", total <= limits.c_max, float(total), float(limits.c_max))
    )

    psum = float(p.sum())
    checks.append(
        ConstraintCheck(
            "wltp_sum",
            abs(psum - 1.0) <= queueing.WLTP_SUM_TOL,
            psum,
            1.0,
        )
    )
    margin = float(min(p.min(), 1.0 - p.max()))
    checks.append(
        ConstraintCheck(
            "wltp_open_interval",
            margin > 0.0,
            margin,
            0.0,
            detail="smallest distance of any probability from {0, 1}",
        )
    )

    try:
        nominal = queueing.wip(model, p, fleet).total_wip
        nominal_detail = ""
    except _STABILITY_ERRORS as exc:
        nominal = math.inf
        nominal_detail = exc.code
    checks.append(
        ConstraintCheck(
            "nominal_wip", nominal <= limits.w_star, nominal, limits.w_star, nominal_detail
        )
    )

    if math.isfinite(nominal):
        fluct, wmax = probe_wip_extremes(model, p, fleet, limits.epsilon)
        fluct_detail = ""
    else:
        fluct, wmax = math.inf, math.inf
        fluct_detail = "nominal point unstable"
    checks.append(
        ConstraintCheck(
            "wip_fluctuation",
            fluct <= limits.delta_wip_max,
            fluct,
            limits.delta_wip_max,
            fluct_detail,
        )
    )
    checks.append(
        ConstraintCheck("wip_hard_cap", wmax <= limits.u, wmax, limits.u, fluct_detail)
    )

    mc_exceedance = None
    if limits.mc_samples > 0:
        rng = np.random.default_rng(_MC_SEED)
        draws = rng.dirichlet(np.maximum(limits.mc_alpha * p, 1e-9), size=limits.mc_samples)
        totals, stable = queueing.wip_totals_batch(model, draws, fleet)
        exceed = (~stable) | (np.where(stable, totals, np.inf) > limits.u)
        mc_exceedance = float(exceed.mean())

    return ConstraintReport(checks=tuple(checks), mc_exceedance=mc_exceedance)


@dataclass(frozen=True)
class FleetCandidateSpace:
    """Per-type inclusive (min, max) vehicle-count ranges."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        problems = [
            f"range {i} is ({lo}, {hi}); need 0 <= min <= max"
            for i, (lo, hi) in enumerate(self.bounds)
            if not 0 <= lo <= hi
        ]
        if problems:
            raise ValidationErrors(problems)

    @property
    def count(self) -> int:
        out = 1
        for lo, hi in self.bounds:
            out *= hi - lo + 1
        return out

    def __iter__(self):
        ranges = [range(lo, hi + 1) for lo, hi in self.bounds]
        for counts in itertools.product(*ranges):
            yield FleetConfig(counts=counts)


@dataclass(frozen=True)
class CandidateOutcome:
    fleet: FleetConfig
    feasible: bool
    reasons: tuple[str, ...]
    v_star: float | None
    nominal_wip: float | None
    check_passed: dict

    def to_dict(self) -> dict:
        return {
            "counts": list(self.fleet.counts),
            "feasible": self.feasible,
            "reasons": list(self.reasons),
            "v_star": self.v_star,
            "nominal_wip": self.nominal_wip,
        }


@dataclass(frozen=True)
class PlanResult:
    """Chosen fleet, its worst case, and the audit trail of the search."""

    c_star: FleetConfig
    worst_case: WorstCase
    constraints: ConstraintReport
    nominal_wip: float
    search_mode: str
    examined: tuple[CandidateOutcome, ...]

    def to_dict(self) -> dict:
        return {
            "c_star": list(self.c_star.counts),
            "v_star": self.worst_case.v_star,
            "worst_case": self.worst_case.to_dict(),
            "nominal_wip": self.nominal_wip,
            "search_mode": self.search_mode,
            "constraints": self.constraints.to_dict(),
            "examined": [o.to_dict() for o in self.examined],
        }

    def to_csv_rows(self):
        keys = (
            "fleet_total",
            "wltp_sum",
            "wltp_open_interval",
            "nominal_wip",
            "wip_fluctuation",
            "wip_hard_cap",
        )
        header = ("config", "feasible", "v_star", "nominal_wip") + tuple(
            f"pass_{k}" for k in keys
        )
        rows = []
        for o in self.examined:
            rows.append(
                (
                    ":".join(str(c) for c in o.fleet.counts),
                    "true" if o.feasible else "false",
                    "" if o.v_star is None else repr(o.v_star),
                    "" if o.nominal_wip is None else repr(o.nominal_wip),
                )
                + tuple("true" if o.check_passed.get(k, False) else "false" for k in keys)
            )
        return header, rows


def _order_key(v_star: float, fleet: FleetConfig):
    # primary objective, then fewer vehicles, then lexicographic counts
    return (v_star, fleet.total, fleet.counts)


def _evaluate_candidate(model, fleet, limits, p_nominal) -> tuple[CandidateOutcome, WorstCase | None, ConstraintReport]:
    report = check_constraints(model, p_nominal, fleet, limits)
    passed = {c.key: c.passed for c in report.checks}
    nominal = report["nominal_wip"].measured
    nominal_val = nominal if math.isfinite(nominal) else None
    if not report.all_passed:
        outcome = CandidateOutcome(
            fleet, False, report.failed_keys, None, nominal_val, passed
        )
        return outcome, None, report
    try:
        wc = worst_case_direction(model, fleet, limits, p_nominal)
    except NoStablePoint:
        outcome = CandidateOutcome(
            fleet, False, ("no_stable_point",), None, nominal_val, passed
        )
        return outcome, None, report
    outcome = CandidateOutcome(fleet, True, (), wc.v_star, nominal_val, passed)
    return outcome, wc, report


def plan_fleet(
    model: RoutingModel,
    candidates,
    limits: PlannerLimits,
    p_nominal,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> PlanResult:
    """Pick the feasible fleet with the smallest worst-case WIP growth rate.

    `candidates` is a FleetCandidateSpace or any iterable of FleetConfig.
    Spaces up to `exhaustive_limit` configurations are enumerated outright;
    larger spaces fall back to coordinate descent over vehicle counts from
    the largest config that fits under c_max, accepting only moves that
    improve the (v_star, total, counts) ordering.  The search mode used is
    recorded on the result.
    """
    if isinstance(candidates, FleetCandidateSpace) and candidates.count > exhaustive_limit:
        return _plan_descent(model, candidates, limits, p_nominal)
    examined: list[CandidateOutcome] = []
    best = None  # (key, outcome, wc, report)
    for fleet in candidates:
        outcome, wc, report = _evaluate_candidate(model, fleet, limits, p_nominal)
        examined.append(outcome)
        if wc is None:
            continue
        key = _order_key(wc.v_star, fleet)
        if best is None or key < best[0]:
            best = (key, outcome, wc, report)
    if best is None:
        raise NoFeasibleFleet("no candidate fleet satisfies every constraint")
    _, outcome, wc, report = best
    return PlanResult(
        c_star=outcome.fleet,
        worst_case=wc,
        constraints=report,
        nominal_wip=report["nominal_wip"].measured,
        search_mode="exhaustive",
        examined=tuple(examined),
    )


def _largest_start(space: FleetCandidateSpace, c_max: int) -> FleetConfig:
    # fill types left to right up to their maxima while the total fits
    counts = [lo for lo, _ in space.bounds]
    budget = c_max - sum(counts)
    for i, (lo, hi) in enumerate(space.bounds):
        if budget <= 0:
            break
        add = min(hi - lo, budget)
        counts[i] = lo + add
        budget -= add
    return FleetConfig(counts=tuple(counts))


def _plan_descent(model, space, limits, p_nominal) -> PlanResult:
    examined: list[CandidateOutcome] = []
    cache: dict[tuple, tuple] = {}

    def evaluate(fleet: FleetConfig):
        if fleet.counts not in cache:
            result = _evaluate_candidate(model, fleet, limits, p_nominal)
            cache[fleet.counts] = result
            examined.append(result[0])
        return cache[fleet.counts]

    current = _largest_start(space, limits.c_max)
    outcome, wc, report = evaluate(current)
    frontier = [current]
    # walk to a feasible config first if the start is not
    visited = {current.counts}
    while wc is None and frontier:
        base = frontier.pop(0)
        for neigh in _neighbors(base, space, limits.c_max):
            if neigh.counts in visited:
                continue
            visited.add(neigh.counts)
            outcome, wc, report = evaluate(neigh)
            if wc is not None:
                current = neigh
                break
            frontier.append(neigh)
        if wc is not None:
            break
    if wc is None:
        raise NoFeasibleFleet("coordinate descent found no feasible fleet")
    best = (_order_key(wc.v_star, current), outcome, wc, report)
    improved = True
    while improved:
        improved = False
        for neigh in _neighbors(best[1].fleet, space, limits.c_max):
            outcome, wc_n, report_n = evaluate(neigh)
            if wc_n is None:
                continue
            key = _order_key(wc_n.v_star, neigh)
            if key < best[0]:
                best = (key, outcome, wc_n, report_n)
                improved = True
        # restart the scan from the new incumbent
    _, outcome, wc, report = best
    return PlanResult(
        c_star=outcome.fleet,
        worst_case=wc,
        constraints=report,
        nominal_wip=report["nominal_wip"].measured,
        search_mode="coordinate_descent",
        examined=tuple(examined),
    )


def _neighbors(fleet: FleetConfig, space: FleetCandidateSpace, c_max: int):
    for i in range(len(fleet.counts)):
        for delta in (-1, 1):
            counts = list(fleet.counts)
            counts[i] += delta
            lo, hi = space.bounds[i]
            if not (lo <= counts[i] <= hi):
                continue
            if sum(counts) > c_max:
                continue
            yield FleetConfig(counts=tuple(counts))
