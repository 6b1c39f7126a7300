"""Robust fleet sizing against worst-case WIP sensitivity.

The lower level searches the clipped probability simplex for the transfer
point and tangent direction along which total WIP grows fastest; for a fixed
point the best direction is closed-form (the projected gradient), so the
search ascends the projected-gradient norm phi from several deterministic
low-discrepancy starts.  Each start is projected gradient ascent on the
search box (Bertsekas, SIAM J. Control Optim. 20, 1982; Calamai & More,
Math. Programming 39, 1987): the phi gradient projected onto the tangent
cone of the box tells whether the point is a KKT point, where the start
stops, and how far to reach; the step then follows the projection arc of
the phi gradient, so one step can run along a face to a vertex, and
backtracks fourfold until phi rises enough.  The upper level scans fleet
configurations and keeps the feasible one whose worst case is smallest,
tie-breaking toward fewer vehicles and then lexicographically smaller
counts.

Both levels work on groups of fleets.  Every (fleet, start) pair is one row
of a single lockstep ascent: each step is one row-wise projection of the
backtracking candidates and one batched Hessian pass over them, which gives
phi, the steepest direction and the phi gradient of every candidate at
once, so each point is evaluated exactly once.  Each row keeps its own
step, line search and stopping tests, so it follows exactly the path it
would follow alone.  The constraint checks of a plan share one traffic
solve: arrival rates depend on the transfer vector alone, so they are
solved once at the nominal point, the fluctuation probes and the Monte
Carlo draws (in fixed-size chunks), and each fleet reads its utilizations
from them.  The exhaustive scan and the coordinate descent evaluate
candidates through one group step: the checks, then one lockstep ascent of
the candidates that pass, in groups that keep one Hessian batch under a
fixed number of elements.

The stochastic service-level constraint of the underlying model is replaced
by this deterministic worst-case cap (W at every probed point must stay
under the hard limit `u`); an optional Monte Carlo mode reports the
empirical exceedance frequency under a Dirichlet perturbation of the nominal
transfer vector, as data only.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import queueing, simplex
from .errors import NoFeasibleFleet, NoStablePoint, ValidationErrors, param_error
from .queueing import FleetConfig, RoutingModel

CLIP_ETA = 1e-3          # probes stay in [eta, 1 - eta]
ASCENT_STARTS = 16
ASCENT_MAX_ITERS = 500
DELTA_DIRECTIONS = 64
EXHAUSTIVE_LIMIT = 100_000
_MC_SEED = 7654321
# elements of the largest array of one lockstep pass, the second routing
# derivatives (rows, n, n, k, k), 8 MB of floats; plan_fleet ascends its
# candidates in groups that stay under it, though never less than one
_HESSIAN_BATCH_ELEMENTS = 1_000_000
# largest limits.mc_samples; the draws are solved once per plan: `plan` on
# planner_small (k = 3) at this cap takes ~1.5 s
MC_SAMPLES_MAX = 200_000
# elements of the routing matrices (rows, k, k) of one chunk of Monte Carlo
# draws, 8 MB of floats; a plan solves its draws chunk by chunk and keeps
# only their (mc_samples, k) arrival rates
_MC_CHUNK_ELEMENTS = 1_000_000


@dataclass(frozen=True)
class PlannerLimits:
    """Feasibility limits for fleet planning.

    c_max caps the total vehicle count; w_star caps nominal WIP; u is the
    hard WIP cap applied to every probed transfer point; delta_wip_max caps
    the WIP fluctuation radius, the largest WIP change over the fluctuation
    probes at scale epsilon.  p_neighborhood_radius optionally restricts the
    adversarial search to a box around the nominal transfer vector.
    mc_samples > 0 (at most MC_SAMPLES_MAX) turns on the Monte Carlo
    exceedance report (alpha scales the Dirichlet concentration).
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
            param_error(
                "mc_samples", self.mc_samples, f"be non-negative and at most {MC_SAMPLES_MAX}",
                lambda v: 0 <= v <= MC_SAMPLES_MAX, integer=True,
            ),
            param_error(
                "mc_alpha", self.mc_alpha, "be positive and finite",
                lambda v: 0 < v <= sys.float_info.max,
            ),
        ]
        problems = [p for p in problems if p is not None]
        if problems:
            raise ValidationErrors(problems)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
        out = {"all_passed": self.all_passed, "checks": [asdict(c) for c in self.checks]}
        if self.mc_exceedance is not None:
            out["mc_exceedance"] = self.mc_exceedance
        return out


def _phi(model, P: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batched Hessian pass at the rows of P under the service rates of
    each row: phi, the projected-gradient norm, or -inf where the row is
    unstable; the unit steepest direction, 0 where phi is 0; and G, the
    centred phi gradient.  An unstable row reads 0 in the last two."""
    grads, hess, stable = queueing._wip_derivatives(model, P, mu, hessian=True, raise_unstable=False)
    tangent, norm = queueing.projected_gradient(grads)
    v, X, G = np.full(len(P), -np.inf), np.zeros_like(P), np.zeros_like(P)
    v[stable], G[stable] = norm, queueing.projected_gradient(_phi_gradient(tangent, norm, hess))[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        # the bits of steepest_feasible_direction's tangent / norm
        X[stable] = np.where(norm[:, None] == 0.0, 0.0, tangent / norm[:, None])
    return v, X, G


def _phi_gradient(tangent: np.ndarray, v: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Exact free-coordinate gradients of phi from rows of stable WIP
    gradients g, given by their projected gradients t = Pi[0; g] (N, n + 1)
    and norms phi (N,) as queueing.projected_gradient gives them, and their
    Hessians H (N, n, n): grad phi = H^T t[1:] / phi, and 0 where phi = 0."""
    # stacked products: each row has the bits of its one-row hess.T @ t
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (np.swapaxes(hess, 1, 2) @ tangent[:, 1:, None])[..., 0] / v[:, None]
    return np.where(v[:, None] == 0.0, 0.0, out)


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

    Projected gradient ascent on phi from `starts` deterministic Halton
    starts (plus the nominal point when given), all advancing together as
    rows of one lockstep ascent, the one-fleet case of plan_fleet's.  Each
    step moves along the projection arc of the phi gradient, its length set
    by the gradient's tangent-cone projection, and a start stops at a KKT
    point of phi on the search box.  Start points where no station is
    stable are skipped; if every start is unstable the fleet admits no
    stable operating point and NoStablePoint is raised.
    """
    (wc,) = _worst_cases(model, [fleet], limits, p_nominal, starts, max_iters)
    if wc is None:
        raise NoStablePoint("no stable transfer point found for this fleet")
    return wc


def _tangent_cone(G: np.ndarray, P: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Projection of each sum-zero row of G onto the tangent cone of the
    capped simplex at the matching row of P, the sum-zero directions that
    do not leave the box.

    The projection is G - nu on the coordinates it keeps and 0 on the rest,
    where a coordinate held at a bound is dropped while G - nu points out of
    the box there.  Starting from nu = 0, each pass re-decides the drops at
    the current nu and re-centres nu on the mean of the kept coordinates,
    until the drops repeat (Newton's method on the sum of the projection as
    a function of nu).  Passes are capped at one per coordinate.  Each row
    has the bits of its one-row call.
    """
    at_lower, at_upper = P <= lower, P >= upper
    kept = np.ones(G.shape, dtype=bool)
    nu = np.zeros((len(G), 1))
    for _ in range(G.shape[1]):
        now = ~((at_lower & (G < nu)) | (at_upper & (G > nu)))
        if (now == kept).all():
            break
        kept = now
        # a row with every coordinate dropped keeps nothing and reads 0
        count = np.maximum(kept.sum(axis=1, keepdims=True), 1)
        nu = np.where(kept, G, 0.0).sum(axis=1, keepdims=True) / count
    return np.where(kept, G - nu, 0.0)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a stacked 1 x 1 product sums like the one-row dot product
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _worst_cases(
    model: RoutingModel,
    fleets: Sequence[FleetConfig],
    limits: PlannerLimits,
    p_nominal,
    starts: int = ASCENT_STARTS,
    max_iters: int = ASCENT_MAX_ITERS,
) -> list[WorstCase | None]:
    """The worst case of each fleet, None where no start is stable.

    Every (fleet, start) pair is a row, in fleet order and then start order.
    Each point, start or candidate, is evaluated once, by one _phi pass per
    step over every row that tries a point.  A row at a new point p turns:
    it takes G, the centred phi gradient of that pass, and d, G's
    projection onto the tangent cone of the box at p (_tangent_cone).  It
    stops there when |d| < 1e-10, a KKT point of phi on the box (Calamai &
    More, Math. Programming 39, 1987), or when G is not finite.  Otherwise
    it searches along the projection arc, project(p + t G) from t = 1/|d|,
    so that one step can cross the box along the face the cone allows
    (Bertsekas, SIAM J. Control Optim. 20, 1982).  It accepts a candidate
    when phi rises, and by at least 1e-4 G.(cand - p), and turns there;
    otherwise t shrinks fourfold.  A row whose trial point p + t G rounds
    to p cannot rise and stops, and a row stops after max_iters directions.
    Its best point is the first strict maximum over all its evaluations,
    rejected candidates included; a fleet's worst case is its best row, the
    earliest on ties, with the direction and phi its pass gave there.
    """
    if not fleets:
        return []
    dim = model.wltp_dim
    lower, upper = _search_bounds(dim, limits, p_nominal)
    pts = simplex.halton_simplex(starts, dim)
    if p_nominal is not None:
        pts = np.vstack([np.asarray(p_nominal, dtype=float), pts])
    if not len(pts):
        return [None] * len(fleets)
    per = len(pts)
    P = np.tile(simplex.project_capped_simplex(pts, lower, upper), (len(fleets), 1))
    mu = np.repeat([queueing.service_rates(model, f) for f in fleets], per, axis=0)
    v, X, G = _phi(model, P, mu)
    best_v, best_p, best_x = v.copy(), P.copy(), X.copy()
    # a row searches while its step t is positive
    t = np.zeros(len(P))
    iters = np.zeros(len(P), dtype=int)
    turn = np.flatnonzero(v > -np.inf)
    while True:
        turn = turn[iters[turn] < max_iters]
        d = _tangent_cone(G[turn], P[turn], lower, upper)
        dnorm = np.sqrt(_row_dot(d, d))
        # only a finite G makes a shrinking step round to p at last
        keep = (dnorm >= 1e-10) & np.isfinite(G[turn]).all(axis=1)
        t[turn[keep]] = 1.0 / dnorm[keep]
        iters[turn[keep]] += 1
        look = np.flatnonzero(t > 0.0)
        trial = P[look] + t[look, None] * G[look]
        moves = ~(trial == P[look]).all(axis=1)
        t[look[~moves]] = 0.0
        look, trial = look[moves], trial[moves]
        if not look.size:
            break
        cand = simplex.project_capped_simplex(trial, lower, upper)
        vc, xc, gc = _phi(model, cand, mu[look])
        better = vc > best_v[look]
        rows = look[better]
        best_v[rows], best_p[rows], best_x[rows] = vc[better], cand[better], xc[better]
        rise = _row_dot(G[look], cand - P[look])
        up = (vc > v[look]) & (vc >= v[look] + 1e-4 * rise)
        t[look] *= np.where(up, 0.0, 0.25)
        turn = look[up]
        P[turn], v[turn], G[turn] = cand[up], vc[up], gc[up]
    # argmax keeps the earliest row of each fleet on ties
    rows = best_v.reshape(len(fleets), per).argmax(axis=1) + np.arange(0, len(P), per)
    return [
        None if best_v[r] == -np.inf
        else WorstCase(tuple(best_p[r].tolist()), tuple(best_x[r].tolist()), float(best_v[r]))
        for r in rows
    ]


class _ConstraintChecks:
    """The constraint checks of one plan, shared by all of its fleets.

    The transfer-vector checks do not depend on the fleet, and neither do the
    arrival rates: a fleet enters only through its service rates.  So the
    traffic at the nominal point, at the DELTA_DIRECTIONS fluctuation probes
    around it and at the Monte Carlo draws is solved once per plan, each set
    the first time a check needs it (in the order a single check meets them:
    the probes only for a fleet whose nominal point is stable), and every
    fleet reads its utilizations from those arrival rates.
    """

    def __init__(self, model: RoutingModel, p_nominal, limits: PlannerLimits):
        self.model, self.p_nominal, self.limits = model, p_nominal, limits
        self.p = p = np.asarray(p_nominal, dtype=float)
        psum = float(p.sum())
        margin = float(min(p.min(), 1.0 - p.max()))
        self.wltp = (
            ConstraintCheck("wltp_sum", abs(psum - 1.0) <= queueing.WLTP_SUM_TOL, psum, 1.0),
            ConstraintCheck(
                "wltp_open_interval", margin > 0.0, margin, 0.0,
                detail="smallest distance of any probability from {0, 1}",
            ),
        )

    def _traffic(self, P) -> np.ndarray:
        return queueing._solve(self.model, P)[3]

    @functools.cached_property
    def nominal(self) -> np.ndarray:
        return self._traffic(self.p)

    @functools.cached_property
    def probes(self) -> np.ndarray:
        # p + epsilon*x for fixed sum-zero unit directions x, clamped into
        # the clipped simplex
        dim = self.p.size
        dirs = simplex.unit_directions(DELTA_DIRECTIONS, dim)
        return self._traffic(simplex.project_capped_simplex(
            self.p + self.limits.epsilon * dirs, np.full(dim, CLIP_ETA), np.full(dim, 1.0 - CLIP_ETA)
        ))

    @functools.cached_property
    def draws(self) -> np.ndarray:
        # chunks of rng.dirichlet continue one stream, so they draw the rows
        # of one call, and each row's solve is its own: the chunk size moves
        # no bit
        rng = np.random.default_rng(_MC_SEED)
        alpha = np.maximum(self.limits.mc_alpha * self.p, 1e-9)
        n, k = self.limits.mc_samples, len(self.model.stations)
        rows = max(1, _MC_CHUNK_ELEMENTS // (k * k))
        return np.concatenate([
            self._traffic(rng.dirichlet(alpha, size=min(rows, n - start)))
            for start in range(0, n, rows)
        ])

    def report(self, fleet: FleetConfig) -> ConstraintReport:
        limits, model = self.limits, self.model
        mu = queueing.service_rates(model, fleet)
        totals, stable = queueing._wip_totals(self.nominal, mu)
        if stable[0]:
            nominal, nominal_detail = float(totals[0]), ""
            probes, probes_stable = queueing._wip_totals(self.probes, mu)
            if probes_stable.all():
                fluct = float(np.abs(probes - nominal).max())
                wmax = max(nominal, float(probes.max()))
            else:
                # the fluctuation is unbounded at an unstable probe
                fluct = wmax = math.inf
            fluct_detail = ""
        else:
            nominal = fluct = wmax = math.inf
            nominal_detail = queueing._instability(model, self.nominal[0], mu).code
            fluct_detail = "nominal point unstable"
        mc_exceedance = None
        if limits.mc_samples > 0:
            totals, stable = queueing._wip_totals(self.draws, mu)
            mc_exceedance = float((~stable | (totals > limits.u)).mean())
        checks = (
            ConstraintCheck("fleet_total", fleet.total <= limits.c_max, float(fleet.total), float(limits.c_max)),
            *self.wltp,
            ConstraintCheck("nominal_wip", nominal <= limits.w_star, nominal, limits.w_star, nominal_detail),
            ConstraintCheck(
                "wip_fluctuation", fluct <= limits.delta_wip_max, fluct, limits.delta_wip_max, fluct_detail
            ),
            ConstraintCheck("wip_hard_cap", wmax <= limits.u, wmax, limits.u, fluct_detail),
        )
        return ConstraintReport(checks=checks, mc_exceedance=mc_exceedance)


def check_constraints(
    model: RoutingModel,
    p_nominal,
    fleet: FleetConfig,
    limits: PlannerLimits,
) -> ConstraintReport:
    """Evaluate every planning constraint; failures are data, not errors.

    Keys: fleet_total (sum of counts vs c_max), wltp_sum and
    wltp_open_interval (validity of the nominal transfer vector),
    nominal_wip (W at the nominal point vs w_star), wip_fluctuation (the
    largest |W(probe) - W(p)| over the fluctuation probes at scale epsilon
    vs delta_wip_max) and wip_hard_cap (max W over the nominal point and the
    probes vs u).  An unstable nominal point reads inf with the error code
    as detail; an unstable probe makes both probe values inf.  With
    mc_samples > 0 the report carries the Monte Carlo exceedance frequency.
    The one-fleet case of plan_fleet's shared checks.
    """
    return _ConstraintChecks(model, p_nominal, limits).report(fleet)


@dataclass(frozen=True)
class FleetCandidateSpace:
    """Per-type inclusive (min, max) vehicle-count ranges.

    Iteration yields the fleets in product order.  The first one builds
    them all and keeps them, so the examined outcomes of every plan over
    this space share one set of FleetConfig objects; plan_fleet iterates
    only spaces of at most EXHAUSTIVE_LIMIT fleets.
    """

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

    @functools.cached_property
    def _fleets(self) -> tuple[FleetConfig, ...]:
        ranges = [range(lo, hi + 1) for lo, hi in self.bounds]
        return tuple(FleetConfig(counts=counts) for counts in itertools.product(*ranges))

    def __iter__(self):
        return iter(self._fleets)


@dataclass(frozen=True, slots=True)
class CandidateOutcome:
    """One examined fleet; `reasons` names every constraint check it
    failed, or no_stable_point when it passed them all but no start was
    stable."""

    fleet: FleetConfig
    feasible: bool
    reasons: tuple[str, ...]
    v_star: float | None
    nominal_wip: float | None

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
        """One row per examined fleet, with a pass_<key> column per constraint check."""
        keys = [c.key for c in self.constraints.checks]
        header = ("config", "feasible", "v_star", "nominal_wip", *(f"pass_{k}" for k in keys))
        rows = [
            (
                ":".join(str(c) for c in o.fleet.counts),
                "true" if o.feasible else "false",
                "" if o.v_star is None else repr(o.v_star),
                "" if o.nominal_wip is None else repr(o.nominal_wip),
                *("false" if k in o.reasons else "true" for k in keys),
            )
            for o in self.examined
        ]
        return header, rows


def _evaluate(checks: _ConstraintChecks, fleets: Iterable[FleetConfig]):
    """Yield (order key, outcome, worst case, constraint report) of each
    fleet, in order; an infeasible fleet has neither key nor worst case.

    Consecutive fleets form groups, each as large as keeps one Hessian batch
    of its ascent under _HESSIAN_BATCH_ELEMENTS (at least one fleet): a
    group's constraints are checked first, then the fleets that pass them
    are ascended in one lockstep.  The key orders by v_star, then fewer
    vehicles, then lexicographically smaller counts.
    """
    model, limits, p_nominal = checks.model, checks.limits, checks.p_nominal
    rows = ASCENT_STARTS + (p_nominal is not None)
    n, k = model.wltp_dim - 1, len(model.stations)
    size = max(1, _HESSIAN_BATCH_ELEMENTS // max(1, rows * n * n * k * k))
    fleets = iter(fleets)
    while group := list(itertools.islice(fleets, size)):
        reports = [checks.report(fleet) for fleet in group]
        passing = [fleet for fleet, report in zip(group, reports) if report.all_passed]
        worst = iter(_worst_cases(model, passing, limits, p_nominal))
        for fleet, report in zip(group, reports):
            wc = next(worst) if report.all_passed else None
            key = None if wc is None else (wc.v_star, fleet.total, fleet.counts)
            nominal = report["nominal_wip"].measured
            outcome = CandidateOutcome(
                fleet,
                wc is not None,
                report.failed_keys or (() if wc is not None else ("no_stable_point",)),
                None if wc is None else wc.v_star,
                nominal if math.isfinite(nominal) else None,
            )
            yield key, outcome, wc, report


def plan_fleet(
    model: RoutingModel,
    candidates,
    limits: PlannerLimits,
    p_nominal,
) -> PlanResult:
    """Pick the feasible fleet with the smallest worst-case WIP growth rate.

    `candidates` is a FleetCandidateSpace or any iterable of FleetConfig.
    Spaces up to EXHAUSTIVE_LIMIT configurations are enumerated outright;
    larger spaces fall back to coordinate descent over vehicle counts from
    the largest config that fits under c_max, accepting only moves that
    improve the (v_star, total, counts) ordering.  Both searches evaluate
    fleets through one group step: every fleet's constraints are read from
    the plan's one shared traffic solve, then the fleets that pass them are
    ascended together.  The search mode used is recorded on the result.
    """
    checks = _ConstraintChecks(model, p_nominal, limits)
    examined: list[CandidateOutcome] = []

    def evaluate(fleets):
        for result in _evaluate(checks, fleets):
            examined.append(result[1])
            yield result

    if isinstance(candidates, FleetCandidateSpace) and candidates.count > EXHAUSTIVE_LIMIT:
        mode, best = "coordinate_descent", _descend(candidates, limits.c_max, evaluate)
    else:
        mode = "exhaustive"
        feasible = (r for r in evaluate(candidates) if r[0] is not None)
        best = min(feasible, key=lambda r: r[0], default=None)
        if best is None:
            raise NoFeasibleFleet("no candidate fleet satisfies every constraint")
    _, outcome, wc, report = best
    return PlanResult(
        c_star=outcome.fleet,
        worst_case=wc,
        constraints=report,
        nominal_wip=report["nominal_wip"].measured,
        search_mode=mode,
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


def _descend(space: FleetCandidateSpace, c_max: int, evaluate):
    """Coordinate descent; the best (key, outcome, worst case, report).

    From the largest start, walk breadth-first to the first feasible
    config, one fleet at a time; then ask the incumbent's neighbours that
    are not yet evaluated as one group, move to the best of them that beats
    it, and repeat until none does.
    """
    cache: dict[tuple, tuple] = {}

    def ask(fleets):
        new = [fleet for fleet in fleets if fleet.counts not in cache]
        for fleet, result in zip(new, list(evaluate(new))):
            cache[fleet.counts] = result
        return [cache[fleet.counts] for fleet in fleets]

    current = _largest_start(space, c_max)
    (best,) = ask([current])
    frontier = [current]
    while best[0] is None and frontier:
        for neigh in _neighbors(frontier.pop(0), space, c_max):
            if neigh.counts in cache:
                continue
            (best,) = ask([neigh])
            if best[0] is not None:
                break
            frontier.append(neigh)
    if best[0] is None:
        raise NoFeasibleFleet("coordinate descent found no feasible fleet")
    improved = True
    while improved:
        improved = False
        for result in ask(list(_neighbors(best[1].fleet, space, c_max))):
            if result[0] is not None and result[0] < best[0]:
                best, improved = result, True
    return best


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
