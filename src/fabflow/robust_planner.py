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
backtracks fourfold until phi rises enough.  The upper level examines every
fleet configuration and keeps the feasible one whose worst case is
smallest, tie-breaking toward fewer vehicles and then lexicographically
smaller counts.  v_star is not monotone in the vehicle counts, so no local
search can stand in for the scan; instead a space of per-type ranges is cut
to the smallest box that holds every fleet within the vehicle cap c_max
(every fleet cut away would fail that cap), and a box of more than
FLEETS_MAX fleets is refused before any fleet is checked.  The scan is
branch and bound (Land & Doig, Econometrica 28, 1960), best first: an
ascent accepts only steps where phi rises, so a fleet's v_star is at least
its bound L, the largest phi at its start points, and a fleet whose L is
above the best v_star found so far is not ascended.

Both levels work on groups of fleets.  Every (fleet, start) pair is one row
of a single lockstep ascent: each step is one row-wise projection of the
backtracking candidates and one batched derivative pass over them, which
gives phi, the steepest direction and the phi gradient of every candidate
at once, so each point is evaluated exactly once.  The phi gradient needs
the WIP Hessian only times the steepest direction, one directional pass.
Each row keeps its own step, line search and stopping tests, so it follows
exactly the path it would follow alone.  The constraint checks of a plan
share one traffic table: arrival rates depend on the transfer vector alone,
so the plan solves them once, for the nominal point and its fluctuation
probes in one pass and then for the Monte Carlo draws in fixed-size chunks,
the first time a group of fleets is checked.  The upper level is one loop
over groups of candidates, each small enough to keep the routing
derivatives of one ascent pass, and the group's probe broadcast, under a
fixed number of elements.  A pass reads the group's checks from one
(fleets, 1 + DELTA_DIRECTIONS, k) broadcast of their service rates against
the table's nominal and probe rows, then takes the bounds of the fleets
that pass from one first-order derivative pass.  Every fleet starts from
the same points, where the routing and arrival rates do not depend on the
fleet, so the plan solves them once and each bound pass reads them by row
index.  The fleets are then ascended in order of bound, in lockstep
groups of the same size, each cut to the fleets that can still win.  The
draw rows are read once, for the fleet the plan keeps: its exceedance is
the only one a plan reports.

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
from typing import Sequence

import numpy as np

from . import queueing, simplex
from .errors import NoFeasibleFleet, NoStablePoint, ValidationErrors, _raise_problems, param_error, shown
from .queueing import FleetConfig, RoutingModel

CLIP_ETA = 1e-3          # probes stay in [eta, 1 - eta]
ASCENT_STARTS = 16
ASCENT_MAX_ITERS = 500
DELTA_DIRECTIONS = 64
# largest number of fleets plan_fleet scans from a FleetCandidateSpace, after
# the cut at c_max: `plan` on planner_small at the cap (99,225 fleets pass
# their checks, 11,340 are ascended past their bound) takes about 9 s; on a
# dimension-14 hub of one vehicle type the bound prunes few fleets, and a plan
# at the cap takes about 5 minutes
FLEETS_MAX = 100_000
_MC_SEED = 7654321
# largest limits.mc_samples; a plan solves the draws once and reads them for
# the kept fleet alone: `plan` on planner_small (k = 3) at this cap takes
# about 0.7 s, and about 1.2 s with ranges (0, 60) and c_max 120 (3,721 fleets)
MC_SAMPLES_MAX = 200_000
# elements of the largest arrays of one batch, 8 MB of floats: the routing
# derivatives (rows, n, k, k) of one lockstep pass (the routing's per-cell
# temporaries (rows, n, B) are no larger, B <= k^2 cells) and the (fleets,
# 1 + DELTA_DIRECTIONS, k) broadcast of a group's fleets against the nominal
# and probe rows, which together size plan_fleet's fleet groups; and the
# routing matrices (rows, k, k) of one chunk of Monte Carlo draws.  Each is
# at least one fleet or one row.
_BATCH_ELEMENTS = 1_000_000


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
        # Dirichlet draw, and the checks report c_max as a float, so their
        # bound is the largest float.  u is compared with w_star only when
        # w_star is a number.
        w_star = self.w_star if isinstance(self.w_star, (int, float)) else -math.inf
        _raise_problems(
            param_error(
                "c_max", self.c_max, "be at least 1 and at most the largest float",
                lambda v: 1 <= v <= sys.float_info.max, integer=True,
            ),
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
        )


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
    """One batched derivative pass at the rows of P under the service rates
    of each row: phi, the projected-gradient norm, or -inf where the row is
    unstable; the unit steepest direction, 0 where phi is 0; and G, the
    centred phi gradient H t[1:] / phi (0 where phi is 0) for the projected
    gradient t and the WIP Hessian H, whose product the pass gives.  An
    unstable row reads 0 in the last two."""
    tangent, norm, ht, stable = queueing._wip_derivatives(model, P, mu, ascent=True)
    v, X, G = np.full(len(P), -np.inf), np.zeros_like(P), np.zeros_like(P)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the bits of steepest_feasible_direction's tangent / norm
        X[stable] = np.where(norm[:, None] == 0.0, 0.0, tangent / norm[:, None])
        grad = np.where(norm[:, None] == 0.0, 0.0, ht / norm[:, None])
    v[stable], G[stable] = norm, queueing.projected_gradient(grad)[0]
    return v, X, G


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


def _start_points(lower: np.ndarray, upper: np.ndarray, p_nominal, starts: int = ASCENT_STARTS):
    """The ascent's start points, shared by every fleet: the nominal point
    when given, then `starts` Halton points, projected onto the search box
    (lower, upper) of _search_bounds."""
    pts = simplex.halton_simplex(starts, len(lower))
    if p_nominal is not None:
        pts = np.vstack([np.asarray(p_nominal, dtype=float), pts])
    return simplex.project_capped_simplex(pts, lower, upper) if len(pts) else pts


def _bounds(model: RoutingModel, fleets: Sequence[FleetConfig], solved) -> np.ndarray:
    """L of each fleet, the largest phi at its start points, -inf where none
    is stable (NaN where some phi is NaN); an ascent accepts only a step
    where phi rises, so a fleet's v_star is at least its L.  `solved` is
    _solve(model, P0, order=1) at the start points P0.  The rows are the
    (fleet, start) pairs of _worst_cases, and one first-order
    _wip_derivatives pass reads that solve by row index, so each phi has
    the bits of _worst_cases's first _phi pass."""
    per = len(solved[2])
    mu = np.repeat(queueing._service_rates(model, fleets), per, axis=0)
    at = np.tile(np.arange(per), len(fleets))
    _, norm, stable = queueing._wip_derivatives(model, None, mu, ascent=True, shared=(solved, at))
    v = np.full(len(at), -np.inf)
    v[stable] = norm
    return v.reshape(len(fleets), per).max(axis=1)


def _worst_cases(
    model: RoutingModel,
    fleets: Sequence[FleetConfig],
    limits: PlannerLimits,
    p_nominal,
    starts: int = ASCENT_STARTS,
    max_iters: int = ASCENT_MAX_ITERS,
    points: np.ndarray | None = None,
) -> list[WorstCase | None]:
    """The worst case of each fleet, None where no start is stable.

    `points` are the fleets' _start_points when the caller has them.
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
    lower, upper = _search_bounds(model.wltp_dim, limits, p_nominal)
    if points is None:
        points = _start_points(lower, upper, p_nominal, starts)
    if not len(points):
        return [None] * len(fleets)
    per = len(points)
    P = np.tile(points, (len(fleets), 1))
    mu = np.repeat(queueing._service_rates(model, fleets), per, axis=0)
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
    plan holds one traffic table, the arrival rates at the nominal point, at
    the DELTA_DIRECTIONS fluctuation probes around it and at the Monte Carlo
    draws, built by the first reports call.  Every group of fleets reads its
    checks from the nominal and probe rows in one broadcast against the
    group's service rates; only report reads the draw rows, for one fleet.
    A routing that is invalid at any row of the table raises InvalidRouting
    on that first call, whatever the fleets.
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

    @functools.cached_property
    def traffic(self) -> np.ndarray:
        """Arrival rates (1 + DELTA_DIRECTIONS + mc_samples, k): the nominal
        point and its probes p + epsilon*x, for fixed sum-zero unit
        directions x clamped into the clipped simplex, from one solve, then
        the Monte Carlo draws."""
        dim, model = self.p.size, self.model
        dirs = simplex.unit_directions(DELTA_DIRECTIONS, dim)
        probes = simplex.project_capped_simplex(
            self.p + self.limits.epsilon * dirs, np.full(dim, CLIP_ETA), np.full(dim, 1.0 - CLIP_ETA)
        )
        # chunks of rng.dirichlet continue one stream, so they draw the rows
        # of one call, and each row's solve is its own: the chunk size moves
        # no bit
        rng = np.random.default_rng(_MC_SEED)
        alpha = np.maximum(self.limits.mc_alpha * self.p, 1e-9)
        n, k = self.limits.mc_samples, len(model.stations)
        rows = max(1, _BATCH_ELEMENTS // (k * k))
        return np.concatenate([
            queueing._solve(model, np.vstack([self.p, probes]))[2],
            *(queueing._solve(model, rng.dirichlet(alpha, size=min(rows, n - start)))[2]
              for start in range(0, n, rows)),
        ])

    def reports(self, fleets: Sequence[FleetConfig]) -> list[ConstraintReport]:
        """The constraint checks of each fleet of a group, without the Monte
        Carlo exceedance: one _wip_totals over the (fleets, 1 +
        DELTA_DIRECTIONS, k) broadcast of their service rates against the
        table's nominal and probe rows, read as column 0 (the nominal point)
        and the probe columns."""
        limits, model = self.limits, self.model
        lam = self.traffic[: 1 + DELTA_DIRECTIONS]
        mu = queueing._service_rates(model, fleets)
        totals, stable = queueing._wip_totals(lam, mu[:, None, :])
        nominal, probes = totals[:, 0], totals[:, 1:]
        # the fluctuation is unbounded at an unstable nominal point or probe
        bounded = stable.all(axis=1)
        out = []
        for fleet, m, ok, w, f, top in zip(
            fleets,
            mu,
            stable[:, 0].tolist(),
            np.where(stable[:, 0], nominal, math.inf).tolist(),
            np.where(bounded, np.abs(probes - nominal[:, None]).max(axis=1), math.inf).tolist(),
            np.where(bounded, np.maximum(nominal, probes.max(axis=1)), math.inf).tolist(),
        ):
            nominal_detail = "" if ok else queueing._instability(model, lam[0], m).code
            fluct_detail = "" if ok else "nominal point unstable"
            out.append(ConstraintReport((
                ConstraintCheck("fleet_total", fleet.total <= limits.c_max, float(fleet.total), float(limits.c_max)),
                *self.wltp,
                ConstraintCheck("nominal_wip", w <= limits.w_star, w, limits.w_star, nominal_detail),
                ConstraintCheck(
                    "wip_fluctuation", f <= limits.delta_wip_max, f, limits.delta_wip_max, fluct_detail
                ),
                ConstraintCheck("wip_hard_cap", top <= limits.u, top, limits.u, fluct_detail),
            )))
        return out

    def report(self, fleet: FleetConfig) -> ConstraintReport:
        """The whole report of one fleet: its checks as reports reads them
        and, with mc_samples > 0, the Monte Carlo exceedance, the share of
        the table's draw rows where the fleet is unstable or its WIP exceeds
        u, from one _wip_totals over those rows."""
        (report,) = self.reports([fleet])
        if not self.limits.mc_samples:
            return report
        mu = queueing.service_rates(self.model, fleet)
        totals, stable = queueing._wip_totals(self.traffic[1 + DELTA_DIRECTIONS :], mu)
        return ConstraintReport(report.checks, float((~stable | (totals > self.limits.u)).mean()))


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
    A routing that is invalid at the nominal point, a probe or a draw
    raises InvalidRouting, whatever the fleet.  The read plan_fleet makes
    once, for the fleet it keeps.
    """
    return _ConstraintChecks(model, p_nominal, limits).report(fleet)


@dataclass(frozen=True)
class FleetCandidateSpace:
    """Per-type inclusive (min, max) vehicle-count ranges.

    Iteration yields the fleets in product order.  The first one builds
    them all and keeps them, so the examined outcomes of every plan over
    this space share one set of FleetConfig objects; plan_fleet iterates
    only boxes of at most FLEETS_MAX fleets (see _within).
    """

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        problems = [
            f"range {i} is ({shown(lo)}, {shown(hi)}); need 0 <= min <= max"
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

    def _within(self, c_max: int) -> FleetCandidateSpace | None:
        """The smallest box that holds every fleet of this space whose total
        is at most c_max, by max_i <- min(max_i, c_max - sum of the other
        minima): this space itself when nothing is cut, None when even the
        minima exceed c_max."""
        spare = c_max - sum(lo for lo, _ in self.bounds)
        if spare < 0:
            return None
        bounds = tuple((lo, min(hi, lo + spare)) for lo, hi in self.bounds)
        return self if bounds == self.bounds else FleetCandidateSpace(bounds)


@dataclass(frozen=True, slots=True)
class CandidateOutcome:
    """One examined fleet; `reasons` names every constraint check it
    failed, or no_stable_point when it passed them all but no start was
    stable, or pruned_by_bound when it passed them all and its bound is
    above the kept fleet's v_star: it is feasible but cannot win, and it
    records no v_star, whether or not the scan ascended it.  v_bound is the
    bound, the largest phi at the fleet's start points, which its v_star is
    at least, for every fleet that passed its checks (-inf when no start is
    stable), else None."""

    fleet: FleetConfig
    feasible: bool
    reasons: tuple[str, ...]
    v_star: float | None
    nominal_wip: float | None
    v_bound: float | None

    def to_dict(self) -> dict:
        return {
            "counts": list(self.fleet.counts),
            "feasible": self.feasible,
            "reasons": list(self.reasons),
            "v_star": self.v_star,
            "v_bound": self.v_bound,
            "nominal_wip": self.nominal_wip,
        }


@dataclass(frozen=True)
class PlanResult:
    """Chosen fleet, its worst case, and the audit trail of the search."""

    c_star: FleetConfig
    worst_case: WorstCase
    constraints: ConstraintReport
    nominal_wip: float
    examined: tuple[CandidateOutcome, ...]
    # the one search there is; artifacts and stdout keep naming it
    search_mode = "exhaustive"

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
        header = ("config", "feasible", "v_star", "v_bound", "nominal_wip", *(f"pass_{k}" for k in keys))
        rows = [
            (
                ":".join(str(c) for c in o.fleet.counts),
                "true" if o.feasible else "false",
                "" if o.v_star is None else repr(o.v_star),
                "" if o.v_bound is None else repr(o.v_bound),
                "" if o.nominal_wip is None else repr(o.nominal_wip),
                *("false" if k in o.reasons else "true" for k in keys),
            )
            for o in self.examined
        ]
        return header, rows


def plan_fleet(
    model: RoutingModel,
    candidates,
    limits: PlannerLimits,
    p_nominal,
) -> PlanResult:
    """Pick the feasible fleet with the smallest worst-case WIP growth rate.

    `candidates` is a FleetCandidateSpace or any iterable of FleetConfig,
    and every fleet of it is examined, in order, in consecutive groups, each
    as large as keeps both the routing derivatives (rows, n, k, k) of one
    ascent pass and the group's (fleets, 1 + DELTA_DIRECTIONS, k) probe
    broadcast under _BATCH_ELEMENTS (at least one fleet).  Each group's
    constraint checks are read from the plan's one traffic table, and the
    fleets that pass them get their bound L (_bounds) from one solve at the
    start points, shared by the plan.

    The upper level is then branch and bound, best first: the fleet of
    smallest (L, total, counts) is ascended alone, then the rest in that
    order in lockstep groups of the same size, each cut to the fleets whose
    L is not above the best v_star so far.  A fleet cut away cannot win, so
    the best fleet, by v_star, then fewer vehicles, then lexicographically
    smaller counts, is the one a scan that ascends every fleet keeps.  The
    records depend on no grouping: a fleet that passes its checks carries
    its L as v_bound, and is pruned_by_bound, feasible with no v_star,
    exactly when its L is above the best fleet's v_star (a NaN L never is).
    A fleet with no stable start (L = -inf) is not ascended and reads
    no_stable_point.

    A space is first cut to FleetCandidateSpace._within(c_max); a fleet cut
    away would fail fleet_total, so neither the best fleet nor its worst
    case changes.  A cut box of more than FLEETS_MAX fleets raises
    ValidationErrors before any fleet is checked, and an empty one (the
    minima alone exceed c_max) raises NoFeasibleFleet, as a scan that finds
    no feasible fleet does.  The best fleet's whole report, with its Monte
    Carlo exceedance, is read once the scan ends, from the same table.
    """
    if isinstance(candidates, FleetCandidateSpace):
        box = candidates._within(limits.c_max)
        if box is not None and box.count > FLEETS_MAX:
            raise ValidationErrors([
                f"fleet_candidates: cut at limits.c_max={limits.c_max}, the ranges hold "
                f"{box.count} fleets; a plan scans at most {FLEETS_MAX}"
            ])
        candidates = () if box is None else box
    checks = _ConstraintChecks(model, p_nominal, limits)
    rows = ASCENT_STARTS + (p_nominal is not None)
    n, k = model.wltp_dim - 1, len(model.stations)
    size = max(1, _BATCH_ELEMENTS // max(1, rows * n * k * k, (1 + DELTA_DIRECTIONS) * k))
    fleets = iter(candidates)
    # every examined fleet with the checks it failed, its nominal WIP and its
    # index among the fleets that pass them all, whose bounds these are
    scanned, passing, bounds = [], [], []
    points = solved = None
    while group := list(itertools.islice(fleets, size)):
        reports = checks.reports(group)
        failed = [report.failed_keys for report in reports]
        ok = [fleet for fleet, keys in zip(group, failed) if not keys]
        if ok:
            if solved is None:
                points = _start_points(*_search_bounds(model.wltp_dim, limits, p_nominal), p_nominal)
                solved = queueing._solve(model, points, order=1)
            bounds.append(_bounds(model, ok, solved))
        for fleet, report, keys in zip(group, reports, failed):
            scanned.append((fleet, keys, report["nominal_wip"].measured, None if keys else len(passing)))
            if not keys:
                passing.append(fleet)
    bound = np.concatenate(bounds) if bounds else np.empty(0)
    L = bound.tolist()
    # best first; a fleet with no stable start (L = -inf) has no ascent to
    # run, and a NaN bound sorts last and is never cut
    pending = np.array(sorted(
        (i for i in range(len(passing)) if L[i] != -math.inf),
        key=lambda i: (math.inf if math.isnan(L[i]) else L[i], passing[i].total, passing[i].counts),
    ), dtype=int)
    v_stars: dict[int, float] = {}
    best, width = None, 1
    while pending.size:
        ascend, pending, width = pending[:width].tolist(), pending[width:], size
        found = _worst_cases(model, [passing[i] for i in ascend], limits, p_nominal, points=points)
        for i, wc in zip(ascend, found):
            v_stars[i] = wc.v_star
            key = (wc.v_star, passing[i].total, passing[i].counts)
            if best is None or key < best[0]:
                best = key, passing[i], wc
        pending = pending[~(bound[pending] > best[0][0])]
    if best is None:
        raise NoFeasibleFleet("no candidate fleet satisfies every constraint")
    (v_best, *_), fleet, wc = best
    examined = []
    for candidate, failed, nominal, i in scanned:
        if i is None:
            feasible, reasons, v_star = False, failed, None
        elif L[i] > v_best:
            feasible, reasons, v_star = True, ("pruned_by_bound",), None
        elif L[i] == -math.inf:
            feasible, reasons, v_star = False, ("no_stable_point",), None
        else:
            feasible, reasons, v_star = True, (), v_stars[i]
        examined.append(CandidateOutcome(
            candidate, feasible, reasons, v_star,
            nominal if math.isfinite(nominal) else None,
            None if i is None else L[i],
        ))
    report = checks.report(fleet)
    return PlanResult(
        c_star=fleet,
        worst_case=wc,
        constraints=report,
        nominal_wip=report["nominal_wip"].measured,
        examined=tuple(examined),
    )
