"""Open queueing-network WIP model over the transfer-probability simplex.

Every station is a pooled exponential server: process stations have a fixed
service rate, transport stations multiply their base rate by the number of
vehicles of their bound type.  Lot arrival rates solve the linear traffic
equations lambda = gamma + R(p)^T lambda, where the routing matrix R may
depend on the transfer-probability vector p.  Steady-state WIP per station
is rho / (1 - rho).

One batched pass, `_solve`, computes all of this for a batch of p rows:
the routing matrices (and, when asked, their derivatives), one linear solve
for the arrival rates, the service rates, the utilizations and a per-row
stability mask.  `wip`, `wip_totals_batch`, `traffic_equations` and the
derivatives only read it; an unstable row raises NonOpenNetwork, else
ZeroVehicles, else UnstableStation for its first offending station.

Derivatives over p are taken in free coordinates: p_0 is the dependent
coordinate, and the i-th partial means the directional derivative along
e_i - e_0 (which stays on the simplex).  They are exact: every routing cell
is a product of factors linear in p, so the product rule differentiates R,
and the adjoint of the traffic equations carries that to total WIP.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import simplex
from .errors import (
    InvalidDirection,
    InvalidRouting,
    InvalidWltp,
    NonOpenNetwork,
    UnstableStation,
    ValidationErrors,
    ZeroVehicles,
)

STABILITY_MARGIN = 1e-6        # station is stable when rho <= 1 - this
TRAFFIC_RESIDUAL_TOL = 1e-10
WLTP_SUM_TOL = 1e-12
DIRECTION_SUM_TOL = 1e-12
_ARRIVAL_EPS = 1e-12           # arrivals below this count as "no traffic"


# --- transfer-probability vectors ------------------------------------------

def wltp_errors(values: Sequence[float]) -> list[str]:
    """All constraint violations of a candidate transfer-probability vector."""
    p = np.asarray(values, dtype=float)
    out = []
    if p.ndim != 1 or p.size < 2:
        return ["transfer probabilities need at least two entries"]
    # positive conditions, so that NaN fails them
    if not abs(p.sum() - 1.0) <= WLTP_SUM_TOL:
        out.append(f"probabilities must sum to 1 (got {p.sum()!r})")
    if not ((0.0 < p) & (p < 1.0)).all():
        out.append("each probability must lie strictly between 0 and 1")
    return out


@dataclass(frozen=True)
class WltpVector:
    """Validated transfer-probability vector (p_0, ..., p_n)."""

    probs: tuple[float, ...]

    def __post_init__(self):
        errs = wltp_errors(self.probs)
        if errs:
            raise InvalidWltp("; ".join(errs))
        object.__setattr__(self, "probs", tuple(float(x) for x in self.probs))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @property
    def n_free(self) -> int:
        return len(self.probs) - 1


def _as_p(p) -> np.ndarray:
    if isinstance(p, WltpVector):
        return p.array
    return np.asarray(p, dtype=float)


# --- stations, fleets, routing ----------------------------------------------

class StationKind(Enum):
    PROCESS = "process"
    TRANSPORT = "transport"


@dataclass(frozen=True)
class StationProfile:
    """One service station.

    mu_base is lots/hour; for transport stations the effective rate is
    mu_base times the vehicle count of `vehicle_type` (an index into
    FleetConfig.counts).  gamma is the external arrival rate.
    """

    station_id: str
    kind: StationKind
    mu_base: float
    gamma: float = 0.0
    vehicle_type: int | None = None

    def __post_init__(self):
        if self.mu_base <= 0:
            raise InvalidRouting(f"station {self.station_id}: mu_base must be positive")
        if self.gamma < 0:
            raise InvalidRouting(f"station {self.station_id}: gamma must be non-negative")
        if self.kind == StationKind.TRANSPORT and self.vehicle_type is None:
            raise InvalidRouting(
                f"transport station {self.station_id} needs a vehicle_type binding"
            )


@dataclass(frozen=True)
class FleetConfig:
    """Vehicle counts per type."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 or int(c) != c for c in self.counts):
            raise InvalidRouting("vehicle counts must be non-negative integers")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def total(self) -> int:
        return sum(self.counts)


# Routing cells are tiny product expressions over p: "const:0.3", "p:2",
# "1-p:2", or products joined by "*" such as "p:1*1-p:2".  The two simple
# forms cover ordinary fixtures; products exist so that non-monotone routing
# (used by the adversarial fixture) stays serializable.

def _parse_factor(token: str):
    token = token.strip()
    if token.startswith("const:"):
        value = float(token[6:])
        if not (0.0 <= value <= 1.0):
            raise InvalidRouting(f"constant routing factor out of [0,1]: {token}")
        return ("const", value)
    if token.startswith("1-p:"):
        return ("comp", int(token[4:]))
    if token.startswith("p:"):
        return ("p", int(token[2:]))
    raise InvalidRouting(f"unparseable routing factor: {token!r}")


def parse_routing_expr(text: str) -> tuple:
    return tuple(_parse_factor(tok) for tok in text.split("*"))


def routing_expr_to_str(factors: Iterable[tuple]) -> str:
    parts = []
    for kind, value in factors:
        if kind == "const":
            parts.append(f"const:{value}")
        elif kind == "p":
            parts.append(f"p:{value}")
        else:
            parts.append(f"1-p:{value}")
    return "*".join(parts)


@dataclass(frozen=True)
class RoutingModel:
    """Stations plus a p-dependent routing matrix.

    Each binding (from, to, factors) sets one routing cell to a product of
    factors linear in p.  Rows of the routing matrix must sum to at most 1;
    the slack is the probability of leaving the network.
    """

    stations: tuple[StationProfile, ...]
    wltp_dim: int
    bindings: tuple[tuple[str, str, tuple], ...]

    def __post_init__(self):
        ids = [s.station_id for s in self.stations]
        if len(set(ids)) != len(ids):
            raise InvalidRouting("duplicate station ids")
        index = {sid: i for i, sid in enumerate(ids)}
        for frm, to, factors in self.bindings:
            if frm not in index or to not in index:
                raise InvalidRouting(f"routing binding references unknown station {frm}->{to}")
            for kind, value in factors:
                if kind in ("p", "comp") and not (0 <= value < self.wltp_dim):
                    raise InvalidRouting(
                        f"routing binding {frm}->{to} uses p index {value} out of range"
                    )

    @classmethod
    def from_bindings(cls, stations, bindings, wltp_dim) -> "RoutingModel":
        parsed = tuple(
            (frm, to, parse_routing_expr(expr) if isinstance(expr, str) else tuple(expr))
            for frm, to, expr in bindings
        )
        return cls(stations=tuple(stations), wltp_dim=wltp_dim, bindings=parsed)

    @property
    def station_ids(self) -> tuple[str, ...]:
        return tuple(s.station_id for s in self.stations)


def service_rates(model: RoutingModel, fleet: FleetConfig) -> np.ndarray:
    """Effective service rate per station; zero-vehicle transport gives 0."""
    mu = np.empty(len(model.stations))
    for i, st in enumerate(model.stations):
        if st.kind == StationKind.TRANSPORT:
            if st.vehicle_type >= len(fleet.counts):
                raise InvalidRouting(
                    f"station {st.station_id} binds vehicle type {st.vehicle_type}, "
                    f"but the fleet has {len(fleet.counts)} types"
                )
            mu[i] = st.mu_base * fleet.counts[st.vehicle_type]
        else:
            mu[i] = st.mu_base
    return mu


# --- the WIP pass ------------------------------------------------------------

def _routing(model: RoutingModel, P: np.ndarray, order: int):
    """Routing matrices R (N, k, k) for a batch of p rows; for order >= 1 also
    the free-coordinate derivatives dR (N, n, k, k), for order 2 also d2R
    (N, n, n, k, k), else None.

    Cells are products of factors linear in p, so the product rule needs only
    their slopes: along e_j - e_0, p_m moves by +1 when m = j and -1 when m = 0.
    """
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
    row_sums = R.sum(axis=2)
    if (row_sums > 1.0 + 1e-9).any():
        bad = np.unravel_index(np.argmax(row_sums), row_sums.shape)
        raise InvalidRouting(
            f"routing row for station {model.station_ids[bad[1]]} sums to {row_sums[bad]:.6f} > 1"
        )
    return R, dR, d2R


_NOT_OPEN = "routing keeps lots circulating forever (spectral radius >= 1)"


class _Pass(NamedTuple):
    R: np.ndarray                # routing matrices (N, k, k)
    dR: np.ndarray | None        # their free-coordinate derivatives (order >= 1)
    d2R: np.ndarray | None       # and second derivatives (order 2)
    lam: np.ndarray              # arrival rates (N, k); NaN rows are not open
    mu: np.ndarray | None        # service rates (k,); None without a fleet
    rho: np.ndarray | None       # utilizations (N, k)
    stable: np.ndarray | None    # (N,) every station at rho <= 1 - STABILITY_MARGIN


def _solve(model: RoutingModel, P, fleet: FleetConfig | None, order: int = 0) -> _Pass:
    """The one WIP pass over a batch of p rows.

    Solves lambda = gamma + R(p)^T lambda for every row at once.  A row is
    not open (NaN arrival rates) when the spectral radius of R is at or above
    1, or the solution is negative or leaves too large a residual.  Then
    rho = lambda / mu, except that a zero-vehicle station reads 0 when idle
    and inf under traffic; NaN fails the stability test, so a row that is
    not open is never stable.  Without a fleet only the traffic is solved.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    R, dR, d2R = _routing(model, P, order)
    gamma = np.asarray([s.gamma for s in model.stations])
    k = gamma.size
    lam = np.full((P.shape[0], k), np.nan)
    ok = np.abs(np.linalg.eigvals(R)).max(axis=1) < 1.0 - 1e-12
    if ok.any():
        A = np.eye(k)[None, :, :] - np.swapaxes(R[ok], 1, 2)
        rhs = np.broadcast_to(gamma[:, None], (int(ok.sum()), k, 1))
        try:
            sol = np.linalg.solve(A, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            sol = np.full(rhs.shape[:2], np.nan)
        residual = np.abs(sol - (gamma + np.einsum("nij,ni->nj", R[ok], sol))).max(axis=1)
        good = (residual <= TRAFFIC_RESIDUAL_TOL) & (sol > -1e-9).all(axis=1)
        lam[np.flatnonzero(ok)[good]] = sol[good]
    lam = np.maximum(lam, 0.0)
    if fleet is None:
        return _Pass(R, dR, d2R, lam, None, None, None)
    mu = service_rates(model, fleet)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = lam / mu
    rho = np.where((mu <= 0.0) & (lam <= _ARRIVAL_EPS), 0.0, rho)
    rho = np.where((mu <= 0.0) & (lam > _ARRIVAL_EPS), np.inf, rho)
    return _Pass(R, dR, d2R, lam, mu, rho, (rho <= 1.0 - STABILITY_MARGIN).all(axis=1))


def _raise_unstable(model: RoutingModel, s: _Pass, row: int):
    """Raise the error of an unstable row: NonOpenNetwork, else ZeroVehicles,
    else UnstableStation, each for the first station it applies to."""
    lam, rho = s.lam[row], s.rho[row]
    if np.isnan(lam).any():
        raise NonOpenNetwork(_NOT_OPEN)
    zero = np.flatnonzero((s.mu <= 0.0) & (lam > _ARRIVAL_EPS))
    if zero.size:
        raise ZeroVehicles(model.station_ids[zero[0]])
    i = np.flatnonzero(rho > 1.0 - STABILITY_MARGIN)[0]
    raise UnstableStation(model.station_ids[i], rho[i])


def traffic_equations(model: RoutingModel, p) -> np.ndarray:
    """Arrival rate per station for a single p; raises NonOpenNetwork."""
    lam = _solve(model, _as_p(p), None).lam[0]
    if np.isnan(lam).any():
        raise NonOpenNetwork(_NOT_OPEN)
    return lam


# --- WIP ---------------------------------------------------------------------

@dataclass(frozen=True)
class WipReport:
    station_ids: tuple[str, ...]
    per_station_wip: tuple[float, ...]
    utilizations: tuple[float, ...]
    total_wip: float

    def to_csv_rows(self):
        header = ("station", "utilization", "wip")
        rows = [
            (sid, repr(u), repr(w))
            for sid, u, w in zip(self.station_ids, self.utilizations, self.per_station_wip)
        ]
        return header, rows


def wip_totals_batch(
    model: RoutingModel, P: np.ndarray, fleet: FleetConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Total WIP for each p row; unstable (or non-open) rows give NaN.

    The workhorse behind the planner's searches; one call means one batched
    linear solve.
    """
    s = _solve(model, P, fleet)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        totals = (s.rho / (1.0 - s.rho)).sum(axis=1)
    return np.where(s.stable, totals, np.nan), s.stable


def wip(model: RoutingModel, p, fleet: FleetConfig) -> WipReport:
    """Steady-state WIP report at a single p; raises on instability."""
    s = _solve(model, _as_p(p), fleet)
    if not s.stable[0]:
        _raise_unstable(model, s, 0)
    rho = s.rho[0]
    per = rho / (1.0 - rho)
    return WipReport(
        station_ids=model.station_ids,
        per_station_wip=tuple(float(x) for x in per),
        utilizations=tuple(float(x) for x in rho),
        total_wip=float(per.sum()),
    )


def _wip_derivatives(model: RoutingModel, P, fleet: FleetConfig, hessian: bool = False):
    """Exact free-coordinate WIP gradients (N, n) and, if asked, Hessians (N, n, n).

    The adjoint of the traffic equations, after one batched solve for lam:
      w = (I - R)^-1 c,  c = mu / (mu - lam)^2,  dW/dp_j = sum_ab dR_ab/dp_j lam_a w_b;
    differentiating once more, d_i lam = (I - R^T)^-1 d_iR^T lam and
    d_i w = (I - R)^-1 (d_iR w + 2 mu / (mu - lam)^3 d_i lam).
    An unstable row raises the error a direct wip() call there raises; a
    service rate too large for c or its slope in floating point raises
    ValidationErrors.
    """
    s = _solve(model, P, fleet, order=2 if hessian else 1)
    if not s.stable.all():
        _raise_unstable(model, s, int(np.argmin(s.stable)))
    lam, mu, dR = s.lam, s.mu, s.dR
    A = np.eye(lam.shape[1]) - s.R
    gap = np.where(mu > 0.0, mu - lam, 1.0)  # stable zero-vehicle stations see no traffic
    with np.errstate(over="ignore", invalid="ignore"):
        c, dc_dlam = mu / gap**2, 2.0 * mu / gap**3
    finite = (np.isfinite(c) & np.isfinite(dc_dlam)).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValidationErrors([
            f"stations[{i}]: service rate {float(mu[i])!r} of station "
            f"{model.station_ids[i]} is too large for the WIP derivatives"
        ])
    w = np.linalg.solve(A, c[:, :, None])[:, :, 0]
    grads = np.einsum("njab,na,nb->nj", dR, lam, w)
    if not hessian:
        return grads, None
    rhs = np.einsum("niab,na->nib", dR, lam)[..., None]
    dlam = np.linalg.solve(np.swapaxes(A, 1, 2)[:, None], rhs)[..., 0]
    rhs = (np.einsum("niab,nb->nia", dR, w) + dc_dlam[:, None, :] * dlam)[..., None]
    dw = np.linalg.solve(A[:, None], rhs)[..., 0]
    hess = (
        np.einsum("nijab,na,nb->nij", s.d2R, lam, w)
        + np.einsum("njab,nia,nb->nij", dR, dlam, w)
        + np.einsum("njab,na,nib->nij", dR, lam, dw)
    )
    return grads, hess


def wip_gradient(model: RoutingModel, p, fleet: FleetConfig) -> np.ndarray:
    """Free-coordinate WIP gradient: d/dp_i along e_i - e_0, i = 1..n.

    Exact, by the adjoint of the traffic equations; an unstable p raises the
    same error a direct wip() call there would.
    """
    return _wip_derivatives(model, _as_p(p), fleet)[0][0]


def wip_hessian(model: RoutingModel, p, fleet: FleetConfig) -> tuple[np.ndarray, np.ndarray]:
    """Free-coordinate WIP gradient (n,) and Hessian (n, n) at a single p."""
    grads, hess = _wip_derivatives(model, _as_p(p), fleet, hessian=True)
    return grads[0], hess[0]


def directional_derivative(model: RoutingModel, p, x, fleet: FleetConfig) -> float:
    """Derivative of total WIP along a simplex-tangent direction x.

    x has one entry per probability (including the dependent p_0) and must
    sum to zero; the value is linear in x, so unit scaling is up to the
    caller.
    """
    x = np.asarray(x, dtype=float)
    p = _as_p(p)
    if x.shape != p.shape:
        raise InvalidDirection("direction and probability vector sizes differ")
    if abs(x.sum()) > DIRECTION_SUM_TOL:
        raise InvalidDirection(f"direction must sum to zero (got {x.sum()!r})")
    if not x.any():
        return 0.0
    g = wip_gradient(model, p, fleet)
    # unique decomposition x = sum_i x_i (e_i - e_0)
    return float(np.dot(g, x[1:]))


def steepest_feasible_direction(
    model: RoutingModel, p, fleet: FleetConfig
) -> tuple[np.ndarray, float]:
    """Unit sum-zero direction maximizing the WIP derivative, and its value.

    The maximizer is the free-coordinate gradient embedded at (0, g_1..g_n)
    and projected onto the sum-zero subspace; the maximum value is that
    projection's Euclidean norm.
    """
    tangent, norm = projected_gradient(wip_gradient(model, p, fleet))
    if norm == 0.0:
        return np.zeros_like(tangent), 0.0
    return tangent / norm, norm


def projected_gradient(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Free-coordinate gradient g embedded as (0, g_1..g_n) and projected onto
    the sum-zero subspace, with that projection's norm (phi)."""
    tangent = simplex.project_sum_zero(np.concatenate([[0.0], g]))
    return tangent, float(np.linalg.norm(tangent))


# --- monotonicity audit ------------------------------------------------------

CLAIM_GRADIENT_POSITIVE = "gradient_positive"
CLAIM_P0_DECREASING = "p0_decreasing"
CLAIM_PI_INCREASING = "pi_increasing"
_LINE_TOL = 1e-9


@dataclass(frozen=True)
class MonotonicityViolation:
    claim: str
    coordinate: int
    line: str
    p_a: tuple[float, ...]
    p_b: tuple[float, ...]
    value_a: float
    value_b: float


@dataclass(frozen=True)
class MonotonicityReport:
    """Per-claim audit of WIP gradient behaviour on a grid.

    Claims checked:
      gradient_positive: dW/dp_i > 0 at every grid point;
      p0_decreasing: along lines where p_i is held and p_0 grows, dW/dp_i
        never increases;
      pi_increasing: along lines where only p_i (and the dependent p_0)
        moves, dW/dp_i never decreases.
    Violations are data, not errors.
    """

    grid_points: int
    claim_passed: dict
    line_records: tuple
    violations: tuple

    def passed(self, claim: str) -> bool:
        return self.claim_passed[claim]

    @property
    def all_passed(self) -> bool:
        return all(self.claim_passed.values())

    def to_csv_rows(self):
        header = ("claim", "grid_line", "pass", "violating_points")
        rows = [
            (claim, line, "true" if ok else "false", detail)
            for claim, line, ok, detail in self.line_records
        ]
        return header, rows


def _fmt_point(p: np.ndarray) -> str:
    return "(" + ",".join(f"{x:.6f}" for x in p) + ")"


def gradient_grid(
    model: RoutingModel, grid: Sequence, fleet: FleetConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Free-coordinate gradients at every grid point, one batched solve."""
    pts = np.vstack([_as_p(p) for p in grid])
    return pts, _wip_derivatives(model, pts, fleet)[0]


def check_monotonicity(
    model: RoutingModel, grid: Sequence, fleet: FleetConfig
) -> MonotonicityReport:
    """Audit the three gradient claims on an explicit grid of p points."""
    pts, grads = gradient_grid(model, grid, fleet)
    n = pts.shape[1] - 1
    claim_passed = {
        CLAIM_GRADIENT_POSITIVE: True,
        CLAIM_P0_DECREASING: True,
        CLAIM_PI_INCREASING: True,
    }
    line_records = []
    violations = []

    positive_bad = []
    for idx in range(len(pts)):
        for i in range(n):
            if not grads[idx, i] > 0.0:
                positive_bad.append(f"{_fmt_point(pts[idx])}:dW/dp{i + 1}={grads[idx, i]:.3e}")
                claim_passed[CLAIM_GRADIENT_POSITIVE] = False
                violations.append(
                    MonotonicityViolation(
                        CLAIM_GRADIENT_POSITIVE, i + 1, "pointwise",
                        tuple(pts[idx]), tuple(pts[idx]),
                        float(grads[idx, i]), float(grads[idx, i]),
                    )
                )
    line_records.append(
        (
            CLAIM_GRADIENT_POSITIVE,
            f"all_points[n={len(pts)}]",
            not positive_bad,
            ";".join(positive_bad[:4]),
        )
    )

    def _key(values) -> tuple:
        return tuple(round(float(v), 10) for v in values)

    # (claim, target i, traded j, sort axis).  p0_decreasing holds p_i and
    # every other free coordinate except one compensator j, so p_0 trades off
    # against p_j; pi_increasing varies only p_i (p_0 compensates).
    lines = [
        (CLAIM_P0_DECREASING, i, j, 0)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if j != i
    ]
    lines += [(CLAIM_PI_INCREASING, i, i, i) for i in range(1, n + 1)]
    for claim, i, j, axis in lines:
        groups: dict = {}
        for idx in range(len(pts)):
            key = _key(pts[idx][m] for m in range(1, n + 1) if m != j)
            groups.setdefault(key, []).append(idx)
        for key, members in sorted(groups.items()):
            if len(members) < 2:
                continue
            members.sort(key=lambda m: pts[m][axis])
            if claim == CLAIM_P0_DECREASING:
                label = f"dW/dp{i} along p0 (p{i}={key[0] if n == 2 else key}, trade p{j})"
            else:
                label = f"dW/dp{i} along p{i} (fixed={key})"
            ok, detail = True, ""
            for a, b in zip(members, members[1:]):
                if claim == CLAIM_P0_DECREASING:
                    broken = grads[b, i - 1] > grads[a, i - 1] + _LINE_TOL
                else:
                    broken = grads[b, i - 1] < grads[a, i - 1] - _LINE_TOL
                if broken:
                    ok = False
                    claim_passed[claim] = False
                    detail = f"{_fmt_point(pts[a])}->{_fmt_point(pts[b])}"
                    violations.append(
                        MonotonicityViolation(
                            claim, i, label,
                            tuple(pts[a]), tuple(pts[b]),
                            float(grads[a, i - 1]), float(grads[b, i - 1]),
                        )
                    )
                    break
            line_records.append((claim, label, ok, detail))

    return MonotonicityReport(
        grid_points=len(pts),
        claim_passed=claim_passed,
        line_records=tuple(line_records),
        violations=tuple(violations),
    )


def grid_from_axes(free_axes: Sequence[Sequence[float]], dim: int) -> list[np.ndarray]:
    """Grid from explicit per-coordinate value lists (free coords 1..n in order).

    This is what scenario metadata carries; p_0 absorbs the remainder and
    points leaving the open simplex are dropped.  Raises ValidationErrors
    unless free_axes is a list of at most dim - 1 lists of numbers that
    leaves at least one point.
    """
    where = "metadata.monotonicity_grid.free_axes"
    if not (
        isinstance(free_axes, (list, tuple))
        and len(free_axes) <= dim - 1
        and all(
            isinstance(axis, (list, tuple))
            and all(isinstance(v, Real) and not isinstance(v, bool) for v in axis)
            for axis in free_axes
        )
    ):
        raise ValidationErrors([f"{where}: must be a list of at most {dim - 1} lists of numbers"])
    points = []
    for combo in itertools.product(*free_axes):
        p = np.zeros(dim)
        p[1 : 1 + len(combo)] = combo
        p[0] = 1.0 - float(np.sum(combo))
        if 0.0 < p[0] < 1.0:
            points.append(p)
    if not points:
        raise ValidationErrors([f"{where}: no grid point lies inside the open simplex"])
    return points


def build_routing_model(scenario) -> RoutingModel:
    """RoutingModel from a scenario's stations and routing bindings."""
    if not getattr(scenario, "stations", None):
        raise InvalidRouting("scenario has no stations section")
    if scenario.nominal_p is None:
        raise InvalidRouting("scenario has no nominal_p vector")
    return RoutingModel.from_bindings(
        scenario.stations, scenario.routing, wltp_dim=len(scenario.nominal_p)
    )
