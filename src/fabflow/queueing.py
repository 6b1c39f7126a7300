"""Open queueing-network WIP model over the transfer-probability simplex.

Every station is a pooled exponential server: process stations have a fixed
service rate, transport stations multiply their base rate by the number of
vehicles of their bound type.  Lot arrival rates solve the linear traffic
equations lambda = gamma + R(p)^T lambda, where the routing matrix R may
depend on the transfer-probability vector p.  Steady-state WIP per station
is rho / (1 - rho).

One batched pass, `_solve`, computes the routing matrices (and, when asked,
their derivatives) for a batch of p rows and their arrival rates: one
linear solve certifies which rows are open, a second solves the traffic
equations on those rows.  `wip`, `wip_totals_batch` and the derivatives
read the utilizations and a per-row stability mask from the arrival rates
by one rule, `_utilization`; an unstable row raises NonOpenNetwork, else
ZeroVehicles, else UnstableStation for its first offending station.  The
arrival rates depend on p alone, so the planner solves them once and reads
each fleet's utilizations from them by the same rule.

Derivatives over p are taken in free coordinates: p_0 is the dependent
coordinate, and the i-th partial means the directional derivative along
e_i - e_0 (which stays on the simplex).  They are exact: every routing cell
is a product of factors linear in p, so the product rule differentiates R,
and the adjoint of the traffic equations carries that to total WIP.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import Container, Iterable, Sequence

import numpy as np

from . import simplex
from .errors import (
    InvalidRouting,
    NonOpenNetwork,
    UnstableStation,
    ValidationErrors,
    ZeroVehicles,
    shown,
)

STABILITY_MARGIN = 1e-6        # station is stable when rho <= 1 - this
WLTP_SUM_TOL = 1e-12
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
        out.append(f"probabilities must sum to 1 (got {float(p.sum())!r})")
    if not ((0.0 < p) & (p < 1.0)).all():
        out.append("each probability must lie strictly between 0 and 1")
    return out


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
        problems = []
        # positive conditions, so that NaN fails them
        if not self.mu_base > 0:
            problems.append("mu_base must be positive")
        if not self.gamma >= 0:
            problems.append("gamma must be non-negative")
        if self.kind == StationKind.TRANSPORT and self.vehicle_type is None:
            problems.append("a transport station needs a vehicle_type binding")
        if problems:
            raise InvalidRouting(f"station {self.station_id}: " + "; ".join(problems))


def station_errors(station_id: str, declared: Container[str]) -> list[str]:
    """The rule a station breaks given the ids declared before it: ids are unique."""
    return [f"station id declared twice: {station_id}"] if station_id in declared else []


@dataclass(frozen=True, slots=True)
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
    try:
        if token.startswith("const:"):
            value = float(token[6:])
            if not (0.0 <= value <= 1.0):
                raise InvalidRouting(f"constant routing factor out of [0,1]: {token}")
            return ("const", value)
        if token.startswith("1-p:"):
            return ("comp", int(token[4:]))
        if token.startswith("p:"):
            return ("p", int(token[2:]))
    except ValueError:
        pass
    raise InvalidRouting(f"unparseable routing factor: {token!r}")


def binding_errors(
    frm: str, to: str, factors, stations: Container[str] | None, wltp_dim: int | None,
    earlier: Container[tuple[str, str]],
) -> list[str]:
    """Every rule a routing cell frm -> to breaks, given the (from, to) pairs
    of the cells before it: both stations are known, every p index lies in
    range, and the pair is new.  A None context skips its check."""
    out = []
    if stations is not None:
        for sid in (frm, to):
            if sid not in stations:
                out.append(f"unknown station '{sid}'")
    if wltp_dim is not None:
        for kind, m in factors:
            if kind != "const" and not 0 <= m < wltp_dim:
                out.append(f"p index {m} outside the {wltp_dim} transfer probabilities")
    if (frm, to) in earlier:
        out.append(f"routing cell declared twice: {frm}->{to}")
    return out


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

    Each binding (from, to, factors) sets one routing cell, bound at most
    once, to a product of factors linear in p.  Rows of the routing matrix
    must sum to at most 1; the slack is the probability of leaving the
    network.
    """

    stations: tuple[StationProfile, ...]
    wltp_dim: int
    bindings: tuple[tuple[str, str, tuple], ...]

    def __post_init__(self):
        ids: set[str] = set()
        problems = []
        for s in self.stations:
            problems += station_errors(s.station_id, ids)
            ids.add(s.station_id)
        cells: set[tuple[str, str]] = set()
        for frm, to, factors in self.bindings:
            problems += (
                f"routing {frm}->{to}: {p}"
                for p in binding_errors(frm, to, factors, ids, self.wltp_dim, cells)
            )
            cells.add((frm, to))
        if problems:
            raise InvalidRouting("; ".join(problems))

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
    if (R < 0.0).any():
        row, a, b = np.argwhere(R < 0.0)[0]
        ids = model.station_ids
        raise InvalidRouting(f"routing cell {ids[a]}->{ids[b]} is {R[row, a, b]:.6g} < 0")
    row_sums = R.sum(axis=2)
    if (row_sums > 1.0 + 1e-9).any():
        bad = np.unravel_index(np.argmax(row_sums), row_sums.shape)
        raise InvalidRouting(
            f"routing row for station {model.station_ids[bad[1]]} sums to {row_sums[bad]:.6f} > 1"
        )
    return R, dR, d2R


_NOT_OPEN = "routing keeps lots circulating forever (spectral radius >= 1 - 1e-12)"


def _solve(model: RoutingModel, P, order: int = 0):
    """The one WIP pass over a batch of p rows: R, dR and d2R as _routing
    gives them for `order`, and the arrival rates (N, k) that solve
    lambda = gamma + R(p)^T lambda, NaN on the rows that are not open.

    A row is open when the spectral radius of R is below 1 - 1e-12, decided
    exactly, whatever gamma and the service rates: R >= 0 with row sums at
    most 1, so A = (1 - 1e-12) I - R^T is a Z-matrix, and it is a nonsingular
    M-matrix exactly when A x = 1 has a positive solution (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, 1994, ch. 6).
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    R, dR, d2R = _routing(model, P, order)
    gamma = np.asarray([s.gamma for s in model.stations])
    N, k = R.shape[:2]
    Rt = np.swapaxes(R, 1, 2)
    x = _rowwise_solve((1.0 - 1e-12) * np.eye(k) - Rt, np.ones((N, k, 1)))
    ok = (x > 0.0).all(axis=(1, 2))
    lam = np.full((N, k), np.nan)
    rhs = np.broadcast_to(gamma[:, None], (int(ok.sum()), k, 1))
    lam[ok] = _rowwise_solve(np.eye(k) - Rt[ok], rhs)[:, :, 0]
    return R, dR, d2R, np.maximum(lam, 0.0)


def _rowwise_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a batch, NaN for each system LAPACK finds singular
    (one makes the batched call raise); each row has its one-row call's bits."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full(b.shape, np.nan)
        return np.concatenate([_rowwise_solve(a[None], c[None]) for a, c in zip(A, b)])


def _utilization(lam: np.ndarray, mu: np.ndarray):
    """The utilization rule: service rates broadcast to the (N, k) arrival
    rates, rho = lambda / mu, except that a zero-vehicle station reads 0 when
    idle and inf under traffic, and the (N,) mask of rows whose every station
    sits at rho <= 1 - STABILITY_MARGIN; NaN arrival rates fail it."""
    mu = np.broadcast_to(mu, lam.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = lam / mu
    rho = np.where((mu <= 0.0) & (lam <= _ARRIVAL_EPS), 0.0, rho)
    rho = np.where((mu <= 0.0) & (lam > _ARRIVAL_EPS), np.inf, rho)
    return mu, rho, (rho <= 1.0 - STABILITY_MARGIN).all(axis=1)


def _instability(model: RoutingModel, lam: np.ndarray, mu: np.ndarray) -> Exception:
    """The error of an unstable row, given its arrival and service rates:
    NonOpenNetwork, else ZeroVehicles, else UnstableStation, each for the
    first station it applies to."""
    if np.isnan(lam).any():
        return NonOpenNetwork(_NOT_OPEN)
    zero = np.flatnonzero((mu <= 0.0) & (lam > _ARRIVAL_EPS))
    if zero.size:
        return ZeroVehicles(model.station_ids[zero[0]])
    rho = _utilization(lam[None], mu)[1][0]
    i = np.flatnonzero(rho > 1.0 - STABILITY_MARGIN)[0]
    return UnstableStation(model.station_ids[i], rho[i])


def _wip_totals(lam: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Total WIP of each row of arrival rates under the service rates mu (as
    for _utilization), NaN where the row is unstable, and the stability mask."""
    _, rho, stable = _utilization(lam, mu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        totals = (rho / (1.0 - rho)).sum(axis=1)
    return np.where(stable, totals, np.nan), stable


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

    One call means one batched certificate solve and one batched traffic
    solve on its open rows.  The planner reads the same totals by
    _wip_totals from arrival rates it shares among its fleets.
    """
    mu = service_rates(model, fleet)
    return _wip_totals(_solve(model, P)[3], mu)


def wip(model: RoutingModel, p, fleet: FleetConfig) -> WipReport:
    """Steady-state WIP report at a single p; raises on instability."""
    mu = service_rates(model, fleet)
    lam = _solve(model, p)[3]
    _, rho, stable = _utilization(lam, mu)
    if not stable[0]:
        raise _instability(model, lam[0], mu)
    rho = rho[0]
    per = rho / (1.0 - rho)
    return WipReport(
        station_ids=model.station_ids,
        per_station_wip=tuple(float(x) for x in per),
        utilizations=tuple(float(x) for x in rho),
        total_wip=float(per.sum()),
    )


def _wip_derivatives(
    model: RoutingModel, P, mu: np.ndarray, hessian: bool = False, raise_unstable: bool = True
):
    """Exact free-coordinate WIP gradients (M, n), Hessians (M, n, n) if asked
    (else None), and the (N,) stability mask of the p rows; M counts the
    stable rows, in order.  `mu` is as for _utilization: (k,) or (N, k).

    The adjoint of the traffic equations, after one batched solve for lam:
      w = (I - R)^-1 c,  c = mu / (mu - lam)^2,  dW/dp_j = sum_ab dR_ab/dp_j lam_a w_b;
    differentiating once more, d_i lam = (I - R^T)^-1 d_iR^T lam and
    d_i w = (I - R)^-1 (d_iR w + 2 mu / (mu - lam)^3 d_i lam).
    An unstable row raises the error a direct wip() call there raises,
    unless `raise_unstable` is off; then it is only left out.  A service
    rate too large for c or its slope in floating point raises
    ValidationErrors for the first such row and station.
    """
    R, dR, d2R, lam = _solve(model, P, order=2 if hessian else 1)
    mu, _, stable = _utilization(lam, mu)
    if not stable.all():
        if raise_unstable:
            row = int(np.argmin(stable))
            raise _instability(model, lam[row], mu[row])
        R, dR, lam, mu = R[stable], dR[stable], lam[stable], mu[stable]
        d2R = d2R[stable] if hessian else None
    A = np.eye(lam.shape[1]) - R
    gap = np.where(mu > 0.0, mu - lam, 1.0)  # stable zero-vehicle stations see no traffic
    with np.errstate(over="ignore", invalid="ignore"):
        c, dc_dlam = mu / gap**2, 2.0 * mu / gap**3
    bad = ~(np.isfinite(c) & np.isfinite(dc_dlam))
    if bad.any():
        row, i = np.argwhere(bad)[0]
        raise ValidationErrors([
            f"stations[{i}]: service rate {float(mu[row, i])!r} of station "
            f"{model.station_ids[i]} is too large for the WIP derivatives"
        ])
    w = np.linalg.solve(A, c[:, :, None])[:, :, 0]
    grads = np.einsum("njab,na,nb->nj", dR, lam, w)
    if not hessian:
        return grads, None, stable
    rhs = np.einsum("niab,na->nib", dR, lam)[..., None]
    dlam = np.linalg.solve(np.swapaxes(A, 1, 2)[:, None], rhs)[..., 0]
    rhs = (np.einsum("niab,nb->nia", dR, w) + dc_dlam[:, None, :] * dlam)[..., None]
    dw = np.linalg.solve(A[:, None], rhs)[..., 0]
    hess = (
        np.einsum("nijab,na,nb->nij", d2R, lam, w)
        + np.einsum("njab,nia,nb->nij", dR, dlam, w)
        + np.einsum("njab,na,nib->nij", dR, lam, dw)
    )
    return grads, hess, stable


def wip_gradient(model: RoutingModel, p, fleet: FleetConfig) -> np.ndarray:
    """Free-coordinate WIP gradient: d/dp_i along e_i - e_0, i = 1..n.

    Exact, by the adjoint of the traffic equations; an unstable p raises the
    same error a direct wip() call there would.
    """
    return _wip_derivatives(model, p, service_rates(model, fleet))[0][0]


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


def projected_gradient(g: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Free-coordinate gradient g embedded as (0, g_1..g_n) and projected onto
    the sum-zero subspace, with that projection's norm (phi).  For rows of
    gradients (N, n) the tangents are (N, n + 1) and the norms (N,); each
    row has the bits of its own one-row call."""
    g = np.asarray(g, dtype=float)
    tangent = simplex.project_sum_zero(np.concatenate([np.zeros(g.shape[:-1] + (1,)), g], axis=-1))
    # a stacked 1 x 1 product sums like the one-row dot product; norm(axis=1) does not
    norm = np.sqrt((tangent[..., None, :] @ tangent[..., :, None])[..., 0, 0])
    return tangent, float(norm) if g.ndim == 1 else norm


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
    pts = np.vstack([np.asarray(p, dtype=float) for p in grid])
    return pts, _wip_derivatives(model, pts, service_rates(model, fleet))[0]


def check_monotonicity(
    model: RoutingModel, grid: Sequence, fleet: FleetConfig
) -> MonotonicityReport:
    """Audit the three gradient claims on an explicit grid of p points.

    A claim passes exactly when it has no violation.  The points of a line
    of claim (i, j) share every free coordinate except p_j, rounded to 10
    decimals, so the grid is grouped once per j and each grouping serves
    the p0_decreasing lines of every i != j and the pi_increasing line of
    i = j.
    """
    pts, grads = gradient_grid(model, grid, fleet)
    n = pts.shape[1] - 1
    violations = [
        MonotonicityViolation(
            CLAIM_GRADIENT_POSITIVE, int(i) + 1, "pointwise",
            tuple(pts[idx]), tuple(pts[idx]),
            float(grads[idx, i]), float(grads[idx, i]),
        )
        for idx, i in zip(*np.nonzero(~(grads > 0.0)))
    ]
    line_records = [(
        CLAIM_GRADIENT_POSITIVE, f"all_points[n={len(pts)}]", not violations,
        ";".join(f"{_fmt_point(v.p_a)}:dW/dp{v.coordinate}={v.value_a:.3e}" for v in violations[:4]),
    )]

    rows = pts.tolist()
    free = [tuple(round(v, 10) for v in row[1:]) for row in rows]
    # lines_of[j - 1]: (held coordinates, their text, members by p_0, members by p_j)
    lines_of = []
    for j in range(1, n + 1):
        groups: dict = {}
        for idx, key in enumerate(free):
            groups.setdefault(key[: j - 1] + key[j:], []).append(idx)
        lines_of.append([
            (
                key,
                str(key),
                sorted(members, key=lambda m: rows[m][0]),
                sorted(members, key=lambda m: rows[m][j]),
            )
            for key, members in sorted(groups.items())
            if len(members) > 1
        ])

    # p0_decreasing holds p_i and every other free coordinate except one
    # compensator j, so p_0 trades off against p_j; pi_increasing varies
    # only p_i (p_0 compensates)
    lines = [(CLAIM_P0_DECREASING, i, j) for i in range(1, n + 1) for j in range(1, n + 1) if j != i]
    lines += [(CLAIM_PI_INCREASING, i, i) for i in range(1, n + 1)]
    columns = grads.T.tolist()
    for claim, i, j in lines:
        g = columns[i - 1]
        for key, text, by_p0, by_pj in lines_of[j - 1]:
            if claim == CLAIM_P0_DECREASING:
                label = f"dW/dp{i} along p0 (p{i}={key[0] if n == 2 else text}, trade p{j})"
                pairs = ((a, b) for a, b in zip(by_p0, by_p0[1:]) if g[b] > g[a] + _LINE_TOL)
            else:
                label = f"dW/dp{i} along p{i} (fixed={text})"
                pairs = ((a, b) for a, b in zip(by_pj, by_pj[1:]) if g[b] < g[a] - _LINE_TOL)
            pair = next(pairs, None)
            if pair is None:
                line_records.append((claim, label, True, ""))
                continue
            a, b = pair
            line_records.append((claim, label, False, f"{_fmt_point(pts[a])}->{_fmt_point(pts[b])}"))
            violations.append(
                MonotonicityViolation(claim, i, label, tuple(pts[a]), tuple(pts[b]), g[a], g[b])
            )

    failed = {v.claim for v in violations}
    return MonotonicityReport(
        grid_points=len(pts),
        claim_passed={
            claim: claim not in failed
            for claim in (CLAIM_GRADIENT_POSITIVE, CLAIM_P0_DECREASING, CLAIM_PI_INCREASING)
        },
        line_records=tuple(line_records),
        violations=tuple(violations),
    )


# most points a monotonicity grid may enumerate, counted before any point is
# dropped: the fixtures' grids have 400 points.  An audited point costs more
# as the dimension grows, since each point lies on about n^2 / (values per
# axis) lines: ~20-30 us at dims 3-4, 45 us at dim 6, 0.1 ms at dim 8 and
# 0.4 ms at dim 14 (8,192 points in 2.8-3.3 s; shared 2-core Xeon), so the
# cap is about 0.3 s of audit at dim 3 and 4 s at dim 14
GRID_POINTS_MAX = 10_000
# most rows of monotonicity_lines.csv a grid may plan: the fixtures' grids
# plan 81, and a dim-30 grid wrote 148,481 in about 1 s
GRID_LINES_MAX = 500_000


def grid_from_axes(free_axes: Sequence[Sequence[float]], dim: int) -> list[np.ndarray]:
    """Grid from explicit per-coordinate value lists (free coords 1..n in order).

    This is what scenario metadata carries; p_0 absorbs the remainder and a
    coordinate without an axis is 0.  A point is kept only when every
    coordinate, p_0 included, lies strictly inside (0, 1), the rule
    wltp_errors applies to a nominal p; so a free_axes shorter than dim - 1
    keeps no point.  Raises ValidationErrors unless free_axes is a list of
    at most dim - 1 lists of numbers that leaves at least one point, or
    when the product of the axis lengths is above GRID_POINTS_MAX or the
    line records of its audit above GRID_LINES_MAX (both counted before
    anything is enumerated).
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
    lengths = [len(axis) for axis in free_axes]
    count = math.prod(lengths)
    if count > GRID_POINTS_MAX:
        raise ValidationErrors([
            f"{where}: the axis lengths {shown(lengths)} give "
            f"{count} grid points, more than GRID_POINTS_MAX = {GRID_POINTS_MAX}"
        ])
    # check_monotonicity's records: one for the pointwise claim, and each
    # free coordinate groups the points into count / length lines for each
    # of the dim - 1 claims along it
    records = 1 + (dim - 1) * sum(count // length for length in lengths if length > 1)
    if records > GRID_LINES_MAX:
        raise ValidationErrors([
            f"{where}: the axis lengths {shown(lengths)} plan {records} line records over "
            f"{dim - 1} free coordinates, more than GRID_LINES_MAX = {GRID_LINES_MAX}"
        ])
    points = []
    for combo in itertools.product(*free_axes):
        p = np.zeros(dim)
        p[1 : 1 + len(combo)] = combo
        p[0] = 1.0 - float(np.sum(combo))
        if ((0.0 < p) & (p < 1.0)).all():
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
