"""Geometry helpers for the transfer-probability simplex.

Points live in R^(n+1) with coordinates summing to 1; admissible search
directions live in the sum-zero subspace.  Everything here is deterministic:
start points come from a Halton sequence, direction sets from a fixed-seed
generator, so repeated runs probe identical points.
"""
from __future__ import annotations

import numpy as np

# seed for the fixed direction sets used by fluctuation probes
_DIRECTION_SEED = 20260823


def project_sum_zero(v: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the tangent space {x : sum(x) = 0}, of one
    vector or of each row of a matrix."""
    v = np.asarray(v, dtype=float)
    return v - v.mean(axis=-1, keepdims=True)


def _radical_inverse(index: int, base: int) -> float:
    out, f = 0.0, 1.0 / base
    while index > 0:
        out += f * (index % base)
        index //= base
        f /= base
    return out


def _primes(count: int) -> list[int]:
    """The first `count` primes, by trial division."""
    out: list[int] = []
    candidate = 2
    while len(out) < count:
        if all(candidate % q for q in out if q * q <= candidate):
            out.append(candidate)
        candidate += 1
    return out


def halton(count: int, dims: int) -> np.ndarray:
    """First `count` points of the Halton sequence in [0,1)^dims (1-based).

    Dimension d uses the d-th prime as its base (2, 3, 5, ...).
    """
    bases = _primes(dims)
    pts = np.empty((count, dims))
    for i in range(count):
        for d in range(dims):
            pts[i, d] = _radical_inverse(i + 1, bases[d])
    return pts

def halton_simplex(count: int, dim: int) -> np.ndarray:
    """Low-discrepancy points on the probability simplex with `dim` coordinates.

    Uses the sorted-uniform spacings map: a Halton point in [0,1)^(dim-1) is
    sorted and the gaps of the unit interval become simplex coordinates.
    """
    if dim < 2:
        return np.ones((count, 1))
    cube = halton(count, dim - 1)
    cube.sort(axis=1)
    padded = np.hstack([np.zeros((count, 1)), cube, np.ones((count, 1))])
    return np.diff(padded, axis=1)


def project_capped_simplex(v: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p : sum(p) = 1, lower <= p <= upper}.

    `v` is one point (d,) or one point per row (N, d); `lower` and `upper`
    broadcast against it, and each row has the bits of its own one-row call.
    The projection is clip(v - tau, lower, upper) for the dual shift tau
    solving s(tau) = 1, where s(tau) = sum(clip(v - tau, lower, upper)) is
    non-increasing and piecewise linear with kinks at v - upper and v - lower.
    Evaluating s at the sorted kinks brackets s = 1, and linear interpolation
    between the bracketing kinks gives tau (Kiwiel, Math. Program. 2008).
    In floating point x = v - tau cancels for a point far outside the box,
    so its sum can miss 1 by up to about an ulp of |v| (1e-10 at |v| ~ 1e6);
    the coordinates strictly inside the box take up that miss in equal
    shares, clipped at the bounds, so the ones at a bound stay exactly there.
    Requires sum(lower) <= 1 <= sum(upper) in every row.
    """
    v = np.asarray(v, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), v.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), v.shape)
    if (lower.sum(axis=-1) > 1.0 + 1e-12).any() or (upper.sum(axis=-1) < 1.0 - 1e-12).any():
        raise ValueError("capped simplex is empty for these bounds")
    kinks = np.sort(np.concatenate([v - upper, v - lower], axis=-1), axis=-1)
    sums = np.clip(v[..., None, :] - kinks[..., :, None], lower[..., None, :], upper[..., None, :]).sum(axis=-1)
    # s falls through the ascending kinks, exactly so in floating point (each
    # term is monotone and the summation order is fixed); tau is np.interp(1,
    # s reversed, kinks reversed): the kink where s first reaches 1 (lo) and
    # the one before it (hi) bracket it, and outside the kinks it clamps to
    # the first or last one.  Repeated kinks change neither bracket.
    above = (sums > 1.0).sum(axis=-1, keepdims=True)
    last = kinks.shape[-1] - 1
    k_lo, s_lo = (np.take_along_axis(a, np.minimum(above, last), axis=-1) for a in (kinks, sums))
    k_hi, s_hi = (np.take_along_axis(a, np.maximum(above - 1, 0), axis=-1) for a in (kinks, sums))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = (k_hi - k_lo) / (s_hi - s_lo)
        tau = slope * (1.0 - s_lo) + k_lo
        # np.interp's fallback when that is NaN: from the other end, then the flat value
        back = slope * (1.0 - s_hi) + k_hi
    back = np.where(np.isnan(back) & (k_lo == k_hi), k_lo, back)
    tau = np.where(np.isnan(tau), back, tau)
    tau = np.where((s_lo == 1.0) | (above == 0), k_lo, tau)
    tau = np.where(above > last, kinks[..., -1:], tau)
    x = np.clip(v - tau, lower, upper)
    inside = (x > lower) & (x < upper)
    share = (1.0 - x.sum(axis=-1, keepdims=True)) / np.maximum(inside.sum(axis=-1, keepdims=True), 1)
    return np.clip(np.where(inside, x + share, x), lower, upper)


def unit_directions(count: int, dim: int) -> np.ndarray:
    """`count` deterministic unit vectors in the sum-zero subspace of R^dim.

    Half the set is generated from seeded Gaussians, the other half is the
    negation, so probes are sign-symmetric.
    """
    if dim < 2:
        return np.zeros((count, dim))
    rng = np.random.default_rng(_DIRECTION_SEED)
    half = (count + 1) // 2
    raw = rng.standard_normal((half, dim))
    raw -= raw.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    raw /= norms
    full = np.vstack([raw, -raw])
    return full[:count]
